"""The recoupling matrices A^(s,n) in an exact rationalized gauge.

A^(s,n) changes basis between the two embeddings of two-site projectors
into three sites on the highest-weight space of spin 3s-n.  Its raw
entries are square roots of rationals; writing

    A = U^(1/2) M U^(1/2)

with positive rational weights u_k and a symmetric rational core M makes
every product of A with diagonal matrices exactly rational: conjugating
any operator word by U^(-1/2) ... U^(1/2) sends A to M*U and leaves
diagonals untouched.  Each matrix keeps that image, the *ucore*, in one
form: the integer core N = L*(M*U), L the lcm of its denominators.  Every
gauge product runs on N and writes its power of L once (the hat N D N is
L^2 times the image of A D A).

The entries are prefactored 6-j symbols {s s l; s 3s-n p}, l, p = 2s-k:
the weights are (2l+1) times two squared triangle coefficients and the
core is (-1)^(2s-n) times the Racah single sum.  This module defines that
sum and those coefficients once, as integer pairs, and `sixj` reads them
from here; A^(s,n) is built from them in integers, and its rational
weights and core are formed only to be printed.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import (DomainError, HalfInt, QuadExt, factorial, factorials,
                    minus_one_pow, sqrt_canonicalize)
from .linalg import diag_mul_right, diagonal, is_zero_matrix, mat_mul

__all__ = [
    "GaugedMatrix",
    "LevelRange",
    "a_matrix",
    "consecutive_level_ratio",
    "eta",
    "eta_closed_form",
    "rank_one_projector",
    "sign_diagonal",
    "top_level",
    "verify_a_properties",
    "verify_sign_conjugation",
]


def top_level(s: HalfInt) -> int:
    """Largest level n for spin s: floor(3s)."""
    return (3 * s.twice) // 2


class LevelRange:
    """Index range of the level-n highest-weight space for spin s."""

    __slots__ = ("s", "n", "k_min", "k_max")

    def __init__(self, s: HalfInt, n: int, k_min: int, k_max: int):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k_min", k_min)
        object.__setattr__(self, "k_max", k_max)

    def __setattr__(self, *args):
        raise AttributeError("LevelRange is immutable")

    @classmethod
    def for_level(cls, s, n: int) -> "LevelRange":
        s = HalfInt.coerce(s)
        ts = s.twice
        if not 0 <= n <= top_level(s):
            raise DomainError(f"level n={n} outside 0..{top_level(s)} for s={s}")
        if n <= ts:
            return cls(s, n, 0, n)
        return cls(s, n, n - ts, 2 * ts - n)

    @property
    def dim(self) -> int:
        return self.k_max - self.k_min + 1

    def indices(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def __contains__(self, k: int) -> bool:
        return self.k_min <= k <= self.k_max

    def offset(self, k: int) -> int:
        """Position k - k_min of index k in the level; DomainError off it."""
        if k not in self:
            raise DomainError(f"index {k} outside level range "
                              f"{self.k_min}..{self.k_max} at n={self.n}")
        return k - self.k_min

    @property
    def shifted(self) -> bool:
        return self.n > self.s.twice


def sign_diagonal(rng: LevelRange) -> tuple:
    """Entries (-1)^k of the alternating diagonal D0 over a level range."""
    return tuple(minus_one_pow(k) for k in rng.indices())


def rank_one_projector(rng: LevelRange, m: int) -> tuple:
    """Entries delta_{km} of the rank-one projector pi over a level range."""
    i = rng.offset(m)
    return tuple(int(j == i) for j in range(rng.dim))


class GaugedMatrix:
    """X = U^(1/2) M U^(1/2) with positive rational weights u and a
    symmetric rational core M, held in integers: W = `int_weights` is u
    times `weights_lcm`, and N = `int_ucore` = L (M U), L = `ucore_lcm`,
    the one product form of X.  One pass over N gives N N, which decides
    `involutive`, and `sign_hat` = N D0 N, which every scan cell and
    sign-conjugation check of the level reads."""

    __slots__ = ("range", "weights_lcm", "int_weights", "ucore_lcm", "int_ucore",
                 "sign_hat", "involutive")

    def __init__(self, rng: LevelRange, weights_lcm: int, int_weights, ucore_lcm: int,
                 int_ucore):
        self.range, self.weights_lcm, self.ucore_lcm = rng, weights_lcm, ucore_lcm
        self.int_weights, self.int_ucore = tuple(int_weights), tuple(map(tuple, int_ucore))
        if any(w <= 0 for w in self.int_weights):
            raise DomainError("gauge weights must be positive")
        n, w, dim = self.int_ucore, self.int_weights, self.dim
        square, hat = [], []  # N N = P + Q and N D0 N = P - Q, with P and Q
        for row in n:         # the terms of N N at the k where (-1)^k = 1 and -1
            pq = [[0] * dim, [0] * dim]
            for k, (x, n_row) in enumerate(zip(row, n), rng.k_min):
                if x:
                    pq[k % 2] = [y + x * z for y, z in zip(pq[k % 2], n_row)]
            square.append(tuple(p + q for p, q in zip(*pq)))
            hat.append(tuple(p - q for p, q in zip(*pq)))
        self.sign_hat = tuple(hat)
        # M symmetric is W_i N_ij == W_j N_ji, as u is proportional to W
        symmetric = all(w[i] * n[i][j] == w[j] * n[j][i] for i in range(dim) for j in range(i))
        self.involutive = symmetric and tuple(square) == diagonal((ucore_lcm ** 2,) * dim)

    @property
    def dim(self) -> int:
        return self.range.dim

    @property
    def weights(self) -> tuple:
        return tuple(Fraction(w, self.weights_lcm) for w in self.int_weights)

    @property
    def core(self) -> tuple:
        """The rational core M, M_kk' = N_kk' / (L u_k'), formed on read."""
        c, lcm = self.weights_lcm, self.ucore_lcm
        return tuple(tuple(Fraction(x * c, lcm * w) for x, w in zip(row, self.int_weights))
                     for row in self.int_ucore)

    def hat(self, entries, right=None):
        """L^2 times the hat X D X of the diagonal D with the given entries,
        in gauge form: N D N, one product that skips the zero columns of
        N D, so the hat of a rank-one projector is one outer product.  A
        given right factor replaces the second N: N D right."""
        return mat_mul(diag_mul_right(self.int_ucore, entries), right or self.int_ucore)

    def sign_conjugation_residual(self) -> tuple:
        """N D0 N - (-1)^n L D0 N D0 from the current `sign_hat`, zero
        exactly when A D0 A == (-1)^n D0 A D0 (and the Racah sum rule holds)."""
        d0 = sign_diagonal(self.range)
        scale = minus_one_pow(self.range.n) * self.ucore_lcm
        return tuple(tuple(h - scale * di * dj * x
                           for dj, h, x in zip(d0, hat_row, row))
                     for di, hat_row, row in zip(d0, self.sign_hat, self.int_ucore))

    def entry(self, k: int, kp: int) -> QuadExt:
        """Raw entry sqrt(u_k) M_{kk'} sqrt(u_{k'}) = (N_{kk'} / L) sqrt(W_k / W_{k'})."""
        i, j = self.range.offset(k), self.range.offset(kp)
        return sqrt_canonicalize(Fraction(self.int_ucore[i][j], self.ucore_lcm),
                                 Fraction(self.int_weights[i], self.int_weights[j]))

    def diagonal_rational(self, k: int) -> Fraction:
        """Raw diagonal entry u_k M_kk = N_kk / L, with no radical at all."""
        i = self.range.offset(k)
        return Fraction(self.int_ucore[i][i], self.ucore_lcm)

    def __repr__(self):
        return f"GaugedMatrix(s={self.range.s}, n={self.range.n}, dim={self.dim})"


def _triangle_sq(*triads) -> tuple:
    """The product of the squared triangle coefficients
    (a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)! of the triads, twice each label
    given, as an integer pair (numerator, denominator)."""
    num = den = 1
    for tx, ty, tz in triads:
        f = factorials((tx + ty + tz) // 2 + 1)
        num *= f[(tx + ty - tz) // 2] * f[(tx - ty + tz) // 2] * f[(-tx + ty + tz) // 2]
        den *= f[(tx + ty + tz) // 2 + 1]
    return num, den


def _racah_sum(ta: int, tb: int, te: int, tc: int, td: int, tf: int) -> tuple:
    """The alternating factorial sum of an admissible 6-j symbol
    {a b e; c d f}, twice each label given: the symbol without its
    triangle radical, as an integer pair (numerator, denominator > 0).
    Summed as T_lo times a Horner sum over the term ratios
    T_{t+1}/T_t = -(t+2) prod_j (beta_j - t) / prod_i (t+1 - alpha_i),
    alpha the triad sums and beta the quadrangle sums, in integers from the
    top term down."""
    a1, a2, a3, a4 = ((ta + tb + te) // 2, (ta + td + tf) // 2,
                      (tb + tc + tf) // 2, (tc + td + te) // 2)
    b1, b2, b3 = ((ta + tb + tc + td) // 2, (tb + te + td + tf) // 2,
                  (te + ta + tf + tc) // 2)
    lo, hi = max(a1, a2, a3, a4), min(b1, b2, b3)
    if lo > hi:
        return 0, 1
    num = den = 1  # the Horner sum 1 + r_t (1 + r_{t+1} (...)) as num / den
    for t in range(hi - 1, lo - 1, -1):
        r_num = -(t + 2) * (b1 - t) * (b2 - t) * (b3 - t)
        r_den = (t + 1 - a1) * (t + 1 - a2) * (t + 1 - a3) * (t + 1 - a4)
        num, den = r_den * den + r_num * num, r_den * den
    f = factorials(max(b1, b2, b3) + 1)
    den *= (f[lo - a1] * f[lo - a2] * f[lo - a3] * f[lo - a4]
            * f[b1 - lo] * f[b2 - lo] * f[b3 - lo])
    return minus_one_pow(lo) * f[lo + 1] * num, den


def _cleared(pairs) -> tuple:
    """(L, L * x) for rationals x given as integer pairs (p, q), q > 0, each
    reduced by one gcd, L the lcm of their reduced denominators."""
    pairs = [(p // (g := math.gcd(p, q)), q // g) for p, q in pairs]
    lcm = math.lcm(*(q for _, q in pairs))
    return lcm, [p * (lcm // q) for p, q in pairs]


@lru_cache(maxsize=None)
def _a_matrix_cached(ts: int, n: int) -> GaugedMatrix:
    rng, tr, sign = LevelRange.for_level(HalfInt(ts), n), 3 * ts - 2 * n, minus_one_pow(ts - n)
    labels = [2 * ts - 2 * k for k in rng.indices()]
    u = [_triangle_sq((ts, ts, tl), (ts, tr, tl)) for tl in labels]
    weights_lcm, w = _cleared([((tl + 1) * p, q) for tl, (p, q) in zip(labels, u)])
    racah = [_racah_sum(ts, ts, tl, ts, tr, tp) for tl in labels for tp in labels]
    ucore_lcm, flat = _cleared([(sign * c * wp, d * weights_lcm)  # M_lp u_p
                                for (c, d), wp in zip(racah, w * rng.dim)])
    return GaugedMatrix(rng, weights_lcm, w, ucore_lcm,
                        [flat[i:i + rng.dim] for i in range(0, len(flat), rng.dim)])


def a_matrix(s, n: int) -> GaugedMatrix:
    """Exact A^(s,n) in gauge form; cached per (s, n)."""
    return _a_matrix_cached(HalfInt.coerce(s).twice, n)


def verify_a_properties(s, n: int) -> bool:
    """A symmetric and its own inverse: the guard the residual kernel reads."""
    return a_matrix(s, n).involutive


def verify_sign_conjugation(s, n: int) -> bool:
    """A D0 A == (-1)^n D0 A D0, D0 the alternating sign diagonal."""
    return is_zero_matrix(a_matrix(s, n).sign_conjugation_residual())


def eta(s, m: int, n: int) -> Fraction:
    """(-1)^n times the (m,m) diagonal entry of A^(s,n), exactly rational.

    The raw diagonal entry sqrt(u_m) M_mm sqrt(u_m) is u_m M_mm: the gauge
    form never creates the radical.
    """
    return minus_one_pow(n) * a_matrix(s, n).diagonal_rational(m)


def eta_closed_form(s, m: int) -> Fraction:
    """Closed form of the level-m diagonal constant,

        eta_{m,m} = (2s)!/(2s-m)! * (4s-2m+1)!/(4s-m+1)!.
    """
    ts = HalfInt.coerce(s).twice
    if not 0 <= m <= ts:
        raise DomainError(f"m={m} outside 0..2s={ts}")
    return Fraction(factorial(ts) * factorial(2 * ts - 2 * m + 1),
                    factorial(ts - m) * factorial(2 * ts - m + 1))


def consecutive_level_ratio(s, m: int) -> Fraction:
    """Exact ratio A_mm^(s,m+1) / A_mm^(s,m) = (m^2 - m - 3ms + s)/(2s)."""
    sf = HalfInt.coerce(s).as_fraction()
    return (Fraction(m * m - m) - 3 * m * sf + sf) / (2 * sf)
