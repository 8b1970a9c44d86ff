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
sum and those coefficients once; `sixj` reads them from here.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact import (DomainError, HalfInt, QuadExt, factorial,
                    minus_one_pow, sqrt_canonicalize)
from .linalg import (clear_denominators, diag_mul_right, diagonal, is_zero_matrix,
                     mat_mul)

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
    """X = U^(1/2) M U^(1/2) with rational weights u and rational core M.

    `ucore_lcm` is the lcm L of the denominators of M U and `int_ucore`
    the integer core N = L * (M U), the one product form of X;
    `int_weights` are the weights u cleared to positive integers.
    `sign_hat` is N D0 N, the hat of the sign diagonal, built once here
    because every scan cell and sign-conjugation check of the level reads
    it."""

    __slots__ = ("range", "weights", "core", "ucore_lcm", "int_ucore",
                 "int_weights", "sign_hat", "_involutive")

    def __init__(self, rng: LevelRange, weights, core):
        self.range = rng
        self.weights = tuple(weights)
        self.core = tuple(tuple(row) for row in core)
        if any(w <= 0 for w in self.weights):
            raise DomainError("gauge weights must be positive")
        self.ucore_lcm, self.int_ucore = clear_denominators(
            [[x * w for x, w in zip(row, self.weights)] for row in self.core])
        self.int_weights = clear_denominators([self.weights])[1][0]
        self.sign_hat = self.hat(sign_diagonal(rng))
        self._involutive = None

    @property
    def dim(self) -> int:
        return self.range.dim

    def hat(self, entries, right=None):
        """L^2 times the hat X D X of the diagonal D with the given entries,
        in gauge form: N D N, one product that skips the zero columns of
        N D, so the hat of a rank-one projector is one outer product.  A
        given right factor replaces the second N: N D right."""
        return mat_mul(diag_mul_right(self.int_ucore, entries), right or self.int_ucore)

    @property
    def involutive(self) -> bool:
        """M symmetric and N N == L^2 I, decided on the first read and kept."""
        if self._involutive is None:
            n = self.int_ucore
            self._involutive = self.core == tuple(zip(*self.core)) and (
                mat_mul(n, n) == diagonal((self.ucore_lcm ** 2,) * self.dim))
        return self._involutive

    def sign_conjugation_residual(self) -> tuple:
        """N D0 N - (-1)^n L D0 N D0 from the current `sign_hat`, zero
        exactly when A D0 A == (-1)^n D0 A D0 (and the Racah sum rule holds)."""
        d0 = sign_diagonal(self.range)
        scale = minus_one_pow(self.range.n) * self.ucore_lcm
        return tuple(tuple(h - scale * di * dj * x
                           for dj, h, x in zip(d0, hat_row, row))
                     for di, hat_row, row in zip(d0, self.sign_hat, self.int_ucore))

    def entry(self, k: int, kp: int) -> QuadExt:
        """Raw entry sqrt(u_k) M_{kk'} sqrt(u_{k'})."""
        i, j = self.range.offset(k), self.range.offset(kp)
        return sqrt_canonicalize(self.core[i][j], self.weights[i] * self.weights[j])

    def diagonal_rational(self, k: int) -> Fraction:
        """Raw diagonal entry u_k M_kk, rational with no radical at all."""
        i = self.range.offset(k)
        return self.weights[i] * self.core[i][i]

    def __repr__(self):
        return f"GaugedMatrix(s={self.range.s}, n={self.range.n}, dim={self.dim})"


def _triangle_sq(x: HalfInt, y: HalfInt, z: HalfInt) -> Fraction:
    """Squared triangle coefficient (a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)!."""
    tx, ty, tz = x.twice, y.twice, z.twice
    return Fraction(
        factorial((tx + ty - tz) // 2)
        * factorial((tx - ty + tz) // 2)
        * factorial((-tx + ty + tz) // 2),
        factorial((tx + ty + tz) // 2 + 1),
    )


def _racah_sum(ta: int, tb: int, te: int, tc: int, td: int, tf: int) -> Fraction:
    """The alternating factorial sum of an admissible 6-j symbol
    {a b e; c d f}, twice each label given: the symbol without its
    triangle radical.  Summed as T_lo times a Horner sum over the term
    ratios T_{t+1}/T_t = -(t+2) prod_j (beta_j - t) / prod_i (t+1 - alpha_i),
    alpha the triad sums and beta the quadrangle sums, in integers from the
    top term down, with one division at the end."""
    alphas = [(ta + tb + te) // 2, (ta + td + tf) // 2,
              (tb + tc + tf) // 2, (tc + td + te) // 2]
    betas = [(ta + tb + tc + td) // 2, (tb + te + td + tf) // 2,
             (te + ta + tf + tc) // 2]
    lo, hi = max(alphas), min(betas)
    if lo > hi:
        return Fraction(0)
    num = den = 1  # the Horner sum 1 + r_t (1 + r_{t+1} (...)) as num / den
    for t in range(hi - 1, lo - 1, -1):
        r_num, r_den = -(t + 2), 1
        for b in betas:
            r_num *= b - t
        for a in alphas:
            r_den *= t + 1 - a
        num, den = r_den * den + r_num * num, r_den * den
    for a in alphas:
        den *= factorial(lo - a)
    for b in betas:
        den *= factorial(b - lo)
    return Fraction(minus_one_pow(lo) * factorial(lo + 1) * num, den)


@lru_cache(maxsize=None)
def _a_matrix_cached(ts: int, n: int) -> GaugedMatrix:
    s, r4 = HalfInt(ts), HalfInt(3 * ts - 2 * n)
    rng = LevelRange.for_level(s, n)
    labels = [HalfInt(2 * ts - 2 * k) for k in rng.indices()]
    sign = minus_one_pow(ts - n)
    weights = [(l.twice + 1) * _triangle_sq(s, s, l) * _triangle_sq(s, r4, l)
               for l in labels]
    core = [[_racah_sum(ts, ts, l.twice, ts, r4.twice, p.twice) for p in labels]
            for l in labels]
    if sign < 0:
        core = [[-x for x in row] for row in core]
    return GaugedMatrix(rng, weights, core)


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
