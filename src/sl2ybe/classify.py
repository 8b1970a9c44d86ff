"""The four-matrix system F, G, H, H~ of the ansatz, its scalars and the
scans built on them: degeneracy, diagonal ratio obstructions, constant
R-matrices, permutation rigidity and the exceptional level.  The ansatz
crosscheck compares the scalar combination with `ybe.braid_residual`, the
one name taken from `ybe`; ground truth is exact gauge computation.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul

from .amatrix import (GaugedMatrix, LevelRange, a_matrix,
                      consecutive_level_ratio, eta, eta_closed_form,
                      rank_one_projector, sign_diagonal, top_level,
                      verify_sign_conjugation)
from .exact import DomainError, HalfInt, QuadExt, minus_one_pow
from .linalg import (clear_denominators, is_zero_matrix, mat_add, span_coordinates,
                     span_rank)
from .spectral import _require_index, constant_root
from .ybe import braid_residual

__all__ = [
    "DegeneracyRecord",
    "ansatz_residual_crosscheck",
    "coeff_functions",
    "constant_m_prime",
    "constant_roots",
    "degeneracy_scan",
    "eta_level4_m3",
    "exceptional_level_combination",
    "fgh_matrices",
    "fgh_operators",
    "level_three_five_ratio",
    "permutation_rigidity",
    "projector_obstruction_check",
    "theta",
]


def theta(s, m: int, n: int) -> int:
    """1 when the distinguished index m lives in the level-n range (the
    shifted coefficient actually appears at this level), else 0."""
    return int(m in LevelRange.for_level(s, n))


def coeff_functions(m: int, eta_mn, f, g) -> tuple:
    """The scalars (F, G, H, H~) multiplying the matrices of
    `fgh_operators` in a level residual of the ansatz, from the values
    f = (f(lam), f(mu), f(lam o mu)) and g likewise, with xi = (-1)^m and
    eta_mn the level's diagonal constant at index m:

        F = f(lam) + f(mu) - f(lam o mu)
        G = g(lam) + g(mu) - g(lam o mu) + xi (f(lam) g(mu) + g(lam) f(mu))
            + g(lam) g(mu) (1 + eta f(lam o mu) + eta^2 g(lam o mu))
        H = g(lam) f(lam o mu) - f(lam) g(lam o mu)
            + xi eta g(lam) f(mu) g(lam o mu)

    and H~ is H with lam and mu swapped.  A level where the index m is
    inactive passes g = 0, which leaves only F."""
    xi = minus_one_pow(m)
    (fl, fm, fc), (gl, gm, gc) = f, g

    def big_h(fx, gx, fy):
        """H at the sample pair (x, y); H~ is H at (mu, lam)."""
        return gx * fc - fx * gc + xi * eta_mn * gx * fy * gc

    big_g = (gl + gm - gc + xi * fl * gm + xi * gl * fm + gl * gm
             + eta_mn * gl * gm * fc + eta_mn * eta_mn * gl * gm * gc)
    return fl + fm - fc, big_g, big_h(fl, gl, fm), big_h(fm, gm, fl)


def _fgh_entries(a: GaugedMatrix, pi, positions) -> tuple:
    """F, G, H and H~ of `fgh_operators` at the given (row, column)
    positions, four tuples: the one entry rule, pi^ read entrywise off N."""
    d0, d0h, core = sign_diagonal(a.range), a.sign_hat, a.int_ucore
    l2, support = a.ucore_lcm ** 2, [l for l, p in enumerate(pi) if p != 0]

    def entry(r, c):
        dh, ph = d0h[r][c], sum(core[r][l] * pi[l] * core[l][c] for l in support)
        eye = l2 if r == c else 0
        return (eye * d0[r] - dh, eye * pi[r] - ph,
                pi[r] * dh - d0[r] * ph, dh * pi[c] - ph * d0[c])
    return tuple(zip(*(entry(r, c) for r, c in positions)))


def fgh_operators(a: GaugedMatrix, pi):
    """F = D0 - D0^, G = pi - pi^, H = pi D0^ - D0 pi^ and H~ = D0^ pi -
    pi^ D0 at the level of a, from the sign diagonal D0 (its hat is the
    cached `sign_hat`) and the entries of pi, each as L^2 times its gauge
    value (the hats are N D N, so the plain diagonals are scaled by L^2 to
    match); integer entries give integer matrices."""
    dim = a.dim
    return tuple(tuple(v[k:k + dim] for k in range(0, dim * dim, dim)) for v in
                 _fgh_entries(a, pi, [(r, c) for r in range(dim) for c in range(dim)]))


def _require_sign_conjugation(s: HalfInt, n: int) -> None:
    if not verify_sign_conjugation(s, n):
        raise AssertionError(f"sign conjugation fails at (s={s}, n={n})")


def fgh_matrices(s, m: int, n: int) -> tuple:
    """The matrices (F, G, H, H~) of `fgh_operators` at level n with
    distinguished index m, in the rational gauge, as integer matrices: L^2
    times their values, a common positive scale that leaves ranks, span
    coordinates and H == H~ unchanged.  Each is read from the cached
    N D0 N, which sign conjugation must fix entrywise: row m of
    N D0 N = (-1)^n L D0 N D0 is the closed form of H, column m that of
    H~, and every entry enters F (README "The four-matrix system")."""
    s = HalfInt.coerce(s)
    a = a_matrix(s, n)
    pi = rank_one_projector(a.range, m)
    _require_sign_conjugation(s, n)
    return fgh_operators(a, pi)


class DegeneracyRecord:
    """One scan cell.  holds_transpose: H == H~ exactly; the scan raises
    unless it equals the scalar-multiple relation (H + H~ a multiple of G).
    beta/beta_tilde record the decomposition H + H~ = beta G +
    beta_tilde F whenever it exists (None, None for an all-zero cell,
    where the scalars are indeterminate).
    """

    __slots__ = ("s", "m", "n", "dim", "shifted", "holds_transpose", "beta",
                 "beta_tilde", "rank")

    def __init__(self, s: HalfInt, m: int, n: int, dim: int, shifted: bool,
                 holds_transpose: bool, beta: Fraction | None,
                 beta_tilde: Fraction | None, rank: int):
        self.s, self.m, self.n, self.dim, self.shifted = s, m, n, dim, shifted
        self.holds_transpose, self.beta, self.beta_tilde = holds_transpose, beta, beta_tilde
        self.rank = rank

    def __eq__(self, other):
        if isinstance(other, DegeneracyRecord):
            return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)
        return NotImplemented


class ScanResult:
    __slots__ = ("records", "skipped")

    def __init__(self):
        self.records, self.skipped = [], []

    @property
    def degeneracies(self):
        return [r for r in self.records if r.holds_transpose]

    def unshifted_degeneracies(self):
        return [r for r in self.degeneracies if not r.shifted]

    def beta_tilde_nonzero(self):
        return [r for r in self.records
                if r.beta_tilde is not None and r.beta_tilde != 0]


def _rank_four_by_projection(a: GaugedMatrix, pi) -> bool:
    """F, G, H, H~ independent on the diagonal, row m and column m (pi at
    m) alone, so in full: rank 4, no relation (README, four-matrix system)."""
    i, dim = pi.index(1), range(a.dim)
    return span_rank([(v,) for v in _fgh_entries(
        a, pi, [(r, r) for r in dim] + [(i, c) for c in dim if c != i]
        + [(r, i) for r in dim if r != i])]) == 4


def _scan_cell(s: HalfInt, m: int, n: int) -> DegeneracyRecord:
    """The record of one active cell of a guarded level.  Hard failure if
    H == H~ and the scalar-multiple relation disagree (they must hold
    simultaneously)."""
    a = a_matrix(s, n)
    rng, pi = a.range, rank_one_projector(a.range, m)
    if _rank_four_by_projection(a, pi):
        return DegeneracyRecord(s, m, n, rng.dim, rng.shifted, holds_transpose=False,
                                beta=None, beta_tilde=None, rank=4)
    big_f, big_g, big_h, big_ht = fgh_operators(a, pi)
    total = mat_add(big_h, big_ht)
    # One elimination serves the rank and the decomposition of H + H~ over
    # G and F: [G, F, H + H~, H, H~] spans the same space as F, G, H, H~.
    coords = span_coordinates([big_g, big_f, total, big_h, big_ht])
    if is_zero_matrix(big_g) and is_zero_matrix(total):
        # dimension-1 levels: every relation is trivial, scalars indeterminate
        holds_multiple, beta, beta_tilde = True, None, None
    else:
        beta, beta_tilde = coords[2] or (None, None)
        # F gets coordinate 0 whenever it adds nothing to span{G}, and when
        # G = 0 a zero F-coordinate means H + H~ = 0.
        holds_multiple = beta_tilde == 0
    holds_transpose = big_h == big_ht
    if holds_transpose != holds_multiple:
        raise AssertionError(
            f"simultaneity violated at (s={s}, m={m}, n={n}): "
            f"transpose={holds_transpose} multiple={holds_multiple}")
    return DegeneracyRecord(s, m, n, rng.dim, rng.shifted, holds_transpose,
                            beta, beta_tilde, rank=sum(c is None for c in coords))


def degeneracy_scan(max_two_s: int = 6) -> ScanResult:
    """Scan every active cell 2 <= m <= 2s <= max_two_s, m <= n <=
    floor(3s), sign conjugation checked once per level; each cell raises
    if its two degeneracy relations disagree."""
    if max_two_s < 2:
        raise DomainError("max_two_s must be at least 2")
    out, guarded = ScanResult(), set()
    for ts in range(2, max_two_s + 1):
        s = HalfInt(ts)
        for m in range(2, ts + 1):
            for n in range(m, top_level(s) + 1):
                if theta(s, m, n) != 1:
                    out.skipped.append({"s": str(s), "m": m, "n": n,
                                        "reason": "index outside level range"})
                    continue
                if (ts, n) not in guarded:
                    _require_sign_conjugation(s, n)
                    guarded.add((ts, n))
                out.records.append(_scan_cell(s, m, n))
    return out


def level_three_five_ratio(s) -> Fraction:
    """Exact ratio A_33^(s,5) / A_33^(s,3) = (10s^2-32s+21)/(s(4s-7))."""
    sf = HalfInt.coerce(s).as_fraction()
    den = sf * (4 * sf - 7)
    if den == 0:
        raise DomainError("ratio undefined at s in {0, 7/4}")
    return (10 * sf * sf - 32 * sf + 21) / den


def constant_roots(s, m: int) -> tuple[QuadExt, QuadExt]:
    """Both roots of 1 + g + eta^2 g^2 = 0 at eta = eta_{m,m}, each
    verified to satisfy the quadratic exactly in Q(sqrt(1-4 eta^2))."""
    s = HalfInt.coerce(s)
    _require_index(s, m)
    eta_mm = eta_closed_form(s, m)
    roots = (constant_root(eta_mm, +1), constant_root(eta_mm, -1))
    for g in roots:
        if not (1 + g + eta_mm * eta_mm * g * g).is_zero:
            raise AssertionError(f"root {g} fails the level-{m} quadratic")
    return roots


def constant_m_prime(s, m: int) -> int:
    """m' = m + 1 for the constant shifted family: the level-m roots never
    satisfy the level-(m+1) quadratic, because a common root g != 0 would
    give (eta_{m+1}^2 - eta_m^2) g^2 = 0 and eta^2 differs between the
    levels.  For m < 2s level m+1 is unshifted and holds index m; at m = 2s
    its range is 1..2s-1, so the bound is vacuous."""
    s = HalfInt.coerce(s)
    _require_index(s, m)
    if m < s.twice:
        eta_m, eta_next = eta(s, m, m), eta(s, m, m + 1)
        if eta_m * eta_m == eta_next * eta_next:
            raise AssertionError(
                f"level-{m} and level-{m + 1} quadratics coincide at s={s}")
    return m + 1


def permutation_rigidity(s, m: int) -> bool:
    """g = 0 is the only deformation: G and H + H~ are exactly linearly
    independent at level n = m, so the coefficient system forces
    g^2 (1 + eta g) = 0 and g^2 = 0."""
    s = HalfInt.coerce(s)
    _require_index(s, m)
    _, big_g, big_h, big_ht = fgh_matrices(s, m, m)
    return span_rank([big_g, mat_add(big_h, big_ht)]) == 2


def projector_obstruction_check(s, m: int) -> bool:
    """No constant solution can drop the top coefficient: every entry
    A_{km}^(s,m) is nonzero and A^(s,m) fails to commute with the rank-one
    projector pi at index m (both exact).  The first decides the second:
    entry (k, m), k != m, of N pi - pi N is N_km = L M_km u_m, L, u_m > 0,
    and level m has dimension m + 1 >= 2."""
    s = HalfInt.coerce(s)
    if not 0 < m <= s.twice:
        raise DomainError(f"m={m} must satisfy 0 < m <= 2s={s.twice}")
    a = a_matrix(s, m)
    col = a.range.offset(m)
    return all(row[col] != 0 for row in a.int_ucore)


def eta_level4_m3(s) -> Fraction:
    """The level-4 diagonal constant at index 3.  For 2s >= 4 this is the
    matrix entry; at 2s = 3 the index leaves the level-4 range and the
    value is continued through the exact consecutive-level diagonal ratio.
    Either route gives 1/2 identically."""
    s = HalfInt.coerce(s)
    if s.twice < 3:
        raise DomainError("needs s >= 3/2")
    if theta(s, 3, 4):
        return eta(s, 3, 4)
    return consecutive_level_ratio(s, 3) * a_matrix(s, 3).diagonal_rational(3)


def exceptional_level_combination(s, lam, mu):
    """The level-4 scalar combination G + H(lam,mu) + H(mu,lam) for the
    m = 3 family with f(x) = x and g(x) = x / (c0 - c1 x) from the level-3
    constants.  It vanishes identically because the level-4 diagonal
    constant is 1/2.  Where index 3 is active at level 4 (2s >= 4), F = 0
    and H = H~ = G, so the level-4 residual is the combination times G:
    the ansatz crosscheck must find it zero exactly when the combination
    is."""
    s = HalfInt.coerce(s)
    if s.twice < 3:
        raise DomainError("needs s >= 3/2")
    xi = minus_one_pow(3)
    eta_33 = eta_closed_form(s, 3)
    c0, c1 = eta_33 - Fraction(xi, 2), xi * eta_33
    f = (lam, mu, lam + mu)
    g = tuple(x / (c0 - c1 * x) for x in f)
    _, big_g, big_h, big_ht = coeff_functions(3, eta_level4_m3(s), f, g)
    value = big_g + big_h + big_ht
    if theta(s, 3, 4) and ansatz_residual_crosscheck(s, 3, 4, f, g) != (value == 0):
        raise AssertionError(f"level-4 residual and scalar combination disagree "
                             f"at (s={s}, {lam}, {mu})")
    return value


def ansatz_residual_crosscheck(s, m: int, n: int, f, g) -> bool:
    """Whether the level-n residual of the ansatz

        D(x) = (E + f(x) D0 + theta g(x) pi) / (1 + f(x))

    is zero at one sample pair, from the rational values f = (f(lam),
    f(mu), f(lam o mu)) and g likewise; a value in Q(sqrt(d)) is refused
    with DomainError.  The residual of the cleared diagonals
    (1 + f(x)) D(x) must equal the scalar combination

        F_{lm} F + G_{lm} G + H_{lm} H + H_{ml} H~

    of `coeff_functions` and the matrices F = D0 - D0^, G = pi - pi^,
    H = pi D0^ - D0 pi^, H~ = D0^ pi - pi^ D0, which `fgh_operators` gives
    as L^2 times their values; a mismatch raises AssertionError.  Both
    sides are compared in integers: with the four scalars cleared to
    integers p_k over their lcm q and the residual kept as R / scale
    (`ReducedResidual`), R q L^2 == scale sum_k p_k FGH_k entry by entry.
    The prefactor (1+f(lam))(1+f(mu))(1+f(lam o mu)) must be nonzero.
    The hat of a cleared diagonal is E + f D0^ + theta g pi^, since the hat
    is linear and A^2 = E.
    """
    s = HalfInt.coerce(s)
    if not all(isinstance(x, (int, Fraction)) for x in (*f, *g)):
        raise DomainError("the ansatz crosscheck takes rational f and g values")
    if (1 + f[0]) * (1 + f[1]) * (1 + f[2]) == 0:
        raise DomainError("sample hits a zero of the 1 + f prefactor")
    a = a_matrix(s, n)
    d0 = sign_diagonal(a.range)
    th = theta(s, m, n)
    pi = rank_one_projector(a.range, m) if th else (0,) * a.dim
    g = tuple(gx * th for gx in g)
    lam, mu, comp = (tuple(1 + fx * e + gx * p for e, p in zip(d0, pi))
                     for fx, gx in zip(f, g))
    resid = braid_residual(a, lam, comp, mu)
    q, (scalars,) = clear_denominators([coeff_functions(m, eta(s, m, n) if th else 0, f, g)])
    left, right = q * a.ucore_lcm ** 2, resid.scale
    if any(left * x != right * sum(map(mul, scalars, cell))
           for r_row, rows in zip(resid.rational, zip(*fgh_operators(a, pi)))
           for x, cell in zip(r_row, zip(*rows))):
        raise AssertionError(f"ansatz residual differs from its scalar combination "
                             f"at (s={s}, m={m}, n={n})")
    return resid.is_zero
