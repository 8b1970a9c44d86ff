"""Classification scans: degeneracy of the four-matrix system, diagonal
ratio obstructions, constant R-matrix analysis, and permutation rigidity.

Ground truth everywhere is direct exact matrix computation in the
rational gauge.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .amatrix import (LevelRange, a_matrix, consecutive_level_ratio, eta,
                      eta_closed_form, rank_one_projector, top_level,
                      verify_sign_conjugation)
from .exact import DomainError, HalfInt, QuadExt, minus_one_pow
from .linalg import is_zero_matrix, mat_add, span_coordinates, span_rank
from .spectral import _require_index, constant_root
from .ybe import (ansatz_residual_crosscheck, coeff_functions, fgh_operators,
                  theta)

__all__ = [
    "DegeneracyRecord",
    "constant_m_prime",
    "constant_roots",
    "degeneracy_scan",
    "eta_level4_m3",
    "exceptional_level_combination",
    "fgh_matrices",
    "level_three_five_ratio",
    "permutation_rigidity",
    "projector_obstruction_check",
]


def fgh_matrices(s, m: int, n: int) -> tuple:
    """The matrices (F, G, H, H~) of `ybe.fgh_operators` at level n with
    distinguished index m, in the rational gauge, as integer matrices: L^2
    times their values, a common positive scale that leaves ranks, span
    coordinates and H == H~ unchanged.  Each is read from the cached
    N D0 N, which sign conjugation must fix entrywise: row m of
    N D0 N = (-1)^n L D0 N D0 is the closed form of H, column m that of
    H~, and every entry enters F (README "The four-matrix system")."""
    s = HalfInt.coerce(s)
    if theta(s, m, n) != 1:
        raise DomainError(f"index m={m} not active at level n={n} for s={s}")
    if not verify_sign_conjugation(s, n):
        raise AssertionError(f"sign conjugation fails at (s={s}, n={n})")
    a = a_matrix(s, n)
    return fgh_operators(a, rank_one_projector(a.range, m))


@dataclass(frozen=True)
class DegeneracyRecord:
    """One scan cell.  holds_transpose: H == H~ exactly; the scan raises
    unless it equals the scalar-multiple relation (H + H~ a multiple of G).
    beta/beta_tilde record the decomposition H + H~ = beta G +
    beta_tilde F whenever it exists (None, None for an all-zero cell,
    where the scalars are indeterminate).
    """

    s: HalfInt
    m: int
    n: int
    dim: int
    shifted: bool
    holds_transpose: bool
    beta: Fraction | None
    beta_tilde: Fraction | None
    rank: int


@dataclass
class ScanResult:
    records: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def degeneracies(self):
        return [r for r in self.records if r.holds_transpose]

    def unshifted_degeneracies(self):
        return [r for r in self.degeneracies if not r.shifted]

    def beta_tilde_nonzero(self):
        return [r for r in self.records
                if r.beta_tilde is not None and r.beta_tilde != 0]


def _scan_cell(s: HalfInt, m: int, n: int) -> DegeneracyRecord:
    """The record of one active cell.  Hard failure if H == H~ and the
    scalar-multiple relation disagree (they must hold simultaneously)."""
    big_f, big_g, big_h, big_ht = fgh_matrices(s, m, n)
    rng = LevelRange.for_level(s, n)
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
    return DegeneracyRecord(
        s=s, m=m, n=n, dim=rng.dim, shifted=rng.shifted,
        holds_transpose=holds_transpose, beta=beta, beta_tilde=beta_tilde,
        rank=sum(c is None for c in coords))


def degeneracy_scan(max_two_s: int = 6) -> ScanResult:
    """Scan every active cell 2 <= m <= 2s <= max_two_s, m <= n <=
    floor(3s); each cell raises if its two degeneracy relations
    disagree."""
    if max_two_s < 2:
        raise DomainError("max_two_s must be at least 2")
    out = ScanResult()
    for ts in range(2, max_two_s + 1):
        s = HalfInt(ts)
        for m in range(2, ts + 1):
            for n in range(m, top_level(s) + 1):
                if theta(s, m, n) != 1:
                    out.skipped.append({"s": str(s), "m": m, "n": n,
                                        "reason": "index outside level range"})
                    continue
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
    levels; at m = 2s the next level carries no constraint and no lower
    coefficients exist, so the bound is vacuous."""
    s = HalfInt.coerce(s)
    _require_index(s, m)
    if 2 * (m + 1) <= 3 * s.twice and theta(s, m, m + 1):
        eta_m = eta(s, m, m)
        eta_next = eta(s, m, m + 1)
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
    # level m <= 2s runs over k = 0..m, so column m of the core is index m
    return all(row[m] != 0 for row in a_matrix(s, m).core)


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
