"""Exact verification of the reduced Yang-Baxter equation

    D(lambda) D^(lambda+mu) D(mu) = D^(mu) D(lambda+mu) D^(lambda),

level by level, where D^ = A D A.  Everything runs on the rational
similarity gauge, where A enters only as its integer core N = L*(M*U)
and the hat is N D N = L^2 D^, so residuals are exact matrices over Q or
Q(sqrt(d)).  They are decided over the integers: with each diagonal
cleared to D_i = (A_i + sqrt(d) B_i) / c_i, the residual times
L^4 c1 c2 c3 is an integer matrix plus sqrt(d) times another.
`full_check` pays for the distinct values of a grid, not for its pairs:
each r_j(x) is evaluated once per check, each level hats each distinct
cleared vector once, and one verdict is taken per distinct triple of
cleared legs and d.  Reusing a verdict is exact: the integer matrices
are a function of those four inputs alone, and the positive scale
decides nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .amatrix import GaugedMatrix, LevelRange, a_matrix, top_level
from .exact import DomainError, QuadExt, rescale_surd
from .linalg import (clear_denominators, diag_mul_left, diag_mul_right,
                     is_zero_matrix, mat_add, mat_mul, mat_scale, mat_sub)
from .spectral import SpectralFamily, reduced_d

__all__ = [
    "ReducedResidual",
    "braid_residual",
    "constant_check",
    "default_grid",
    "full_check",
    "reduced_ybe_check",
    "unitarity_samples",
]

# Two disjoint 6-pair rational sample grids, run as one; all entries
# positive, clear of every catalog pole (poles sit on the negative axis or
# at irrational t).
DEFAULT_GRID = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1), Fraction(2)),
                (Fraction(1, 3), Fraction(1, 5)), (Fraction(3, 2), Fraction(1, 4)),
                (Fraction(2, 5), Fraction(3, 7)), (Fraction(5, 2), Fraction(1, 6)),
                (Fraction(1, 4), Fraction(1, 7)), (Fraction(2), Fraction(3)),
                (Fraction(1, 5), Fraction(2, 3)), (Fraction(7, 3), Fraction(1, 2)),
                (Fraction(3, 8), Fraction(5, 6)), (Fraction(4), Fraction(1, 9)))
# Multiplicative counterparts (t-samples > 1 keep t, u, t*u distinct).
DEFAULT_GRID_MULT = ((Fraction(2), Fraction(3)), (Fraction(2), Fraction(5)),
                     (Fraction(3), Fraction(4)), (Fraction(5), Fraction(2)),
                     (Fraction(7), Fraction(3)), (Fraction(4), Fraction(9)),
                     (Fraction(3), Fraction(5)), (Fraction(2), Fraction(7)),
                     (Fraction(9), Fraction(2)), (Fraction(5), Fraction(3)),
                     (Fraction(6), Fraction(7)), (Fraction(8), Fraction(3)))
# Unitarity needs r_j defined and nonzero at the sample and its mirror;
# these stay clear of every catalog pole and coefficient zero.
UNITARITY_SAMPLES = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 9))
UNITARITY_SAMPLES_MULT = (Fraction(2), Fraction(3), Fraction(9, 2))


def unitarity_samples(fam: SpectralFamily):
    return UNITARITY_SAMPLES_MULT if fam.multiplicative else UNITARITY_SAMPLES


def default_grid(fam: SpectralFamily):
    return DEFAULT_GRID_MULT if fam.multiplicative else DEFAULT_GRID


@dataclass(frozen=True)
class ReducedResidual:
    """Left-minus-right of a level's reduced equation at one sample pair,
    in the rational gauge of that level, kept cleared to integers: the exact
    residual is (rational + sqrt(d) irrational) / scale with integer
    matrices, irrational None when every diagonal is rational.  The scale
    is positive, so the residual is zero iff both integer matrices are, and
    sqrt(d) is irrational (QuadExt keeps no perfect-square d)."""

    rational: tuple
    irrational: tuple | None
    d: int
    scale: int

    @property
    def is_zero(self) -> bool:
        return is_zero_matrix(self.rational) and (
            self.irrational is None or is_zero_matrix(self.irrational))

    @property
    def residual(self) -> tuple:
        """The exact residual matrix over Q or Q(sqrt(d)), built on read."""
        c = self.scale
        if self.irrational is None:
            return tuple(tuple(Fraction(x, c) for x in row) for row in self.rational)
        return tuple(tuple(QuadExt(Fraction(x, c), Fraction(y, c), self.d)
                           for x, y in zip(rx, ry))
                     for rx, ry in zip(self.rational, self.irrational))


def _cleared(entries, d):
    """Integer vectors A, B and the positive integer c with
    entries = (A + sqrt(d) B) / c; B is None when every entry is rational.
    A sqrt part over an equivalent discriminant d*k^2 is rescaled to sqrt(d);
    an incompatible one raises ValueError."""
    parts = [[x.a if isinstance(x, QuadExt) else x for x in entries]]
    b_parts = [rescale_surd(x.b, x.d, d) if isinstance(x, QuadExt) and x.b else 0
               for x in entries]
    if any(b_parts):
        parts.append(b_parts)
    c, ints = clear_denominators(parts)
    return ints[0], (ints[1] if len(ints) > 1 else None), c


def _discriminant(diagonals) -> int:
    """The d of a residual: the smallest d among the sqrt(d) parts of the
    diagonals, 1 when every entry is rational."""
    return min((x.d for e in diagonals for x in e if isinstance(x, QuadExt) and x.b),
               default=1)


def _leg(a: GaugedMatrix, hats: dict, entries, d):
    """What one diagonal contributes to a residual over sqrt(d): its cleared
    integer vectors (A, B), their hats N diag(A) N and N diag(B) N (B and
    its hat None when the diagonal is rational) and the scale c.  `hats`
    maps each integer vector already hatted at the level of a to its hat,
    so equal cleared vectors share one hat."""
    a_int, b_int, c = _cleared(entries, d)
    for v in (a_int, b_int):
        if v is not None and v not in hats:
            hats[v] = a.hat(v)
    return (a_int, b_int), (hats[a_int], None if b_int is None else hats[b_int]), c


def _braid(a: GaugedMatrix, d: int, leg1, leg2, leg3) -> ReducedResidual:
    """The residual kernel: the ReducedResidual of three legs over sqrt(d)
    at the level of a (see braid_residual).  The integer matrices depend
    only on the legs' cleared vectors and d; the scale alone reads each
    leg's c."""
    (e1, h1, c1), (e2, h2, c2), (e3, h3, c3) = leg1, leg2, leg3
    l2 = a.ucore_lcm ** 2

    def times(mul, x, y):
        """(x0 + sqrt(d) x1)(y0 + sqrt(d) y1) under the bilinear product mul."""
        (x0, x1), (y0, y1) = x, y
        if x1 is None and y1 is None:
            return mul(x0, y0), None
        if x1 is None:
            return mul(x0, y0), mul(x0, y1)
        if y1 is None:
            return mul(x0, y0), mul(x1, y0)
        return (mat_add(mul(x0, y0), mat_scale(d, mul(x1, y1))),
                mat_add(mul(x0, y1), mul(x1, y0)))

    l2e1 = tuple(None if p is None else [l2 * x for x in p] for p in e1)
    left = times(diag_mul_left, l2e1, times(diag_mul_right, h2, e3))
    right = times(mat_mul, times(diag_mul_right, h3, e2), h1)
    # Both sides have a sqrt(d) part exactly when some diagonal has one.
    irrational = None if left[1] is None else mat_sub(left[1], right[1])
    return ReducedResidual(mat_sub(left[0], right[0]), irrational, d,
                           l2 * l2 * c1 * c2 * c3)


def braid_residual(a: GaugedMatrix, d1, d2, d3) -> ReducedResidual:
    """D1 D2^ D3 - D3^ D2 D1^ for the diagonals with entries d1, d2, d3 at
    the level of a, in its rational gauge, cleared to integers.

    With X = N / L and D_i = E_i / c_i the residual times L^4 c1 c2 c3 is
    L^2 E1 (N E2 N) E3 - (N E3 N) E2 (N E1 N).  Over Q(sqrt(d)) each factor
    is a pair (A + sqrt(d) B), and the products are taken one factor at a
    time, (A + sqrt(d) B)(A' + sqrt(d) B') = (A A' + d B B') + sqrt(d)
    (A B' + B A'), a missing sqrt(d) part counting as zero.  Equivalent
    discriminants (d and d*k^2) share one residual over the smallest d; as
    in QuadExt arithmetic, incompatible ones raise ValueError before
    anything is summed.  The legs come from `_leg` and the products from
    `_braid`, the leg builder and kernel `full_check` uses as well."""
    d = _discriminant((d1, d2, d3))
    hats = {}
    return _braid(a, d, *(_leg(a, hats, e, d) for e in (d1, d2, d3)))


def reduced_ybe_check(fam: SpectralFamily, n: int, lam, mu) -> ReducedResidual:
    """Exact level-n residual for the family at samples (lam, mu)."""
    diagonals = [reduced_d(fam, n, x) for x in (lam, fam.compose(lam, mu), mu)]
    return braid_residual(a_matrix(fam.s, n), *diagonals)


def _levels_or_default(fam: SpectralFamily, levels):
    """Requested levels, or the contiguous prefix the family defines; a
    check over no level at all is refused."""
    if levels is None:
        ts = fam.s.twice
        levels = []
        for n in range(top_level(fam.s) + 1):
            rng = LevelRange.for_level(fam.s, n)
            if not all(ts - k in fam.coeffs for k in rng.indices()):
                break
            levels.append(n)
    levels = list(levels)
    if not levels:
        raise DomainError(f"no level to check for family {fam.tag} at s={fam.s}")
    return levels


def _level_verdicts(a: GaugedMatrix, js, triples, coeff) -> list:
    """The verdict of each argument triple on the level of a, whose
    diagonals read r_j for j in js; coeff(j, i) is r_j at argument i.  A
    triple's three diagonals are formed first, then its legs are cleared,
    as in reduced_ybe_check."""
    diagonals, legs, hats, verdicts, zeros = {}, {}, {}, {}, []
    for triple in triples:
        for i in triple:
            if i not in diagonals:
                diagonals[i] = tuple(coeff(j, i) for j in js)
        d = _discriminant(diagonals[i] for i in triple)
        for i in triple:
            if (i, d) not in legs:
                legs[i, d] = _leg(a, hats, diagonals[i], d)
        three = [legs[i, d] for i in triple]
        key = (*(vectors for vectors, _, _ in three), d)
        if key not in verdicts:
            verdicts[key] = _braid(a, d, *three).is_zero
        zeros.append(verdicts[key])
    return zeros


def full_check(fam: SpectralFamily, levels=None, samples=None) -> dict:
    """Per-level, per-sample residual table; pass iff every residual is
    exactly zero.  Each row's verdict is `reduced_ybe_check(...).is_zero`,
    taken at the cost of the distinct values the grid holds:

    - each pair's argument triple (lam, lam o mu, mu) is formed once;
    - each r_j(x) is evaluated at most once, when a level first needs it,
      in the order the pairs would evaluate it one by one, so the first
      PoleError, DomainError or ValueError raised is theirs;
    - on each level a diagonal is cleared once per discriminant, and its
      cleared integer vectors are hatted once, however many arguments
      share them;
    - one verdict is taken per distinct (leg, leg, leg, d), the legs by
      their cleared vectors.  The kernel's integer matrices are a function
      of those four alone and its positive scale decides nothing, so a
      reused verdict is the one the pair's own residual gives."""
    samples = list(samples) if samples is not None else list(default_grid(fam))
    levels = _levels_or_default(fam, levels)
    index = {}  # argument -> its position, in order of first use
    triples = [[index.setdefault(x, len(index)) for x in (lam, fam.compose(lam, mu), mu)]
               for lam, mu in samples]
    args = list(index)
    values = [{} for _ in args]  # values[i][j] = r_j(args[i])

    def coeff(j, i):
        if j not in values[i]:
            values[i][j] = fam.eval_coeff(j, args[i])
        return values[i][j]

    out_levels = []
    ok = True
    for n in levels:
        zeros = []
        if triples:
            a = a_matrix(fam.s, n)
            js = [fam.s.twice - k for k in a.range.indices()]
            zeros = _level_verdicts(a, js, triples, coeff)
        ok = ok and all(zeros)
        out_levels.append({"n": n, "samples": [
            {"lambda": str(lam), "mu": str(mu), "zero": zero}
            for (lam, mu), zero in zip(samples, zeros)]})
    return {"family": fam.tag, "s": str(fam.s), "levels": out_levels, "pass": ok}


def constant_check(fam: SpectralFamily, levels=None) -> dict:
    """Braid-form check D D^ D = D^ D D^ per level for a constant family,
    whose reduced residual at any one sample pair is that braid: the
    `full_check` of the marker pair, one {"n", "zero"} row per level."""
    marker = fam.zero_sample()
    report = full_check(fam, levels, [(marker, marker)])
    report["levels"] = [{"n": level["n"], "zero": level["samples"][0]["zero"]}
                        for level in report["levels"]]
    return report
