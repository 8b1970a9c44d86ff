"""Exact verification of the reduced Yang-Baxter equation

    D(lambda) D^(lambda+mu) D(mu) = D^(mu) D(lambda+mu) D^(lambda),

level by level, where D^ = A D A.  Everything runs on the rational
similarity gauge, where A enters only as its integer core N = L*(M*U)
and the hat is N D N = L^2 D^, so residuals are exact matrices over Q or
Q(sqrt(d)).  They are decided over the integers: with each diagonal
cleared to D_i = (A_i + sqrt(d) B_i) / c_i, the residual times
L^4 c1 c2 c3 is an integer matrix plus sqrt(d) times another, zero
exactly when one weighted product is symmetric, since A^2 = I (_braid).
In `full_check` every diagonal is constant on a level's q classes
(positions whose labels share a coefficient table), so that symmetry is
one integer linear condition on the q^3 products of the legs' class
values: the level's class form, built once and read in q^3 r per verdict
for its r <= min(P, q^3) rows, P = dim(dim-1)/2 (_class_form).  It is
built only where that read costs no more than hatting one third leg
(_form_pays).  Elsewhere, and in `braid_residual`, the product is a sum
over the middle leg's classes of the third leg's class products, taken
once per third leg, and a verdict reads the symmetry off them in q dim^2
(_products).
`full_check` pays for the distinct values of a grid, not for its pairs:
each coefficient table is evaluated once per argument per check, each
level builds its form once or takes the class products of each distinct
third leg once, and one verdict is taken per distinct triple of cleared
legs and d.  Reusing a verdict is exact: it is a function of those four
inputs alone, and the positive scale decides nothing.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .amatrix import GaugedMatrix, LevelRange, a_matrix, top_level
from .exact import DomainError, QuadExt, rescale_surd
from .linalg import clear_denominators, is_zero_matrix, mat_mul
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


class ReducedResidual:
    """Left-minus-right of a level's reduced equation at one sample pair,
    in the rational gauge of that level, kept cleared to integers: the exact
    residual is (rational + sqrt(d) irrational) / scale with integer
    matrices, irrational None when every diagonal is rational.  The scale
    is positive, so the residual is zero iff both integer matrices are, and
    sqrt(d) is irrational (QuadExt keeps no perfect-square d)."""

    __slots__ = ("rational", "irrational", "d", "scale")

    def __init__(self, rational: tuple, irrational: tuple | None, d: int, scale: int):
        self.rational, self.irrational, self.d, self.scale = rational, irrational, d, scale

    @property
    def is_zero(self) -> bool:
        return is_zero_matrix(self.rational) and (
            self.irrational is None or is_zero_matrix(self.irrational))


def _leg(entries, d):
    """What one diagonal contributes to a residual over sqrt(d): its cleared
    integer vectors, (A, B) or (A,) when every entry is rational, and the
    positive integer c with entries = (A + sqrt(d) B) / c.  A sqrt part
    over an equivalent discriminant d*k^2 is rescaled to sqrt(d); an
    incompatible one raises ValueError."""
    parts = [[x.a if isinstance(x, QuadExt) else x for x in entries]]
    b_parts = [rescale_surd(x.b, x.d, d) if isinstance(x, QuadExt) and x.b else 0
               for x in entries]
    if any(b_parts):
        parts.append(b_parts)
    c, ints = clear_denominators(parts)
    return ints, c


def _discriminant(diagonals) -> int:
    """The d of a residual: the smallest d among the sqrt(d) parts of the
    diagonals, 1 when every entry is rational."""
    return min((x.d for e in diagonals for x in e if isinstance(x, QuadExt) and x.b),
               default=1)


def _classes(keys) -> list:
    """Positions grouped by equal key, each class in position order and the
    classes in order of their first position."""
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    return list(classes.values())


@lru_cache(maxsize=None)
def _pairs(dim: int) -> tuple:
    """The off-diagonal positions (i, j), i < j, of a dim x dim matrix, as
    one index vector: the rows i of the pairs, then their columns j."""
    pairs = [(i, j) for j in range(dim) for i in range(j)]
    return tuple(i for i, _ in pairs) + tuple(j for _, j in pairs)


def _products(a: GaugedMatrix, classes, vectors) -> list:
    """The class products of a third leg with cleared vectors (A,) or
    (A, B) at the level of a, for a middle leg constant on each class: per
    class, one of its positions and, per part H of the leg's hat
    (N diag(A) N, then N diag(B) N), the entries of G = W N Pi H at the
    off-diagonal pairs i < j, the G_ij and then the G_ji (`_pairs`), Pi
    the class's indicator diagonal and W = int_weights.  Each part is
    hatted once, and its class products cost one dim^3 product in all."""
    w, index = a.int_weights, _pairs(a.dim)
    half = len(index) // 2
    swapped = index[half:] + index[:half]
    hats = [a.hat(v) for v in vectors]
    products = []
    for positions in classes:
        pi = [0] * a.dim
        for i in positions:
            pi[i] = 1
        products.append((positions[0], [
            [w[i] * g[i][j] for i, j in zip(index, swapped)]
            for g in (a.hat(pi, h) for h in hats)]))
    return products


def _add(acc, k, x, v):
    """acc[k] += x v for vectors; acc[k] is x v when absent."""
    if k in acc:
        acc[k] = [y + x * z for y, z in zip(acc[k], v)]
    else:
        acc[k] = v if x == 1 else [x * z for z in v]


def _require_involution(a: GaugedMatrix):
    if not a.involutive:
        raise AssertionError(f"A^(s={a.range.s}, n={a.range.n}) is not a symmetric involution")


def _braid(a: GaugedMatrix, d: int, leg1, leg2, leg3, products) -> ReducedResidual:
    """The ReducedResidual of three legs over sqrt(d) at the level of a,
    products the third leg's `_products` over classes on which the middle
    leg is constant.  As N N = L^2 I and N^T = U N U^(-1), the integer
    residual R = L^2 E1 (N E2 N) E3 - (N E3 N) E2 (N E1 N) has
    R N = L^2 (Y - U^(-1) Y^T U) for Y = E1 N E2 (N E3 N), so
    R = W^(-1) (S - S^T) N for S = W Y, W = int_weights: R is zero exactly
    when S is symmetric (each part apart).  With E2 = sum_b e2_b Pi_b,
    S = E1 sum_b e2_b G_b, so the verdict compares S_ij with S_ji off the
    class products, q dim^2 products for q classes, and R is multiplied
    out only when they differ.  The integer matrices depend only on the
    legs' cleared vectors and d; the scale alone reads each leg's c."""
    _require_involution(a)
    (e1, c1), (e2, c2), (e3, c3) = leg1, leg2, leg3
    index = _pairs(a.dim)
    half = len(index) // 2
    wp = {}  # W P at the pairs, P = N E2 (N E3 N), by power of sqrt(d)
    for i, parts in products:
        for k2, v2 in enumerate(e2):
            if v2[i]:
                for k3, g in enumerate(parts):
                    _add(wp, k2 + k3, v2[i], g)
    s = {}  # S = E1 W P at the pairs, by part
    for k1, v1 in enumerate(e1):
        f = [v1[i] for i in index]
        for k, g in wp.items():
            _add(s, (k1 + k) % 2, d ** ((k1 + k) // 2), [x * y for x, y in zip(f, g)])
    zero = ((0,) * a.dim,) * a.dim
    r = dict.fromkeys(range(max(len(e1), len(e2), len(e3))), zero)  # sqrt(d) part if a leg has one
    if any(v[:half] != v[half:] for v in s.values()):
        for k, v in s.items():
            x = [[0] * a.dim for _ in range(a.dim)]
            for i, j, y, z in zip(index, index[half:], v, v[half:]):
                x[i][j], x[j][i] = y - z, z - y
            r[k] = tuple(tuple(y // w for y in row)
                         for w, row in zip(a.int_weights, mat_mul(x, a.int_ucore)))
    return ReducedResidual(r[0], r.get(1), d, a.ucore_lcm ** 4 * c1 * c2 * c3)


def braid_residual(a: GaugedMatrix, d1, d2, d3) -> ReducedResidual:
    """D1 D2^ D3 - D3^ D2 D1^ for the diagonals with entries d1, d2, d3 at
    the level of a, in its rational gauge, cleared to integers: with
    X = N / L and D_i = E_i / c_i, E_i = A_i + sqrt(d) B_i, the residual
    times L^4 c1 c2 c3 is L^2 E1 (N E2 N) E3 - (N E3 N) E2 (N E1 N), as a
    rational and a sqrt(d) integer part.  Equivalent discriminants (d and
    d*k^2) share one residual over the smallest d; as in QuadExt
    arithmetic, incompatible ones raise ValueError before anything is
    summed, and a level whose A is not a symmetric involution fails an
    internal check (AssertionError).  Legs, class products and kernel are
    those of `full_check`, the classes read off d2's equal entries."""
    d = _discriminant((d1, d2, d3))
    legs = [_leg(e, d) for e in (d1, d2, d3)]
    classes = _classes(zip(*legs[1][0]))
    return _braid(a, d, *legs, _products(a, classes, legs[2][0]))


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


def _form_pays(q: int, dim: int) -> bool:
    """The cost rule: a level's class form pays when a verdict read off it,
    q^3 min(P, q^3) products for q classes and P = dim(dim-1)/2 pairs,
    costs no more than hatting one third leg, 2 dim^3 + q dim^2."""
    return q ** 3 * min(dim * (dim - 1) // 2, q ** 3) <= 2 * dim ** 3 + q * dim ** 2


def _class_form(a: GaugedMatrix, classes) -> list:
    """The rows B of a level's class form: integer rows over the q^3
    monomials x1_a x2_b x3_c of three legs constant on the classes, B m = 0
    exactly when S (`_braid`) is symmetric.  With G_bc = W N Pi_b N Pi_c N,
    S = sum m_abc Pi_a G_bc, so S - S^T is the matrix Z whose row at the
    pair i < j holds [i in a] G_bc[i][j] - [j in a] G_bc[j][i]; B is Z
    row-reduced fraction-free, each row divided by its gcd, r <= min(P, q^3)
    rows.  q hats N Pi_c N, then q^2 products N Pi_b H_c."""
    _require_involution(a)
    w = a.int_weights
    pairs = [(i, j) for j in range(a.dim) for i in range(j)]
    pis = [[int(i in positions) for i in range(a.dim)] for positions in classes]
    hats = [a.hat(pi) for pi in pis]
    gs = [[(w[i] * g[i][j], w[j] * g[j][i]) for i, j in pairs]
          for g in (a.hat(pb, h) for pb in pis for h in hats)]
    columns = [[pa[i] * gij - pa[j] * gji for (i, j), (gij, gji) in zip(pairs, g)]
               for pa in pis for g in gs]
    basis = []  # (pivot, row)
    for v in zip(*columns):
        if len(basis) == len(columns):
            break
        for p, row in basis:
            if v[p]:
                x, y = row[p], v[p]
                v = [x * u - y * z for u, z in zip(v, row)]
        pivot = next((k for k, x in enumerate(v) if x), None)
        if pivot is not None:
            g = math.gcd(*v)
            basis.append((pivot, [x // g for x in v]))
    return [row for _, row in basis]


def _form_zero(form, d: int, e1, e2, e3) -> bool:
    """The verdict of three legs' class vectors over sqrt(d) off a class
    form: the monomials m, split by power of sqrt(d) as in `_braid`, each
    part annihilated by every row."""
    m = {}
    for k1, v1 in enumerate(e1):
        for k2, v2 in enumerate(e2):
            for k3, v3 in enumerate(e3):
                k = k1 + k2 + k3
                _add(m, k % 2, d ** (k // 2), [x * y * z for x in v1 for y in v2 for z in v3])
    return not any(sum(map(mul, row, v)) for v in m.values() for row in form)


def _level_verdicts(a: GaugedMatrix, labels, triples, coeff, shared) -> list:
    """The verdict of each argument triple on the level of a, whose
    diagonals read r_j for j in labels, each label standing for its class
    of equal tables; coeff(j, i) is r_j at argument i.  A triple's three
    diagonals are formed first, one value per class, then its legs are
    cleared, as in reduced_ybe_check; shared keeps diagonals, their d and
    legs for every level of the check that reads the same tables.
    Verdicts come off the level's class form when `_form_pays`, else off
    the third leg's class products."""
    classes = _classes(labels)
    heads = tuple(labels[positions[0]] for positions in classes)
    order = {j: k for k, j in enumerate(heads)}
    where = [order[j] for j in labels]  # position -> its class
    use_form = _form_pays(len(classes), a.dim)
    diagonals, ds, legs = shared.setdefault(heads, ({}, {}, {}))
    form, products, verdicts, zeros = None, {}, {}, []
    for triple in triples:
        for i in triple:
            if i not in diagonals:
                diagonals[i] = tuple(coeff(j, i) for j in heads)
                ds[i] = _discriminant([diagonals[i]])
        d = min((ds[i] for i in triple if ds[i] != 1), default=1)
        for i in triple:
            if (i, d) not in legs:
                legs[i, d] = _leg(diagonals[i], d)
        three = [legs[i, d] for i in triple]
        key = (*(vectors for vectors, _ in three), d)
        if key not in verdicts:
            if use_form:
                if form is None:
                    form = _class_form(a, classes)
                verdicts[key] = _form_zero(form, d, *key[:3])
            else:
                three = [(tuple(tuple(v[k] for k in where) for v in vectors), c)
                         for vectors, c in three]
                if key[2] not in products:
                    products[key[2]] = _products(a, classes, three[2][0])
                verdicts[key] = _braid(a, d, *three, products[key[2]]).is_zero
        zeros.append(verdicts[key])
    return zeros


def full_check(fam: SpectralFamily, levels=None, samples=None) -> dict:
    """Per-level, per-sample residual table; pass iff every residual is
    exactly zero.  Each row's verdict is `reduced_ybe_check(...).is_zero`,
    taken at the cost of the distinct values the grid holds:

    - each pair's argument triple (lam, lam o mu, mu) is formed once;
    - labels with equal coefficient tables form one class, and each
      class's table is evaluated at most once per argument, read through
      its first label, when a level first needs it, in the order the
      pairs would evaluate it one by one, so the first PoleError,
      DomainError or ValueError raised is theirs;
    - an argument's diagonal, one value per class, and its d are formed
      once, and it is cleared once per discriminant, for all levels that
      read the same tables;
    - on each level the class form is built once where `_form_pays`, else
      the class products of a cleared third leg are taken once, however
      many pairs share it;
    - one verdict is taken per distinct (leg, leg, leg, d), the legs by
      their cleared class vectors.  Either route decides the symmetry of
      the integer S of `_braid`, a function of those four alone, and the
      positive scale decides nothing, so a reused verdict is the one the
      pair's own residual gives."""
    samples = list(samples) if samples is not None else list(default_grid(fam))
    levels = _levels_or_default(fam, levels)
    index = {}  # argument -> its position, in order of first use
    triples = [[index.setdefault(x, len(index)) for x in (lam, fam.compose(lam, mu), mu)]
               for lam, mu in samples]
    args = list(index)
    first = {}  # coefficient table -> its first label
    label = {j: first.setdefault(table, j) for j, table in sorted(fam.coeffs.items())}
    values = {}  # values[j, i] = r_j(args[i]) for a first label j

    def coeff(j, i):
        if (j, i) not in values:
            values[j, i] = fam.eval_coeff(j, args[i])
        return values[j, i]

    names = [(str(lam), str(mu)) for lam, mu in samples]
    shared = {}  # class heads -> diagonals, d and legs of the levels reading them
    out_levels = []
    ok = True
    for n in levels:
        zeros = []
        if triples:
            a = a_matrix(fam.s, n)
            labels = [label.get(fam.s.twice - k, fam.s.twice - k) for k in a.range.indices()]
            zeros = _level_verdicts(a, labels, triples, coeff, shared)
        ok = ok and all(zeros)
        out_levels.append({"n": n, "samples": [
            {"lambda": lam, "mu": mu, "zero": zero} for (lam, mu), zero in zip(names, zeros)]})
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
