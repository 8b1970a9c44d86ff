"""Exact verification of the reduced Yang-Baxter equation

    D(lambda) D^(lambda+mu) D(mu) = D^(mu) D(lambda+mu) D^(lambda),

level by level, where D^ = A D A.  Everything runs on the rational
similarity gauge, where A enters only as its integer core N = L*(M*U)
and the hat is N D N = L^2 D^, so residuals are exact matrices over Q or
Q(sqrt(d)), d the family's discriminant.  They are decided over the
integers: with each diagonal cleared to D_i = (A_i + sqrt(d) B_i) / c_i
(`linalg.clear_parts`), the residual times
L^4 c1 c2 c3 is an integer matrix plus sqrt(d) times another, zero
exactly when one weighted product is symmetric, since A^2 = I (_braid).
A class product W N Pi_b H, Pi_b the indicator diagonal of a class of
positions whose labels share a coefficient table and H a hat, is taken in
one place (_products).  In `full_check` every diagonal is constant on a
level's q classes, so the symmetry is one integer linear condition on the
q^3 products of the legs' class values: the level's class form, built off
the class products of the q hats N Pi_c N and read in q^3 r per verdict
for its r <= min(P, q^3) rows, P = dim(dim-1)/2 (_class_form), wherever
that read costs no more than hatting one third leg (_form_pays).
Elsewhere, and in `braid_residual`, a verdict reads the symmetry in
q dim^2 off the class products of the third leg's hats.
`full_check` pays for the distinct values of a grid, not for its pairs:
each coefficient table is evaluated once per argument per check, each
argument's leg is cleared once per set of tables the levels read and
interned to an integer id, and one verdict is taken per distinct id
triple.  Reusing a verdict is exact: over the family's one d it is a
function of the three cleared legs alone, and the positive scale decides
nothing.
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .amatrix import GaugedMatrix, LevelRange, a_matrix, top_level
from .exact import DomainError
from .linalg import clear_denominators, clear_parts, is_zero_matrix, mat_mul
from .spectral import SpectralFamily, reduced_d

__all__ = [
    "ReducedResidual",
    "braid_residual",
    "constant_check",
    "full_check",
    "reduced_ybe_check",
]

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


def _products(a: GaugedMatrix, classes, hats) -> list:
    """The class products of a third leg at the level of a, for a middle
    leg constant on each class, hats the third leg's hatted parts H (N A N,
    then N B N, or any hats N D N): per class, one of its positions and, per
    H, G = W N Pi H at the off-diagonal pairs i < j, the G_ij and then the
    G_ji (`_pairs`), Pi the class's indicator diagonal and W = int_weights.
    The one place a class product is taken, one dim^3 product each."""
    w, index = a.int_weights, _pairs(a.dim)
    half = len(index) // 2
    swapped = index[half:] + index[:half]
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
    out only when they differ.  Each leg is (c, vectors) as
    `linalg.clear_denominators` gives it.  The integer matrices depend only
    on the legs' cleared vectors and d; the scale alone reads each leg's
    c."""
    _require_involution(a)
    (c1, e1), (c2, e2), (c3, e3) = leg1, leg2, leg3
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


def braid_residual(a: GaugedMatrix, d: int, d1, d2, d3) -> ReducedResidual:
    """D1 D2^ D3 - D3^ D2 D1^ for the diagonals with entries d1, d2, d3 in
    Q(sqrt(d)) at the level of a, in its rational gauge, cleared to
    integers: with X = N / L and D_i = E_i / c_i, E_i = A_i + sqrt(d) B_i,
    the residual times L^4 c1 c2 c3 is
    L^2 E1 (N E2 N) E3 - (N E3 N) E2 (N E1 N), as a rational and a sqrt(d)
    integer part.  An entry over an equivalent discriminant d*k^2 is
    rescaled to sqrt(d); one over any other field (a sqrt(5) entry at
    d = 1 among them) raises ValueError before anything is summed, and a
    level whose A is not a symmetric involution fails an internal check
    (AssertionError).  Legs, class products and kernel are those of
    `full_check`, the classes read off d2's equal entries."""
    legs = [clear_denominators([e], d) for e in (d1, d2, d3)]
    classes = _classes(zip(*legs[1][1]))
    return _braid(a, d, *legs, _products(a, classes, [a.hat(v) for v in legs[2][1]]))


def reduced_ybe_check(fam: SpectralFamily, n: int, lam, mu) -> ReducedResidual:
    """Exact level-n residual for the family at samples (lam, mu), over
    the family's field."""
    diagonals = [reduced_d(fam, n, x) for x in (lam, fam.sampling.compose(lam, mu), mu)]
    return braid_residual(a_matrix(fam.s, n), fam.discriminant, *diagonals)


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
    the class products of the q hats N Pi_c N (`_products`),
    S = sum m_abc Pi_a G_bc, so S - S^T is the matrix Z whose row at the
    pair i < j holds [i in a] G_bc[i][j] - [j in a] G_bc[j][i]; B is Z
    row-reduced fraction-free, each row divided by its gcd, r <= min(P, q^3)
    rows."""
    _require_involution(a)
    index = _pairs(a.dim)
    half = len(index) // 2
    pis = [[int(i in positions) for i in range(a.dim)] for positions in classes]
    gs = [g for _, parts in _products(a, classes, [a.hat(pi) for pi in pis]) for g in parts]
    columns = [[pa[i] * x - pa[j] * y for i, j, x, y in zip(index, index[half:], g, g[half:])]
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


def _tensor(d: int, x, y) -> list:
    """x (x) y for vectors over sqrt(d) as parts (A,) or (A, B), a surd pair:
    (A1 + sqrt(d) B1)(A2 + sqrt(d) B2) = (A1 A2 + d B1 B2) + sqrt(d) (A1 B2 + B1 A2)."""
    out = {}
    for k1, u in enumerate(x):
        for k2, v in enumerate(y):
            _add(out, (k1 + k2) % 2, d ** ((k1 + k2) // 2), [s * t for s in u for t in v])
    return list(out.values())


def _form_zero(form, d: int, e1, e2, e3) -> bool:
    """The verdict of three legs' class vectors over sqrt(d) off a class
    form: the monomials m = e1 (x) e2 (x) e3, one product over Q, else two
    tensor steps over surd pairs, each part annihilated by every row."""
    if len(e1) == len(e2) == len(e3) == 1:
        m = [[x * y * z for x in e1[0] for y in e2[0] for z in e3[0]]]
    else:
        m = _tensor(d, _tensor(d, e1, e2), e3)
    return not any(sum(map(mul, row, v)) for v in m for row in form)


def _level_verdicts(a: GaugedMatrix, d: int, labels, triples, coeff, shared) -> list:
    """The verdict of each argument triple on the level of a over sqrt(d),
    whose diagonals read r_j for j in labels, each label standing for its
    class of equal tables; coeff(j, i) is r_j at argument i in integer
    parts.  shared keeps, per set of tables, its legs by integer id and
    each triple's id triple; a verdict is taken per distinct id triple, off
    the class form when `_form_pays`, else off the third leg's class
    products, each leg expanded to positions once."""
    classes = _classes(labels)
    first = [labels[positions[0]] for positions in classes]
    heads = tuple(sorted(first))
    if heads not in shared:
        ids, leg_of = {}, {}  # cleared vectors -> id; argument -> id
        for i in dict.fromkeys(i for triple in triples for i in triple):
            values = {j: coeff(j, i) for j in first}  # in the pair loops' order
            leg_of[i] = ids.setdefault(clear_parts([values[j] for j in heads], d)[1], len(ids))
        shared[heads] = list(ids), [tuple(leg_of[i] for i in triple) for triple in triples]
    legs, keys = shared[heads]
    classes.sort(key=lambda positions: labels[positions[0]])
    verdicts = dict.fromkeys(keys)  # id triple -> verdict
    if _form_pays(len(classes), a.dim):
        form = _class_form(a, classes)
        for key in verdicts:
            verdicts[key] = _form_zero(form, d, *(legs[k] for k in key))
    else:  # every leg at scale 1, as the positive scale decides nothing
        where = [heads.index(j) for j in labels]  # position -> its class
        expanded = [(1, tuple(tuple(v[k] for k in where) for v in vectors)) for vectors in legs]
        products = {}  # third leg id -> its class products
        for key in verdicts:
            three = [expanded[k] for k in key]
            if key[2] not in products:
                products[key[2]] = _products(a, classes, [a.hat(v) for v in three[2][1]])
            verdicts[key] = _braid(a, d, *three, products[key[2]]).is_zero
    return [verdicts[key] for key in keys]


def full_check(fam: SpectralFamily, levels=None, samples=None) -> dict:
    """Per-level, per-sample residual table; pass iff every residual is
    exactly zero, and a check over no sample or no level is refused.  Each
    row's verdict is `reduced_ybe_check(...).is_zero`, taken at the cost of
    the distinct values the grid holds:

    - each pair's argument triple (lam, lam o mu, mu) is formed once;
    - labels with equal coefficient tables form one class, and each
      class's table is evaluated at most once per argument, read through
      its first label, when a level first needs it, in the order the
      pairs would evaluate it one by one, so the first PoleError or
      DomainError raised is theirs;
    - an argument's diagonal, one value per class in integer parts, is
      cleared over the family's discriminant once per set of tables, with
      the classes sorted by label, for all levels reading that set, and
      each pair's triple of leg ids is formed once per set;
    - on each level the class form is built once where `_form_pays`, else
      the class products of each distinct third leg are taken once;
    - one verdict is taken per distinct id triple, an id per distinct
      tuple of cleared class vectors.  Either route decides the symmetry of
      the integer S of `_braid`, over the family's one d a function of
      those three alone, and the positive scale decides nothing, so a
      reused verdict is the one the pair's own residual gives."""
    samples = list(samples if samples is not None else fam.sampling.grid)
    levels = _levels_or_default(fam, levels)
    if not samples:
        raise DomainError(f"no sample to check for family {fam.tag} at s={fam.s}")
    index = {}  # argument -> its position, in order of first use
    compose = fam.sampling.compose
    triples = [[index.setdefault(x, len(index)) for x in (lam, compose(lam, mu), mu)]
               for lam, mu in samples]
    args = list(index)
    first = {}  # coefficient table -> its first label
    label = {j: first.setdefault(table, j) for j, table in sorted(fam.coeffs.items())}
    values = {}  # values[j, i] = r_j(args[i]) for a first label j

    def coeff(j, i):
        if (j, i) not in values:
            values[j, i] = fam.coeff_parts(j, args[i])
        return values[j, i]

    names = [(str(lam), str(mu)) for lam, mu in samples]
    shared = {}  # a level's sorted class heads -> (legs, id triples)
    out_levels = []
    ok = True
    for n in levels:
        a = a_matrix(fam.s, n)
        labels = [label.get(fam.s.twice - k, fam.s.twice - k) for k in a.range.indices()]
        zeros = _level_verdicts(a, fam.discriminant, labels, triples, coeff, shared)
        ok = ok and all(zeros)
        out_levels.append({"n": n, "samples": [
            {"lambda": lam, "mu": mu, "zero": zero} for (lam, mu), zero in zip(names, zeros)]})
    return {"family": fam.tag, "s": str(fam.s), "levels": out_levels, "pass": ok}


def constant_check(fam: SpectralFamily, levels=None) -> dict:
    """Braid-form check D D^ D = D^ D D^ per level for a constant family,
    whose reduced residual at any one sample pair is that braid: the
    `full_check` of the marker pair, one {"n", "zero"} row per level.  A
    spectral family is refused: at its marker, the regularity point, every
    D is the identity and the check would pass over nothing."""
    if not fam.constant:
        raise DomainError(f"constant check of the spectral family {fam.tag} at s={fam.s}")
    marker = fam.sampling.origin
    report = full_check(fam, levels, [(marker, marker)])
    report["levels"] = [{"n": level["n"], "zero": level["samples"][0]["zero"]}
                        for level in report["levels"]]
    return report
