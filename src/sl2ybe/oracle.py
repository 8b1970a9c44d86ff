"""Exact dense oracle on V_s (x) V_s (x) V_s, independent of the 6-j route.

Builds the total-spin projectors on V_s (x) V_s by Casimir polynomial
interpolation, embeds them on three sites, and checks the operator
identities and the full braid-form equation exactly.  The ladder basis
is rescaled to f_a = S_minus^a f_0, a = s - m, where 4 C_12 is an integer
matrix; the rescaling T (x) T commutes with the swap, so every identity
and braid verdict is that of the standard basis.  Every operator preserves
the total weight and is kept as integer blocks, one per weight sector, over
one denominator.  A family over Q(sqrt(d)) has each R split into integer
parts A + sqrt(d) B (`linalg.clear_parts`), which enter the
products as the 2x2 blocks [[A, d B], [B, A]].

Every residual is a sum of products of embedded projectors, so it commutes
with total sl2 when the projectors do, and is then zero iff its block on
the middle three-site sector w = floor(3*2s/2) (S_z = 0 or 1/2) is: each
irreducible component has one vector there.  So a residual is built on
that sector first, and its zero stands only for a certified projector set,
every P^j commuting with Delta(S_plus) block by block (checked once per
set), which for a weight-preserving P implies it commutes with
Delta(S_minus) too (`_certified`).  A nonzero middle block, or an
uncertified set, is recomputed on every sector: the value is the largest
entry of the whole operator.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from operator import eq, mul

from .amatrix import top_level
from .exact import HalfInt, minus_one_pow
from .linalg import clear_parts, diagonal, mat_mul
from .spectral import SpectralFamily
from .ybe import full_check

__all__ = [
    "SectorOperator",
    "dense_operator_identities",
    "dense_projectors",
    "dense_r_matrix",
    "dense_ybe_residual",
    "permutation_dense",
    "reduction_consistency",
    "sector_labels",
    "spin_matrices",
]


def _two_s(s) -> int:
    return HalfInt.coerce(s).as_spin().twice


def spin_matrices(s) -> tuple:
    """(S_z, S_plus) on V_s in the rescaled ladder basis, rational
    matrices: S_z f_a = (s - a) f_a and S_plus f_a = a(2s - a + 1) f_(a-1)."""
    ts = _two_s(s)
    sz = diagonal(Fraction(ts - 2 * a, 2) for a in range(ts + 1))
    sp = tuple(tuple(b * (ts - b + 1) if b == a + 1 else 0 for b in range(ts + 1))
               for a in range(ts + 1))
    return sz, sp


def sector_labels(ts: int, sites: int) -> tuple:
    """The basis labels (a_1, ..., a_sites) of each weight sector
    w = a_1 + ... + a_sites, w = 0..sites*2s, in lexicographic order."""
    sectors = [[] for _ in range(sites * ts + 1)]
    for label in product(range(ts + 1), repeat=sites):
        sectors[sum(label)].append(label)
    return tuple(map(tuple, sectors))


def _middle(ts: int) -> range:
    """The three-site sector of S_z = 0 or 1/2, w = floor(3*2s/2)."""
    return range(3 * ts // 2, 3 * ts // 2 + 1)


def _read_weights(ts: int, weights: range) -> range:
    """The two-site sectors an embedded operator reads on the three-site
    sectors weights: w - a for each spectator label a = 0..2s."""
    return range(max(weights.start - ts, 0), min(weights.stop, 2 * ts + 1))


class SectorOperator:
    """A weight-preserving operator in the rescaled basis, held on the
    weight sectors weights (a range, every sector by default): blocks[k],
    over the labels sector_labels(2s, sites)[weights[k]], holds the matrix
    entries times the positive integer den, as ints."""

    __slots__ = ("blocks", "den", "weights")

    def __init__(self, blocks: tuple, den: int = 1, weights: range | None = None):
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "weights", range(len(blocks)) if weights is None else weights)

    def __setattr__(self, *args):
        raise AttributeError("SectorOperator is immutable")

    def __matmul__(self, other: SectorOperator) -> SectorOperator:
        return SectorOperator(tuple(map(mat_mul, self.blocks, other.blocks)),
                              self.den * other.den, self.weights)

    def __sub__(self, other: SectorOperator) -> SectorOperator:
        return _combine([(1, self), (-1, other)])

    def __rmul__(self, c) -> SectorOperator:
        return _combine([(c, self)])

    def restrict(self, weights: range) -> SectorOperator:
        """The same operator on the sectors weights, a subrange of its own."""
        start = weights.start - self.weights.start
        if start < 0 or weights.stop > self.weights.stop:
            raise ValueError(f"sectors {weights} outside {self.weights}")
        return SectorOperator(self.blocks[start:start + len(weights)], self.den, weights)

    def max_abs(self) -> Fraction:
        """The largest |entry| on its sectors, exact: zero iff the operator
        is zero there."""
        return Fraction(max(abs(x) for block in self.blocks for row in block
                            for x in row)) / self.den


def _combine(terms) -> SectorOperator:
    """The sum of c * op over the (c, op) pairs, c int or Fraction, over the
    lcm of the denominators; the ops share their sectors."""
    den = math.lcm(*(c.denominator * op.den for c, op in terms))
    factors = [c.numerator * (den // (c.denominator * op.den)) for c, op in terms]
    return SectorOperator(tuple(
        tuple(tuple(sum(map(mul, factors, column)) for column in zip(*rows))
              for rows in zip(*sector))
        for sector in zip(*(op.blocks for _, op in terms))), den, terms[0][1].weights)


def _operator(ts: int, sites: int, entry, weights: range | None = None) -> SectorOperator:
    """The operator with entry(row label, column label) in each sector of
    weights, every sector by default."""
    labels = sector_labels(ts, sites)
    weights = range(len(labels)) if weights is None else weights
    return SectorOperator(tuple(tuple(tuple(entry(r, c) for c in labels[w]) for r in labels[w])
                                for w in weights), 1, weights)


def _casimir(ts: int) -> SectorOperator:
    """4 C_12 = 8 s(s+1) + 8 S_z (x) S_z + 4 S_plus (x) S_minus
    + 4 S_minus (x) S_plus, S_minus f_a = f_(a+1): an integer operator."""
    sz, sp = spin_matrices(HalfInt(ts))

    def entry(row, col):
        (a1, a2), (b1, b2) = row, col
        diag = 2 * ts * (ts + 2) + 8 * sz[a1][a1] * sz[a2][a2] if row == col else 0
        return int(diag + 4 * sp[a1][b1] * (a2 == b2 + 1) + 4 * (a1 == b1 + 1) * sp[a2][b2])

    return _operator(ts, 2, entry)


def dense_projectors(s) -> list[SectorOperator]:
    """Projectors P^j, j = 0..2s, on V_s (x) V_s via Lagrange interpolation
    in the two-site Casimir, exact; built once per 2s."""
    return list(_projectors(_two_s(s)))


@lru_cache(maxsize=None)
def _projectors(ts: int) -> tuple:
    casimir, eye = _casimir(ts), _operator(ts, 2, eq)   # entries row == col
    eigs = [4 * j * (j + 1) for j in range(ts + 1)]
    projs = []
    for j in range(ts + 1):
        p = eye
        for i in range(ts + 1):
            if i != j:
                p = Fraction(1, eigs[j] - eigs[i]) * (p @ (casimir - eigs[i] * eye))
        projs.append(p)
    return tuple(projs)


@lru_cache(maxsize=None)
def _certified(projs: tuple) -> bool:
    """Whether every two-site operator in projs commutes with total sl2,
    checked block by block, once per set (a SectorOperator hashes by
    identity), against Delta(S_plus) = S_plus (x) 1 + 1 (x) S_plus alone,
    which maps sector w to w - 1.  For a weight-preserving P on a
    finite-dimensional module that implies commuting with Delta(S_minus):
    P maps a spin-j lowest-weight vector v, of weight -j, to a weight -j
    vector P v that S_plus^(2j+1) kills, as P S_plus^(2j+1) v = 0, so P v
    has no component of spin above j and is itself a spin-j lowest-weight
    vector; P maps each S_plus^k v to S_plus^k P v, on which S_minus acts
    by the same numbers."""
    ts = len(projs) - 1
    _, sp = spin_matrices(HalfInt(ts))
    labels = sector_labels(ts, 2)
    for w in range(1, 2 * ts + 1):
        up = tuple(tuple(sp[r1][c1] * (r2 == c2) + (r1 == c1) * sp[r2][c2]
                         for c1, c2 in labels[w]) for r1, r2 in labels[w - 1])
        for p in projs:
            if mat_mul(p.blocks[w - 1], up) != mat_mul(up, p.blocks[w]):
                return False
    return True


def _largest_entries(residuals, projs: list) -> dict:
    """{name: largest |entry|} of the three-site operators residuals(weights)
    forms from projs, exact.  Decided on the middle sector when projs is
    certified and every middle block is zero, else on every sector."""
    ts = len(projs) - 1
    if _certified(tuple(projs)):
        values = {name: op.max_abs() for name, op in residuals(_middle(ts)).items()}
        if not any(values.values()):
            return values
    return {name: op.max_abs() for name, op in residuals(range(3 * ts + 1)).items()}


def permutation_dense(projs) -> SectorOperator:
    """The swap, sum_j (-1)^(2s-j) P^j, from the projectors P^0..P^2s on
    the sectors they hold."""
    return _combine([(minus_one_pow(len(projs) - 1 - j), p) for j, p in enumerate(projs)])


@lru_cache(maxsize=None)
def _embedding(ts: int, left: bool, weights: range) -> tuple:
    """The blocks of op2 (x) I (left) or I (x) op2 on the three-site sectors
    weights, as positions in the entries of op2's blocks on
    _read_weights(ts, weights) read row by row, -1 (a zero) where the
    spectator labels differ."""
    labels = sector_labels(ts, 2)
    position = {(r, c): k for k, (r, c) in enumerate(
        (r, c) for w in _read_weights(ts, weights) for r in labels[w] for c in labels[w])}

    def source(row, col):
        (r, x), (c, y) = [(a[:2], a[2]) if left else (a[1:], a[0]) for a in (row, col)]
        return position[r, c] if x == y else -1

    return _operator(ts, 3, source, weights).blocks


def _embed(op2: SectorOperator, ts: int, left: bool, weights: range) -> SectorOperator:
    """op2 (x) I (left) or I (x) op2 on the three-site sectors weights."""
    op2 = op2.restrict(_read_weights(ts, weights))
    flat = [x for block in op2.blocks for row in block for x in row] + [0]
    return SectorOperator(tuple(tuple(tuple(flat[k] for k in row) for row in block)
                                for block in _embedding(ts, left, weights)),
                          op2.den, weights)


def _over_q(parts: list, d: int) -> SectorOperator:
    """The operator A + sqrt(d) B, given as its integer parts [A] or [A, B]
    over one den, as a rational operator, twice its size unless d = 1: the
    entry a + b sqrt(d) becomes the block [[a, d b], [b, a]], a ring
    embedding, so products, differences and zero tests carry over."""
    a = parts[0]
    if d == 1:
        return a
    b = (parts[1] if len(parts) > 1 else 0 * a).blocks
    return SectorOperator(tuple(
        tuple(tuple(v for x, y in zip(ra, rb) for v in ((x, d * y) if top else (y, x)))
              for ra, rb in zip(ba, bb) for top in (True, False))
        for ba, bb in zip(a.blocks, b)), a.den, a.weights)


def dense_operator_identities(s) -> dict:
    """Exact residuals (largest |entry|) of the three-site relations among
    the permutation, the singlet projector, and every P^j sandwich

        P0_12 P^j_23 P0_12 = (2j+1)/(2s+1)^2 P0_12,

    with xi = (-1)^2s and eta = 1/(2s+1); both site orders checked.  The
    report passes iff every residual is zero.  Every relation is first
    built on the middle weight sector; when the projectors are certified
    sl2-invariant and every middle block is zero, that decides the report,
    and otherwise every residual is recomputed on all sectors.
    """
    projs = dense_projectors(s)
    residuals = _largest_entries(partial(_identity_residuals, projs), projs)
    worst = max(residuals.values())
    return {"s": str(HalfInt(_two_s(s))), "residuals": residuals,
            "max_residual": worst, "pass": worst == 0}


def _identity_residuals(projs: list, weights: range) -> dict:
    """The relations of dense_operator_identities on the three-site sectors
    weights, each a SectorOperator that is zero when the relation holds."""
    ts = len(projs) - 1
    projs = [p.restrict(_read_weights(ts, weights)) for p in projs]
    perm = permutation_dense(projs)
    xi = minus_one_pow(ts)
    eta = Fraction(1, ts + 1)
    eye3 = _operator(ts, 3, eq, weights)
    residuals = {}
    for order in ("12-23", "23-12"):
        left_first = order == "12-23"
        pl = _embed(perm, ts, left_first, weights)
        plp = _embed(perm, ts, not left_first, weights)
        p0l = _embed(projs[0], ts, left_first, weights)
        p0lp = _embed(projs[0], ts, not left_first, weights)
        # triple products grouped to the right, as in dense_ybe_residual
        rel = {
            "idempotent": p0l @ p0l - p0l,
            "involution": pl @ pl - eye3,
            "absorb-left": p0l @ pl - xi * p0l,
            "absorb-right": pl @ p0l - xi * p0l,
            "braid": pl @ (plp @ pl) - plp @ (pl @ plp),
            "intertwine-a": p0l @ (plp @ pl) - plp @ (pl @ p0lp),
            "intertwine-b": pl @ (p0lp @ pl) - plp @ (p0l @ plp),
            "sandwich": p0l @ (plp @ p0l) - eta * p0l,
            "sandwich-sq": p0l @ (p0lp @ p0l) - eta * eta * p0l,
            "chain-a": p0l @ (p0lp @ pl) - xi * eta * (p0l @ plp),
            "chain-b": pl @ (p0lp @ p0l) - xi * eta * (plp @ p0l),
        }
        for j in range(ts + 1):
            pj = _embed(projs[j], ts, not left_first, weights)
            rel[f"spin-{j}-sandwich"] = (p0l @ (pj @ p0l)
                                         - Fraction(2 * j + 1, (ts + 1) ** 2) * p0l)
        residuals.update((f"{order}/{name}", mat) for name, mat in rel.items())
    return residuals


def dense_r_matrix(fam: SpectralFamily, lam, projs: list) -> list:
    """R(lam) = sum_j r_j(lam) P^j on V_s (x) V_s, from the projectors
    P^0..P^2s on the sectors they hold, as integer parts over one den: [A]
    when every r_j(lam) is rational, else [A, B] with R = A + sqrt(d) B,
    d the family's discriminant."""
    c, rows = clear_parts([fam.coeff_parts(j, lam) for j in range(len(projs))],
                          fam.discriminant)
    return [SectorOperator(r.blocks, r.den * c, r.weights)
            for r in (_combine(list(zip(row, projs))) for row in rows)]


def dense_ybe_residual(fam: SpectralFamily, lam, mu) -> Fraction:
    """The largest |entry| of R12(l) R23(l+m) R12(m) - R23(m) R12(l+m) R23(l)
    in the rescaled basis, of its rational form over Q(sqrt(d)), exact: zero
    iff the braid equation holds there.  The residual is first built on the
    middle weight sector, from R on the 2s+1 two-site sectors it reads; a
    zero there stands when the projectors are certified sl2-invariant, and
    a nonzero block, or an uncertified set, is recomputed on all sectors."""
    projs = dense_projectors(fam.s)
    return _largest_entries(partial(_braid_residual, fam, lam, mu, projs), projs)["braid"]


def _braid_residual(fam: SpectralFamily, lam, mu, projs: list, weights: range) -> dict:
    """{"braid": the braid residual on the three-site sectors weights}."""
    ts = len(projs) - 1
    projs = [p.restrict(_read_weights(ts, weights)) for p in projs]
    r = [dense_r_matrix(fam, x, projs) for x in (lam, fam.sampling.compose(lam, mu), mu)]
    r12 = [_over_q([_embed(p, ts, True, weights) for p in x], fam.discriminant) for x in r]
    r23 = [_over_q([_embed(p, ts, False, weights) for p in x], fam.discriminant) for x in r]
    # grouped to the right, so each left factor is an embedded, sparse one
    return {"braid": r12[0] @ (r23[1] @ r12[2]) - r23[2] @ (r12[1] @ r23[0])}


def reduction_consistency(fam: SpectralFamily, samples) -> list:
    """One case per sample pair: the dense verdict (braid residual exactly
    zero) must agree with the exact reduced verdict, every level exactly
    zero by the route `verify` runs (`ybe.full_check`); a mismatch raises
    AssertionError, so every returned case is consistent."""
    cases = []
    for lam, mu in samples:
        dense = dense_ybe_residual(fam, lam, mu)
        dense_zero = dense == 0
        exact_zero = full_check(fam, range(top_level(fam.s) + 1), [(lam, mu)])["pass"]
        consistent = dense_zero == exact_zero
        cases.append({"lambda": str(lam), "mu": str(mu),
                      "dense_residual": dense, "dense_zero": dense_zero,
                      "exact_zero": exact_zero, "consistent": consistent})
        if not consistent:
            raise AssertionError(
                f"dense/exact verdict mismatch for {fam.tag} at ({lam}, {mu}): "
                f"dense {dense} vs exact_zero={exact_zero}")
    return cases
