import math
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2ybe import oracle, ybe
from sl2ybe.amatrix import LevelRange, top_level
from sl2ybe.exact import HalfInt, QuadExt, rescale_surd
from sl2ybe.linalg import mat_mul, span_rank
from sl2ybe.oracle import (SectorOperator, dense_operator_identities, dense_projectors,
                           dense_r_matrix, dense_ybe_residual,
                           permutation_dense, reduction_consistency,
                           sector_labels, spin_matrices)
from sl2ybe.spectral import (PoleError, RationalFunction, baxter_tl, constant_baxter,
                             custom_family, identity_family, permutation_family, yang,
                             zamolodchikov)

F = Fraction


def perturbed_yang(ts):
    tables = {}
    for j in range(ts + 1):
        sign = -1 if (ts - j) % 2 else 1
        num = (F(1), F(sign))
        if j == 0:
            num = (F(1), F(sign), F(1), F(sign))
        tables[j] = RationalFunction(num, (F(1), F(1)))
    return custom_family(HalfInt(ts), tables)


def with_top_fault(projs):
    """projs with den added to the weight-0 entry of P^(2s): the set no
    longer commutes with Delta(S_plus), and the middle three-site sector
    never reads the entry."""
    top = projs[-1]
    blocks = [list(map(list, block)) for block in top.blocks]
    blocks[0][0][0] += top.den
    return projs[:-1] + [SectorOperator(tuple(tuple(map(tuple, b)) for b in blocks), top.den)]


def perturbed(fam, j, c):
    """fam with r_j moved by c: a constant shifted by c, any other table
    times 1 + c (x - x0), so r_j stays 1 at the origin x0."""
    rf = fam.coeffs[j]
    if fam.constant:
        num = (rf.num[0] + c * rf.den[0],)
    else:
        x0 = fam.sampling.origin
        num = tuple(a * (1 - c * x0) + b * c for a, b in zip(rf.num + (0,), (0,) + rf.num))
    return custom_family(fam.s, {**fam.coeffs, j: RationalFunction(num, rf.den)},
                         multiplicative=fam.multiplicative)


def perturbed_baxter_tl():
    """baxter-tl at s = 1, in Q(sqrt(5)), with r_1 = 1 - sqrt(5) + sqrt(5) t:
    regular, and not a solution."""
    tables = dict(baxter_tl(1).coeffs)
    tables[1] = RationalFunction((QuadExt(1, -1, 5), QuadExt(0, 1, 5)), (F(1),))
    return custom_family(1, tables, multiplicative=True)


def yang_with_surd():
    """yang at s = 1 with r_0 = 1 + sqrt(5) (x^2 - x): regular and no
    solution; at x = 1 every r_j is rational and R is not a scalar."""
    tables = dict(yang(1).coeffs)
    tables[0] = RationalFunction((F(1), QuadExt(0, -1, 5), QuadExt(0, 1, 5)), (F(1),))
    return custom_family(1, tables)


def quadext_combine(terms):
    """The sum of c * op with c int, Fraction or QuadExt, over the lcm of the
    rational denominators: the entries turn QuadExt once a coefficient is
    one.  The assembly of R before it was split into integer parts."""
    parts = [((c, 1) if isinstance(c, QuadExt) else (c.numerator, c.denominator), op)
             for c, op in terms]
    den = math.lcm(*(q * op.den for (_, q), op in parts))
    factors = [p * (den // (q * op.den)) for (p, q), op in parts]
    return SectorOperator(tuple(
        tuple(tuple(sum(map(mul, factors, column)) for column in zip(*rows))
              for rows in zip(*sector))
        for sector in zip(*(op.blocks for _, op in parts))), den, parts[0][1].weights)


def quadext_over_q(op, d):
    """A QuadExt-entry operator as a rational one twice its size, the entry
    a + b sqrt(d) the block [[a, d b], [b, a]], cleared entry by entry."""
    if d == 1:
        return op
    pairs = [[[(x.a, rescale_surd(x.b, x.d, d) if x.b else 0) if isinstance(x, QuadExt)
               else (x, 0) for x in row] for row in block] for block in op.blocks]
    c = math.lcm(*(F(v).denominator
                   for block in pairs for row in block for pair in row for v in pair))
    return SectorOperator(tuple(
        tuple(tuple(int(v * c) for a, b in row for v in ((a, d * b) if top else (b, a)))
              for row in block for top in (True, False))
        for block in pairs), op.den * c, op.weights)


def quadext_residual(fam, lam, mu):
    """The dense braid residual on every sector with R assembled from
    QuadExt coefficients (quadext_combine, then quadext_over_q)."""
    ts = fam.s.twice
    projs, every = dense_projectors(fam.s), range(3 * ts + 1)
    r = [quadext_combine([(fam.eval_coeff(j, x), p) for j, p in enumerate(projs)])
         for x in (lam, fam.sampling.compose(lam, mu), mu)]
    r12 = [quadext_over_q(oracle._embed(x, ts, True, every), fam.discriminant) for x in r]
    r23 = [quadext_over_q(oracle._embed(x, ts, False, every), fam.discriminant) for x in r]
    return (r12[0] @ (r23[1] @ r12[2]) - r23[2] @ (r12[1] @ r23[0])).max_abs()


def entries(op, ts, sites=2):
    """Every entry inside a weight sector, {(row label, column label): value};
    entries between sectors are zero and left out."""
    return {(r, c): F(x, op.den)
            for labels, block in zip(sector_labels(ts, sites), op.blocks)
            for r, row in zip(labels, block) for c, x in zip(labels, row)}


def gram(label, ts):
    """|f_a|^2 = prod_{k=1..a} k(2s - k + 1) on each site, f_0 of unit norm."""
    out = 1
    for a in label:
        for k in range(1, a + 1):
            out *= k * (ts - k + 1)
    return out


class TestProjectors:
    @pytest.mark.parametrize("s", ["1/2", 1, "3/2", 2])
    def test_projector_algebra(self, s):
        ts = HalfInt.coerce(s).twice
        projs = dense_projectors(s)
        total = {}
        for p in projs:
            for key, x in entries(p, ts).items():
                total[key] = total.get(key, 0) + x
        assert total == {(r, c): int(r == c) for r, c in total}
        for i, pi in enumerate(projs):
            assert (pi @ pi - pi).max_abs() == 0
            # self-adjoint: G P is symmetric for the Gram matrix G of the
            # rescaled basis, the exact form of P = P^T in the standard one
            e = entries(pi, ts)
            assert all(gram(r, ts) * x == gram(c, ts) * e[c, r] for (r, c), x in e.items())
            for j in range(i + 1, len(projs)):
                assert (pi @ projs[j]).max_abs() == 0

    def test_traces_count_multiplets(self):
        for ts in (1, 2, 3):
            projs = dense_projectors(HalfInt(ts))
            for j, p in enumerate(projs):
                diag = [x for (r, c), x in entries(p, ts).items() if r == c]
                assert sum(diag) == 2 * j + 1

    def test_singlet_projector_trace_one(self):
        p0 = dense_projectors("1/2")[0]
        assert sum(len(block) for block in p0.blocks) == 4
        assert sum(x for (r, c), x in entries(p0, 1).items() if r == c) == 1

    def test_permutation_swaps_basis_vectors(self):
        # the rescaling T (x) T commutes with the swap, which stays the
        # plain label permutation f_a (x) f_b -> f_b (x) f_a
        perm = entries(permutation_dense(dense_projectors(1)), 2)
        assert perm == {(r, c): int(r == c[::-1]) for r, c in perm}

    def test_builds_past_the_float_cap(self):
        # 2s = 5 was refused while the oracle ran in floating point
        projs = dense_projectors(HalfInt(5))
        assert len(projs) == 6 and oracle._certified(tuple(projs))


class TestOperatorIdentities:
    @pytest.mark.parametrize("s", ["1/2", 1, "3/2"])
    def test_all_identities(self, s):
        report = dense_operator_identities(s)
        assert report["pass"], report["residuals"]

    def test_identities_past_the_float_cap(self):
        # 2s = 4 was refused while the oracle ran in floating point
        report = dense_operator_identities(HalfInt(4))
        assert report["pass"] and len(report["residuals"]) == 2 * (11 + 5)

    def test_sandwich_values(self):
        report = dense_operator_identities(1)
        assert report["residuals"]["12-23/spin-0-sandwich"] == 0
        assert report["residuals"]["12-23/braid"] == 0

    def test_quarter_constant_for_three_halves(self):
        report = dense_operator_identities("3/2")
        assert report["residuals"]["12-23/sandwich"] == 0  # eta = 1/4

    def test_cached_projectors_refuse_writes(self):
        with pytest.raises(AttributeError):
            dense_projectors(HalfInt(1))[0].den = 2

    @pytest.mark.parametrize("ts", [1, 2, 3])
    def test_planted_projector_fault_fails(self, monkeypatch, ts):
        projs = dense_projectors(HalfInt(ts))
        blocks = [list(map(list, block)) for block in projs[0].blocks]
        blocks[ts][0][0] *= 2   # the singlet lives in the weight-2s sector
        bad = SectorOperator(tuple(tuple(map(tuple, b)) for b in blocks), projs[0].den)
        monkeypatch.setattr(oracle, "dense_projectors", lambda s: [bad] + projs[1:])
        report = dense_operator_identities(HalfInt(ts))
        assert not report["pass"] and report["max_residual"] > 0


class TestDenseYbe:
    def test_yang_solves(self):
        fam = yang(1)
        assert dense_ybe_residual(fam, F(1, 2), F(1, 3)) == 0

    def test_shifted_family_solves(self):
        fam = zamolodchikov(1, 2)
        assert dense_ybe_residual(fam, F(1, 2), F(1, 3)) == 0

    def test_negative_control_fails_loudly(self):
        assert dense_ybe_residual(perturbed_yang(1), F(1), F(1)) == F(1, 2)

    @pytest.mark.parametrize("ts", [1, 2, 3, 4])
    def test_negative_control_fails_at_every_cap_spin(self, ts):
        assert dense_ybe_residual(perturbed_yang(ts), F(1, 2), F(1, 3)) != 0

    def test_quadratic_field_family(self):
        # baxter-tl lives in Q(sqrt(5)); with r_1 = 1 - sqrt(5) + sqrt(5) t
        # it stays regular and breaks, on the dense and the reduced side
        assert reduction_consistency(baxter_tl(1), [(F(2), F(3))])[0]["dense_zero"]
        case, = reduction_consistency(perturbed_baxter_tl(), [(F(2), F(3))])
        assert not case["dense_zero"] and not case["exact_zero"]

    @pytest.mark.parametrize("fam, pairs", [
        (baxter_tl(1), [(F(2), F(3)), (F(3, 2), F(5)), (F(1), F(3))]),
        (baxter_tl("3/2"), [(F(2), F(3)), (F(5), F(1, 2))]),
        (baxter_tl(2), [(F(2), F(3)), (F(4), F(9))]),
        (constant_baxter(1, 2), [(F(0), F(0))]),
        (constant_baxter(2, 3), [(F(0), F(0)), (F(1, 2), F(1, 3))]),
        (constant_baxter("5/2", 4), [(F(0), F(0))]),
        (perturbed_baxter_tl(), [(F(2), F(3)), (F(3), F(7)), (F(1, 2), F(5))]),
        (yang_with_surd(), [(F(1), F(1)), (F(1), F(1, 2)), (F(1, 2), F(1, 3))]),
    ], ids=["baxter-tl-1", "baxter-tl-3/2", "baxter-tl-2", "constant-baxter-1-2",
            "constant-baxter-2-3", "constant-baxter-5/2-4", "perturbed-baxter-tl",
            "yang-with-surd"])
    def test_integer_parts_match_the_quadext_assembly(self, fam, pairs):
        # splitting r_j into integer parts before they meet the projectors
        # gives the residual the QuadExt entries gave, zero or not: a
        # constant-baxter below m = 2s and the perturbed tables break.  A
        # rational R (at t = 1, or at x = 1 with the surd in yang) has no
        # sqrt(d) part
        assert fam.discriminant != 1
        got = [dense_ybe_residual(fam, lam, mu) for lam, mu in pairs]
        assert got == [quadext_residual(fam, lam, mu) for lam, mu in pairs]
        solution = fam.tag == "baxter-tl" or fam.m == fam.s.twice
        assert all(x == 0 for x in got) == solution and any(got) != solution

    @pytest.mark.parametrize("fam", [baxter_tl(2), constant_baxter(2, 3), yang(2),
                                     perturbed_baxter_tl()], ids=lambda f: f.tag)
    def test_every_entry_built_is_an_int(self, monkeypatch, fam):
        built = []

        class Recording(SectorOperator):
            __slots__ = ()

            def __init__(self, blocks, den=1, weights=None):
                built.append((blocks, den))
                super().__init__(blocks, den, weights)

        projs = dense_projectors(fam.s)
        monkeypatch.setattr(oracle, "SectorOperator", Recording)
        lam, mu = fam.sampling.grid[0]
        oracle._braid_residual(fam, lam, mu, projs, range(3 * fam.s.twice + 1))
        assert len(built) > 10
        assert all(type(den) is int and den > 0 for _, den in built)
        assert all(type(x) is int for blocks, _ in built
                   for block in blocks for row in block for x in row)

    def test_r_matrix_assembly(self):
        fam = yang("1/2")
        projs = dense_projectors("1/2")
        rational, = dense_r_matrix(fam, F(1), projs)
        r = entries(rational, 1)
        perm = entries(permutation_dense(projs), 1)
        # at lambda = 1, R = (E + P)/2
        assert r == {(a, b): F(int(a == b) + perm[a, b], 2) for a, b in perm}


@pytest.fixture(params=["one", "both"])
def casimir_sign_flip(request, monkeypatch):
    """The projectors rebuilt from 4 C_12 with a sign flipped: "one" negates
    its S_plus (x) S_minus term (the entries whose row lowers a_1), "both"
    every off-diagonal entry.  Yields the flip."""
    real = oracle._casimir

    def flipped_entry(r, col, x):
        return -x if r[0] < col[0] or (request.param == "both" and r != col) else x

    def flipped(ts):
        c = real(ts)
        return SectorOperator(tuple(
            tuple(tuple(flipped_entry(r, col, x) for col, x in zip(labels, row))
                  for r, row in zip(labels, block))
            for labels, block in zip(sector_labels(ts, 2), c.blocks)), c.den)

    monkeypatch.setattr(oracle, "_casimir", flipped)
    oracle._projectors.cache_clear()
    yield request.param
    oracle._projectors.cache_clear()


def commutes_with_lowering(projs):
    """Whether every operator in projs commutes with Delta(S_minus), which
    maps two-site sector w - 1 to w (S_minus f_a = f_(a+1))."""
    ts = len(projs) - 1
    labels = sector_labels(ts, 2)
    for w in range(1, 2 * ts + 1):
        down = tuple(tuple(int(r == (c1 + 1, c2)) + int(r == (c1, c2 + 1))
                           for c1, c2 in labels[w - 1]) for r in labels[w])
        for p in projs:
            if mat_mul(p.blocks[w], down) != mat_mul(down, p.blocks[w - 1]):
                return False
    return True


class TestCertificate:
    """A zero is read from the middle three-site sector only for projectors
    that commute with total sl2; any other set is decided on every sector."""

    @pytest.mark.parametrize("ts", [1, 2, 3, 4])
    def test_raising_decides_lowering_too(self, ts):
        # the certificate checks Delta(S_plus) alone: for weight-preserving
        # operators, commuting with it and with Delta(S_minus) agree
        projs = dense_projectors(HalfInt(ts))
        assert commutes_with_lowering(projs) and not commutes_with_lowering(with_top_fault(projs))
        for ops in (projs, with_top_fault(projs)):
            assert oracle._certified(tuple(ops)) == commutes_with_lowering(ops)

    @pytest.mark.parametrize("ts", [2, 3])
    def test_fault_outside_the_middle_sector_fails(self, monkeypatch, ts):
        bad = with_top_fault(dense_projectors(HalfInt(ts)))
        fam = yang(HalfInt(ts))
        middle = oracle._middle(ts)
        # the middle sector alone reads every relation as exactly zero
        assert not any(op.max_abs() for op in oracle._identity_residuals(bad, middle).values())
        assert oracle._braid_residual(fam, F(1, 2), F(1, 3), bad, middle)["braid"].max_abs() == 0
        assert not oracle._certified(tuple(bad))
        monkeypatch.setattr(oracle, "dense_projectors", lambda s: list(bad))
        assert not dense_operator_identities(HalfInt(ts))["pass"]
        assert dense_ybe_residual(fam, F(1, 2), F(1, 3)) != 0

    @pytest.mark.parametrize("ts", [1, 2, 3])
    def test_casimir_sign_flip_is_caught(self, casimir_sign_flip, ts):
        assert not oracle._certified(tuple(dense_projectors(HalfInt(ts))))
        assert not commutes_with_lowering(dense_projectors(HalfInt(ts)))
        report = dense_operator_identities(HalfInt(ts))
        residual = dense_ybe_residual(yang(HalfInt(ts)), F(1, 2), F(1, 3))
        if casimir_sign_flip == "both":
            # equivalent for the verdicts: the basis sign change f_a -> (-1)^a f_a
            # on the middle site maps both embedded Casimirs to the flipped ones
            assert report["pass"] and residual == 0
        else:
            assert not report["pass"] and residual != 0

    @settings(max_examples=40, deadline=None)
    @given(fam=st.sampled_from([
        yang("1/2"), yang(1), yang("3/2"), zamolodchikov(1, 2), zamolodchikov("3/2", 3),
        baxter_tl(1), baxter_tl("3/2"), constant_baxter(1, 2), constant_baxter("3/2", 3),
        permutation_family(1), identity_family("3/2")]),
           lam=st.fractions(min_value=0, max_value=3, max_denominator=5),
           mu=st.fractions(min_value=0, max_value=3, max_denominator=5), data=st.data())
    def test_residual_equals_the_all_sector_one(self, fam, lam, mu, data):
        if data.draw(st.booleans(), label="perturbed"):
            j = data.draw(st.integers(0, fam.s.twice), label="j")
            c = data.draw(st.sampled_from([F(1), F(-1, 2), F(1, 3)]), label="c")
            fam = perturbed(fam, j, c)
        every = range(3 * fam.s.twice + 1)
        try:
            got = dense_ybe_residual(fam, lam, mu)
        except PoleError:
            assume(False)
        projs = dense_projectors(fam.s)
        assert got == oracle._braid_residual(fam, lam, mu, projs, every)["braid"].max_abs()


class TestReductionConsistency:
    def test_positive_cases(self):
        samples = [(F(1, 2), F(1, 3)), (F(1), F(2)), (F(1, 3), F(1, 5)), (F(2), F(1, 4))]
        # a verdict mismatch raises
        reduction_consistency(yang(1), samples)
        reduction_consistency(zamolodchikov(1, 2), samples[:2])

    def test_negative_control_consistent(self):
        case, = reduction_consistency(perturbed_yang(1), [(F(1), F(1))])
        assert not case["dense_zero"] and not case["exact_zero"]

    def test_constant_family_consistent(self):
        reduction_consistency(permutation_family(1), [(F(0), F(0))])

    def test_the_exact_verdict_is_the_verify_route(self, monkeypatch):
        # the class form decides yang(1)'s verdicts in full_check: with its
        # verdict flipped, the exact side reads nonzero and the dense side
        # still reads zero
        real = ybe._form_zero
        monkeypatch.setattr(ybe, "_form_zero", lambda *args: not real(*args))
        with pytest.raises(AssertionError, match="dense/exact verdict mismatch"):
            reduction_consistency(yang(1), [(F(1, 2), F(1, 3))])


def weight_space_dimension(s, n: int) -> int:
    """Dimension of the level-n highest-weight space, computed from the
    null space of the raising operator on the weight-(3s-n) sector."""
    dim = s.twice + 1
    sz, sp = spin_matrices(s)
    labels = list(product(range(dim), repeat=3))

    def raising(row, col):
        # S_plus (x) 1 (x) 1 + 1 (x) S_plus (x) 1 + 1 (x) 1 (x) S_plus
        return sum(sp[row[i]][col[i]] for i in range(3)
                   if row[:i] + row[i + 1:] == col[:i] + col[i + 1:])

    target = F(3 * s.twice, 2) - n
    sector = [c for c in labels if sum(sz[a][a] for a in c) == target]
    columns = [(tuple(raising(r, c) for r in labels),) for c in sector]
    return len(sector) - span_rank(columns)


class TestWeightSpaces:
    def test_dimensions_match_level_ranges(self):
        for ts in (1, 2, 3, 4):
            s = HalfInt(ts)
            for n in range(top_level(s) + 1):
                rng = LevelRange.for_level(s, n)
                assert weight_space_dimension(s, n) == rng.dim, (ts, n)

    def test_middle_sector_holds_one_vector_per_component(self):
        # S_z = 0 or 1/2 meets every irreducible component of V_s^(x)3 once,
        # and the level-n space counts the components of spin 3s - n
        for ts in range(1, 13):
            s = HalfInt(ts)
            middle, = (sector_labels(ts, 3)[w] for w in oracle._middle(ts))
            assert len(middle) == sum(LevelRange.for_level(s, n).dim
                                      for n in range(top_level(s) + 1)), ts
