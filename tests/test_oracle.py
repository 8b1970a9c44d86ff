from fractions import Fraction
from itertools import product

import pytest

from sl2ybe import oracle
from sl2ybe.amatrix import LevelRange, top_level
from sl2ybe.exact import DomainError, HalfInt, QuadExt
from sl2ybe.linalg import span_rank
from sl2ybe.oracle import (IDENTITIES_TWO_S_CAP, PROJECTOR_TWO_S_CAP, SectorOperator,
                           dense_operator_identities, dense_projectors,
                           dense_r_matrix, dense_ybe_residual,
                           permutation_dense, reduction_consistency,
                           sector_labels, spin_matrices)
from sl2ybe.spectral import (RationalFunction, baxter_tl, custom_family,
                             permutation_family, yang, zamolodchikov)

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
        perm = entries(permutation_dense(1), 2)
        assert perm == {(r, c): int(r == c[::-1]) for r, c in perm}

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            dense_projectors(3)
        with pytest.raises(DomainError, match=f"above the dense cap {PROJECTOR_TWO_S_CAP}"):
            dense_projectors(HalfInt(PROJECTOR_TWO_S_CAP + 1))


class TestOperatorIdentities:
    @pytest.mark.parametrize("s", ["1/2", 1, "3/2"])
    def test_all_identities(self, s):
        report = dense_operator_identities(s)
        assert report["pass"], report["residuals"]

    def test_dimension_cap(self):
        dense_operator_identities(HalfInt(IDENTITIES_TWO_S_CAP))
        with pytest.raises(DomainError, match=f"above the dense cap {IDENTITIES_TWO_S_CAP}"):
            dense_operator_identities(HalfInt(IDENTITIES_TWO_S_CAP + 1))

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
        fam = baxter_tl(1)
        assert reduction_consistency(fam, [(F(2), F(3))])[0]["dense_zero"]
        tables = dict(fam.coeffs)
        tables[1] = RationalFunction((QuadExt(1, -1, 5), QuadExt(0, 1, 5)), (F(1),))
        bad = custom_family(1, tables, multiplicative=True)
        case, = reduction_consistency(bad, [(F(2), F(3))])
        assert not case["dense_zero"] and not case["exact_zero"]

    def test_r_matrix_assembly(self):
        fam = yang("1/2")
        r = entries(dense_r_matrix(fam, F(1)), 1)
        perm = entries(permutation_dense("1/2"), 1)
        # at lambda = 1, R = (E + P)/2
        assert r == {(a, b): F(int(a == b) + perm[a, b], 2) for a, b in perm}


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
