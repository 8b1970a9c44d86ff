from fractions import Fraction

import numpy as np
import pytest

from sl2ybe.amatrix import LevelRange, top_level
from sl2ybe.exact import DomainError, HalfInt
from sl2ybe.oracle import (IDENTITIES_TWO_S_CAP, IDENTITY_TOL, PROJECTOR_TOL,
                           PROJECTOR_TWO_S_CAP, YBE_TOL,
                           dense_operator_identities, dense_projectors,
                           dense_r_matrix, dense_ybe_residual,
                           permutation_dense, reduction_consistency,
                           spin_matrices)
from sl2ybe.spectral import (RationalFunction, custom_family,
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


class TestProjectors:
    @pytest.mark.parametrize("s", ["1/2", 1, "3/2", 2])
    def test_projector_algebra(self, s):
        projs = dense_projectors(s)
        dim = projs[0].shape[0]
        total = sum(projs)
        assert np.max(np.abs(total - np.eye(dim))) < PROJECTOR_TOL
        for i, pi in enumerate(projs):
            assert np.max(np.abs(pi @ pi - pi)) < PROJECTOR_TOL
            assert np.max(np.abs(pi - pi.T)) < PROJECTOR_TOL
            for j in range(i + 1, len(projs)):
                assert np.max(np.abs(pi @ projs[j])) < PROJECTOR_TOL

    def test_traces_count_multiplets(self):
        for ts in (1, 2, 3):
            projs = dense_projectors(HalfInt(ts))
            for j, p in enumerate(projs):
                assert np.trace(p) == pytest.approx(2 * j + 1, abs=1e-9)

    def test_singlet_projector_trace_one(self):
        p0 = dense_projectors("1/2")[0]
        assert p0.shape == (4, 4)
        assert np.trace(p0) == pytest.approx(1.0, abs=1e-10)

    def test_permutation_swaps_basis_vectors(self):
        ts = 2
        perm = permutation_dense(1)
        dim = ts + 1
        for a in range(dim):
            for b in range(dim):
                v = np.zeros(dim * dim)
                v[a * dim + b] = 1.0
                w = perm @ v
                expect = np.zeros(dim * dim)
                expect[b * dim + a] = 1.0
                assert np.max(np.abs(w - expect)) < 1e-12

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
        assert report["residuals"]["12-23/spin-0-sandwich"] < IDENTITY_TOL
        assert report["residuals"]["12-23/braid"] < IDENTITY_TOL

    def test_quarter_constant_for_three_halves(self):
        report = dense_operator_identities("3/2")
        assert report["residuals"]["12-23/sandwich"] < IDENTITY_TOL  # eta = 1/4


class TestDenseYbe:
    def test_yang_solves(self):
        fam = yang(1)
        assert dense_ybe_residual(fam, F(1, 2), F(1, 3)) < YBE_TOL

    def test_shifted_family_solves(self):
        fam = zamolodchikov(1, 2)
        assert dense_ybe_residual(fam, F(1, 2), F(1, 3)) < YBE_TOL

    def test_negative_control_fails_loudly(self):
        assert dense_ybe_residual(perturbed_yang(1), F(1), F(1)) > 1e-3

    def test_r_matrix_assembly(self):
        fam = yang("1/2")
        r = dense_r_matrix(fam, F(1))
        perm = permutation_dense("1/2")
        # at lambda = 1, R = (E + P)/2
        assert np.max(np.abs(r - (np.eye(4) + perm) / 2)) < 1e-12


class TestReductionConsistency:
    def test_positive_cases(self):
        samples = [(F(1, 2), F(1, 3)), (F(1), F(2)), (F(1, 3), F(1, 5)), (F(2), F(1, 4))]
        assert reduction_consistency(yang(1), samples)["pass"]
        assert reduction_consistency(zamolodchikov(1, 2), samples[:2])["pass"]

    def test_negative_control_consistent(self):
        report = reduction_consistency(perturbed_yang(1), [(F(1), F(1))])
        case = report["cases"][0]
        assert not case["dense_zero"] and not case["exact_zero"]

    def test_constant_family_consistent(self):
        report = reduction_consistency(permutation_family(1), [(F(0), F(0))])
        assert report["pass"]


def weight_space_dimension(s, n: int) -> int:
    """Dimension of the level-n highest-weight space, computed from the
    null space of the raising operator on the weight-(3s-n) sector."""
    dim = s.twice + 1
    sz, sp = spin_matrices(s)
    eye = np.eye(dim)
    sz3 = (np.kron(np.kron(sz, eye), eye) + np.kron(np.kron(eye, sz), eye)
           + np.kron(np.kron(eye, eye), sz))
    sp3 = (np.kron(np.kron(sp, eye), eye) + np.kron(np.kron(eye, sp), eye)
           + np.kron(np.kron(eye, eye), sp))
    target = 3 * s.twice / 2.0 - n
    sector = [i for i in range(dim ** 3) if abs(sz3[i, i] - target) < 1e-9]
    rank = np.linalg.matrix_rank(sp3[:, sector], tol=1e-9)
    return len(sector) - rank


class TestWeightSpaces:
    def test_dimensions_match_level_ranges(self):
        for ts in (1, 2, 3, 4):
            s = HalfInt(ts)
            for n in range(top_level(s) + 1):
                rng = LevelRange.for_level(s, n)
                assert weight_space_dimension(s, n) == rng.dim, (ts, n)
