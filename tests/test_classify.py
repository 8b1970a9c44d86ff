from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sl2ybe import classify
from sl2ybe.acceptance import criterion_1, criterion_2
from sl2ybe.amatrix import (GaugedMatrix, a_matrix, consecutive_level_ratio, eta,
                            eta_closed_form, rank_one_projector, sign_diagonal,
                            top_level)
from sl2ybe.classify import (constant_m_prime, constant_roots, degeneracy_scan,
                             eta_level4_m3, exceptional_level_combination,
                             fgh_matrices, level_three_five_ratio,
                             permutation_rigidity,
                             projector_obstruction_check, theta)
from sl2ybe.cli import main
from sl2ybe.exact import DomainError, HalfInt, QuadExt
from sl2ybe.linalg import diagonal, mat_add, mat_mul, span_rank


def mat_scale(c, x):
    """c times the matrix x, entry by entry."""
    return tuple(tuple(c * a for a in row) for row in x)


F = Fraction


def fraction_fgh(a, m):
    """F, G, H and H~ by dense Fraction products on the rational ucore
    M * diag(u), built here from the core and the weights."""
    x = tuple(tuple(c * w for c, w in zip(row, a.weights)) for row in a.core)
    d0 = diagonal([F(e) for e in sign_diagonal(a.range)])
    pi = diagonal([F(e) for e in rank_one_projector(a.range, m)])
    d0h, pih = mat_mul(mat_mul(x, d0), x), mat_mul(mat_mul(x, pi), x)

    def sub(p, q):
        return mat_add(p, mat_scale(-1, q))

    return (sub(d0, d0h), sub(pi, pih),
            sub(mat_mul(pi, d0h), mat_mul(d0, pih)),
            sub(mat_mul(d0h, pi), mat_mul(pih, d0)))


ACTIVE_CELLS = [(ts, m, n) for ts in range(1, 7) for m in range(ts + 1)
                for n in range(top_level(HalfInt(ts)) + 1) if theta(HalfInt(ts), m, n)]


class TestFghSystem:
    def test_g_entry_at_distinguished_index(self):
        _, big_g, _, _ = fgh_matrices(1, 2, 2)
        # G_mm = 1 - eta^2 with eta = 1/3, times L^2 on the integer core
        assert big_g[2][2] == (1 - F(1, 9)) * a_matrix(1, 2).ucore_lcm ** 2

    @pytest.mark.parametrize("ts, m, n", ACTIVE_CELLS)
    def test_integer_system_is_scaled_fraction_system(self, ts, m, n):
        a = a_matrix(HalfInt(ts), n)
        want = fraction_fgh(a, m)
        got = fgh_matrices(HalfInt(ts), m, n)
        assert got == tuple(mat_scale(a.ucore_lcm ** 2, x) for x in want)
        assert all(type(x) is int for mat in got for row in mat for x in row)
        assert span_rank(got) == span_rank(want)

    def test_theta_zero_cell_rejected(self):
        with pytest.raises(DomainError):
            fgh_matrices(1, 2, 1)

    def test_index_outside_shifted_range_rejected(self):
        with pytest.raises(DomainError):
            fgh_matrices("3/2", 3, 4)

    def test_transpose_relation_in_raw_gauge(self):
        # H~ = H^t holds for the raw matrices: in gauge form that reads
        # Ht = U^-1 H^t U with U the diagonal of weights.
        for (s, m, n) in [(1, 2, 2), (2, 3, 4), ("5/2", 3, 5)]:
            _, _, big_h, big_ht = fgh_matrices(s, m, n)
            w = a_matrix(s, n).weights
            ht = tuple(zip(*big_h))
            conj = tuple(tuple(ht[i][j] * w[j] / w[i] for j in range(len(w)))
                         for i in range(len(w)))
            assert conj == big_ht

    def test_degenerate_cell_relations(self):
        for s in (2, "5/2", 3):
            _, big_g, big_h, big_ht = fgh_matrices(s, 3, 4)
            assert big_h == big_ht
            assert mat_add(big_h, big_ht) == mat_scale(F(2), big_g)


def plant_in_sign_hat(monkeypatch, s, n, i, j):
    """Add 1 to entry (i, j) of the cached N D0 N of A^(s,n)."""
    a = a_matrix(s, n)
    bad = [list(row) for row in a.sign_hat]
    bad[i][j] += 1
    monkeypatch.setattr(a, "sign_hat", tuple(map(tuple, bad)))


class TestSignHatFaults:
    """Sign conjugation guards every entry of N D0 N that F, H and H~
    read, not only row and column m."""

    def test_fault_outside_row_m_raises(self, monkeypatch):
        # entry (0, 0) enters F alone; row and column m = 2 are intact
        plant_in_sign_hat(monkeypatch, 2, 3, 0, 0)
        with pytest.raises(AssertionError,
                           match=r"sign conjugation fails at \(s=2, n=3\)"):
            fgh_matrices(2, 2, 3)

    def test_fault_outside_row_m_fails_the_scan(self, monkeypatch, capsys):
        plant_in_sign_hat(monkeypatch, 2, 3, 0, 0)
        assert main(["scan-degeneracy", "--max-2s", "4"]) == 1
        assert capsys.readouterr().err == (
            "error: internal check failed: sign conjugation fails at (s=2, n=3)\n")

    def test_fault_in_row_m_raises(self, monkeypatch):
        plant_in_sign_hat(monkeypatch, 2, 3, 2, 0)
        with pytest.raises(AssertionError, match=r"n=3\)"):
            fgh_matrices(2, 2, 3)

    def test_fault_fails_criteria_1_and_2_at_its_cell(self, monkeypatch):
        # the Racah sum rule is sign conjugation in 6-j form, so one
        # residual decides both criteria
        plant_in_sign_hat(monkeypatch, 2, 3, 0, 0)
        assert criterion_1(4).details == ["failed at (s=2, n=3)", "18 levels, 1 failed"]
        result = criterion_2(4)
        assert not result.passed
        assert result.details == ["nonzero at (s=2, n=3, k=0, k'=0)",
                                  "119 Racah sum-rule residuals, 1 nonzero"]


class TestRank:
    def test_small_level_carries_one_relation(self):
        # at (s=1, m=2, n=2) the exact span is 3-dimensional:
        # H + H~ = G - (2/3) F
        assert span_rank(fgh_matrices(1, 2, 2)) == 3

    def test_degenerate_cell_rank_two(self):
        assert span_rank(fgh_matrices(2, 3, 4)) == 2

    def test_generic_cell_rank_four(self):
        assert span_rank(fgh_matrices(3, 3, 5)) == 4
        assert span_rank(fgh_matrices(2, 2, 4)) == 4
        assert span_rank(fgh_matrices(2, 4, 4)) == 4


@pytest.fixture(scope="module")
def scan():
    return degeneracy_scan(6)


class TestDegeneracyScan:
    def test_unshifted_degeneracies_exactly_level_four(self, scan):
        cells = {(r.s.twice, r.m, r.n) for r in scan.unshifted_degeneracies()}
        assert cells == {(4, 3, 4), (5, 3, 4), (6, 3, 4)}

    def test_degenerate_records_have_beta_two(self, scan):
        for rec in scan.unshifted_degeneracies():
            assert rec.beta == 2 and rec.holds_transpose

    def test_shifted_degeneracies_follow_sign_rule(self, scan):
        # every extra degeneracy lives at a shifted level with beta = -2*(-1)^m
        for rec in scan.degeneracies:
            if rec.shifted and rec.beta is not None:
                assert rec.beta == -2 * (-1) ** rec.m, rec

    def test_disagreeing_relations_raise(self, monkeypatch):
        # H~ replaced by H: the transpose relation holds at every cell, but
        # H + H~ = 2H is no multiple of G at (s=1, m=2, n=2)
        real = classify.fgh_operators

        def same_h(a, pi):
            big_f, big_g, big_h, _ = real(a, pi)
            return big_f, big_g, big_h, big_h

        monkeypatch.setattr(classify, "fgh_operators", same_h)
        with pytest.raises(AssertionError, match=r"simultaneity violated at "
                           r"\(s=1, m=2, n=2\): transpose=True multiple=False"):
            degeneracy_scan(2)

    @pytest.mark.parametrize("max_two_s, levels", [(10, 69), (20, 289)])
    def test_sign_conjugation_checked_once_per_level(self, monkeypatch,
                                                     max_two_s, levels):
        real, seen = classify.verify_sign_conjugation, []

        def counted(s, n):
            seen.append((s, n))
            return real(s, n)

        monkeypatch.setattr(classify, "verify_sign_conjugation", counted)
        result = degeneracy_scan(max_two_s)
        assert len(seen) == len(set(seen)) == levels
        assert set(seen) == {(r.s, r.n) for r in result.records}

    def test_out_of_range_cells_are_skipped(self, scan):
        skipped = {(e["s"], e["m"], e["n"]) for e in scan.skipped}
        assert ("3/2", 3, 4) in skipped

    def test_nondegenerate_unshifted_ranks(self, scan):
        for rec in scan.records:
            if not rec.shifted and not rec.holds_transpose:
                assert rec.rank in (3, 4), rec

    def test_beta_tilde_occurrences_are_recorded(self, scan):
        # the rank-3 cells decompose as H + H~ = beta G + beta_tilde F
        hits = scan.beta_tilde_nonzero()
        assert hits
        sample = next(r for r in hits if (r.s.twice, r.m, r.n) == (2, 2, 2))
        assert sample.beta == 1 and sample.beta_tilde == F(-2, 3)


def permutation_det(x):
    """The determinant of a square matrix as the signed sum over
    permutations, the sign from the inversion count."""
    n = len(x)
    return sum((-1) ** sum(p[j] < p[i] for i in range(n) for j in range(i + 1, n))
               * prod(x[i][p[i]] for i in range(n)) for p in permutations(range(n)))


int_rows = st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=4)


class TestProjection:
    """Rank 4 is decided by one 4x4 minor: F, G, H, H~ restricted to the
    2x2 block at offsets {i-1, i}, or else {i, i+1}, with pi at i; every
    other cell runs the full system."""

    @given(st.lists(int_rows, min_size=4, max_size=4))
    def test_determinant_matches_the_permutation_sum(self, x):
        assert classify._det4(x) == permutation_det(x)

    @given(st.lists(int_rows, min_size=3, max_size=3),
           st.lists(st.integers(-50, 50), min_size=3, max_size=3),
           st.integers(0, 3))
    def test_determinant_vanishes_on_a_planted_row_relation(self, rows, coeffs, at):
        planted = [sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(4)]
        x = rows[:at] + [planted] + rows[at:]
        assert classify._det4(x) == permutation_det(x) == 0

    @pytest.mark.parametrize("ts", range(1, 13))
    def test_projected_entries_are_those_of_the_full_system(self, monkeypatch, ts):
        real, read = classify._det4, []

        def spy(x):
            read.append(x)
            return real(x)

        monkeypatch.setattr(classify, "_det4", spy)
        s = HalfInt(ts)
        for n in range(top_level(s) + 1):
            a = a_matrix(s, n)
            for m in a.range.indices():
                pi = rank_one_projector(a.range, m)
                i = a.range.offset(m)
                full = classify.fgh_operators(a, pi)
                # the block at {i-1, i} first, {i, i+1} only if that minor is 0
                want = []
                for b in ((i - 1, i), (i, i + 1)):
                    if b[0] >= 0 and b[1] < a.dim:
                        want.append(tuple(tuple(x[r][c] for r in b for c in b)
                                          for x in full))
                        if permutation_det(want[-1]):
                            break
                read.clear()
                decided = classify._rank_four_by_minor(a, pi)
                assert read == want, (ts, m, n)
                assert decided == any(map(permutation_det, want))

    @staticmethod
    def scan_with_verdicts(monkeypatch, max_two_s):
        """degeneracy_scan(max_two_s) and the minor's verdict, in cell order."""
        real, decided = classify._rank_four_by_minor, []

        def counted(a, pi):
            decided.append(real(a, pi))
            return decided[-1]

        monkeypatch.setattr(classify, "_rank_four_by_minor", counted)
        return degeneracy_scan(max_two_s), decided

    def test_scan_without_the_projection_is_unchanged(self, monkeypatch):
        fast, decided = self.scan_with_verdicts(monkeypatch, 10)
        assert (len(decided), sum(decided)) == (251, 180)
        monkeypatch.setattr(classify, "_rank_four_by_minor", lambda a, pi: False)
        full = degeneracy_scan(10)
        assert (full.records, full.skipped) == (fast.records, fast.skipped)

    def test_cells_the_minor_leaves_have_rank_below_four(self, monkeypatch):
        scan, decided = self.scan_with_verdicts(monkeypatch, 16)
        assert (len(scan.records), len(decided), sum(decided)) == (1037, 1037, 906)
        assert all(rec.rank < 4 for rec, hit in zip(scan.records, decided) if not hit)


def a_diag(s, m, n):
    """A_mm^(s,n), the raw rational diagonal entry."""
    return a_matrix(s, n).diagonal_rational(m)


class TestEtaIncompatibility:
    def test_three_halves_m3(self):
        assert consecutive_level_ratio("3/2", 3) == -2
        assert eta("3/2", 3, 3) == F(1, 4)
        # next level drops the index: no equality constraint possible there
        assert 3 not in a_matrix("3/2", 4).range

    def test_spin_two_m2(self):
        assert eta(2, 2, 2) == F(2, 7)
        assert eta(2, 2, 3) == F(4, 7)
        assert consecutive_level_ratio(2, 2) == -2
        assert a_diag(2, 2, 3) == -2 * a_diag(2, 2, 2)
        assert abs(a_diag(2, 2, 3)) != abs(a_diag(2, 2, 2))

    def test_abs_never_equal_on_grid(self):
        for ts in range(2, 9):
            s = HalfInt(ts)
            for m in range(2, ts):
                assert abs(a_diag(s, m, m)) != abs(a_diag(s, m, m + 1)), (ts, m)
            # at m = 2s the index leaves level m+1: nothing to compare
            assert ts not in a_matrix(s, ts + 1).range

    def test_spin_three_level_equality(self):
        assert a_diag(3, 3, 3) == a_diag(3, 3, 5)
        assert level_three_five_ratio(3) == 1

    def test_level_equality_fails_off_spin_three(self):
        for ts in (4, 5, 7, 8):
            s = HalfInt(ts)
            assert a_diag(s, 3, 3) != a_diag(s, 3, 5), ts

    def test_ratio_three_five(self):
        assert level_three_five_ratio(3) == 1
        for ts in range(4, 13):
            if ts == 6:
                continue
            assert level_three_five_ratio(HalfInt(ts)) != 1


class TestConstantAnalysis:
    def test_roots_spin_one(self):
        plus, minus = constant_roots(1, 2)
        assert plus == QuadExt(F(-9, 2), F(3, 2), 5)
        assert minus == QuadExt(F(-9, 2), F(-3, 2), 5)

    def test_roots_three_halves(self):
        plus, minus = constant_roots("3/2", 3)
        assert plus == QuadExt(-8, 4, 3)
        assert minus == QuadExt(-8, -4, 3)

    def test_wrong_root_fails_the_internal_check(self, monkeypatch, capsys):
        # a root moved by 1 misses the quadratic: exit 1, not a traceback
        real = classify.constant_root
        monkeypatch.setattr(classify, "constant_root",
                            lambda eta, branch=+1: real(eta, branch) + 1)
        assert main(["classify-constant", "--s", "1", "--m", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: internal check failed: root ")
        assert err.endswith(" fails the level-2 quadratic\n")

    def test_naive_half_root_shape_fails_quadratic(self):
        # g = (1 + sqrt(1-4 eta^2))/2 does not satisfy 1 + g + eta^2 g^2 = 0
        eta = eta_closed_form(1, 2)
        from sl2ybe.exact import squarefree_split
        m, d = squarefree_split((1 - 4 * eta * eta).numerator
                                * (1 - 4 * eta * eta).denominator)
        wrong = QuadExt(F(1, 2), F(m, 2 * (1 - 4 * eta * eta).denominator), d)
        assert not (1 + wrong + eta * eta * wrong * wrong).is_zero

    @pytest.mark.parametrize("ts,m,expect", [(2, 2, 3), (4, 2, 3), (3, 3, 4),
                                             (4, 4, 5), (6, 3, 4), (6, 6, 7)])
    def test_m_prime(self, ts, m, expect):
        assert constant_m_prime(HalfInt(ts), m) == expect

    def test_m_prime_bound_is_m_below_two_s(self):
        # the bound written out: level m+1 exists (2(m+1) <= 3*2s) and holds
        # index m; it holds exactly when m < 2s
        def reference(s, m):
            return 2 * (m + 1) <= 3 * s.twice and theta(s, m, m + 1) == 1

        for ts in range(2, 61):
            for m in range(2, ts + 1):
                assert reference(HalfInt(ts), m) == (m < ts), (ts, m)

    def test_m_prime_raises_when_quadratics_coincide(self, monkeypatch):
        # plant eta(2, 3, 4) = -eta(2, 3, 3), so both squares agree
        real = classify.eta

        def planted(s, m, n):
            if (HalfInt.coerce(s), m, n) == (HalfInt(4), 3, 4):
                return -real(s, 3, 3)
            return real(s, m, n)

        monkeypatch.setattr(classify, "eta", planted)
        with pytest.raises(AssertionError, match="level-3 and level-4 quadratics "
                                                 "coincide at s=2"):
            constant_m_prime(2, 3)

    def test_obstruction_check_full_grid(self):
        for ts in range(1, 7):
            for m in range(1, ts + 1):
                assert projector_obstruction_check(HalfInt(ts), m), (ts, m)

    def test_nonzero_column_breaks_the_commutation(self):
        # entry (k, m), k != m, of N pi - pi N is N_km, so a nonzero column
        # m means A^(s,m) does not commute with pi
        for ts in range(1, 11):
            for m in range(1, ts + 1):
                a = a_matrix(HalfInt(ts), m)
                pi = diagonal(rank_one_projector(a.range, m))
                core = a.int_ucore
                assert all(row[m] != 0 for row in core)
                assert mat_mul(core, pi) != mat_mul(pi, core), (ts, m)

    def test_zero_in_column_m_fails(self, monkeypatch):
        # N_03 = L M_03 u_3 is zero exactly when M_03 is
        real = a_matrix(2, 3)
        core = [list(row) for row in real.int_ucore]
        core[0][3] = 0
        wrong = GaugedMatrix(real.range, real.weights_lcm, real.int_weights,
                             real.ucore_lcm, core)
        monkeypatch.setattr(classify, "a_matrix", lambda s, n: wrong)
        assert not projector_obstruction_check(HalfInt(4), 3)

    def test_rigidity_full_grid(self):
        for ts in range(2, 7):
            for m in range(2, ts + 1):
                assert permutation_rigidity(HalfInt(ts), m), (ts, m)


class TestStructuralRestrictions:
    def test_constant_catalog_shapes(self):
        # every constant catalog family either keeps r_{2s-1} = 1 or is the
        # permutation itself
        from sl2ybe.spectral import (constant_baxter, identity_family,
                                     permutation_family)
        catalog = [constant_baxter(1, 2), constant_baxter(2, 3),
                   constant_baxter("3/2", 3), identity_family(2),
                   permutation_family(2)]
        for fam in catalog:
            ts = fam.s.twice
            top_minus_one = fam.eval_coeff(ts - 1, F(0))
            if fam.tag == "permutation":
                assert top_minus_one == -1
            else:
                assert top_minus_one == 1

    def test_continuation_bounds(self):
        # m != 3: the next level is generic and its constant differs, so the
        # shifted coefficient cannot persist past m+1
        for ts in range(4, 7):
            s = HalfInt(ts)
            for m in range(2, ts):
                if m == 3:
                    continue
                assert eta(s, m, m) != eta(s, m, m + 1), (ts, m)
        # m = 3: level 4 imposes nothing (the scalar combination vanishes,
        # see TestExceptionalLevel), level 5 blocks unless s = 3
        assert a_diag(2, 3, 3) != a_diag(2, 3, 5)
        assert a_diag("5/2", 3, 3) != a_diag("5/2", 3, 5)
        assert a_diag(3, 3, 3) == a_diag(3, 3, 5)
        # and at s = 3 the level-6 constant finally differs, capping the run
        assert a_diag(3, 3, 6) != a_diag(3, 3, 3)


class TestExceptionalLevel:
    def test_level_four_constant_is_half(self):
        for ts in (3, 4, 5, 6, 7, 12):
            assert eta_level4_m3(HalfInt(ts)) == F(1, 2)

    def test_combination_vanishes(self):
        grid = [(F(1), F(2)), (F(1, 2), F(1, 2)), (F(1, 3), F(1, 5)), (F(2), F(3, 7))]
        for ts in (3, 4, 5, 6):
            for lam, mu in grid:
                assert exceptional_level_combination(HalfInt(ts), lam, mu) == 0

    def test_small_spin_rejected(self):
        with pytest.raises(DomainError):
            exceptional_level_combination(1, F(1), F(2))

    def test_disagreeing_crosscheck_raises(self, monkeypatch):
        real = classify.ansatz_residual_crosscheck
        monkeypatch.setattr(classify, "ansatz_residual_crosscheck",
                            lambda *args: not real(*args))
        with pytest.raises(AssertionError, match=r"level-4 residual and scalar "
                           r"combination disagree at \(s=2, 1, 2\)"):
            exceptional_level_combination(HalfInt(4), F(1), F(2))
