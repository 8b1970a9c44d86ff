import itertools
import random
from fractions import Fraction

import pytest

from sl2ybe import amatrix as amatrix_module, sixj as sixj_module
from sl2ybe.acceptance import criterion_2
from sl2ybe.amatrix import (GaugedMatrix, LevelRange, _racah_sum, _triangle_sq,
                            a_matrix, top_level)
from sl2ybe.exact import DomainError, HalfInt, minus_one_pow, sqrt_canonicalize
from sl2ybe.linalg import (clear_denominators, diag_mul_right, diagonal,
                           is_zero_matrix, mat_add, mat_mul)
from sl2ybe.sixj import SixJArgs, racah_identity_residual, sixj, triangle_ok


def mat_scale(c, x):
    """c times the matrix x, entry by entry."""
    return tuple(tuple(c * a for a in row) for row in x)


H = HalfInt


def S(*args):
    return SixJArgs.coerce(*args)


def surd_coeff(x):
    """c with x == c*sqrt(x.d) for a surd x, a QuadExt with a = 0 (or with
    b = 0 when it is rational)."""
    return x.a + x.b


def surd_product(x, y, scale=1):
    """scale * x * y for surds x and y of any two radicand classes, exactly
    (QuadExt multiplies only within one field)."""
    return sqrt_canonicalize(scale * surd_coeff(x) * surd_coeff(y), x.d * y.d)


def level_grid(max_two_s):
    for ts in range(1, max_two_s + 1):
        for n in range(top_level(H(ts)) + 1):
            yield H(ts), n


def product_form_residual(a):
    """The Racah sum rule of a level as its own product form, built from the
    core and weights of `a`: with C = (-1)^(2s-n) core, S = diag((-1)^l),
    l = 2s - k, and the weights w, the integer matrix
    Ci diag(Ui) Ci - dC dU S Ci S, Ci = dC C and Ui = dU w S cleared to
    integers, which is dC^2 dU (C diag(w S) C - S C S).  Returns it with
    dC^2 dU."""
    ts, n = a.range.s.twice, a.range.n
    sign = minus_one_pow(ts - n)
    signs = [minus_one_pow(ts - k) for k in a.range.indices()]
    d_core, core = clear_denominators([[sign * x for x in row] for row in a.core])
    d_weights, (weights,) = clear_denominators(
        [[w * e for w, e in zip(a.weights, signs)]])
    lhs = mat_mul(diag_mul_right(core, weights), core)
    rhs = mat_mul(diagonal(signs), diag_mul_right(core, signs))
    return (mat_add(lhs, mat_scale(-d_core * d_weights, rhs)),
            d_core * d_core * d_weights)


def with_core(a, core):
    """A GaugedMatrix beside the cached a: its range and weights, another
    integer core N at the same L."""
    return GaugedMatrix(a.range, a.weights_lcm, a.int_weights, a.ucore_lcm, core)


def planted_core_faults(max_two_s, seed):
    """One sign flip, one symmetric bump and one asymmetric bump of a random
    core entry per level, each a fresh matrix beside the cached one.  The
    faults are planted in N = L M U: adding t W_j to N_ij adds t c / L to
    M_ij (c = weights_lcm), and adding t W_i to N_ji as well keeps M
    symmetric."""
    rng = random.Random(seed)
    for s, n in level_grid(max_two_s):
        real = a_matrix(s, n)
        w = real.int_weights
        for kind in ("flip", "symmetric", "asymmetric"):
            core = [list(row) for row in real.int_ucore]
            i, j = rng.randrange(real.dim), rng.randrange(real.dim)
            if kind == "flip":
                core[i][j] = -core[i][j]
            else:
                t = rng.randint(1, 5)
                core[i][j] += t * w[j]
                if kind == "symmetric" and i != j:
                    core[j][i] += t * w[i]
            yield s, n, with_core(real, core)


class TestTriangle:
    def test_standard_coupling(self):
        assert triangle_ok(H(1), H(1), H(2))

    def test_exceeds_sum(self):
        assert not triangle_ok(H(1), H(1), H(4))

    def test_half_integer_perimeter_rejected(self):
        # 1 + 1/2 + 1 has half-integer sum
        assert not triangle_ok(H(2), H(1), H(2))


class TestSixJValues:
    def test_minimal_symbol(self):
        assert sixj(S("1/2", "1/2", 0, "1/2", "1/2", 0)) == Fraction(-1, 2)

    def test_unit_spin_symbol(self):
        assert sixj(S("1/2", "1/2", 1, "1/2", "1/2", 1)) == Fraction(1, 6)

    def test_triangle_violation_is_zero(self):
        assert sixj(S("1/2", "1/2", 2, "1/2", "1/2", 1)).is_zero

    def test_negative_label_is_zero_but_refused_at_coercion(self):
        assert sixj(SixJArgs(H(-2), H(1), H(1), H(1), H(1), H(1))).is_zero
        with pytest.raises(DomainError):
            S(-1, 1, 1, 1, 1, 1)

    def test_stretched_symbol(self):
        # {s s 2s; s 3s 2s} = (-1)^2s/(4s+1)
        for ts in (1, 2, 3, 4):
            val = sixj(SixJArgs(H(ts), H(ts), H(2 * ts), H(ts), H(3 * ts), H(2 * ts)))
            sign = -1 if ts % 2 else 1
            assert val == Fraction(sign, 2 * ts + 1)

    def test_float_of_a_huge_radicand(self):
        # the radicand has 860 digits
        val = sixj(S(150, 151, 150, 149, 150, 151))
        assert val.d.bit_length() > 2000
        assert signed_square(val) == sympy_signed_square((300, 302, 300, 298, 300, 302))


def signed_square(x):
    """(sign, square) of a surd x, both exact."""
    c = surd_coeff(x)
    return (c > 0) - (c < 0), c * c * x.d


def sympy_signed_square(targs):
    """(sign, square) of sympy's exact wigner_6j at the doubled labels; a
    symbol sympy refuses is 0."""
    sympy_wigner = pytest.importorskip("sympy.physics.wigner")
    from sympy import Rational, sign
    try:
        value = sympy_wigner.wigner_6j(*[Rational(t, 2) for t in targs])
    except ValueError:
        return 0, 0
    square = value ** 2
    if not square.is_Rational:
        raise ValueError(f"sympy's {value} has no rational square")
    return int(sign(value)), Fraction(int(square.p), int(square.q))


class TestAgainstIndependentOracle:
    def test_random_arguments_match_sympy(self):
        # sign and square agree exactly, so the values do, zeros included
        rng = random.Random(20240817)
        for _ in range(250):
            targs = [rng.randint(0, 6) for _ in range(6)]
            mine = signed_square(sixj(SixJArgs(*map(H, targs))))
            assert mine == sympy_signed_square(targs), targs


def _random_admissible(rng):
    while True:
        ta, tb, tc, td = (rng.randint(0, 9) for _ in range(4))
        e_choices = [te for te in range(abs(ta - tb), ta + tb + 1, 2)
                     if abs(tc - td) <= te <= tc + td and (tc + td + te) % 2 == 0]
        f_choices = [tf for tf in range(abs(ta - td), ta + td + 1, 2)
                     if abs(tb - tc) <= tf <= tb + tc and (tb + tc + tf) % 2 == 0]
        if e_choices and f_choices:
            return (ta, tb, rng.choice(e_choices), tc, td, rng.choice(f_choices))


class TestSymmetryGroup:
    def test_24_element_symmetry(self):
        rng = random.Random(7)
        for _ in range(40):
            ta, tb, te, tc, td, tf = _random_admissible(rng)
            ref = sixj(SixJArgs(*map(H, (ta, tb, te, tc, td, tf))))
            columns = ((ta, tc), (tb, td), (te, tf))
            for perm in itertools.permutations((0, 1, 2)):
                cols = [columns[i] for i in perm]
                for flip_pair in ((), (0, 1), (0, 2), (1, 2)):
                    flipped = [(lo, up) if i in flip_pair else (up, lo)
                               for i, (up, lo) in enumerate(cols)]
                    args = SixJArgs(*map(H, (flipped[0][0], flipped[1][0], flipped[2][0],
                                             flipped[0][1], flipped[1][1], flipped[2][1])))
                    assert sixj(args) == ref


class TestOrthogonality:
    def test_orthogonality_small_labels(self):
        # sum_x (2x+1) {a b x; c d p} {a b x; c d q} == delta_pq / (2p+1)
        labels = range(0, 7)  # twice-values up to 3
        rng = random.Random(11)
        cases = 0
        while cases < 30:
            ta, tb, tc, td = (rng.choice(list(labels)) for _ in range(4))
            ps = [tp for tp in range(abs(ta - td), ta + td + 1, 2)
                  if abs(tb - tc) <= tp <= tb + tc and (tb + tc + tp) % 2 == 0]
            if len(ps) < 2:
                continue
            tp, tq = rng.sample(ps, 2)
            for t_right in (tp, tq):
                total = sum(
                    surd_product(sixj(SixJArgs(*map(H, (ta, tb, tx, tc, td, tp)))),
                                 sixj(SixJArgs(*map(H, (ta, tb, tx, tc, td, t_right)))),
                                 tx + 1)
                    for tx in range(abs(ta - tb), ta + tb + 1, 2))
                if t_right == tp:
                    assert total == Fraction(1, tp + 1)
                else:
                    assert total.is_zero
            cases += 1


class TestRacahIdentity:
    """racah_identity_residual(s, n) is the integer matrix of the sum rule
    at one level, rows and columns k = k_min, k_min + 1, ..."""

    def test_minimal_case(self):
        # s=1/2, n=1: k, k' in 0..1
        r = racah_identity_residual(H(1), 1)
        assert len(r) == 2 and is_zero_matrix(r)

    def test_spin_one_case(self):
        # s=1, n=1: the cell k=0, k'=1
        r = racah_identity_residual(H(2), 1)
        assert r[0][1] == 0 and is_zero_matrix(r)

    def test_spin_three_case(self):
        # s=3, n=4: k, k' in 0..4
        r = racah_identity_residual(H(6), 4)
        assert len(r) == 5 and r[3][3] == 0 and is_zero_matrix(r)

    def test_full_grid(self):
        for s, n in level_grid(6):
            r = racah_identity_residual(s, n)
            dim = LevelRange.for_level(s, n).dim
            assert len(r) == dim and all(len(row) == dim for row in r)
            assert all(type(x) is int for row in r for x in row), (s, n)
            assert is_zero_matrix(r), (s, n)

    def test_agrees_with_the_sum_of_sixj_products(self):
        # the sum rule summed cell by cell over sixj values, as exact surds
        for s, n in level_grid(4):
            ts, r4 = s.twice, H(3 * s.twice - 2 * n)
            labels = [H(2 * ts - 2 * k) for k in LevelRange.for_level(s, n).indices()]
            for l in labels:
                for lp in labels:
                    lhs = sum(
                        surd_product(sixj(SixJArgs(s, s, l, s, r4, p)),
                                     sixj(SixJArgs(s, s, lp, s, r4, p)),
                                     (-1) ** (p.twice // 2) * (p.twice + 1))
                        for p in labels)
                    rhs = sixj(SixJArgs(s, s, l, s, r4, lp))
                    sign = (-1) ** ((l.twice + lp.twice) // 2)
                    assert lhs == sign * rhs, \
                        (s, n, l, lp)

    def test_level_form_matches_sixj(self):
        # {s s l; s r4 p} = sqrt(u_l) C_lp sqrt(u_p): C^2 u_l u_p is the
        # square of the symbol and C carries its sign
        for s, n in level_grid(6):
            ts, r4 = s.twice, H(3 * s.twice - 2 * n)
            labels = [H(2 * ts - 2 * k) for k in LevelRange.for_level(s, n).indices()]
            u = {l: Fraction(*_triangle_sq((ts, ts, l.twice), (ts, r4.twice, l.twice)))
                 for l in labels}
            for l in labels:
                for p in labels:
                    c = Fraction(*_racah_sum(ts, ts, l.twice, ts, r4.twice, p.twice))
                    w = sixj(SixJArgs(s, s, l, s, r4, p))
                    w_coeff = surd_coeff(w)
                    assert c * c * u[l] * u[p] == w_coeff * w_coeff * w.d
                    assert (c > 0) - (c < 0) == (w_coeff > 0) - (w_coeff < 0)

    def test_detects_a_wrong_symbol(self, monkeypatch):
        # s=2, n=5 with {2 2 2; 2 1 1} (k=2, k'=3) off by its sign is no
        # longer zero; the wrong level is a fresh matrix, not the cached one
        real = a_matrix(H(4), 5)
        core = [list(row) for row in real.int_ucore]
        assert core[1][2] != 0
        core[1][2] = -core[1][2]
        wrong = with_core(real, core)
        monkeypatch.setattr(sixj_module, "a_matrix", lambda s, n: wrong)
        assert not is_zero_matrix(racah_identity_residual(H(4), 5))

    def test_is_the_product_form_scaled_by_positive_factors(self, monkeypatch):
        # residual * dC^2 dU == (-1)^(2s) L^2 (product form) diag(w) for any
        # core, so both vanish at the same cells (w, L > 0)
        faults = detected = 0
        for s, n, wrong in planted_core_faults(8, seed=19):
            monkeypatch.setattr(sixj_module, "a_matrix", lambda s, n: wrong)
            got = racah_identity_residual(s, n)
            ref, scale = product_form_residual(wrong)
            lsq = minus_one_pow(s.twice) * wrong.ucore_lcm ** 2
            assert [[x * scale for x in row] for row in got] == [
                [lsq * r * w for r, w in zip(row, wrong.weights)] for row in ref], (s, n)
            assert all(type(x) is int for row in got for x in row)
            faults += wrong.core != a_matrix(s, n).core
            detected += not is_zero_matrix(got)
        assert faults == detected > 150

    def test_reads_the_cached_matrices(self, monkeypatch):
        # once every A^(s,n) with 2s <= 10 is built, criterion 2 evaluates
        # no Racah sum of its own
        for s, n in level_grid(10):
            a_matrix(s, n)
        calls = []

        def counted(*t):
            calls.append(t)
            return _racah_sum(*t)

        monkeypatch.setattr(amatrix_module, "_racah_sum", counted)
        monkeypatch.setattr(sixj_module, "_racah_sum", counted)
        result = criterion_2(10)
        assert result.passed and calls == []
