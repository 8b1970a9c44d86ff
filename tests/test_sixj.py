import itertools
import random
from fractions import Fraction

import pytest

from sl2ybe.exact import DomainError, HalfInt, SqrtRational
from sl2ybe import acceptance
from sl2ybe.sixj import (SixJArgs, _sixj_cached, clear_sixj_cache,
                         racah_identity_residual, sixj, triangle_ok)

H = HalfInt


def S(*args):
    return SixJArgs.coerce(*args)


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


def _sympy_sixj(targs):
    sympy_wigner = pytest.importorskip("sympy.physics.wigner")
    from sympy import Rational
    try:
        value = sympy_wigner.wigner_6j(*[Rational(t, 2) for t in targs])
    except ValueError:
        return 0.0
    return float(value)


class TestAgainstIndependentOracle:
    def test_random_arguments_match_sympy(self):
        rng = random.Random(20240817)
        for _ in range(250):
            targs = [rng.randint(0, 6) for _ in range(6)]
            mine = float(sixj(SixJArgs(*map(H, targs))))
            theirs = _sympy_sixj(targs)
            assert mine == pytest.approx(theirs, abs=1e-13)


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
                total = SqrtRational(0)
                for tx in range(abs(ta - tb), ta + tb + 1, 2):
                    term = (sixj(SixJArgs(*map(H, (ta, tb, tx, tc, td, tp))))
                            * sixj(SixJArgs(*map(H, (ta, tb, tx, tc, td, t_right)))))
                    total = total + (tx + 1) * term
                if t_right == tp:
                    assert total == Fraction(1, tp + 1)
                else:
                    assert total.is_zero
            cases += 1


class TestRacahIdentity:
    def test_minimal_case(self):
        # from s=1/2, n=1, k=k'=1
        r = racah_identity_residual(H(1), H(1), H(1), H(1), H(0), H(0))
        assert r.is_zero

    def test_spin_one_case(self):
        # from s=1, n=1, k=0, k'=1
        r = racah_identity_residual(H(2), H(2), H(2), H(4), H(4), H(2))
        assert r.is_zero

    def test_spin_three_case(self):
        # from s=3, n=4, k=k'=3
        r = racah_identity_residual(H(6), H(6), H(6), H(10), H(6), H(6))
        assert r.is_zero

    def test_full_grid(self):
        # r1=r2=r3=s, r4=3s-n, l=2s-k, l'=2s-k'
        for ts in range(1, 7):
            for n in range(0, 3 * ts // 2 + 1):
                lo = max(0, n - ts)
                hi = min(n, 2 * ts - n)
                for k in range(lo, hi + 1):
                    for kp in range(lo, hi + 1):
                        r = racah_identity_residual(
                            H(ts), H(ts), H(ts), H(3 * ts - 2 * n),
                            H(2 * ts - 2 * k), H(2 * ts - 2 * kp))
                        assert r.is_zero, (ts, n, k, kp)


class TestMemo:
    ARGS = SixJArgs(*map(H, (7, 5, 6, 5, 7, 4)))

    def memo_size(self):
        return _sixj_cached.cache_info().currsize

    def test_memo_returns_the_computed_value(self):
        clear_sixj_cache()
        first = sixj(self.ARGS)
        assert self.memo_size() == 1 and sixj(self.ARGS) is first
        clear_sixj_cache()
        assert self.memo_size() == 0 and sixj(self.ARGS) == first
        # keyed on the labels, not on the argument object
        assert sixj(SixJArgs(*map(H, (7, 5, 6, 5, 7, 4)))) is sixj(self.ARGS)

    def test_criterion_2_clears_the_memo(self):
        sixj(self.ARGS)
        assert acceptance.criterion_2(3).passed
        assert self.memo_size() == 0

    def test_criterion_2_clears_the_memo_when_it_raises(self, monkeypatch):
        def failing(*labels):
            sixj(self.ARGS)
            raise RuntimeError("stop")

        monkeypatch.setattr(acceptance, "racah_identity_residual", failing)
        with pytest.raises(RuntimeError):
            acceptance.criterion_2(2)
        assert self.memo_size() == 0
