import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from sl2ybe.amatrix import (LevelRange, _a_matrix_cached, _racah_sum, a_matrix,
                            consecutive_level_ratio, eta, eta_closed_form,
                            rank_one_projector, sign_diagonal, top_level,
                            verify_a_properties, verify_sign_conjugation)
from sl2ybe.exact import DomainError, HalfInt, QuadExt, minus_one_pow, sqrt_canonicalize
from sl2ybe.linalg import clear_denominators, diagonal, mat_mul
from sl2ybe.sixj import sixj


def mat_scale(c, x):
    """c times the matrix x, entry by entry."""
    return tuple(tuple(c * a for a in row) for row in x)


GRID = [(ts, n) for ts in range(1, 7) for n in range(0, 3 * ts // 2 + 1)]


def fraction_ucore(a):
    """The rational ucore M * diag(u), built here from the core and the
    weights, independently of the integer core N that the package keeps."""
    return tuple(tuple(x * w for x, w in zip(row, a.weights)) for row in a.core)


def a_entry_from_sixj(s: HalfInt, n: int, k: int, kp: int) -> QuadExt:
    """Independent route: prefactor times a 6-j symbol,

        (-1)^(2s-n) sqrt((4s-2k+1)(4s-2k'+1)) {s s 2s-k; s 3s-n 2s-k'}.
    """
    ts = s.twice
    symbol = sixj(s, s, HalfInt(2 * ts - 2 * k),
                  s, HalfInt(3 * ts - 2 * n), HalfInt(2 * ts - 2 * kp))
    # a surd is a QuadExt with a = 0, or with b = 0 when it is rational
    return sqrt_canonicalize(
        minus_one_pow(ts - n) * (symbol.a + symbol.b),
        (2 * ts - 2 * k + 1) * (2 * ts - 2 * kp + 1) * symbol.d)


class TestLevelRange:
    def test_low_levels_run_from_zero(self):
        rng = LevelRange.for_level(1, 2)
        assert (rng.k_min, rng.k_max, rng.dim) == (0, 2, 3)

    def test_shifted_levels(self):
        rng = LevelRange.for_level("3/2", 4)
        assert (rng.k_min, rng.k_max) == (1, 2)
        assert rng.shifted

    def test_cached_range_refuses_writes(self):
        rng = a_matrix(1, 2).range
        with pytest.raises(AttributeError):
            rng.k_max = 5
        assert a_matrix(1, 2).range.k_max == 2

    def test_level_bounds(self):
        assert top_level(HalfInt.coerce(3)) == 9
        with pytest.raises(DomainError):
            LevelRange.for_level(1, 4)

    def test_projector_requires_index_in_range(self):
        rng = LevelRange.for_level("3/2", 4)
        with pytest.raises(DomainError):
            rank_one_projector(rng, 3)

    def test_offset_on_a_shifted_level(self):
        rng = LevelRange.for_level(2, 5)
        assert [rng.offset(k) for k in rng.indices()] == [0, 1, 2]

    @pytest.mark.parametrize("read", [
        lambda a: a.diagonal_rational(0),
        lambda a: a.diagonal_rational(4),
        lambda a: a.entry(0, 1),
        lambda a: a.entry(1, 4),
        lambda a: rank_one_projector(a.range, 0),
        lambda a: eta(2, 0, 5),
    ], ids=["diagonal-below", "diagonal-above", "entry-row-below",
            "entry-column-above", "projector", "eta"])
    def test_index_off_the_level_raises(self, read):
        # level (s=2, n=5) runs over k = 1..3: an index off it must not wrap
        # around to another entry or surface as an IndexError
        with pytest.raises(DomainError, match=r"index \d outside level range 1\.\.3 at n=5"):
            read(a_matrix(2, 5))


def direct_racah_sum(ta, tb, te, tc, td, tf):
    """The Racah single sum term by term: sum over t of
    (-1)^t (t+1)! / (prod (t - alpha_i)! prod (beta_j - t)!)."""
    alphas = [(ta + tb + te) // 2, (ta + td + tf) // 2, (tb + tc + tf) // 2,
              (tc + td + te) // 2]
    betas = [(ta + tb + tc + td) // 2, (tb + te + td + tf) // 2, (te + ta + tf + tc) // 2]
    total = Fraction(0)
    for t in range(max(alphas), min(betas) + 1):
        den = 1
        for x in [t - a for a in alphas] + [b - t for b in betas]:
            den *= factorial(x)
        total += Fraction(minus_one_pow(t) * factorial(t + 1), den)
    return total


def triangle_sq_reference(tx, ty, tz):
    """The squared triangle coefficient as one Fraction, twice each label
    given."""
    return Fraction(factorial((tx + ty - tz) // 2) * factorial((tx - ty + tz) // 2)
                    * factorial((-tx + ty + tz) // 2), factorial((tx + ty + tz) // 2 + 1))


def admissible_label_sets(count, bound, seed):
    """`count` random 6-j label sets {a b e; c d f}, twice each label given
    and at most `bound`, whose four triads are all admissible: each label
    after the first three free ones is drawn from its triangle range."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        ta, tb, td = (rng.randint(0, bound) for _ in range(3))
        if abs(ta - tb) > bound or abs(ta - td) > bound:
            continue
        te = rng.randrange(abs(ta - tb), min(ta + tb, bound) + 1, 2)
        tf = rng.randrange(abs(ta - td), min(ta + td, bound) + 1, 2)
        lo, hi = max(abs(tb - tf), abs(td - te)), min(tb + tf, td + te, bound)
        if lo <= hi:
            found.append((ta, tb, te, rng.randrange(lo, hi + 1, 2), td, tf))
    return found


def fraction_reference(ts, n):
    """Level (s, n), 2s = ts, built in Fractions, the way A^(s,n) was built
    before its integer build: the weights (2l+1) times two squared triangle
    coefficients, the core (-1)^(2s-n) times the term-by-term Racah sums,
    M U cleared by `clear_denominators`, N D0 N by dense products and the
    involution decided on the Fraction core.  The fields a GaugedMatrix
    keeps, by name, plus the rational weights and core `amat --gauge`
    prints."""
    rng = LevelRange.for_level(HalfInt(ts), n)
    tr, sign = 3 * ts - 2 * n, minus_one_pow(ts - n)
    labels = [2 * ts - 2 * k for k in rng.indices()]
    weights = tuple((tl + 1) * triangle_sq_reference(ts, ts, tl)
                    * triangle_sq_reference(ts, tr, tl) for tl in labels)
    core = tuple(tuple(sign * direct_racah_sum(ts, ts, tl, ts, tr, tp) for tp in labels)
                 for tl in labels)
    lcm, ucore = clear_denominators([[x * w for x, w in zip(row, weights)] for row in core])
    return {"ucore_lcm": lcm, "int_ucore": ucore,
            "int_weights": clear_denominators([weights])[1][0],
            "sign_hat": mat_mul(mat_mul(ucore, diagonal(sign_diagonal(rng))), ucore),
            "involutive": core == tuple(zip(*core))
            and mat_mul(ucore, ucore) == diagonal((lcm ** 2,) * rng.dim),
            "weights": weights, "core": core}


class TestConstruction:
    def test_integer_build_matches_the_fraction_construction(self):
        # every level with 2s <= 12: the integer core, its scale, the integer
        # weights, the sign hat and the involution verdict, and the rational
        # weights and core formed from them for printing
        levels = 0
        for ts in range(1, 13):
            for n in range(top_level(HalfInt(ts)) + 1):
                a, want = a_matrix(HalfInt(ts), n), fraction_reference(ts, n)
                assert {name: getattr(a, name) for name in want} == want, (ts, n)
                assert want["involutive"]
                levels += 1
        assert levels == 126

    def test_racah_sum_matches_the_direct_sum(self):
        # every core entry {s s l; s 3s-n p} with 2s <= 12, and the large
        # symbol of the sixj golden payload
        entries = 0
        for ts in range(1, 13):
            for n in range(top_level(HalfInt(ts)) + 1):
                labels = [2 * ts - 2 * k for k in LevelRange.for_level(HalfInt(ts), n).indices()]
                for tl in labels:
                    for tp in labels:
                        args = (ts, ts, tl, ts, 3 * ts - 2 * n, tp)
                        assert Fraction(*_racah_sum(*args)) == direct_racah_sum(*args), args
                        entries += 1
        assert entries == 4185
        big = (300, 302, 300, 298, 300, 302)
        assert Fraction(*_racah_sum(*big)) == direct_racah_sum(*big)
        for args in admissible_label_sets(50, 400, seed=39):
            assert Fraction(*_racah_sum(*args)) == direct_racah_sum(*args), args

    def test_build_keeps_no_factorial_state(self):
        # the 1x1 level 0 at 2s = 2000 has a triad of perimeter 6000: a table
        # of every factorial up to 6001! would stay behind (44 MiB)
        tracemalloc.start()
        try:
            _a_matrix_cached.__wrapped__(2000, 0)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20

    def test_two_by_two(self):
        a = a_matrix("1/2", 1)
        assert a.entry(0, 0) == Fraction(1, 2)
        assert a.entry(1, 1) == Fraction(-1, 2)
        assert a.entry(0, 1) == QuadExt(0, Fraction(1, 2), 3)
        assert a.entry(1, 0) == QuadExt(0, Fraction(1, 2), 3)

    def test_level_zero_is_one(self):
        for ts in range(1, 7):
            a = a_matrix(HalfInt(ts), 0)
            assert a.dim == 1 and a.entry(0, 0) == 1

    def test_exceptional_diagonal_entry(self):
        assert a_matrix("5/2", 4).diagonal_rational(3) == Fraction(1, 2)

    def test_level_out_of_range(self):
        with pytest.raises(DomainError):
            a_matrix(1, 4)

    def test_gauge_consistency(self):
        # raw entries squared reproduce u_k u_k' M_kk'^2
        a = a_matrix("3/2", 3)
        for k in a.range.indices():
            for kp in a.range.indices():
                raw = a.entry(k, kp)
                i, j = k - a.range.k_min, kp - a.range.k_min
                assert raw.a * raw.b == 0  # a surd: rational or a = 0
                assert (raw.a + raw.b) ** 2 * raw.d == (a.weights[i] * a.weights[j]
                                                       * a.core[i][j] ** 2)

    def test_shared_weights_per_level(self):
        assert a_matrix(2, 3) is a_matrix(2, 3)  # cached, hence same gauge

    def test_matches_sixj_route_everywhere(self):
        # against the package's own 6-j symbol, and against sympy's exact
        # one, which shares no code with the Racah sum that builds A:
        # u_k u_k' M^2 == (2l+1)(2p+1) W^2 and M has the sign of
        # (-1)^(2s-n) W, W = {s s l; s 3s-n p}, l, p = 2s-k, 2s-k'
        wigner = pytest.importorskip("sympy.physics.wigner")
        from sympy import Rational, sign
        for ts, n in GRID:
            a = a_matrix(HalfInt(ts), n)
            half = [Rational(t, 2) for t in (ts, 3 * ts - 2 * n)]
            for i, k in enumerate(a.range.indices()):
                for j, kp in enumerate(a.range.indices()):
                    assert a.entry(k, kp) == a_entry_from_sixj(HalfInt(ts), n, k, kp), \
                        (ts, n, k, kp)
                    l, p = ts - k, ts - kp
                    w = wigner.wigner_6j(half[0], half[0], l, half[0], half[1], p)
                    w_sq = (2 * l + 1) * (2 * p + 1) * w ** 2
                    m = a.core[i][j]
                    assert a.weights[i] * a.weights[j] * m * m == Fraction(
                        int(w_sq.p), int(w_sq.q)), (ts, n, k, kp)
                    assert (m > 0) - (m < 0) == minus_one_pow(ts - n) * int(sign(w)), \
                        (ts, n, k, kp)


class TestProperties:
    @pytest.mark.parametrize("ts,n", GRID)
    def test_symmetric_involution(self, ts, n):
        assert verify_a_properties(HalfInt(ts), n)

    @pytest.mark.parametrize("ts,n", GRID)
    def test_sign_conjugation(self, ts, n):
        assert verify_sign_conjugation(HalfInt(ts), n)

    def test_named_cases(self):
        assert verify_a_properties("1/2", 1)
        assert verify_a_properties(3, 9)
        assert verify_a_properties(1, 3)
        assert verify_sign_conjugation("1/2", 1)
        assert verify_sign_conjugation(3, 4)
        assert verify_sign_conjugation(2, 6)

    def test_sign_diagonal_entries(self):
        d0 = sign_diagonal(LevelRange.for_level(2, 5))
        assert d0 == (-1, 1, -1)  # k = 1, 2, 3

    @pytest.mark.parametrize("ts,n", GRID)
    def test_hat_matches_dense_product(self, ts, n):
        # the hat is N diag(e) N = L^2 (M U) diag(e) (M U)
        a = a_matrix(HalfInt(ts), n)
        mu = fraction_ucore(a)
        rng = a.range
        ramp = tuple(Fraction(1 + 2 * i, 3 + i) for i in range(rng.dim))
        gaps = tuple(Fraction(0) if i % 2 else x for i, x in enumerate(ramp))
        cases = [sign_diagonal(rng), ramp, (Fraction(0),) * rng.dim, gaps]
        cases += [rank_one_projector(rng, m) for m in rng.indices()]
        for e in cases:
            assert a.hat(e) == mat_scale(a.ucore_lcm ** 2,
                                         mat_mul(mat_mul(mu, diagonal(e)), mu)), (ts, n, e)


class TestEta:
    def test_examples(self):
        assert eta(1, 2, 2) == Fraction(1, 3)
        assert eta("3/2", 3, 3) == Fraction(1, 4)
        assert eta("5/2", 3, 4) == Fraction(1, 2)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            eta("3/2", 3, 4)

    def test_closed_form_matches_matrix(self):
        for ts in range(2, 9):
            for m in range(2, ts + 1):
                assert eta(HalfInt(ts), m, m) == eta_closed_form(HalfInt(ts), m), (ts, m)

    def test_closed_form_is_the_factorial_quotient(self):
        for ts in range(61):
            for m in range(ts + 1):
                want = Fraction(factorial(ts) * factorial(2 * ts - 2 * m + 1),
                                factorial(ts - m) * factorial(2 * ts - m + 1))
                assert eta_closed_form(HalfInt(ts), m) == want, (ts, m)

    def test_top_index_reduces_to_inverse_dimension(self):
        for ts in range(1, 9):
            assert eta_closed_form(HalfInt(ts), ts) == Fraction(1, ts + 1)

    def test_magnitude_bound(self):
        # |eta_mm| < 1/2 for 2 <= m <= 2s
        for ts in range(2, 9):
            for m in range(2, ts + 1):
                assert abs(eta_closed_form(HalfInt(ts), m)) < Fraction(1, 2)


class TestLevelShiftRatio:
    def test_ratio_value(self):
        assert consecutive_level_ratio("3/2", 3) == -2

    def test_ratio_identity_on_validity_grid(self):
        # A_mm^(s,m+1) = ratio * A_mm^(s,m) for 2 <= m <= 2s-1
        for ts in range(2, 9):
            for m in range(2, ts):
                lhs = a_matrix(HalfInt(ts), m + 1).diagonal_rational(m)
                rhs = (consecutive_level_ratio(HalfInt(ts), m)
                       * a_matrix(HalfInt(ts), m).diagonal_rational(m))
                assert lhs == rhs, (ts, m)

    def test_top_index_leaves_next_level(self):
        # at m = 2s the index is outside the level-(m+1) range
        for ts in range(2, 7):
            if 2 * (ts + 1) <= 3 * ts:
                assert ts not in LevelRange.for_level(HalfInt(ts), ts + 1)

