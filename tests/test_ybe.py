import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ybe import acceptance, classify, cli, ybe
from sl2ybe.amatrix import (GaugedMatrix, LevelRange, a_matrix, eta,
                            eta_closed_form, rank_one_projector, sign_diagonal,
                            top_level)
from sl2ybe.exact import DomainError, HalfInt, QuadExt, rescale_surd
from sl2ybe.linalg import diagonal, is_zero_matrix, mat_add, mat_mul
from sl2ybe.classify import (ansatz_residual_crosscheck, coeff_functions,
                             theta)
from sl2ybe.spectral import (PoleError, RationalFunction, SpectralFamily, baxter_tl,
                             constant_baxter, constant_root, custom_family,
                             exceptional_s3, identity_family, krs_prefix,
                             permutation_family, reduced_d, yang, zamolodchikov)
from sl2ybe.ybe import (DEFAULT_GRID, braid_residual, constant_check, full_check,
                        reduced_ybe_check)


def mat_scale(c, x):
    """c times the matrix x, entry by entry."""
    return tuple(tuple(c * a for a in row) for row in x)


F = Fraction


def param_id(value):
    """A parameter's test id: tag and spin for a family, str() otherwise."""
    return f"{value.tag}(s={value.s})" if isinstance(value, SpectralFamily) else str(value)


def perturbed_yang(two_s=1):
    """Yang with r_0 multiplied by (1 + lambda^2): regular but not a solution."""
    ts = two_s
    tables = {}
    for j in range(ts + 1):
        sign = -1 if (ts - j) % 2 else 1
        num = (F(1), F(sign))
        if j == 0:
            # (1 + sign*l)(1 + l^2)
            num = (F(1), F(sign), F(1), F(sign))
        tables[j] = RationalFunction(num, (F(1), F(1)))
    return custom_family(HalfInt(ts), tables)


def exact_residual(res):
    """The exact residual matrix over Q or Q(sqrt(d)) that a ReducedResidual
    stands for: its integer parts over its scale."""
    c = res.scale
    if res.irrational is None:
        return tuple(tuple(F(x, c) for x in row) for row in res.rational)
    return tuple(tuple(QuadExt(F(x, c), F(y, c), res.d) for x, y in zip(rx, ry))
                 for rx, ry in zip(res.rational, res.irrational))


def with_core(a, core):
    """A GaugedMatrix beside the cached a: its range and weights, another
    integer core N at the same L."""
    return GaugedMatrix(a.range, a.weights_lcm, a.int_weights, a.ucore_lcm, core)


def dense_reference(a, d1, d2, d3):
    """diag(d1) hat(d2) diag(d3) - hat(d3) diag(d2) hat(d1) by dense exact
    products on the ucore, with hat(e) = ucore diag(e) ucore and the
    rational ucore M * diag(u) built here from the core and the weights."""
    x = tuple(tuple(m * w for m, w in zip(row, a.weights)) for row in a.core)

    def hat(e):
        return mat_mul(mat_mul(x, diagonal(e)), x)

    return mat_add(mat_mul(mat_mul(diagonal(d1), hat(d2)), diagonal(d3)),
                   mat_scale(-1, mat_mul(mat_mul(hat(d3), diagonal(d2)), hat(d1))))


def defined_levels(fam):
    """The contiguous run of levels from 0 whose coefficients are defined,
    the levels `full_check` checks by default."""
    ts, levels = fam.s.twice, []
    for n in range(top_level(fam.s) + 1):
        if not all(ts - k in fam.coeffs for k in LevelRange.for_level(fam.s, n).indices()):
            break
        levels.append(n)
    return levels


def minus_root_family(s: HalfInt, m: int):
    """constant_baxter(s, m) with the -1 root g of 1 + g + eta^2 g^2 = 0,
    as a custom table: the catalog family is the +1 root."""
    shifted = 1 + constant_root(eta_closed_form(s, m), -1)
    value = shifted.as_fraction() if shifted.is_rational else shifted
    ts = s.twice
    return custom_family(s, {j: RationalFunction((value if j == ts - m else F(1),), (F(1),))
                             for j in range(ts + 1)})


def kernel_families():
    def case(fam, branch=""):
        return pytest.param(fam, id=f"{fam.tag}-{fam.s}-m{fam.m}-{branch}")

    for ts in range(1, 7):
        yield case(yang(HalfInt(ts)))
        yield case(perturbed_yang(ts))
    for ts in range(2, 7):
        s = HalfInt(ts)
        yield case(baxter_tl(s))
        for m in range(2, ts + 1):
            yield case(zamolodchikov(s, m))
        for m in range(2, ts):
            yield case(constant_baxter(s, m), "1")
            yield pytest.param(minus_root_family(s, m), id=f"constant-baxter-{s}-m{m}--1")


class TestIntegerKernel:
    """The cleared integer kernel against a dense exact reference."""

    @pytest.mark.parametrize("fam", list(kernel_families()))
    def test_residual_matches_dense_reference(self, fam):
        if fam.constant:
            samples = [(fam.zero_sample(), fam.zero_sample())]
        elif fam.multiplicative:
            samples = [(F(2), F(3)), (F(3, 2), F(5))]
        else:
            samples = [(F(1, 2), F(1, 3)), (F(3, 2), F(1, 4))]
        verdicts = []
        for n in defined_levels(fam):
            a = a_matrix(fam.s, n)
            for lam, mu in samples:
                res = reduced_ybe_check(fam, n, lam, mu)
                ref = dense_reference(a, *(reduced_d(fam, n, x) for x in
                                           (lam, fam.compose(lam, mu), mu)))
                assert exact_residual(res) == ref
                assert res.is_zero == is_zero_matrix(ref)
                verdicts.append(res.is_zero)
        solution = fam.tag in ("yang", "baxter-tl", "zamolodchikov") or (
            fam.tag == "constant-baxter" and fam.m == fam.s.twice)
        assert all(verdicts) == solution

    @pytest.mark.parametrize("fam", [yang(2), baxter_tl(2), constant_baxter(2, 3)],
                             ids=param_id)
    def test_verdict_is_taken_on_integers(self, fam):
        lam, mu = (F(2), F(3)) if fam.multiplicative else (F(1, 2), F(1, 3))
        for n in defined_levels(fam):
            res = reduced_ybe_check(fam, n, lam, mu)
            parts = [res.rational] + ([res.irrational] if res.irrational is not None else [])
            assert all(type(x) is int for part in parts for row in part for x in row)
            assert type(res.scale) is int and res.scale > 0

    def test_irrational_levels_carry_a_sqrt_part(self):
        res = reduced_ybe_check(baxter_tl(2), 4, F(2), F(3))
        assert res.irrational is not None and res.is_zero
        # the sqrt part lives in Q(sqrt(21)): sqrt(res.d) is a rational
        # multiple of sqrt(21), and it prints over sqrt(21)
        root = QuadExt(0, 1, res.d)
        assert root == QuadExt(0, rescale_surd(F(1), res.d, 21), 21)
        assert str(root).endswith("*sqrt(21)")
        assert reduced_ybe_check(baxter_tl(2), 3, F(2), F(3)).irrational is None

    def test_a_level_that_is_not_an_involution_raises(self):
        # one diagonal entry of N off: the core stays symmetric, and
        # N N = L^2 I no longer holds
        a = a_matrix(2, 3)
        core = [list(row) for row in a.int_ucore]
        core[1][1] += 1
        faulty = with_core(a, core)
        assert a.involutive and not faulty.involutive
        ones = (F(1),) * a.dim
        with pytest.raises(AssertionError, match=r"s=2, n=3"):
            braid_residual(faulty, ones, ones, ones)

    def test_a_core_that_is_not_symmetric_is_not_an_involution(self):
        # N' = 2 E N E^(-1) with E = diag(2, 1, ..., 1) keeps N' N' = (2L)^2 I,
        # but off the diagonal it scales row 0 by 4 and column 0 by 1, so
        # W_0 N'_0j == W_j N'_j0 fails wherever N_0j != 0: M is not symmetric
        a = a_matrix(2, 3)
        e = [2] + [1] * (a.dim - 1)
        core = [[2 * e[i] * x // e[j] for j, x in enumerate(row)]
                for i, row in enumerate(a.int_ucore)]
        faulty = GaugedMatrix(a.range, a.weights_lcm, a.int_weights, 2 * a.ucore_lcm, core)
        assert mat_mul(core, core) == diagonal((4 * a.ucore_lcm ** 2,) * a.dim)
        assert a.involutive and not faulty.involutive
        ones = (F(1),) * a.dim
        with pytest.raises(AssertionError, match=r"s=2, n=3"):
            braid_residual(faulty, ones, ones, ones)

    def test_a_level_that_is_not_an_involution_fails_verify(self, monkeypatch, capsys):
        # an internal check failure (exit 1), not a usage error (exit 2)
        monkeypatch.setattr(a_matrix(2, 3), "involutive", False)
        assert cli.main(["verify", "--family", "yang", "--s", "2", "--json"]) == 1
        assert capsys.readouterr().err == ("error: internal check failed: "
                                           "A^(s=2, n=3) is not a symmetric involution\n")

    @pytest.mark.parametrize("fam, n", [(baxter_tl(2), 4), (yang(2), 3),
                                        (perturbed_yang(2), 2)], ids=param_id)
    def test_sign_flipped_involution_matches_dense_reference(self, fam, n):
        # S A S with S = diag((-1)^k) is another symmetric involution, with
        # N replaced by S N S and the residual S R S; the perturbed family's
        # is nonzero.  The involution guard must pass it: the flip is the
        # blind spot of ROADMAP item 11, which only a check that identifies
        # A itself (the Racah recursion) can close
        a = a_matrix(fam.s, n)
        flip = [(-1) ** k for k in range(a.dim)]
        flipped = with_core(a, [[si * sj * x for sj, x in zip(flip, row)]
                                for si, row in zip(flip, a.int_ucore)])
        assert flipped.involutive
        samples = [(F(2), F(3)), (F(3, 2), F(5))] if fam.multiplicative else [
            (F(1, 2), F(1, 3)), (F(3, 2), F(1, 4))]
        for lam, mu in samples:
            diagonals = [reduced_d(fam, n, x) for x in (lam, fam.compose(lam, mu), mu)]
            ref = dense_reference(flipped, *diagonals)
            assert exact_residual(braid_residual(flipped, *diagonals)) == ref

    def test_mixed_discriminants_raise(self):
        a = a_matrix(1, 2)
        one = (F(1),) * a.dim
        with pytest.raises(ValueError, match="mixed discriminants"):
            braid_residual(a, (QuadExt(0, 1, 2), F(1), F(1)), one,
                           (F(1), QuadExt(1, 1, 3), F(1)))
        with pytest.raises(ValueError, match="mixed discriminants"):
            braid_residual(a, (QuadExt(0, 1, 2), QuadExt(0, 1, 5), F(1)), one, one)

    def test_equivalent_discriminants_share_one_residual(self):
        # y*sqrt(5) written as (y/2)*sqrt(20) in every other entry
        a = a_matrix(F(3, 2), 3)
        values = [[(F(i + 1, 3), F(j - i, 2)) for i in range(a.dim)] for j in range(3)]
        five = [tuple(QuadExt(x, y, 5) for x, y in row) for row in values]
        mixed = [tuple(QuadExt(x, y / 2, 20) if i % 2 else QuadExt(x, y, 5)
                       for i, (x, y) in enumerate(row)) for row in values]
        assert {x.d for row in mixed for x in row if x.b} == {5, 20}
        want = braid_residual(a, *five)
        got = braid_residual(a, *mixed)
        assert exact_residual(got) == exact_residual(want) == dense_reference(a, *five)
        assert not got.is_zero and got.d == 5
        only_twenty = [tuple(QuadExt(x, y / 2, 20) for x, y in row) for row in values]
        assert exact_residual(braid_residual(a, *only_twenty)) == exact_residual(want)

    small = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    cells = st.sampled_from([(ts, n) for ts in range(1, 5) for n in range(3 * ts // 2 + 1)])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), cell=cells, irrational=st.booleans(),
           shape=st.sampled_from(["free", "pooled", "solution"]))
    def test_random_diagonals_match_dense_reference(self, data, cell, irrational, shape):
        """Free diagonals; a middle diagonal drawn from a pool of 2-3
        values, so the kernel's classes hold several positions; and scaled
        yang diagonals D(x) = I + x D0, D0 the sign diagonal, whose triples
        (D(x), D(x + y), D(y)) solve the level, so the residual is zero."""
        ts, n = cell
        a = a_matrix(HalfInt(ts), n)
        if irrational:
            entry = st.builds(lambda x, y: QuadExt(x, y, 5), self.small,
                              st.one_of(st.just(F(0)), self.small))
        else:
            entry = st.one_of(st.just(F(0)), self.small)
        d1, d2, d3 = (tuple(data.draw(st.lists(entry, min_size=a.dim, max_size=a.dim)))
                      for _ in range(3))
        if shape == "pooled":
            pool = data.draw(st.lists(entry, min_size=2, max_size=3))
            d2 = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=a.dim,
                                          max_size=a.dim)))
        elif shape == "solution":
            x, y = data.draw(self.small), data.draw(self.small)
            scales = [data.draw(entry) for _ in range(3)]
            d1, d2, d3 = (tuple(c * (1 + t * sign) for sign in sign_diagonal(a.range))
                          for c, t in zip(scales, (x, x + y, y)))
        res = braid_residual(a, d1, d2, d3)
        ref = dense_reference(a, d1, d2, d3)
        assert exact_residual(res) == ref
        assert res.is_zero == is_zero_matrix(ref)
        if shape == "solution":
            assert res.is_zero


class TestReducedCheck:
    def test_yang_level_one(self):
        assert reduced_ybe_check(yang("1/2"), 1, F(1, 2), F(1, 3)).is_zero

    def test_exceptional_level_four(self):
        assert reduced_ybe_check(exceptional_s3(), 4, F(1), F(2)).is_zero

    def test_perturbed_yang_fails(self):
        res = reduced_ybe_check(perturbed_yang(), 1, F(1), F(1))
        assert not res.is_zero

    def test_swap_symmetry_of_verdict(self):
        fams = [yang(1), perturbed_yang()]
        for fam in fams:
            for lam, mu in DEFAULT_GRID:
                fwd = reduced_ybe_check(fam, 1, lam, mu).is_zero
                bwd = reduced_ybe_check(fam, 1, mu, lam).is_zero
                assert fwd == bwd


def first_error(check):
    """The type and message of what check() raises."""
    with pytest.raises(Exception) as info:
        check()
    return type(info.value), str(info.value)


def two_poles():
    """s = 2 with three tables: r_4 = r_2 = 1, r_3 = r_1 = (1 - x)/(1 + x),
    with its pole at -1, and r_0 = (2 - x)/(2 + x), with its pole at -2."""
    one, odd = RationalFunction((F(1),), (F(1),)), RationalFunction((F(1), F(-1)), (F(1), F(1)))
    return custom_family(HalfInt(4), {4: one, 3: odd, 2: one, 1: odd,
                                      0: RationalFunction((F(2), F(-1)), (F(2), F(1)))})


def no_r0():
    """s = 1 with r_2 = 1 and r_1 = (1 - x)/(1 + x), r_0 undefined."""
    return custom_family(HalfInt(2), {2: RationalFunction((F(1),), (F(1),)),
                                      1: RationalFunction((F(1), F(-1)), (F(1), F(1)))})


# the pairs' arguments (lam, lam + mu, mu): (1/2, 5/6, 1/3), (-3, -2, 1),
# (1/2, -1, -3/2)
POLE_GRID = [(F(1, 2), F(1, 3)), (F(-3), F(1)), (F(1, 2), F(-3, 2))]


class TestFullCheck:
    @pytest.mark.parametrize("ts", [1, 2, 3, 4])
    def test_yang_all_levels(self, ts):
        fam = yang(HalfInt(ts))
        assert full_check(fam)["pass"]

    @pytest.mark.parametrize("ts", [2, 3, 4])
    def test_shifted_family_all_levels(self, ts):
        fam = zamolodchikov(HalfInt(ts), ts)
        assert full_check(fam)["pass"]

    @pytest.mark.parametrize("ts", [2, 3, 4])
    def test_baxter_tl_all_levels(self, ts):
        fam = baxter_tl(HalfInt(ts))
        assert full_check(fam)["pass"]

    def test_exceptional_all_levels(self):
        fam = exceptional_s3()
        report = full_check(fam, levels=range(0, 10))
        assert report["pass"]
        assert [lvl["n"] for lvl in report["levels"]] == list(range(10))

    @pytest.mark.parametrize("ts", [2, 3, 4, 5, 6])
    def test_krs_prefix_levels(self, ts):
        fam = krs_prefix(HalfInt(ts))
        assert full_check(fam, levels=range(0, 3))["pass"]

    def test_prefix_level_beyond_definition(self):
        with pytest.raises(DomainError, match="r_1"):
            full_check(krs_prefix(2), levels=[3])

    def test_default_levels_respect_definition(self):
        report = full_check(krs_prefix(2))
        assert [lvl["n"] for lvl in report["levels"]] == [0, 1, 2]

    def test_negative_control_fails_level_one(self):
        report = full_check(perturbed_yang(), levels=[1], samples=[(F(1), F(1))])
        assert not report["pass"]

    @pytest.mark.parametrize("fam, levels, samples, error", [
        # r_3 = r_1 meets its pole at -1 on level 1, in the third pair
        (two_poles(), None, POLE_GRID, "denominator ['1', '1'] vanishes at -1"),
        # level 4 reads r_0 first, at -2 in the second pair
        (two_poles(), [4, 1], POLE_GRID, "denominator ['2', '1'] vanishes at -2"),
        # level 5 reads r_3, r_2, r_1: the shared table, at -1
        (two_poles(), [5], POLE_GRID, "denominator ['1', '1'] vanishes at -1"),
        (krs_prefix(3), [0, 3, 4], None, "does not define r_3"),
        # r_1 at its pole comes before the undefined r_0 in a level-2 diagonal
        (no_r0(), [1, 2], [(F(1, 2), F(-3, 2))], "denominator ['1', '1'] vanishes at -1"),
        (no_r0(), [1, 2], [(F(1, 2), F(1, 3))], "does not define r_0"),
    ], ids=["pole-level-1", "pole-level-4", "pole-shared-table", "undefined-label",
            "pole-before-undefined", "undefined-after-values"])
    def test_first_error_is_the_pair_loops(self, fam, levels, samples, error):
        """full_check evaluates each table once per argument, yet raises
        what checking the pairs one by one raises first."""
        def pair_by_pair():
            for n in (levels if levels is not None else defined_levels(fam)):
                for lam, mu in (samples if samples is not None else DEFAULT_GRID):
                    reduced_ybe_check(fam, n, lam, mu)

        got, want = (first_error(check) for check in (
            lambda: full_check(fam, levels, samples), pair_by_pair))
        assert got == want
        assert got[0] is (PoleError if "vanishes" in error else DomainError)
        assert error in got[1]


def kernel_calls(monkeypatch):
    """Record the level and the ReducedResidual of every residual kernel
    call."""
    real, calls = ybe._braid, []

    def record(a, d, *legs):
        out = real(a, d, *legs)
        calls.append((a.range.n, out))
        return out

    monkeypatch.setattr(ybe, "_braid", record)
    return calls


def form_calls(monkeypatch):
    """Record the level and class count of every class form built, and the
    level and d of every verdict read off one."""
    real_form, real_zero = ybe._class_form, ybe._form_zero
    forms, verdicts, level = [], [], {}

    def build(a, classes):
        out = real_form(a, classes)
        forms.append((a.range.n, len(classes)))
        level[id(out)] = a.range.n
        return out

    def read(form, d, *legs):
        verdicts.append((level[id(form)], d))
        return real_zero(form, d, *legs)

    monkeypatch.setattr(ybe, "_class_form", build)
    monkeypatch.setattr(ybe, "_form_zero", read)
    return forms, verdicts


def level_classes(fam, n):
    """The number of distinct coefficient tables a defined level reads."""
    rng = LevelRange.for_level(fam.s, n)
    return len({fam.coeffs[fam.s.twice - k] for k in rng.indices()})


def form_pays(fam, n):
    return ybe._form_pays(level_classes(fam, n), LevelRange.for_level(fam.s, n).dim)


def fresh_residuals(fam, report, samples):
    """A fresh reduced_ybe_check for every (level, sample) row of a
    full_check report, per level, each row's verdict checked to be its
    is_zero."""
    fresh = {}
    for level in report["levels"]:
        n = level["n"]
        assert len(level["samples"]) == len(samples)
        for row, (lam, mu) in zip(level["samples"], samples):
            res = reduced_ybe_check(fam, n, lam, mu)
            assert (row["lambda"], row["mu"], row["zero"]) == (str(lam), str(mu), res.is_zero)
            fresh.setdefault(n, []).append(res)
    return fresh


def assert_computed_by_kernel(fresh, kernels):
    """Every fresh residual's integer matrices and d are the result of a
    kernel call recorded by kernel_calls on its level: a reused verdict
    rests on the pair's own integer residual, and only the positive scale
    may come from another pair."""
    computed = {(n, (out.rational, out.irrational, out.d)) for n, out in kernels}
    for n, row in fresh.items():
        for res in row:
            assert (n, (res.rational, res.irrational, res.d)) in computed


def fresh_verdicts(fam, report, samples):
    return {n: [res.is_zero for res in row]
            for n, row in fresh_residuals(fam, report, samples).items()}


def mixed_root_family(root_b: int):
    """Regular s=1 family with r_1 = 1 + sqrt(5) (x^2 - x), rational at
    x = 0 and x = 1, and r_0 = 1 + sqrt(root_b) x."""
    return custom_family(HalfInt(2), {
        2: RationalFunction((F(1),), (F(1),)),
        1: RationalFunction((F(1), QuadExt(0, -1, 5), QuadExt(0, 1, 5)), (F(1),)),
        0: RationalFunction((F(1), QuadExt(0, 1, root_b)), (F(1),)),
    })


def yang_at_one_and_two():
    """Yang at s=1 with r_0 times 1 + x(x-1)(x-2): regular, and equal to
    yang exactly at x in {0, 1, 2}, so on a grid only the pairs whose three
    arguments lie there can pass."""
    tables = dict(yang(1).coeffs)
    # (1 + x)(1 + 2x - 3x^2 + x^3) / (1 + x)
    tables[0] = RationalFunction((F(1), F(3), F(-1), F(-2), F(1)), (F(1), F(1)))
    return custom_family(HalfInt(2), tables)


def root_sign_family():
    """constant_baxter(1, 2) made spectral: r_0(x) = 1 + a p(x) + b q(x)
    sqrt(5) with g = a + b sqrt(5) its root, p(x) = x^3/6 - x^2 + 11x/6
    and q(x) = x(7 - x^2)/6.  p is 1 at x = 1, 2, 3 and q is 1 at 1 and 2
    but -1 at 3, so r_0 is 1 + g at x = 1, 2 and 1 + conj(g) at x = 3:
    the level-2 diagonals at 1, 2 and 3 share their rational part and
    differ in their sqrt(5) part."""
    g = constant_root(eta_closed_form(1, 2))
    assert g.d == 5
    a, b = g.a, g.b
    num = (F(1), QuadExt(F(11, 6) * a, F(7, 6) * b, 5), -a,
           QuadExt(a / 6, -b / 6, 5))
    one = RationalFunction((F(1),), (F(1),))
    return custom_family(HalfInt(2), {2: one, 1: one, 0: RationalFunction(num, (F(1),))})


class TestSharedLegs:
    """full_check evaluates each coefficient once, shares each level's legs
    by their cleared vectors and takes one verdict per distinct leg triple;
    every verdict must be the one a fresh reduced_ybe_check gives."""

    @pytest.mark.parametrize("fam, levels", [
        (yang(2), None), (baxter_tl(2), None), (zamolodchikov("3/2", 2), None),
        (exceptional_s3(), range(10)), (perturbed_yang(), None),
        (mixed_root_family(20), None)], ids=param_id)
    def test_level_dict_agrees_with_fresh_checks(self, monkeypatch, fam, levels):
        """The dicts each level of full_check keeps (legs, forms, verdicts)
        give every row the verdict of a fresh check.  Each level where the
        cost rule pays builds one class form and calls no kernel; with the
        class products route forced, every pair's integer residual is a
        kernel call's."""
        grid = cli._dense_grid(fam)
        forms, _ = form_calls(monkeypatch)
        kernels = kernel_calls(monkeypatch)
        report = full_check(fam, levels=levels, samples=grid)
        unforced = len(kernels)
        monkeypatch.setattr(ybe, "_form_pays", lambda q, dim: False)
        assert full_check(fam, levels=levels, samples=grid) == report
        monkeypatch.undo()  # the fresh checks below go unrecorded
        fresh = fresh_residuals(fam, report, grid)
        assert sorted(fresh) == (list(levels) if levels is not None
                                 else defined_levels(fam))
        paying = [n for n in fresh if form_pays(fam, n)]
        assert forms == [(n, level_classes(fam, n)) for n in paying]
        assert not {n for n, _ in kernels[:unforced]} & set(paying)
        assert_computed_by_kernel(fresh, kernels[unforced:])
        assert report["pass"] == all(res.is_zero for row in fresh.values() for res in row)
        assert report["pass"] == (fam.tag != "custom")

    def test_equivalent_discriminants_per_triple(self, monkeypatch):
        # sqrt(20) = 2 sqrt(5): at level 2 the arguments 0 and 1 see only
        # r_0's sqrt(20), so the pairs (1, 0) and (0, 1) are over d = 20;
        # with 1/2 or 1/3 in the triple r_1's sqrt(5) joins, and the leg of
        # the argument 1 is cleared again over d = 5
        fam = mixed_root_family(20)
        grid = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1, 2)), (F(1, 2), F(1, 3))]
        forms, verdicts = form_calls(monkeypatch)
        report = full_check(fam, [1, 2], grid)
        monkeypatch.undo()  # the fresh checks below go unrecorded
        fresh = fresh_residuals(fam, report, grid)
        # one form per level, and the level-2 verdicts over both discriminants
        assert forms == [(1, 2), (2, 3)]
        assert {d for n, d in verdicts if n == 2} == {20, 5}
        seen = set()
        for n, row in fresh.items():
            for (lam, mu), res in zip(grid, row):
                ref = dense_reference(a_matrix(fam.s, n), *(
                    reduced_d(fam, n, x) for x in (lam, lam + mu, mu)))
                assert exact_residual(res) == ref
                seen.add((n, lam, mu, res.d))
        assert {(2, F(1), F(0), 20), (2, F(0), F(1), 20), (2, F(1), F(1, 2), 5),
                (1, F(1), F(0), 1)} <= seen

    def test_incompatible_discriminants_raise(self):
        fam = mixed_root_family(3)
        with pytest.raises(ValueError, match="mixed discriminants"):
            full_check(fam, levels=[2], samples=[(F(1, 2), F(1, 3))])
        with pytest.raises(ValueError, match="mixed discriminants"):
            reduced_ybe_check(fam, 2, F(1, 2), F(1, 3))

    def test_each_coefficient_is_evaluated_once_per_check(self, monkeypatch):
        fam = yang(2)
        grid = cli._dense_grid(fam)
        arguments = {x for lam, mu in grid for x in (lam, fam.compose(lam, mu), mu)}
        calls, real = [], SpectralFamily.eval_coeff

        def count(self, j, x):
            calls.append((j, x))
            return real(self, j, x)

        monkeypatch.setattr(SpectralFamily, "eval_coeff", count)
        assert full_check(fam, samples=grid)["pass"]
        # yang's five labels hold two tables, (1 + x)/(1 + x) for even
        # 2s - j and (1 - x)/(1 + x) for odd: each is evaluated once at each
        # of the 73 distinct arguments, over all 7 levels
        assert len(set(fam.coeffs.values())) == 2
        assert len(calls) == len(set(calls)) == 2 * len(arguments) == 146

    def test_each_cleared_diagonal_is_hatted_once_per_level(self, monkeypatch):
        fam = yang(2)
        grid = cli._dense_grid(fam)
        levels = defined_levels(fam)
        for n in levels:
            a_matrix(fam.s, n)  # built (and its sign hat taken) before counting
        hats, products, real = [], [], GaugedMatrix.hat

        def count(self, entries, right=None):
            # a hat N D N, or a class product N D H
            (hats if right is None else products).append(self.range.n)
            return real(self, entries, right)

        monkeypatch.setattr(GaugedMatrix, "hat", count)
        assert full_check(fam, samples=grid)["pass"]
        # each level builds one class form, whatever its diagonals: q hats of
        # class indicators and q^2 class products; yang holds two tables, so
        # q is 1 on levels 0 and 6 (one position) and 2 on the others
        classes = {n: level_classes(fam, n) for n in levels}
        assert classes == {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 1}
        assert {n: hats.count(n) for n in levels} == classes
        assert {n: products.count(n) for n in levels} == {n: q * q for n, q in classes.items()}
        assert len(hats) == 1 + 5 * 2 + 1

    def test_equal_diagonals_share_one_kernel(self, monkeypatch):
        # baxter-tl at s=2: only r_0 depends on t, and only level 4 reads it
        fam = baxter_tl(2)
        grid = cli._dense_grid(fam)
        forms, verdicts = form_calls(monkeypatch)
        assert full_check(fam, samples=grid)["pass"]
        levels = defined_levels(fam)
        assert [n for n, _ in forms] == levels
        per_level = {n: [d for m, d in verdicts if m == n] for n in levels}
        assert {n: len(ds) for n, ds in per_level.items() if n != 4} == {
            n: 1 for n in (0, 1, 2, 3, 5, 6)}
        assert len(per_level[4]) == len(grid) and set(per_level[4]) == {21}

    def test_memo_tells_apart_samples_equal_on_other_arguments(self):
        fam = yang_at_one_and_two()
        grid = cli._dense_grid(fam)
        report = full_check(fam, samples=grid)
        verdicts = fresh_verdicts(fam, report, grid)
        assert all(verdicts[0]) and all(verdicts[1])
        # level 2 reads r_0: (1, 1), with arguments 1, 2, 1, passes, and
        # pairs with an argument outside {0, 1, 2} fail
        assert verdicts[2][grid.index((F(1), F(1)))]
        assert not all(verdicts[2])
        assert not report["pass"]

    def test_legs_sharing_the_rational_part_are_not_merged(self, monkeypatch):
        fam = root_sign_family()
        one, two, three = (reduced_d(fam, 2, F(x)) for x in (1, 2, 3))
        # (r_2, r_1, r_0): only r_0 differs, in its sqrt(5) part alone
        assert one == two and three[:-1] == one[:-1]
        assert three[-1].a == one[-1].a and three[-1].b == -one[-1].b != 0
        # (1, 1) has the legs 1, 2, 1 and (1, 2) the legs 1, 3, 2: the same
        # rational parts over d = 5, and the middle sqrt(5) parts of opposite sign
        grid = [(F(1), F(1)), (F(1), F(2))]
        forms, verdicts = form_calls(monkeypatch)
        report = full_check(fam, levels=[2], samples=grid)
        assert forms == [(2, 2)] and verdicts == [(2, 5), (2, 5)]
        monkeypatch.setattr(ybe, "_form_pays", lambda q, dim: False)
        kernels = kernel_calls(monkeypatch)
        assert full_check(fam, levels=[2], samples=grid) == report
        assert [(n, out.d) for n, out in kernels] == [(2, 5), (2, 5)]
        monkeypatch.undo()
        assert fresh_verdicts(fam, report, grid) == {2: [True, False]}


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
positive = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)


@st.composite
def coefficients(draw, irrational):
    """A coefficient over Q or Q(sqrt(5)), its sqrt part written over
    sqrt(5) or, halved, over sqrt(20)."""
    x = draw(small)
    if not irrational:
        return x
    y = draw(st.one_of(st.just(F(0)), small))
    return QuadExt(x, y / 2, 20) if draw(st.booleans()) else QuadExt(x, y, 5)


def times(poly, factor):
    """The product of two polynomials in ascending coefficients."""
    out = [F(0)] * (len(poly) + len(factor) - 1)
    for i, x in enumerate(poly):
        for j, y in enumerate(factor):
            out[i + j] += x * y
    return tuple(out)


@st.composite
def random_families(draw):
    """A regular custom family with s <= 2 and a few positive samples:
    all-distinct tables 1 + c x + c' x^2, tables drawn from a pool of two,
    or a solution times a common factor 1 + c x (1 - c + c x for the
    multiplicative baxter-tl at s = 1, whose r_0 carries sqrt(5) apart from
    the factor).  With `zero`, the first table, or the factor, vanishes at
    the first sample's lambda, so a class value is 0 there."""
    shape = draw(st.sampled_from(["distinct", "pooled", "yang", "baxter-tl"]))
    ts = 2 if shape == "baxter-tl" else draw(st.integers(1, 4))
    samples = draw(st.lists(st.tuples(positive, positive), min_size=1, max_size=3))
    coefficient = coefficients(draw(st.booleans()))
    zero, lam = draw(st.booleans()), samples[0][0]
    if shape == "baxter-tl":
        c = 1 / (1 - lam) if zero and lam != 1 else draw(coefficient)
        solution, factor = baxter_tl(1), (1 - c, c)
    elif shape == "yang":
        solution, factor = yang(HalfInt(ts)), (F(1), -1 / lam if zero else draw(coefficient))
    else:
        def table(vanishes=False):
            c = -1 / lam if vanishes else draw(coefficient)
            return RationalFunction((F(1), c, draw(coefficient)), (F(1),))

        pool = [table(zero), table()] if shape == "pooled" else None
        return custom_family(HalfInt(ts), {
            j: draw(st.sampled_from(pool)) if pool else table(zero and j == 0)
            for j in range(ts + 1)}), samples
    return custom_family(HalfInt(ts), {
        j: RationalFunction(times(rf.num, factor), rf.den)
        for j, rf in solution.coeffs.items()}, solution.multiplicative), samples


class TestClassForm:
    """Both verdict routes of full_check, each forced by patching the cost
    rule, give every row a fresh reduced_ybe_check's verdict."""

    @pytest.mark.parametrize("route", [True, False], ids=["form", "products"])
    @settings(max_examples=40, deadline=None)
    @given(case=random_families())
    def test_each_route_matches_fresh_checks(self, route, case):
        fam, samples = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ybe, "_form_pays", lambda q, dim: route)
            report = full_check(fam, samples=samples)
        fresh_residuals(fam, report, samples)

    @pytest.mark.parametrize("q, dim, pays", [
        (1, 1, True), (2, 5, True), (3, 3, True), (3, 7, True), (4, 7, False),
        (4, 12, False), (4, 13, True), (5, 5, False), (9, 9, False)])
    def test_cost_rule(self, q, dim, pays):
        # the form pays when q^3 min(P, q^3) <= 2 dim^3 + q dim^2
        assert ybe._form_pays(q, dim) == pays

    def test_form_rows_are_reduced(self):
        # yang s=2 level 3: q = 2 classes, so at most 8 rows over 8 monomials
        a, classes = a_matrix(2, 3), [[0, 2], [1, 3]]
        form = ybe._class_form(a, classes)
        assert 0 < len(form) <= 8 and all(len(row) == 8 for row in form)
        pivots = [next(k for k, x in enumerate(row) if x) for row in form]
        assert len(set(pivots)) == len(form)
        assert all(math.gcd(*row) == 1 for row in form)


def values(fn, lam, mu, compose=lambda a, b: a + b):
    """(fn(lam), fn(mu), fn(lam o mu)), the value triple the scalar system
    and the ansatz crosscheck take."""
    return tuple(fn(x) for x in (lam, mu, compose(lam, mu)))


def zamolodchikov_g(s, m):
    """The shifted coefficient g(x) = x / (eta - xi/2 - xi eta x) of the
    zamolodchikov family, xi = (-1)^m and eta the level-m constant."""
    xi, eta_m = (-1) ** m, eta_closed_form(s, m)
    return lambda x: x / (eta_m - F(xi, 2) - xi * eta_m * x)


ZEROS = (F(0),) * 3


class TestCoeffFunctions:
    def test_linear_f_gives_zero(self):
        # index 2 is inactive at level 1, so g = 0 and only F is left
        assert theta(1, 2, 1) == 0
        assert coeff_functions(2, 0, values(lambda l: l, F(1, 2), F(1, 3)), ZEROS) == (0,) * 4

    def test_shifted_solution_annihilates(self):
        f = values(lambda l: l, F(1, 2), F(1, 3))
        g = values(zamolodchikov_g(1, 2), F(1, 2), F(1, 3))
        assert coeff_functions(2, eta(1, 2, 2), f, g) == (0,) * 4

    def test_multiplicative_tl_annihilates(self):
        fam = baxter_tl("3/2")
        g = values(lambda t: fam.eval_coeff(0, t) - 1, F(2), F(3), fam.compose)
        assert coeff_functions(3, eta("3/2", 3, 3), ZEROS, g)[1].is_zero

    def test_top_index_solution_annihilates(self):
        # m = 2s, where xi = (-1)^2s and eta = 1/(2s+1) enter the family's g
        for ts in (2, 3, 4):
            s = HalfInt(ts)
            f = values(lambda l: l, F(1, 2), F(1, 5))
            g = values(zamolodchikov_g(s, ts), F(1, 2), F(1, 5))
            assert ansatz_residual_crosscheck(s, ts, ts, f, g)


def fraction_crosscheck(s, m, n, f, g):
    """`ansatz_residual_crosscheck` as it compared before it compared in
    integers: the residual as a Fraction matrix (`exact_residual`)
    against the Fraction-scaled combination of the four matrices divided by
    L^2.  It reads `classify.coeff_functions` and `classify.fgh_operators`
    through the module, so a planted fault reaches both."""
    s = HalfInt.coerce(s)
    if (1 + f[0]) * (1 + f[1]) * (1 + f[2]) == 0:
        raise DomainError("sample hits a zero of the 1 + f prefactor")
    a = a_matrix(s, n)
    d0 = sign_diagonal(a.range)
    th = theta(s, m, n)
    pi = rank_one_projector(a.range, m) if th else (0,) * a.dim
    g = tuple(gx * th for gx in g)
    lam, mu, comp = (tuple(1 + fx * e + gx * p for e, p in zip(d0, pi))
                     for fx, gx in zip(f, g))
    resid = braid_residual(a, lam, comp, mu)
    terms = [mat_scale(c, x) for c, x in zip(
        classify.coeff_functions(m, eta(s, m, n) if th else 0, f, g),
        classify.fgh_operators(a, pi))]
    combo = mat_scale(F(1, a.ucore_lcm ** 2),
                      mat_add(mat_add(*terms[:2]), mat_add(*terms[2:])))
    if exact_residual(resid) != combo:
        raise AssertionError(f"ansatz residual differs from its scalar combination "
                             f"at (s={s}, m={m}, n={n})")
    return resid.is_zero


def outcome(check, *args):
    """What a crosscheck does on args: its verdict, or the error it raises."""
    try:
        return check(*args)
    except (AssertionError, DomainError) as err:
        return type(err), str(err)


def moved_scalar(monkeypatch, k, delta):
    """Plant a fault: scalar k of `coeff_functions` moved by delta."""
    real = classify.coeff_functions
    monkeypatch.setattr(classify, "coeff_functions", lambda *args: tuple(
        x + delta * (i == k) for i, x in enumerate(real(*args))))


# every cell with 2s <= 6, the levels where index m is inactive included
CROSSCHECK_CELLS = [(ts, m, n) for ts in range(1, 7) for m in range(ts + 1)
                    for n in range(top_level(HalfInt(ts)) + 1)]
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


class TestAnsatzCrosscheck:
    @settings(max_examples=150, deadline=None)
    @given(cell=st.sampled_from(CROSSCHECK_CELLS), f=st.tuples(*[RATIONALS] * 3),
           g=st.tuples(*[RATIONALS] * 3),
           moved=st.none() | st.tuples(st.integers(0, 3), RATIONALS.filter(bool)))
    def test_integer_comparison_matches_the_fraction_one(self, cell, f, g, moved):
        ts, m, n = cell
        with pytest.MonkeyPatch.context() as patch:
            if moved:
                moved_scalar(patch, *moved)
            args = (HalfInt(ts), m, n, f, g)
            assert outcome(ansatz_residual_crosscheck, *args) == outcome(
                fraction_crosscheck, *args)

    def test_a_scalar_moved_by_one_raises_with_the_cell(self, monkeypatch):
        # the combination changes by exactly the moved scalar's matrix, so
        # the crosscheck raises wherever that matrix is nonzero
        f, g = (F(1, 2), F(1, 3), F(5, 6)), (F(1, 5), F(-2, 7), F(3, 4))
        raised = 0
        for k in range(4):
            with monkeypatch.context() as patch:
                moved_scalar(patch, k, 1)
                for ts, m, n in CROSSCHECK_CELLS:
                    s = HalfInt(ts)
                    a = a_matrix(s, n)
                    pi = rank_one_projector(a.range, m) if theta(s, m, n) else (0,) * a.dim
                    if is_zero_matrix(classify.fgh_operators(a, pi)[k]):
                        ansatz_residual_crosscheck(s, m, n, f, g)
                        continue
                    with pytest.raises(AssertionError,
                                       match=rf"at \(s={s}, m={m}, n={n}\)$"):
                        ansatz_residual_crosscheck(s, m, n, f, g)
                    raised += 1
        assert raised > 400

    def test_values_in_a_quadratic_field_are_refused(self):
        # Q(sqrt(d)) values are refused by name, never converted, even when
        # their sqrt(d) part is zero
        root = QuadExt(0, 1, 5)
        for f, g in [((root, F(1), F(2)), ZEROS), (ZEROS, (F(1), root, F(2))),
                     ((QuadExt(F(1, 2)), F(1), F(2)), ZEROS)]:
            with pytest.raises(DomainError, match="rational f and g"):
                ansatz_residual_crosscheck(1, 2, 2, f, g)

    def test_linear_solution(self):
        assert ansatz_residual_crosscheck(1, 2, 1, values(lambda l: l, F(1, 2), F(1, 3)),
                                          ZEROS)

    def test_shifted_solution(self):
        f = values(lambda l: l, F(1, 2), F(1, 3))
        g = values(zamolodchikov_g(1, 2), F(1, 2), F(1, 3))
        assert ansatz_residual_crosscheck(1, 2, 2, f, g)

    def test_quadratic_f_nonsolution(self):
        f = values(lambda l: l * l, F(1), F(1))
        assert not ansatz_residual_crosscheck(1, 2, 1, f, ZEROS)
        # F_{l,m} = l^2 + m^2 - (l+m)^2 = -2 at (1, 1)
        assert coeff_functions(2, 0, f, ZEROS)[0] == -2

    def test_generic_nonsolution_at_active_level(self):
        f = values(lambda l: l, F(1, 2), F(1, 3))
        assert not ansatz_residual_crosscheck(2, 3, 3, f, f)

    def test_prefactor_zero_rejected(self):
        with pytest.raises(DomainError):
            ansatz_residual_crosscheck(1, 2, 1, values(lambda l: l, F(-1), F(2)), ZEROS)

    def test_wrong_matrix_raises(self, monkeypatch):
        """With G negated the residual no longer equals the combination: the
        crosscheck raises, and so does criterion 11, which runs it at every
        active cell (s, 3, 4)."""
        real = classify.fgh_operators

        def negated_g(a, pi):
            big_f, big_g, big_h, big_ht = real(a, pi)
            return big_f, tuple(tuple(-x for x in row) for row in big_g), big_h, big_ht

        monkeypatch.setattr(classify, "fgh_operators", negated_g)
        f = values(lambda l: l, F(1, 2), F(1, 3))
        with pytest.raises(AssertionError, match="scalar combination"):
            ansatz_residual_crosscheck(2, 3, 3, f, f)
        with pytest.raises(AssertionError, match="scalar combination at"):
            acceptance.criterion_11()


class TestConstantCheck:
    def test_permutation_all_levels(self):
        assert constant_check(permutation_family(1))["pass"]

    def test_identity_all_levels(self):
        assert constant_check(identity_family("3/2"))["pass"]

    def test_constant_baxter(self):
        report = constant_check(constant_baxter(1, 2), levels=[0, 1, 2])
        assert report["pass"]

    def test_top_index_member_is_full_solution(self):
        for ts in (2, 3, 4):
            assert constant_check(constant_baxter(HalfInt(ts), ts))["pass"]
            assert constant_check(minus_root_family(HalfInt(ts), ts))["pass"]

    def test_truncated_member_fails_above_its_level(self):
        # with m < 2s the two-term family passes levels <= m and breaks at
        # m + 1: the lower coefficients it omits are genuinely required
        report = constant_check(constant_baxter(2, 3))
        verdicts = {row["n"]: row["zero"] for row in report["levels"]}
        assert all(verdicts[n] for n in range(0, 4))
        assert not verdicts[4]

    def test_theta_inactive_levels_pass_vacuously(self):
        report = constant_check(constant_baxter(1, 2), levels=[0, 1])
        assert report["pass"]


class TestTheta:
    def test_inactive_below_m(self):
        assert theta(1, 2, 1) == 0

    def test_active_at_m(self):
        assert theta(1, 2, 2) == 1

    def test_inactive_outside_shifted_range(self):
        assert theta("3/2", 3, 4) == 0
        assert theta("3/2", 2, 4) == 1


class TestLevelZeroIdentity:
    def test_all_catalog_families_trivial_at_level_zero(self):
        fams = [yang(1), zamolodchikov(2, 2), baxter_tl(1), krs_prefix(2),
                exceptional_s3(), permutation_family(1), identity_family(1)]
        for fam in fams:
            lam, mu = (F(2), F(3)) if fam.multiplicative else (F(1, 2), F(1, 3))
            assert reduced_ybe_check(fam, 0, lam, mu).is_zero
