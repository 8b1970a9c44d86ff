import json
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2ybe import spectral
from sl2ybe.amatrix import eta_closed_form
from sl2ybe.exact import DomainError, HalfInt, QuadExt
from sl2ybe.spectral import (ADDITIVE, MULTIPLICATIVE, PoleError, RationalFunction,
                             baxter_tl, check_regularity_unitarity,
                             constant_baxter, constant_root, custom_family,
                             exceptional_s3, family_from_json, identity_family,
                             krs_prefix, make_family, permutation_family,
                             reduced_d, yang, zamolodchikov)
from sl2ybe.ybe import full_check

F = Fraction


def family_id(fam):
    """A family's test id: its tag and spin."""
    return f"{fam.tag}(s={fam.s})"


class TestYang:
    def test_coefficient_value(self):
        fam = yang(1)
        assert fam.eval_coeff(1, F(2)) == F(-1, 3)
        assert fam.eval_coeff(2, F(2)) == 1

    def test_pole(self):
        # only the odd labels 2s - j carry the factor (1 - l)/(1 + l); the
        # even ones are the constant 1, with no pole at -1
        fam = yang(1)
        with pytest.raises(PoleError):
            fam.eval_coeff(1, F(-1))
        assert fam.eval_coeff(0, F(-1)) == fam.eval_coeff(2, F(-1)) == 1
        assert fam.coeffs[0] == fam.coeffs[2] == RationalFunction((F(1),), (F(1),))

    def test_reduced_diagonal(self):
        d = reduced_d(yang("1/2"), 1, F(1))
        assert d == (F(1), F(0))


class TestZamolodchikov:
    def test_shifted_coefficient_factorizes(self):
        fam = zamolodchikov(1, 2)
        # r_0 = (1-l)(1-2l)/((1+l)(1+2l))
        assert fam.eval_coeff(0, F(1)) == 0
        assert fam.eval_coeff(0, F(1, 3)) == (F(2, 3) * F(1, 3)) / (F(4, 3) * F(5, 3))

    def test_g_pole_reported(self):
        fam = zamolodchikov(1, 2)  # g = -6l/(1+2l)
        with pytest.raises(PoleError):
            fam.eval_coeff(0, F(-1, 2))

    def test_shifted_table_is_the_docstring_form(self):
        # num (1 + l)(c0 - c1 l) == den ((1 + xi l)(c0 - c1 l) + l) as
        # polynomials: the table is (1 + xi l + g(l))/(1 + l) with
        # g(l) = l/(c0 - c1 l), c0 = eta - xi/2, c1 = xi eta
        for ts in range(2, 13):
            s = HalfInt(ts)
            for m in range(2, ts + 1):
                xi, eta = (-1) ** m, eta_closed_form(s, m)
                c0, c1 = eta - F(xi, 2), xi * eta
                rf = zamolodchikov(s, m).table(ts - m)
                g_den = (c0, -c1)
                left = times(rf.num, times((F(1), F(1)), g_den))
                right = times(rf.den, plus(times((F(1), F(xi)), g_den), (F(0), F(1))))
                assert left == right, (ts, m)

    def test_lower_coefficients_undefined(self):
        fam = zamolodchikov(2, 2)
        with pytest.raises(DomainError):
            fam.eval_coeff(0, F(1))

    def test_m_bounds(self):
        with pytest.raises(DomainError):
            zamolodchikov(1, 1)
        with pytest.raises(DomainError):
            zamolodchikov("1/2", 2)


def baxter_b(eta):
    """The larger root b of b + 1/b = 1/eta, in Q(sqrt(1 - 4 eta^2)): the
    Q(sqrt(d)) tables' reference build starts from it."""
    return QuadExt(1 / (2 * eta), 1 / (2 * eta), 1 - 4 * eta * eta)


def reference_tables(s, m):
    """constant-baxter's tables at (s, m) and, at m = 2s, baxter-tl's, each
    built in QuadExt arithmetic from b: the shifted constant is
    1 - 1/(eta b), and with A = eta b, B = eta / b,
    r_0 = ((A - 1) + (1 - B) t)/(A - B t)."""
    ts, eta = s.twice, eta_closed_form(s, m)
    b, one = baxter_b(eta), RationalFunction((F(1),), (F(1),))
    shifted = 1 - b.inverse() / eta
    constant = {j: one for j in range(ts + 1)}
    constant[ts - m] = RationalFunction(
        (shifted.as_fraction() if shifted.is_rational else shifted,), (F(1),))
    big_a, big_b = eta * b, eta * b.inverse()
    tl = {j: one for j in range(1, ts + 1)}
    tl[0] = RationalFunction((big_a - 1, 1 - big_b), (big_a, -big_b))
    return constant, tl


class TestBaxterB:
    """b of b + 1/b = 1/eta, from which the Q(sqrt(d)) tables were built
    before they were written over D = 1 - 4 eta^2, kept as their
    reference; constant_root holds the domain guards."""

    def test_golden_case(self):
        assert baxter_b(F(1, 3)) == QuadExt(F(3, 2), F(1, 2), 5)
        assert constant_root(F(1, 3)) == -baxter_b(F(1, 3)).inverse() * 3

    def test_double_root(self):
        assert baxter_b(F(1, 2)) == 1
        assert constant_root(F(1, 2), +1) == constant_root(F(1, 2), -1) == -2

    def test_perfect_square_discriminant(self):
        b = baxter_b(F(2, 5))
        assert b.is_rational and b.as_fraction() == 2
        plus, minus = constant_root(F(2, 5), +1), constant_root(F(2, 5), -1)
        assert plus.is_rational and (plus.as_fraction(), minus.as_fraction()) == (F(-5, 4), -5)

    def test_defining_equation(self):
        for eta in (F(1, 3), F(1, 4), F(1, 5), F(2, 5)):
            b = baxter_b(eta)
            assert b + b.inverse() == QuadExt(1 / eta, 0, b.d)
            big_a, big_b = eta * b, eta * b.inverse()
            assert big_a + big_b == 1 and big_a * big_b == eta * eta

    def test_negative_discriminant(self):
        with pytest.raises(DomainError, match="negative"):
            constant_root(F(3, 4))

    def test_zero_eta(self):
        with pytest.raises(DomainError, match="eta must be nonzero"):
            constant_root(F(0), -1)

    def test_roots_are_read_off_b(self):
        # g = -1/(eta b) for branch +1 and -b/eta for branch -1, over b's d
        for eta in (F(1, 3), F(1, 4), F(1, 5), F(2, 5), F(1, 2), F(3, 7)):
            b = baxter_b(eta)
            for got, want in ((constant_root(eta, +1), -b.inverse() / eta),
                              (constant_root(eta, -1), -b / eta)):
                assert got == want and got.d == want.d, eta

    def test_tables_match_the_reference(self):
        # the closed-form tables are the reference's, coefficient by
        # coefficient, over the same d
        for ts in range(2, 13):
            s = HalfInt(ts)
            tl, reference = baxter_tl(s), reference_tables(s, ts)[1]
            assert tl.coeffs == reference and tl.coeffs[0].d == reference[0].d, ts
            for m in range(2, ts + 1):
                fam, (constant, _) = constant_baxter(s, m), reference_tables(s, m)
                assert fam.coeffs == constant, (ts, m)
                assert fam.discriminant == (constant[ts - m].d or 1), (ts, m)


class TestBaxterTL:
    def test_functional_equation(self):
        # g(t)+g(u)-g(tu)+g(t)g(u)+eta^2 g(t)g(u)g(tu) == 0 exactly in Q(sqrt d)
        for ts in (2, 3, 4):
            fam = baxter_tl(HalfInt(ts))
            eta = eta_closed_form(HalfInt(ts), ts)
            g = lambda t: fam.eval_coeff(0, t) - 1
            for (t, u) in ((F(2), F(3)), (F(5), F(2)), (F(3), F(7))):
                lhs = (g(t) + g(u) - g(t * u) + g(t) * g(u)
                       + eta * eta * g(t) * g(u) * g(t * u))
                assert lhs.is_zero, (ts, t, u)

    def test_multiplicative_parameterization(self):
        fam = baxter_tl(1)
        assert fam.multiplicative and fam.sampling is MULTIPLICATIVE
        assert fam.sampling.compose(F(2), F(3)) == 6
        assert fam.sampling.invert(F(2)) == F(1, 2)
        assert fam.sampling.origin == 1
        with pytest.raises(PoleError, match="t = 0 has no multiplicative inverse"):
            fam.sampling.invert(F(0))

    def test_lower_members_rejected(self):
        # only m = 2s has a closed form, so the tag takes no m
        with pytest.raises(DomainError, match="family 'baxter-tl' takes no m"):
            make_family("baxter-tl", HalfInt(4), 2)

    def test_field_is_irrational(self):
        assert baxter_tl(1).discriminant == 5
        assert baxter_tl("3/2").discriminant == 3

    def test_discriminant_is_read_from_the_table(self):
        # the d of the reference b, which the family once stored beside its table
        for ts in range(2, 9):
            s = HalfInt(ts)
            assert baxter_tl(s).discriminant == baxter_b(eta_closed_form(s, ts)).d, ts


class TestKrsPrefix:
    def test_three_defined_coefficients(self):
        fam = krs_prefix(2)
        assert fam.defined() == [2, 3, 4]
        tau = F(4, 3)
        lam = F(1, 2)
        expected = (1 - lam) / (1 + lam) * (1 - tau * lam) / (1 + tau * lam)
        assert fam.eval_coeff(2, lam) == expected

    def test_lower_is_domain_error(self):
        with pytest.raises(DomainError):
            krs_prefix(2).eval_coeff(1, F(1))

    @pytest.mark.parametrize("s, n", [("3/2", 4), (2, 6)])
    def test_shifted_top_level_reads_only_the_prefix(self, s, n):
        assert full_check(krs_prefix(s), levels=[n])["pass"]

    def test_tables_are_the_shifted_family_tables(self):
        for ts in range(2, 13):
            assert krs_prefix(HalfInt(ts)).coeffs == zamolodchikov(HalfInt(ts), 2).coeffs, ts

    def test_matches_shifted_family_when_full(self):
        # at every s the prefix is the m = 2 shifted family: the same three
        # coefficients, each of degree <= 2, equal at 11 points
        for ts in range(2, 13):
            prefix, shifted = krs_prefix(HalfInt(ts)), zamolodchikov(HalfInt(ts), 2)
            assert prefix.defined() == shifted.defined() == [ts - 2, ts - 1, ts]
            for j in prefix.defined():
                for lam in (F(k, 3) for k in range(1, 12)):
                    assert prefix.eval_coeff(j, lam) == shifted.eval_coeff(j, lam), (ts, j, lam)


class TestExceptionalS3:
    def test_coefficients(self):
        fam = exceptional_s3()
        assert fam.s == HalfInt(6)
        assert fam.eval_coeff(3, F(1)) == F(3, 5)
        assert fam.eval_coeff(0, F(1)) == 0
        assert fam.eval_coeff(4, F(9)) == 1

    def test_built_from_the_shifted_and_yang_families(self):
        # r_3..r_6 are the m = 3 shifted family's, r_2 and r_1 yang's, and
        # r_0 = r_1 (6 - l)/(6 + l); every table has degree <= 2
        fam, shifted, rational = exceptional_s3(), zamolodchikov(3, 3), yang(3)
        assert shifted.defined() == [3, 4, 5, 6]
        for lam in (F(k, 3) for k in range(1, 12)):
            for j in (3, 4, 5, 6):
                assert fam.eval_coeff(j, lam) == shifted.eval_coeff(j, lam), (j, lam)
            for j in (1, 2):
                assert fam.eval_coeff(j, lam) == rational.eval_coeff(j, lam), (j, lam)
            assert fam.eval_coeff(0, lam) == fam.eval_coeff(1, lam) * (6 - lam) / (6 + lam)

    def test_level_nine_carries_the_middle_coefficient(self):
        # at the top level the single index is k = 3, so the diagonal holds r_3
        d = reduced_d(exceptional_s3(), 9, F(1))
        assert d == (F(3, 5),)


class TestConstantFamilies:
    def test_permutation_signs(self):
        fam = permutation_family(1)
        assert [fam.eval_coeff(j, F(0)) for j in (0, 1, 2)] == [1, -1, 1]

    def test_identity(self):
        fam = identity_family("3/2")
        assert all(fam.eval_coeff(j, F(3)) == 1 for j in range(4))

    def test_constant_baxter_root(self):
        fam = constant_baxter(1, 2)
        g = fam.eval_coeff(0, F(0)) - 1   # r_{2s-m} = 1 + g
        assert g == QuadExt(F(-9, 2), F(3, 2), 5)
        eta = eta_closed_form(HalfInt(2), 2)
        assert (1 + g + eta * eta * g * g).is_zero

    def test_discriminant_is_read_from_the_table(self):
        # the d of the +1 root, rational (d = 1) at 2s = 3, m = 2
        for ts in range(2, 9):
            s = HalfInt(ts)
            for m in range(2, ts + 1):
                expected = constant_root(eta_closed_form(s, m)).d
                assert constant_baxter(s, m).discriminant == expected, (ts, m)

    def test_constant_root_branches(self):
        plus, minus = constant_root(F(1, 3), +1), constant_root(F(1, 3), -1)
        assert plus != minus and QuadExt(plus.a, -plus.b, plus.d) == minus


class TestRegularityUnitarity:
    def test_yang(self):
        report = check_regularity_unitarity(yang(1), [F(1, 2), F(2), F(7, 3)])
        assert report["pass"]

    def test_exceptional(self):
        # lambda = 1 is excluded: its mirror -1 is a pole of three coefficients
        report = check_regularity_unitarity(exceptional_s3(), [F(1, 2), F(3, 2)])
        assert report["pass"]

    def test_exceptional_pole_at_mirror_sample(self):
        with pytest.raises(PoleError):
            check_regularity_unitarity(exceptional_s3(), [F(1)])

    def test_baxter_tl_multiplicative(self):
        report = check_regularity_unitarity(baxter_tl(1), [F(2), F(3), F(5, 2)])
        assert report["pass"]

    def test_failure_is_reported(self):
        bad = custom_family("1/2", {
            0: RationalFunction((F(1), F(1)), (F(1),)),  # 1 + l: not unitary
            1: RationalFunction((F(1),), (F(1),)),
        })
        report = check_regularity_unitarity(bad, [F(1, 2)])
        assert not report["pass"]
        assert any(f["check"] == "unitary" for f in report["failures"])

    def test_irregular_family_rejected_at_construction(self):
        with pytest.raises(DomainError, match="not regular: r_2 at the origin is 2"):
            custom_family(1, {2: RationalFunction((F(2), F(1)), (F(1), F(1)))})
        # a table of constants is a constant family, which need not be regular
        assert custom_family(1, {2: RationalFunction((F(2),), (F(1),))}).constant


class TestFamilySerialization:
    def test_catalog_tag_is_refused(self):
        # a catalog family is named by --family, --s and --m, not by a document
        with pytest.raises(DomainError, match="--family"):
            family_from_json(json.loads('{"tag": "yang", "s": "3/2"}'))

    def test_custom_roundtrip(self):
        tables = {
            0: RationalFunction((F(1), F(-1)), (F(1), F(1))),
            1: RationalFunction((F(1),), (F(1),)),
        }
        fam = custom_family("1/2", tables)
        back = family_from_json({"tag": "custom", "s": "1/2", "coeffs": [
            {"num": ["1", "-1"], "den": ["1", "1"]}, {"num": [1], "den": ["1"]}]})
        assert back.coeffs == fam.coeffs
        for lam in (F(0), F(1, 3), F(4)):
            assert back.eval_coeff(0, lam) == fam.eval_coeff(0, lam)

    def test_make_family_dispatch(self):
        assert make_family("exceptional-s3").tag == "exceptional-s3"
        assert make_family("zamolodchikov", HalfInt(2), 2).m == 2
        with pytest.raises(DomainError):
            make_family("nonsense", 1)


CATALOG = [yang("1/2"), yang(2), zamolodchikov(1, 2), zamolodchikov("5/2", 3),
           baxter_tl(1), baxter_tl("3/2"), krs_prefix(2), exceptional_s3(),
           constant_baxter(1, 2), constant_baxter("3/2", 2),
           constant_baxter(3, 6), permutation_family("3/2"),
           identity_family(1)]


class TestCoefficientTables:
    @pytest.mark.parametrize("fam", CATALOG, ids=family_id)
    def test_every_coefficient_is_a_table(self, fam):
        for j, rf in fam.coeffs.items():
            assert isinstance(rf, RationalFunction), (fam.tag, j)
            for c in rf.num + rf.den:
                # rational values stay Fraction, never QuadExt(a, 0)
                assert isinstance(c, (Fraction, QuadExt)), (fam.tag, j, c)
                assert not (isinstance(c, QuadExt) and c.b == 0), (fam.tag, j, c)

    def test_every_root_is_positive(self, monkeypatch):
        # each rational spectral table is a product of factors
        # (a - x)/(a + x) with a > 0, so its poles -a sit on the negative
        # axis, clear of every sample
        roots, real = [], spectral._one_factor

        def recorded(*args):
            roots.extend(args)
            return real(*args)

        monkeypatch.setattr(spectral, "_one_factor", recorded)
        catalog_tables(12)
        assert len(set(roots)) > 40 and all(a > 0 for a in roots)

    def test_rational_constant_root_stays_fraction(self):
        # at 2s = 3, m = 2 the discriminant 1 - 4 eta^2 is a perfect square
        fam = constant_baxter("3/2", 2)
        assert fam.discriminant == 1
        assert isinstance(fam.eval_coeff(1, F(0)), Fraction)

    def test_equal_tables_are_one_key(self):
        # full_check evaluates each class of equal tables once, keyed by table
        odd = RationalFunction((F(1), F(-1)), (F(1), F(1)))
        same = RationalFunction((F(1), F(-1)), (F(1), F(1)))
        assert odd == same and len({odd, same}) == 1
        assert odd != RationalFunction((F(1),), (F(1),))
        with pytest.raises(AttributeError):
            odd.num = (F(2),)

    def test_empty_coefficient_lists_rejected(self):
        with pytest.raises(DomainError):
            RationalFunction((), (F(1),))
        with pytest.raises(DomainError):
            RationalFunction((F(1),), ())


def reference_value(rf, x):
    """The evaluation the cleared tables replace: Horner in Fraction or
    QuadExt arithmetic, one normalization per step."""
    def horner(coeffs):
        acc = coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = acc * x + c
        return acc

    den = horner(rf.den)
    if den == 0:
        raise PoleError(f"denominator {[str(c) for c in rf.den]} vanishes at {x}")
    return horner(rf.num) / den


def outcome(f, x):
    """What an evaluation gives: its type, value and field d, or the pole
    message; a float would compare equal to its Fraction, so the type
    is part of the outcome."""
    try:
        value = f(x)
    except PoleError as err:
        return "pole", str(err)
    return type(value), value, getattr(value, "d", None)


def times(p, q):
    """The product of two ascending coefficient tuples."""
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return tuple(out)


def plus(p, q):
    """The sum of two ascending coefficient tuples."""
    width = max(len(p), len(q))
    return tuple(a + b for a, b in zip(p + (F(0),) * (width - len(p)),
                                        q + (F(0),) * (width - len(q))))

small = st.fractions(min_value=-4, max_value=4, max_denominator=5)
positive = st.fractions(min_value=F(1, 5), max_value=9, max_denominator=5)
# additive arguments lambda, lambda + mu and multiplicative ones t*u, 1/t
samples = st.one_of(st.just(F(0)), small, st.builds(operator.add, small, small),
                    st.builds(operator.mul, positive, positive),
                    st.builds(lambda t: 1 / t, positive))


@st.composite
def tables(draw, fields):
    """A table over Q or Q(sqrt(d)) for a d of the fields (several d: one
    table mixing equivalent surds), with zero coefficients anywhere, the
    leading ones included, and a denominator with rational roots; returns
    the table and its roots."""
    ds = draw(st.sampled_from(fields))
    rational = st.one_of(st.just(F(0)), small)
    if ds:
        surd = st.builds(QuadExt, small, small, st.sampled_from(ds))
        coefficient = st.one_of(rational, surd)
    else:
        coefficient = rational
    poly = st.lists(coefficient, min_size=1, max_size=4).map(tuple)
    num, den = draw(poly), draw(poly)
    roots = draw(st.lists(small, max_size=2))
    for r in roots:
        den = times(den, (-r, F(1)))
    return RationalFunction(num, den), roots


class TestClearedEvaluation:
    """Evaluation of the cleared integer form against Horner in Fraction or
    QuadExt arithmetic."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), drawn=tables([(), (5,), (20,)]))
    def test_matches_the_reference(self, data, drawn):
        # each table over one field: the value, its type and its d agree,
        # and so does every pole with its message
        rf, roots = drawn
        x = data.draw(st.one_of(samples, st.sampled_from(roots)) if roots else samples)
        got = outcome(rf, x)
        assert got == outcome(lambda y: reference_value(rf, y), x)
        assert got[0] in ("pole", Fraction, QuadExt)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), drawn=tables([(5, 20)]))
    def test_equivalent_surds_share_the_smallest_d(self, data, drawn):
        # sqrt(5) and sqrt(20) in one table: one field, stated by the
        # smallest d among the coefficients
        rf, roots = drawn
        x = data.draw(st.one_of(samples, st.sampled_from(roots)) if roots else samples)
        got, want = outcome(rf, x), outcome(lambda y: reference_value(rf, y), x)
        assert got[:2] == want[:2]
        if got[0] is QuadExt and not got[1].is_rational:
            assert got[2] == min(c.d for c in rf.num + rf.den if isinstance(c, QuadExt) and c.b)

    def test_equivalent_surds_example(self):
        # (sqrt(5) + sqrt(20) x) / (1 + x) = sqrt(5) (1 + 2x) / (1 + x)
        rf = RationalFunction((QuadExt(0, 1, 5), QuadExt(0, 1, 20)), (F(1), F(1)))
        value = rf(F(1, 2))
        assert value == QuadExt(0, F(4, 3), 5) and value.d == 5

    @pytest.mark.parametrize("num, den", [
        ((QuadExt(0, 1, 2), QuadExt(0, 1, 3)), (F(1),)),
        ((F(1), QuadExt(0, 1, 2)), (QuadExt(1, 1, 3),)),
    ])
    def test_mixed_surds_refused_when_built(self, num, den):
        with pytest.raises(ValueError, match=r"mixed discriminants sqrt\(3\) vs sqrt\(2\)"):
            RationalFunction(num, den)

    def test_every_catalog_table_at_every_grid_argument(self):
        grids = [grid for sampling in (ADDITIVE, MULTIPLICATIVE)
                 for grid in (sampling.grid, sampling.dense)]
        args = {x for grid in grids for lam, mu in grid
                for x in (lam, mu, lam + mu, lam * mu)}
        tables = catalog_tables()
        assert len(tables) > 40 and len(args) > 150
        for rf in tables:
            for x in args:
                assert outcome(rf, x) == outcome(lambda y: reference_value(rf, y), x), (
                    rf.num, rf.den, x)


def catalog_tables(max_two_s=7):
    """Every coefficient table of the catalog families with 2s <= max_two_s,
    at every m a family takes."""
    tables = set(exceptional_s3().coeffs.values())
    for tag, (_, takes) in spectral._CATALOG.items():
        for ts in range(max_two_s + 1) if "s" in takes else []:
            for m in range(2, ts + 1) if "m" in takes else [None]:
                try:
                    fam = make_family(tag, HalfInt(ts), m)
                except DomainError:  # below the family's smallest spin
                    continue
                tables.update(fam.coeffs.values())
    return tables


def count_calls(monkeypatch, cls, name, calls):
    """Patch cls.name, a function, staticmethod or classmethod, to append
    to calls on each call."""
    raw = vars(cls)[name]
    wrap = type(raw) if isinstance(raw, (staticmethod, classmethod)) else (lambda f: f)
    func = getattr(raw, "__func__", raw)

    def counted(*args, **kwargs):
        calls.append(name)
        return func(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrap(counted))


class TestOneValuePerEvaluation:
    """An evaluation builds its one exact value at the end: no Fraction or
    QuadExt per Horner step."""

    @pytest.mark.parametrize("rf", [
        yang(2).coeffs[1], zamolodchikov(1, 2).coeffs[0],
        exceptional_s3().coeffs[0], RationalFunction((F(1, 3),), (F(2, 7),)),
    ], ids=["yang", "zamolodchikov", "exceptional-s3", "constant"])
    @pytest.mark.parametrize("x", [F(0), F(2, 3), F(-5, 7), F(9)])
    def test_one_fraction_for_a_rational_table(self, monkeypatch, rf, x):
        calls = []
        with monkeypatch.context() as patch:
            # Fraction arithmetic builds through _from_coprime_ints from 3.12 on
            for name in ("__new__", "_from_coprime_ints"):
                if name in vars(Fraction):
                    count_calls(patch, Fraction, name, calls)
            value = rf(x)
        assert isinstance(value, Fraction) and len(calls) == 1

    @pytest.mark.parametrize("rf", [
        baxter_tl(2).coeffs[0], constant_baxter(1, 2).coeffs[0],
        RationalFunction((F(1), QuadExt(0, 1, 5)), (QuadExt(2, 1, 5), F(1), F(3))),
    ], ids=["baxter-tl", "constant-baxter", "surd-denominator"])
    @pytest.mark.parametrize("x", [F(2, 3), F(-5, 7), F(9)])
    def test_one_quadext_for_an_irrational_table(self, monkeypatch, rf, x):
        calls = []
        with monkeypatch.context() as patch:
            count_calls(patch, QuadExt, "__init__", calls)
            value = rf(x)
        assert isinstance(value, QuadExt) and len(calls) == 1


class TestIntegerParts:
    """`RationalFunction.parts` is the one evaluation: the value as integer
    parts (a, b, c), c > 0, over the table's own d; a call builds its value
    from them, and the regularity and unitarity checks read them."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), drawn=tables([(), (5,), (20,), (5, 20)]))
    def test_parts_are_the_value(self, data, drawn):
        rf, roots = drawn
        x = data.draw(st.one_of(samples, st.sampled_from(roots)) if roots else samples)
        want = outcome(lambda y: reference_value(rf, y), x)
        try:
            parts = rf.parts(x)
        except PoleError as err:
            # the pole check lives in parts; a call raises its PoleError
            assert want == outcome(rf, x) == ("pole", str(err))
            return
        a, b, c = parts
        assert all(type(v) is int for v in parts) and c > 0
        assert b == 0 or rf.d not in (None, 1)
        assert QuadExt(F(a, c), F(b, c), rf.d or 1) == want[1] == rf(x)

    @staticmethod
    def reference_report(fam, samples):
        """check_regularity_unitarity on values, as the check read them
        before integer parts."""
        ts, failures = fam.s.twice, []
        for x in samples:
            for j in fam.defined():
                if fam.eval_coeff(j, x) * fam.eval_coeff(j, fam.sampling.invert(x)) != 1:
                    failures.append({"check": "unitary", "j": j, "sample": str(x)})
            if ts in fam.coeffs and fam.eval_coeff(ts, x) != 1:
                failures.append({"check": "normalized", "sample": str(x)})
        return {"failures": failures, "pass": not failures}

    @settings(max_examples=150, deadline=None)
    @given(drawn=tables([(), (5,), (20,)]), xs=st.lists(samples, min_size=1, max_size=3))
    def test_unitarity_reads_parts_as_values(self, drawn, xs):
        # r = 1 + x num/den, regular, at the top label, next to the unitary
        # (1 + sqrt(5) x)/(1 - sqrt(5) x), whose denominator is a surd, and
        # (1 - x)/(1 + x)
        table, _ = drawn
        assume(table.den[0] != 0)
        shift = (F(0),) + table.num
        width = max(len(table.den), len(shift))
        pad = lambda p: p + (F(0),) * (width - len(p))
        root = QuadExt(0, 1, 5)
        fam = custom_family(1, {
            2: RationalFunction(tuple(map(operator.add, pad(table.den), pad(shift))), table.den),
            1: RationalFunction((F(1), root), (F(1), -root)),
            0: RationalFunction((F(1), F(-1)), (F(1), F(1)))})
        got = outcome(lambda y: check_regularity_unitarity(fam, y), xs)
        assert got == outcome(lambda y: self.reference_report(fam, y), xs)

    def test_surd_tables_unitary_or_irregular(self):
        root = QuadExt(0, 1, 5)
        unitary = custom_family(1, {
            2: RationalFunction((F(1),), (F(1),)),
            1: RationalFunction((F(2), 2 * root), (F(2), -2 * root)),
            0: RationalFunction((F(1), F(-1)), (F(1), F(1)))})
        report = check_regularity_unitarity(unitary, [F(1, 2), F(3)])
        assert report["pass"] and not unitary.eval_coeff(1, F(3)).is_rational
        with pytest.raises(DomainError, match=r"not regular: r_2 at the origin is 1 \+ 1\*sqrt\(5\)"):
            custom_family(1, {2: RationalFunction((1 + root, F(1)), (F(1), F(1)))})
