import json
from fractions import Fraction

import pytest

from sl2ybe.amatrix import eta_closed_form
from sl2ybe.exact import DomainError, HalfInt, QuadExt
from sl2ybe.spectral import (PoleError, RationalFunction, baxter_b, baxter_tl,
                             check_regularity_unitarity, constant_baxter,
                             constant_root, custom_family, exceptional_s3,
                             family_from_json, identity_family, krs_prefix,
                             make_family, permutation_family, reduced_d, yang,
                             zamolodchikov)
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
        with pytest.raises(PoleError):
            yang(1).eval_coeff(0, F(-1))

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

    def test_lower_coefficients_undefined(self):
        fam = zamolodchikov(2, 2)
        with pytest.raises(DomainError):
            fam.eval_coeff(0, F(1))

    def test_m_bounds(self):
        with pytest.raises(DomainError):
            zamolodchikov(1, 1)
        with pytest.raises(DomainError):
            zamolodchikov("1/2", 2)


class TestBaxterB:
    def test_golden_case(self):
        assert baxter_b(F(1, 3)) == QuadExt(F(3, 2), F(1, 2), 5)

    def test_double_root(self):
        assert baxter_b(F(1, 2)) == 1

    def test_perfect_square_discriminant(self):
        b = baxter_b(F(2, 5))
        assert b.is_rational and b.as_fraction() == 2

    def test_defining_equation(self):
        for eta in (F(1, 3), F(1, 4), F(1, 5), F(2, 5)):
            b = baxter_b(eta)
            assert b + b.inverse() == QuadExt(1 / eta, 0, b.d)

    def test_negative_discriminant(self):
        with pytest.raises(DomainError):
            baxter_b(F(3, 4))


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
        assert fam.multiplicative
        assert fam.compose(F(2), F(3)) == 6
        assert fam.invert_sample(F(2)) == F(1, 2)

    def test_lower_members_rejected(self):
        # only m = 2s has a closed form, so the tag takes no m
        with pytest.raises(DomainError, match="family 'baxter-tl' takes no m"):
            make_family("baxter-tl", HalfInt(4), 2)

    def test_field_is_irrational(self):
        assert baxter_tl(1).discriminant == 5
        assert baxter_tl("3/2").discriminant == 3

    def test_discriminant_is_read_from_the_table(self):
        # the d of baxter_b(eta), which the family once stored beside its table
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

    def test_matches_shifted_family_when_full(self):
        # for s = 1, m = 2 the shifted family defines the same three coefficients
        prefix, shifted = krs_prefix(1), zamolodchikov(1, 2)
        for lam in (F(1, 2), F(2), F(5, 7)):
            for j in (0, 1, 2):
                assert prefix.eval_coeff(j, lam) == shifted.eval_coeff(j, lam)


class TestExceptionalS3:
    def test_coefficients(self):
        fam = exceptional_s3()
        assert fam.s == HalfInt(6)
        assert fam.eval_coeff(3, F(1)) == F(3, 5)
        assert fam.eval_coeff(0, F(1)) == 0
        assert fam.eval_coeff(4, F(9)) == 1

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

