import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sl2ybe.exact import (DomainError, HalfInt, QuadExt, parse_rational, rescale_surd,
                          sqrt_canonicalize, squarefree_split)

rationals = st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6),
                         max_denominator=10**4)
small_rationals = st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                               max_denominator=40)


def surd(c, r=1):
    """c*sqrt(r) as the package builds it: the QuadExt with a = 0."""
    return QuadExt(0, c, r)


def surd_product(x, y):
    """x * y for surds x and y (a = 0, or b = 0 when rational) of any two
    radicand classes, which QuadExt refuses to multiply: one
    sqrt_canonicalize of the coefficient and radicand products."""
    return sqrt_canonicalize((x.a + x.b) * (y.a + y.b), x.d * y.d)


def signed_square(x):
    """(sign, square) of a surd x (a = 0, or b = 0 when rational), exact."""
    c = x.a + x.b
    return (c > 0) - (c < 0), c * c * x.d


def embed7(x):
    """a + b*sqrt(7) as the rational matrix ((a, 7b), (b, a)).  The map is
    a ring homomorphism from Q(sqrt(7)) and shares no code with QuadExt."""
    if x.b != 0 and x.d != 7:
        raise ValueError(f"{x!r} is not written over sqrt(7)")
    return ((x.a, 7 * x.b), (x.b, x.a))


def matmul2(p, q):
    return tuple(tuple(p[i][0] * q[0][j] + p[i][1] * q[1][j] for j in range(2))
                 for i in range(2))


class TestHalfInt:
    def test_parse(self):
        assert HalfInt.parse("3/2").twice == 3
        assert HalfInt.parse("2").twice == 4
        assert str(HalfInt(5)) == "5/2"
        assert str(HalfInt(4)) == "2"

    @pytest.mark.parametrize("text", ["1.5", "0.5", "3e0", "3/2.0", "inf", ""])
    def test_parse_refuses_inexact_notation(self, text):
        with pytest.raises(DomainError):
            HalfInt.parse(text)

    def test_coerce(self):
        assert HalfInt.coerce(2).twice == 4
        assert HalfInt.coerce(Fraction(1, 2)).twice == 1
        with pytest.raises(DomainError):
            HalfInt.coerce(Fraction(1, 3))

    def test_labels_compare_by_value(self):
        # labels key dicts and sort as spins
        assert HalfInt(3) == HalfInt(3) and len({HalfInt(3), HalfInt(3)}) == 1
        assert HalfInt(2) != 1 and HalfInt(2) != HalfInt(1)
        assert sorted([HalfInt(3), HalfInt(1), HalfInt(2)]) == [HalfInt(1), HalfInt(2),
                                                                HalfInt(3)]
        assert HalfInt(1) < HalfInt(2) <= HalfInt(2) and HalfInt(3) >= HalfInt(3) > HalfInt(2)
        with pytest.raises(AttributeError):
            HalfInt(1).twice = 2


class TestParseRational:
    @pytest.mark.parametrize("text, value", [
        ("3", Fraction(3)), ("-1/2", Fraction(-1, 2)), (" 2/4 ", Fraction(1, 2)),
        ("+7/3", Fraction(7, 3)), ("0", Fraction(0)),
    ])
    def test_integer_and_fraction_literals(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "0.25", "1e-1", "-0.1", "1.", ".5", "1/2.5", "1_000", "nan", "1/-2",
        "1 / 2", "", "1/0"])
    def test_everything_else_is_refused(self, text):
        with pytest.raises(DomainError):
            parse_rational(text)


class TestSqrtCanonicalize:
    def test_square_extraction(self):
        # the stored radicand may keep its square factor; the value, its
        # hash and its printed form are those of 2*sqrt(3)
        v = sqrt_canonicalize(Fraction(1), Fraction(12))
        assert v == surd(2, 3) and hash(v) == hash(surd(2, 3))
        assert str(v) == "2*sqrt(3)"

    def test_already_rational(self):
        v = sqrt_canonicalize(Fraction(5), Fraction(1))
        assert (v.a, v.b, v.d) == (Fraction(5), 0, 1)

    def test_perfect_square_ratio(self):
        v = sqrt_canonicalize(Fraction(1), Fraction(9, 4))
        assert v.is_rational and v == Fraction(3, 2) and v.as_fraction() == Fraction(3, 2)
        assert str(v) == "3/2"

    def test_negative_radicand_rejected(self):
        with pytest.raises(DomainError):
            sqrt_canonicalize(Fraction(1), Fraction(-2))

    def test_squarefree_split(self):
        assert squarefree_split(720) == (12, 5)
        assert squarefree_split(1) == (1, 1)
        assert squarefree_split(0) == (0, 1)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_split_reconstructs(self, n):
        m, d = squarefree_split(n)
        assert m * m * d == n


class TestSqrtRational:
    """Square roots of rationals c*sqrt(r): the QuadExt values with a = 0."""

    def test_zero_form(self):
        z = surd(0, 7)
        assert z.is_zero and (z.a, z.b, z.d) == (0, 0, 1)

    def test_multiplication_closes(self):
        x = surd(Fraction(1, 2), 6)
        y = surd(3, 10)
        prod = surd_product(x, y)
        assert prod == surd(3, 15) and str(prod) == "3*sqrt(15)"

    def test_addition_same_class(self):
        assert surd(1, 3) + surd(Fraction(1, 2), 3) == surd(Fraction(3, 2), 3)
        # 1*sqrt(12) + 1/2*sqrt(3) == 5/2*sqrt(3)
        assert surd(1, 12) + surd(Fraction(1, 2), 3) == surd(Fraction(5, 2), 3)

    def test_addition_mixed_class_rejected(self):
        with pytest.raises(ValueError):
            surd(1, 2) + surd(1, 3)

    def test_string_forms(self):
        assert str(surd(Fraction(-1, 2))) == "-1/2"
        assert str(surd(Fraction(1, 2), 3)) == "1/2*sqrt(3)"
        assert str(surd(Fraction(-1, 2), 20)) == "-1*sqrt(5)"

    @given(small_rationals, st.integers(min_value=0, max_value=60),
           small_rationals, st.integers(min_value=0, max_value=60))
    def test_product_matches_float(self, c1, r1, c2, r2):
        # the product's sign and square against the factors', exactly
        got = signed_square(surd_product(surd(c1, r1), surd(c2, r2)))
        c = c1 * c2 * r1 * r2   # r1, r2 >= 0: c has the product's sign
        assert got == ((c > 0) - (c < 0), c1 * c1 * r1 * c2 * c2 * r2)


class TestRationalFieldProperties:
    @given(rationals, rationals, rationals)
    def test_associative_commutative_distributive(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x and x * y == y * x
        assert x * (y + z) == x * y + x * z


class TestQuadExt:
    def test_norm_product(self):
        b = QuadExt(Fraction(3, 2), Fraction(1, 2), 5)
        assert b * QuadExt(b.a, -b.b, b.d) == 1

    def test_inverse_identity(self):
        one = QuadExt(1, 0, 5)
        assert one.inverse() == 1

    def test_conjugate_sum(self):
        assert QuadExt(1, 1, 5) + QuadExt(1, -1, 5) == 2

    def test_inverse_roundtrip(self):
        x = QuadExt(Fraction(2, 3), Fraction(-5, 7), 3)
        assert x * x.inverse() == 1

    def test_zero_not_invertible(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(0, 0, 5).inverse()

    def test_mixed_discriminants_rejected(self):
        with pytest.raises(ValueError):
            QuadExt(1, 1, 5) + QuadExt(1, 1, 3)

    def test_rational_embeds_anywhere(self):
        assert QuadExt(2) + QuadExt(0, 1, 5) == QuadExt(2, 1, 5)
        assert Fraction(1, 2) * QuadExt(2, 4, 7) == QuadExt(1, 2, 7)

    def test_discriminant_canonicalized(self):
        x = QuadExt(0, 1, Fraction(5, 9))
        assert x == QuadExt(0, Fraction(1, 3), 5) and str(x) == "1/3*sqrt(5)"
        y = QuadExt(0, 2, 9)
        assert y.is_rational and y == 6 and str(y) == "6"

    def test_division(self):
        x = QuadExt(1, 1, 2)
        y = QuadExt(3, -1, 2)
        assert (x / y) * y == x

    @given(small_rationals, small_rationals, small_rationals, small_rationals)
    def test_field_arithmetic_matches_float(self, a1, b1, a2, b2):
        # x*y + x - y through the rational 2x2 embedding of Q(sqrt(7))
        x, y = QuadExt(a1, b1, 7), QuadExt(a2, b2, 7)
        ex, ey = embed7(x), embed7(y)
        want = tuple(tuple(p + q - r for p, q, r in zip(*rows))
                     for rows in zip(matmul2(ex, ey), ex, ey))
        assert embed7(x * y + x - y) == want

    def test_format(self):
        assert str(QuadExt(Fraction(-9, 2), Fraction(3, 2), 5)) == "-9/2 + 3/2*sqrt(5)"
        assert str(QuadExt(Fraction(3))) == "3"


# Primes above the trial-division bound of squarefree_split: no arithmetic
# verdict may depend on factoring radicands built from them.
BIG_PRIMES = (100003, 999983, 1000003, 1000033, 1000037)
nonzero = small_rationals.filter(lambda x: x != 0)
# a squarefree kernel of one or two big primes (never a square) and a
# cofactor k whose square may hide big primes too
kernels = st.lists(st.sampled_from(BIG_PRIMES), min_size=1, max_size=2,
                   unique=True).map(math.prod)
cofactors = st.lists(st.sampled_from(BIG_PRIMES + (2, 3)), max_size=3).map(math.prod)
distinct_kernels = st.lists(st.sampled_from(BIG_PRIMES), min_size=2, max_size=2,
                            unique=True)


def test_large_prime_square_probe():
    """sqrt(p^2 q) == p sqrt(q) with p and q beyond any trial division."""
    p, q = 1000003, 1000033
    assert QuadExt(0, 1, p * p * q) == QuadExt(0, p, q)
    assert hash(QuadExt(0, 1, p * p * q)) == hash(QuadExt(0, p, q))
    assert QuadExt(0, 1, p * p * q) != QuadExt(0, -p, q)
    assert QuadExt(0, 1, p * p * q) - QuadExt(0, p, q) == 0


def test_large_prime_square_prints_canonically():
    """Equal values print alike when a radicand hides the square of a prime
    beyond trial division: both are printed from b^2 d, whose large-prime
    cofactor p^2 q (above 1e15, not a square) is left whole."""
    p, q = 1000003, 1000033
    assert str(QuadExt(0, 1, p * p * q)) == str(QuadExt(0, p, q)) == f"1*sqrt({p * p * q})"
    assert str(QuadExt(3, -1, p * p * q)) == str(QuadExt(3, -p, q))
    assert str(QuadExt(0, Fraction(-1, 7), p * p * q)) == str(QuadExt(0, Fraction(-p, 7), q))
    # a cofactor below 1e15 is decided: p q is squarefree, p^2 a square
    assert squarefree_split(12 * p * q) == (2, 3 * p * q)
    assert str(QuadExt(0, 1, 2 * p * p)) == str(QuadExt(0, p, 2)) == f"{p}*sqrt(2)"
    assert squarefree_split(p * p * q) == (1, p * p * q)


class TestLargePrimeRadicands:
    @given(nonzero, kernels, cofactors)
    def test_sqrt_equality_and_hash(self, c, q, k):
        x, y = surd(c, k * k * q), surd(c * k, q)
        assert x == y and hash(x) == hash(y)
        assert str(x) == str(y)
        assert x != surd(-c * k, q) and x != surd(c * k, 4 * q)
        assert not x.is_rational and not surd_product(x, y).is_zero

    @given(nonzero, nonzero, kernels, cofactors, cofactors)
    def test_sqrt_product_is_rational_in_one_class(self, c1, c2, q, k1, k2):
        prod = surd_product(surd(c1, k1 * k1 * q), surd(c2, k2 * k2 * q))
        assert prod.is_rational and prod == c1 * c2 * k1 * k2 * q

    @given(nonzero, nonzero, distinct_kernels, cofactors, cofactors)
    def test_sqrt_product_across_classes(self, c1, c2, qs, k1, k2):
        q1, q2 = qs
        prod = surd_product(surd(c1, k1 * k1 * q1), surd(c2, k2 * k2 * q2))
        assert prod == surd(c1 * c2 * k1 * k2, q1 * q2)

    @given(nonzero, nonzero, kernels, cofactors, cofactors)
    def test_sqrt_same_class_sum(self, c1, c2, q, k1, k2):
        total = surd(c1, k1 * k1 * q) + surd(c2, k2 * k2 * q)
        assert total == surd(c1 * k1 + c2 * k2, q)

    @given(nonzero, nonzero, distinct_kernels, cofactors, cofactors)
    def test_sqrt_cross_class_sum_raises(self, c1, c2, qs, k1, k2):
        q1, q2 = qs
        with pytest.raises(ValueError):
            surd(c1, k1 * k1 * q1) + surd(c2, k2 * k2 * q2)

    @given(small_rationals, nonzero, kernels, cofactors)
    def test_quadext_equality_and_hash(self, a, b, q, k):
        x, y = QuadExt(a, b, k * k * q), QuadExt(a, b * k, q)
        assert x == y and hash(x) == hash(y) and str(x) == str(y)
        assert x != QuadExt(a, -b * k, q) and x != QuadExt(a, b * k, 4 * q)

    @given(small_rationals, nonzero, small_rationals, nonzero, kernels,
           cofactors, cofactors)
    def test_quadext_same_class_arithmetic(self, a1, b1, a2, b2, q, k1, k2):
        x, y = QuadExt(a1, b1, k1 * k1 * q), QuadExt(a2, b2, k2 * k2 * q)
        x0, y0 = QuadExt(a1, b1 * k1, q), QuadExt(a2, b2 * k2, q)
        assert x + y == x0 + y0 and x - y == x0 - y0 and x * y == x0 * y0
        assert x * x.inverse() == 1
        assert x / y == x0 / y0 and (x / y) * y == x
        assert rescale_surd(b1, x.d, q) == b1 * k1

    @given(nonzero, nonzero, distinct_kernels, cofactors, cofactors)
    def test_quadext_cross_class_raises(self, b1, b2, qs, k1, k2):
        q1, q2 = qs
        x, y = QuadExt(1, b1, k1 * k1 * q1), QuadExt(1, b2, k2 * k2 * q2)
        for op in (lambda: x + y, lambda: x * y, lambda: x / y):
            with pytest.raises(ValueError):
                op()
        assert x != y
