from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ybe.exact import QuadExt
from sl2ybe.linalg import mat_add, mat_mul, span_coordinates, span_rank


def mat_scale(c, x):
    """c times the matrix x, entry by entry."""
    return tuple(tuple(c * a for a in row) for row in x)


GM = ((F(1), F(2)), (F(0), F(-1)))
FM = ((F(0), F(1)), (F(3), F(1)))
ZERO = ((F(0), F(0)), (F(0), F(0)))


def combo(*terms):
    out = ZERO
    for c, m in terms:
        out = mat_add(out, mat_scale(F(c), m))
    return out


def solve(target, basis):
    """Coordinates of target over the basis: the last entry of one
    elimination over the basis followed by the target."""
    return span_coordinates([*basis, target])[-1]


class TestSpanSolve:
    """Span coordinates and rank from the one elimination."""

    @pytest.mark.parametrize("target, basis, expected", [
        (combo((3, GM), (F(-1, 2), FM)), (GM, FM), [F(3), F(-1, 2)]),
        (combo((5, GM)), (GM, mat_scale(F(2), GM)), [F(5), F(0)]),
        (combo((3, FM)), (ZERO, FM), [F(0), F(3)]),
        (ZERO, (ZERO, ZERO), [F(0), F(0)]),
        (ZERO, (GM, FM), [F(0), F(0)]),
        (ZERO, (ZERO, FM), [F(0), F(0)]),
    ], ids=["independent", "f-twice-g", "g-zero", "both-zero", "zero-target",
            "zero-target-g-zero"])
    def test_coordinates(self, target, basis, expected):
        assert solve(target, basis) == expected

    @pytest.mark.parametrize("target, basis", [
        (FM, (GM, mat_scale(F(2), GM))),
        (GM, (ZERO, FM)),
        (GM, (ZERO, ZERO)),
        (((F(0), F(0)), (F(0), F(1))), (GM, FM)),
    ], ids=["outside-line", "outside-f-line", "outside-zero-span", "outside-plane"])
    def test_outside_span(self, target, basis):
        assert solve(target, basis) is None

    def test_every_matrix_gets_an_entry(self):
        twice = mat_scale(F(2), GM)
        assert span_coordinates([GM, twice, FM, combo((1, GM), (1, FM)), ZERO]) == [
            None, [F(2)], None, [F(1), F(0), F(1)], [F(0)] * 4]
        assert span_coordinates([]) == []

    def test_int_entries_divide_exactly(self):
        coords = solve(((2, 4), (6, 8)), [((1, 2), (3, 4))])
        assert coords == [F(2)] and type(coords[0]) is F
        coords = solve(((1, 1), (1, 1)), [((2, 2), (2, 2))])
        assert coords == [F(1, 2)] and type(coords[0]) is F

    def test_quadext_entries(self):
        root = QuadExt(F(0), F(1), 5)
        basis = [((1, root), (0, 2)), ((root, 1), (1, 0))]
        target = mat_add(mat_scale(1 + root, basis[0]), mat_scale(F(-1, 3), basis[1]))
        assert solve(target, basis) == [1 + root, F(-1, 3)]
        assert solve(((1, 0), (0, 0)), basis) is None

    def test_rank_of_examples(self):
        assert span_rank([GM, FM, combo((1, GM), (1, FM)), ZERO]) == 2
        assert span_rank([ZERO]) == 0
        assert span_rank([]) == 0


# Plain int and Fraction entries, mixed within one matrix, and ints around
# +-2^150, the size of the L^2-scaled F, G, H, H~ entries.
BIG = 2 ** 150
entries = st.one_of(st.integers(-2, 2), st.integers(-2, 2).map(F),
                    st.builds(lambda sign, k: sign * (BIG + k),
                              st.sampled_from((-1, 1)), st.integers(-2, 2)))
matrices = st.tuples(st.tuples(entries, entries, entries),
                     st.tuples(entries, entries, entries),
                     st.tuples(entries, entries, entries))


def sympy_rank(ms):
    if not ms:
        return 0
    return sympy.Matrix([[a for row in m for a in row] for m in ms]).rank()


@settings(max_examples=150, deadline=None)
@given(st.lists(matrices, max_size=5), matrices)
def test_one_elimination_agrees_with_sympy(basis, target):
    rank = span_rank(basis)
    assert rank == sympy_rank(basis)
    coords = solve(target, basis)
    assert (coords is None) == (sympy_rank(basis + [target]) > rank)
    if coords is not None:
        assert len(coords) == len(basis)
        assert all(type(c) is F for c in coords)
        assert all(sum(c * m[i][j] for c, m in zip(coords, basis)) == target[i][j]
                   for i in range(3) for j in range(3))


@st.composite
def product_factors(draw):
    """A p-by-r and an r-by-q matrix, 1 <= p, r, q <= 4, over the entries
    above, with some rows and columns of each set to int or Fraction 0."""
    def matrix(rows, cols):
        m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
        zero = draw(st.sampled_from((0, F(0))))
        for i in draw(st.sets(st.integers(0, rows - 1))):
            m[i] = [zero] * cols
        for j in draw(st.sets(st.integers(0, cols - 1))):
            for row in m:
                row[j] = zero
        return tuple(map(tuple, m))

    p, r, q = (draw(st.integers(1, 4)) for _ in range(3))
    return matrix(p, r), matrix(r, q)


@settings(max_examples=150, deadline=None)
@given(product_factors())
def test_product_agrees_with_sympy(factors):
    x, y = factors
    product = mat_mul(x, y)
    assert len(product) == len(x) and all(len(row) == len(y[0]) for row in product)
    assert sympy.Matrix(product) == sympy.Matrix(x) * sympy.Matrix(y)
    if all(type(a) is int for m in factors for row in m for a in row):
        assert all(type(a) is int for row in product for a in row)


class TestProduct:
    def test_quadext_zeros_are_multiplied_exactly(self):
        # QuadExt has no __bool__, so its zeros take part in the sums
        root, zero = QuadExt(0, 1, 5), QuadExt(0)
        x = ((zero, root), (1, zero))
        y = ((root, 2), (F(1, 3), zero))
        assert mat_mul(x, y) == ((QuadExt(0, F(1, 3), 5), 0), (root, 2))
        assert mat_mul(((root,),), ((root,),)) == ((5,),)

    def test_all_zero_left_factor_gives_int_zeros(self):
        product = mat_mul(((0, F(0)),) * 3, ((F(1, 2), 2, 3, 4), (5, 6, 7, 8)))
        assert product == ((0,) * 4,) * 3
        assert all(type(a) is int for row in product for a in row)
