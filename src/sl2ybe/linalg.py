"""Small dense matrix helpers over exact scalar types.

Matrices are tuples of tuples.  Entries may be int, Fraction or QuadExt
(mixed freely; QuadExt absorbs rationals), anything supporting the
arithmetic operators and equality with 0.  `mat_mul`, the one matrix
product, skips the zero entries of its left factor.  Products of int
matrices stay int; `span_coordinates` eliminates fraction-free, with one
exact division per matrix in the span of the earlier ones.
"""
from __future__ import annotations

import math
from fractions import Fraction

Matrix = tuple

__all__ = [
    "clear_denominators",
    "diag_mul_right",
    "diagonal",
    "is_zero_matrix",
    "mat_add",
    "mat_mul",
    "span_coordinates",
    "span_rank",
]


def diagonal(entries) -> Matrix:
    entries = list(entries)
    dim = len(entries)
    zero = [e * 0 for e in entries]
    return tuple(tuple(entries[i] if i == j else zero[i] for j in range(dim))
                 for i in range(dim))


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    """x @ y; x may be p-by-r and y r-by-q.  Each row of x accumulates the
    rows of y over its nonzero entries only, so a sparse left factor costs
    one row of y per nonzero entry.  A QuadExt entry is never skipped; a
    row with no nonzero entry gives int 0s."""
    out = []
    for row in x:
        acc = [0] * len(y[0])
        for a, y_row in zip(row, y):
            if a:
                acc = [u + a * v for u, v in zip(acc, y_row)]
        out.append(tuple(acc))
    return tuple(out)


def diag_mul_right(x: Matrix, entries) -> Matrix:
    """x @ diag(entries) by column scaling."""
    return tuple(tuple(a * e for a, e in zip(row, entries)) for row in x)


def mat_add(x: Matrix, y: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def clear_denominators(x: Matrix) -> tuple:
    """(L, L*x) for a matrix of rationals, L the lcm of their denominators,
    so L*x is an int matrix."""
    lcm = math.lcm(*(a.denominator for row in x for a in row))
    return lcm, tuple(tuple(a.numerator * (lcm // a.denominator) for a in row)
                      for row in x)


def is_zero_matrix(x: Matrix) -> bool:
    return all(a == 0 for row in x for a in row)


def span_coordinates(matrices) -> list:
    """One fraction-free forward elimination of the matrices, flattened to
    vectors, in the given order.  For each matrix: None if it enlarges the
    span of the earlier ones, else its exact coordinates over the earlier
    matrices (0 for each earlier matrix that enlarged nothing).  A vector
    is reduced by cross-multiplication, v <- row[p] v - v[p] row, in the
    ring of its entries, and so is its combination c over the inputs; one
    reduced to zero has coordinates -c_j / c_i, the only division."""
    vectors = [[a for row in m for a in row] for m in matrices]
    rows = []   # (pivot column, reduced row, the row over the input vectors)
    out = []
    for i, v in enumerate(vectors):
        combo = [0] * len(vectors)
        combo[i] = 1
        for p, row, row_combo in rows:
            b = v[p]
            if b != 0:
                a = row[p]
                v = [a * x - b * y for x, y in zip(v, row)]
                combo = [a * x - b * y for x, y in zip(combo, row_combo)]
        pivot = next((j for j, a in enumerate(v) if a != 0), None)
        if pivot is None:
            unit = Fraction(-1) / combo[i]
            out.append([x * unit for x in combo[:i]])
        else:
            rows.append((pivot, v, combo))
            out.append(None)
    return out


def span_rank(matrices) -> int:
    """Exact rank of the linear span of the given matrices, flattened to
    vectors."""
    return sum(c is None for c in span_coordinates(matrices))
