"""Rank-one sums in plain Fractions, kept beside the tests as a reference.

The library sums rank-one terms densely in one place,
adf.rank_one_triangle, on integers over a common denominator; assemble
and the disk reading of a form both start from it. The tests check them,
and the pivot state that certify keeps as a form, against this
entry-by-entry Fraction sum instead, so no test compares assemble with
itself.
"""

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def add_rank_one(rows: Matrix, coeff: Fraction, g: Sequence[Fraction]) -> None:
    """rows += coeff * g g^T in place."""
    for i, gi in enumerate(g):
        if gi:
            for j, gj in enumerate(g):
                if gj:
                    rows[i][j] += coeff * gi * gj


def dense(diag: Sequence[Fraction], terms) -> Matrix:
    """Diag(diag) plus coeff * g g^T for every term, as one dense matrix."""
    rows = [[Fraction(0)] * len(diag) for _ in diag]
    for k, val in enumerate(diag):
        rows[k][k] = val
    for term in terms:
        add_rank_one(rows, term.coefficient, term.g_vec)
    return rows
