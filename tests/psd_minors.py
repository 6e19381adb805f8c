"""The textbook PSD criterion, kept beside the tests as an independent cross-check.

A symmetric matrix is PSD exactly when every principal minor is
nonnegative. The scan is exponential in the dimension, so it is capped at
12 and used only on the small matrices the oracle tests draw.
"""

from fractions import Fraction
from typing import Sequence

from momentcert import CertifyError

Matrix = list[list[Fraction]]


def principal_minors_psd(rows: Sequence[Sequence[Fraction]]) -> bool:
    """Whether every principal minor of the symmetric matrix rows is nonnegative."""
    mat = [list(row) for row in rows]
    size = len(mat)
    if any(len(row) != size for row in mat) or any(
        mat[i][j] != mat[j][i] for i in range(size) for j in range(i)
    ):
        raise CertifyError("principal minor check needs a symmetric matrix")
    if size > 12:
        raise CertifyError("principal minor check is limited to dimension 12")
    for picks in range(1, 1 << size):
        sel = [i for i in range(size) if picks >> i & 1]
        sub = [[mat[i][j] for j in sel] for i in sel]
        if _det(sub) < 0:
            return False
    return True


def _det(mat: Matrix) -> Fraction:
    m = [row[:] for row in mat]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if m[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        d = m[col][col]
        det *= d
        for r in range(col + 1, size):
            f = m[r][col] / d
            if f:
                for c in range(col, size):
                    m[r][c] -= f * m[col][c]
    return det
