"""Rank-one sums and Gershgorin disks in plain Fractions, kept beside the tests as a reference.

The library sums rank-one terms densely in one place, adf.assemble, as
integer rows over one common denominator; the exact oracle and the disk
reading of a form whose rows two terms share both read those rows.
as_fractions is the Fraction view of that pair, which the tests compare
with matrices of Fractions, and stage_from_json rebuilds a stage that
--trace wrote as a form. The tests check assemble, and the pivot state
that certify keeps as a form, against the entry-by-entry Fraction sum
below instead, so no test compares assemble with itself.

The library's disk report holds integer numerators over one
denominator. FractionReport, form_disks and row_disks are the disk
readers it replaced, one Fraction per center, radius and margin, and
the tests compare the report with them reading for reading. form_disks
reads forms whose rows two terms share from rank_one_triangle, the
integer upper triangle the library summed its terms into before
assemble did it, kept here so that the reference does not read the
library's assemble.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from momentcert.adf import AlmostDiagonalForm
from momentcert.lattice import rat_str

Matrix = list[list[Fraction]]


def as_fractions(rows: Sequence[Sequence[int]], den: int) -> Matrix:
    """The integer rows over den that assemble returns, as one Fraction matrix."""
    return [[Fraction(x, den) for x in row] for row in rows]


def rank_one_triangle(form: AlmostDiagonalForm) -> tuple[int, list[list[int]]]:
    """The sum of the form's terms as one integer upper triangle U over L.

    L is the lcm of the denominators q = c.denominator * den^2 of the
    terms (c, num / den), and each term adds c.numerator (L / q) num_i
    num_j to U[i][j], i <= j, over the nonzeros of num. The entries below
    the diagonal stay zero, and the diagonal D is not included.
    """
    size = form.size()
    scaled: list[tuple[int, int, list[tuple[int, int]]]] = []
    L = 1
    for term in form.terms:
        c = term.coefficient
        nz = [(k, v) for k, v in enumerate(term.num) if v]
        if not c or not nz:
            continue
        q = c.denominator * term.den * term.den
        scaled.append((c.numerator, q, nz))
        L = math.lcm(L, q)
    upper = [[0] * size for _ in range(size)]
    for a, q, nz in scaled:
        m = a * (L // q)
        for a, (ki, hi) in enumerate(nz):
            row = upper[ki]
            mh = m * hi
            for kj, hj in nz[a:]:
                row[kj] += mh * hj
    return L, upper


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


def stage_from_json(stage: dict, labels: Sequence[str]) -> Matrix:
    """A --trace stage rebuilt as Diag(diag) + sum of coeff * v v^T, rows in the order of labels.

    The stage lists every row's diagonal entry by label, and each term
    its coefficient and its nonzero vector entries by label.
    """
    assert sorted(stage["diag"]) == sorted(labels)
    pos = {lab: k for k, lab in enumerate(labels)}
    rows = [[Fraction(0)] * len(labels) for _ in labels]
    for lab, d in stage["diag"].items():
        rows[pos[lab]][pos[lab]] = Fraction(d)
    for term in stage["terms"]:
        g = [Fraction(0)] * len(labels)
        for lab, v in term["vector"].items():
            g[pos[lab]] = Fraction(v)
        add_rank_one(rows, Fraction(term["coeff"]), g)
    return rows


@dataclass
class FractionReport:
    """Disk centers (diagonal) and radii (row sums of absolute off-diagonals)."""

    centers: list[Fraction]
    radii: list[Fraction]

    @property
    def all_nonnegative(self) -> bool:
        return self.margin() >= 0

    @cached_property
    def margins(self) -> list[Fraction]:
        """Each row's center minus radius, computed on first read."""
        return [c - r for c, r in zip(self.centers, self.radii)]

    def margin(self) -> Fraction:
        """Smallest center minus radius; nonnegative means every disk passes."""
        return min(self.margins, default=Fraction(0))

    def rows_json(self, labels: Union[Sequence[str], None] = None) -> list[dict]:
        if labels is None:
            labels = [str(k) for k in range(len(self.centers))]
        return [
            {"row": lab, "center": rat_str(c), "radius": rat_str(r)}
            for lab, c, r in zip(labels, self.centers, self.radii)
        ]


def form_disks(form: AlmostDiagonalForm) -> FractionReport:
    """Disks of a form, none of its cells built.

    While no row is touched by two terms they are read in closed form
    from each term's num over den: a row that the term (c, u) touches has
    center D_i + c u_i^2 and radius |c u_i| (|u|_1 - |u_i|), and an
    untouched row has center D_i and radius 0. Otherwise they are read
    from the integer triangle U over L of the terms (rank_one_triangle):
    row i's center is D_i + U_ii / L and its radius the sum of |U_ij| over
    row and column i of U, over L. Either way one Fraction per center and
    per radius.
    """
    nonzeros: list[list[tuple[int, int]]] = []
    touched: set[int] = set()
    for term in form.terms:
        nz = [(k, v) for k, v in enumerate(term.num) if v]
        if not touched.isdisjoint(k for k, _ in nz):
            break
        touched.update(k for k, _ in nz)
        nonzeros.append(nz)
    else:  # no row is touched by two terms
        centers = list(form.diag)
        radii = [Fraction(0)] * len(centers)
        for term, nz in zip(form.terms, nonzeros):
            a, b = term.coefficient.numerator, term.coefficient.denominator * term.den ** 2
            l1 = sum(abs(v) for _, v in nz)
            for k, v in nz:
                centers[k] += Fraction(a * v * v, b)
                radii[k] = Fraction(abs(a * v) * (l1 - abs(v)), b)
        return FractionReport(centers, radii)
    L, upper = rank_one_triangle(form)
    return FractionReport(
        [d + Fraction(row[i], L) if row[i] else d
         for i, (d, row) in enumerate(zip(form.diag, upper))],
        [Fraction(sum(map(abs, row)) + sum(map(abs, col)) - 2 * abs(row[i]), L)
         for i, (row, col) in enumerate(zip(upper, zip(*upper)))],
    )


def row_disks(rows: Matrix) -> FractionReport:
    """Disks of a symmetric matrix read row by row."""
    return FractionReport(
        [row[i] for i, row in enumerate(rows)],
        [sum((abs(v) for k, v in enumerate(row) if v and k != i), Fraction(0))
         for i, row in enumerate(rows)],
    )
