"""Moment matrices, constraint shifts, and the zeta blocks.

The truncated moment matrix of a vector at level t is indexed by the
subsets of cardinality at most t in graded order, with entry (I, J) equal
to the moment at I union J. moment_matrix is its one builder and takes
either vector kind: a moment vector is read at each union, and a
pseudo-probability vector is read through its moments, the superset sums
that from_pseudo_probabilities computes over the down-closure of its
support only. Shifting a moment vector by a constraint polynomial g
produces the vector z with z_I = sum_K g_K * w_{I union K}; the moment
matrix of z is the localizing matrix of g.

At the full level t = n the moment matrix factors exactly through the
subset-inclusion zeta matrix Z as

    M_n(w) = Z * Diag(p) * Z^T

with p the pseudo-probability vector of w: entry (I, J) of the product
is the superset sum of p over I union J, which is what moment_matrix
reads off p. Acceptance criterion 1 checks that identity against the
literal product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .lattice import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    ConstraintPolynomial,
    LatticeError,
    LatticeVector,
    SubsetIndex,
    enumerate_subsets,
    from_pseudo_probabilities,
    to_pseudo_probabilities,
)

ZETA_BLOCK_MAX_N = 12


def shift(g: ConstraintPolynomial, y: LatticeVector) -> LatticeVector:
    """Moment vector of the constraint-shifted functional:

        z_I = sum over K in the support of g of g_K * y_{I union K}
    """
    if y.kind != MOMENTS:
        raise LatticeError("shift expects a moment vector")
    if g.n != y.n:
        raise LatticeError("constraint and vector over different ground sets")
    dense = y.to_dense()
    support = [(mask, g.coefficient(mask)) for mask in g.support()]
    out = []
    for mask in range(1 << y.n):
        acc = Fraction(0)
        for kmask, coef in support:
            acc += coef * dense[mask | kmask]
        out.append(acc)
    return LatticeVector.from_dense(y.n, MOMENTS, out)


def moment_matrix(v: LatticeVector, t: int) -> list[list[Fraction]]:
    """Rows of the truncated moment matrix M_t in graded order.

    Entry (I, J) is the moment at I union J, read from one mask -> value
    map with one shared zero for the unions outside its support. A
    pseudo-probability vector is first turned into its moments by
    from_pseudo_probabilities, whose pass covers only the down-closure of
    its support.
    """
    masks = [s.bits for s in enumerate_subsets(v.n, t)]
    moment = (v if v.kind == MOMENTS else from_pseudo_probabilities(v)).to_dict().get
    zero = Fraction(0)
    return [[moment(a | b, zero) for b in masks] for a in masks]


# ---------------------------------------------------------------------------
# zeta blocks
# ---------------------------------------------------------------------------


@dataclass
class ZetaBlock:
    """Dense 0/1 blocks of the subset-inclusion zeta matrix at level t.

    a is the square block over P_t(N); b pairs P_t(N) rows against the
    columns of cardinality above t. Only materialized for small n since
    the full matrix has 4^n entries.
    """

    n: int
    t: int
    head: list[SubsetIndex]
    tail: list[SubsetIndex]
    a: list[list[int]]
    b: list[list[int]]

    @classmethod
    def build(cls, n: int, t: int) -> "ZetaBlock":
        if n > ZETA_BLOCK_MAX_N:
            raise LatticeError(
                f"zeta blocks are only materialized for n <= {ZETA_BLOCK_MAX_N}"
            )
        full = enumerate_subsets(n, n)
        head = [s for s in full if s.cardinality <= t]
        tail = [s for s in full if s.cardinality > t]
        a = [[1 if r.issubset(c) else 0 for c in head] for r in head]
        b = [[1 if r.issubset(c) else 0 for c in tail] for r in head]
        return cls(n, t, head, tail, a, b)

    def a_inverse(self) -> list[list[int]]:
        """Inverse of the head block: (-1)^(|J|-|I|) on inclusions I in J.

        The alternating signs invert the inclusion indicator on the
        truncated lattice just as on the full one, since every subset of
        a member of P_t is itself in P_t.
        """
        out = []
        for r in self.head:
            row = []
            for c in self.head:
                if r.issubset(c):
                    row.append(-1 if (c.cardinality - r.cardinality) & 1 else 1)
                else:
                    row.append(0)
            out.append(row)
        return out


def constraint_diagonal(
    g: ConstraintPolynomial, y: LatticeVector
) -> LatticeVector:
    """Pseudo-probabilities of the shifted vector, computed pointwise.

    The shifted functional's pseudo-probability at I is g evaluated at the
    0/1 point with support I times the pseudo-probability of y at I, so no
    second transform pass is needed. g is evaluated on its integer
    numerators, so each entry is built as one rational.
    """
    if g.n != y.n:
        raise LatticeError("constraint and vector over different ground sets")
    p = to_pseudo_probabilities(y) if y.kind == MOMENTS else y
    pairs = list(p.items())
    L, values = g.scaled_values(mask for mask, _ in pairs)
    entries = {
        mask: Fraction(x * q.numerator, L * q.denominator)
        for (mask, q), x in zip(pairs, values)
    }
    return LatticeVector(y.n, PSEUDO_PROBABILITIES, entries)


# ---------------------------------------------------------------------------
# distribution extraction
# ---------------------------------------------------------------------------


@dataclass
class DistributionExtraction:
    """Outcome of reading a full-level solution as a distribution.

    When ok, support lists the positive-probability subsets with their
    weights. Otherwise violation holds the first offending subset in
    graded order together with the offending value, and reason says
    whether it was a negative weight or a violated constraint.
    """

    ok: bool
    support: Union[list[tuple[SubsetIndex, Fraction]], None]
    violation: Union[tuple[SubsetIndex, Fraction], None]
    reason: Union[str, None]


def extract_distribution(
    y: LatticeVector, constraints: Sequence[ConstraintPolynomial] = ()
) -> DistributionExtraction:
    """Express y as a weighted average of 0/1 indicator solutions.

    Requires y_empty == 1. Scans subsets in graded order; at each subset a
    negative pseudo-probability is reported first, then any constraint
    that goes negative on a subset carrying positive weight. The returned
    support weights sum to one and their indicator average reproduces
    every moment of y.
    """
    if y.kind != MOMENTS:
        raise LatticeError("extract_distribution expects a moment vector")
    if y.get(0) != 1:
        raise LatticeError("normalization y_{} must equal 1")
    for g in constraints:
        if g.n != y.n:
            raise LatticeError("constraint over a different ground set")
    support: list[tuple[SubsetIndex, Fraction]] = []
    for mask, val in to_pseudo_probabilities(y).items():
        if val < 0:
            return DistributionExtraction(
                False, None, (SubsetIndex(mask, y.n), val), "negative-weight"
            )
        for g in constraints:
            gval = g.value_at(mask)
            if gval < 0:
                return DistributionExtraction(
                    False,
                    None,
                    (SubsetIndex(mask, y.n), gval),
                    "constraint-violation",
                )
        support.append((SubsetIndex(mask, y.n), val))
    return DistributionExtraction(True, support, None, None)
