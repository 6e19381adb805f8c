"""Moment matrices, constraint shifts, and the full-lattice diagonalization.

The truncated moment matrix of a vector w at level t is indexed by the
subsets of cardinality at most t in graded order, with entry (I, J) equal
to w_{I union J}. Shifting a moment vector by a constraint polynomial g
produces the vector z with z_I = sum_K g_K * w_{I union K}; the moment
matrix of z is the localizing matrix of g.

At the full level t = n the moment matrix factors exactly through the
subset-inclusion zeta matrix Z as

    M_n(w) = Z * Diag(p) * Z^T

with p the pseudo-probability vector of w. Every entry of the product on
the right is a plain superset sum of p over the union of its row and
column labels. full_diagonalize only round-trips the transforms (zeta of
the Moebius image gives w back); the independent check of the product is
the literal Z * Diag(p) * Z^T of acceptance criterion 1.
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
    rat,
    rat_str,
    to_pseudo_probabilities,
)

ZETA_BLOCK_MAX_N = 12


class MomentMatrix:
    """Symmetric matrix indexed by P_t(N) with entries from a moment vector."""

    __slots__ = ("n", "t", "index", "rows")

    def __init__(
        self,
        n: int,
        t: int,
        index: Sequence[SubsetIndex],
        rows: Sequence[Sequence[Fraction]],
    ) -> None:
        self.n = n
        self.t = t
        self.index = list(index)
        self.rows = [list(r) for r in rows]
        size = len(self.index)
        if any(len(r) != size for r in self.rows) or len(self.rows) != size:
            raise LatticeError("moment matrix is not square over its index")

    def entry(
        self, I: Union[SubsetIndex, int], J: Union[SubsetIndex, int]
    ) -> Fraction:
        pos = {s.bits: k for k, s in enumerate(self.index)}
        ib = I.bits if isinstance(I, SubsetIndex) else I
        jb = J.bits if isinstance(J, SubsetIndex) else J
        if ib not in pos or jb not in pos:
            raise LatticeError("subset not in the matrix index")
        return self.rows[pos[ib]][pos[jb]]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "order": [str(s) for s in self.index],
            "rows": [[rat_str(v) for v in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MomentMatrix":
        try:
            n = int(data["n"])
            t = int(data["t"])
            order = data["order"]
            rows = data["rows"]
        except (KeyError, TypeError, ValueError) as exc:
            raise LatticeError(f"malformed moment matrix payload: {exc}") from exc
        index = [SubsetIndex.parse(s, n) for s in order]
        parsed = [[rat(v) for v in row] for row in rows]
        return cls(n, t, index, parsed)


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


def moment_matrix(w: LatticeVector, t: int) -> MomentMatrix:
    """Truncated moment matrix M_t(w) in graded order."""
    if w.kind != MOMENTS:
        raise LatticeError("moment_matrix expects a moment vector")
    index = enumerate_subsets(w.n, t)
    dense = w.to_dense()
    rows = [
        [dense[a.bits | b.bits] for b in index]
        for a in index
    ]
    return MomentMatrix(w.n, t, index, rows)


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


def full_diagonalize(w: LatticeVector) -> tuple[LatticeVector, bool]:
    """Pseudo-probabilities of w plus a round-trip flag.

    Returns (p, verified) where p is the Moebius transform of w and
    verified says whether the zeta transform of p gives w back. Entry
    (I, J) of Z * Diag(p) * Z^T is the zeta image of p at I union J, so
    the round trip is that product's entries over every union; it is not
    an independent check. Acceptance criterion 1 compares the literal
    product against M_n(w) for that.
    """
    if w.n > ZETA_BLOCK_MAX_N:
        raise LatticeError(
            f"full diagonalization is limited to n <= {ZETA_BLOCK_MAX_N}"
        )
    p = to_pseudo_probabilities(w)
    back = from_pseudo_probabilities(p)
    wd = w.to_dense()
    bd = back.to_dense()
    verified = wd == bd
    return p, verified


def constraint_diagonal(
    g: ConstraintPolynomial, y: LatticeVector
) -> LatticeVector:
    """Pseudo-probabilities of the shifted vector, computed pointwise.

    The shifted functional's pseudo-probability at I is g evaluated at the
    0/1 point with support I times the pseudo-probability of y at I, so no
    second transform pass is needed.
    """
    if g.n != y.n:
        raise LatticeError("constraint and vector over different ground sets")
    if y.kind == MOMENTS:
        p = to_pseudo_probabilities(y)
    elif y.kind == PSEUDO_PROBABILITIES:
        p = y
    else:  # pragma: no cover - kinds are validated at construction
        raise LatticeError(f"unknown vector kind {y.kind!r}")
    entries = {mask: g.value_at(mask) * val for mask, val in p.items()}
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
    p = to_pseudo_probabilities(y)
    dense = p.to_dense()
    order = sorted(range(1 << y.n), key=lambda m: (m.bit_count(), m))
    support: list[tuple[SubsetIndex, Fraction]] = []
    for mask in order:
        val = dense[mask]
        if val < 0:
            return DistributionExtraction(
                False, None, (SubsetIndex(mask, y.n), val), "negative-weight"
            )
        if val == 0:
            continue
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
