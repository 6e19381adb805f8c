"""Dense moment-side routes that the library does not run, kept beside the tests as references.

The library shifts a vector by a constraint pointwise on its
pseudo-probabilities (momentcert.moments.constraint_diagonal) and never
builds a moment matrix, a zeta block or a 2^n list of moments. The tests
check it against these routes, which read the moments directly:

* moment_matrix builds M_t, whose entry (I, J) is the moment at I union
  J, from either vector kind; shift is the moment-side shift by a
  linear constraint, z_I = sum_K g_K * w_{I union K} over the monomials
  K of g (the empty one with the constant, each singleton {i} with its
  weight), whose moment matrix is the localizing matrix of g.
* pair_value is the alternating sum over subsets of J of the moments at
  their unions with I; with J the complement of I it is the
  pseudo-probability of I, read from one entry at a time.
* At the full level t = n the moment matrix factors exactly through the
  subset-inclusion zeta matrix Z as

      M_n(w) = Z * Diag(p) * Z^T

  with p the pseudo-probability vector of w: entry (I, J) of the product
  is the superset sum of p over I union J, which is what moment_matrix
  reads off p. ZetaBlock materializes the blocks of Z at level t, and
  acceptance criterion 1 checks the identity against the literal product.
* extract_distribution reads a full-level solution as a distribution
  over 0/1 points, or names the first subset that prevents it.
* from_dense and to_dense convert a vector to and from its 2^n entries
  in mask order.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from momentcert.lattice import (
    MOMENTS,
    LatticeError,
    LatticeVector,
    LinearConstraint,
    SubsetIndex,
    _mask_of,
    enumerate_subsets,
    from_pseudo_probabilities,
    to_pseudo_probabilities,
)

ZETA_BLOCK_MAX_N = 12


def from_dense(n: int, kind: str, values: Sequence[Fraction]) -> LatticeVector:
    """The vector whose entry at mask m is values[m]."""
    return LatticeVector(n, kind, dict(enumerate(values)))


def to_dense(v: LatticeVector) -> list[Fraction]:
    """The 2^n entries of v in mask order, zeros included."""
    return [v.get(mask) for mask in range(1 << v.n)]


def pair_value(w: LatticeVector, I: int, J: int) -> Fraction:
    """Alternating sum over the second argument:

        sum over H subset of J of (-1)^|H| * w_{H union I}

    With J the complement of I this is the pseudo-probability of I.
    """
    if w.kind != MOMENTS:
        raise LatticeError("pair_value expects a moment vector")
    imask = _mask_of(I, w.n)
    jmask = _mask_of(J, w.n)
    total = Fraction(0)
    sub = jmask
    while True:
        term = w.get(sub | imask)
        if term:
            total += -term if sub.bit_count() & 1 else term
        if sub == 0:
            break
        sub = (sub - 1) & jmask
    return total


def shift(g: LinearConstraint, y: LatticeVector) -> LatticeVector:
    """Moment vector of the constraint-shifted functional:

        z_I = sum over K in the support of g of g_K * y_{I union K}

    The support of a linear g is the empty set, with the constant, and
    the singletons {i}, each with its weight.
    """
    if y.kind != MOMENTS:
        raise LatticeError("shift expects a moment vector")
    if g.n != y.n:
        raise LatticeError("constraint and vector over different ground sets")
    dense = to_dense(y)
    support = [(0, g.constant)] + [(1 << (i - 1), wi) for i, wi in g.weights.items()]
    out = []
    for mask in range(1 << y.n):
        acc = Fraction(0)
        for kmask, coef in support:
            acc += coef * dense[mask | kmask]
        out.append(acc)
    return from_dense(y.n, MOMENTS, out)


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
        head = [s for s in full if s.bits.bit_count() <= t]
        tail = [s for s in full if s.bits.bit_count() > t]
        a = [[1 if r.bits & ~c.bits == 0 else 0 for c in head] for r in head]
        b = [[1 if r.bits & ~c.bits == 0 else 0 for c in tail] for r in head]
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
                if r.bits & ~c.bits == 0:
                    row.append(-1 if (c.bits.bit_count() - r.bits.bit_count()) & 1 else 1)
                else:
                    row.append(0)
            out.append(row)
        return out


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
    y: LatticeVector, constraints: Sequence[LinearConstraint] = ()
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
            gval = g.constant + sum(
                (wi for i, wi in g.weights.items() if mask >> (i - 1) & 1),
                Fraction(0),
            )
            if gval < 0:
                return DistributionExtraction(
                    False,
                    None,
                    (SubsetIndex(mask, y.n), gval),
                    "constraint-violation",
                )
        support.append((SubsetIndex(mask, y.n), val))
    return DistributionExtraction(True, support, None, None)
