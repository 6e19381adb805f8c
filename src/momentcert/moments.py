"""Constraint shifts of lattice vectors, computed pointwise.

Shifting a moment vector y by a linear constraint
g = constant + sum_i w_i x_i produces the vector z with
z_I = constant * y_I + sum_i w_i * y_{I union {i}}; the moment matrix of z
is the localizing matrix of g. On pseudo-probabilities the shift is
diagonal: z's pseudo-probability at I is g at the 0/1 point with support
I times y's pseudo-probability at I. constraint_diagonal computes it
that way, so no transform pass runs over the shifted vector.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    LatticeError,
    LatticeVector,
    LinearConstraint,
    to_pseudo_probabilities,
)


def constraint_diagonal(g: LinearConstraint, y: LatticeVector) -> LatticeVector:
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
