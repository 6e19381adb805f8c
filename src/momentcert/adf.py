"""Almost diagonal form of a truncated moment matrix.

A truncated moment matrix M_t(w) is congruent, through the level-t zeta
block A(t), to

    Diag(p, t)  +  sum over |J| > t of p_J * G(J) G(J)^T

where p is the pseudo-probability vector of w and each G(J) is an integer
vector supported on the subsets of J of cardinality at most t:

    G(J)_I = (-1)^(t - |I|) * C(|J| - |I| - 1, t - |I|)   for I inside J.

The congruence A(t) * (that sum) * A(t)^T recovers M_t(w) once the tail
diagonal block B(t) * Diag(p restricted above t) * B(t)^T is added back.
Terms whose coefficient p_J is zero contribute nothing and are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    LatticeError,
    LatticeVector,
    SubsetIndex,
    enumerate_subsets,
    rat,
    rat_str,
    to_pseudo_probabilities,
)


class AdfError(LatticeError):
    """Invalid argument to an almost-diagonal-form operation."""


def choose(m: int, k: int) -> int:
    """Binomial coefficient extended by zero outside 0 <= k <= m."""
    if k < 0 or m < 0 or k > m:
        return 0
    return math.comb(m, k)


def g_vector(J: SubsetIndex, t: int) -> list[Fraction]:
    """The rank-one support vector G(J) over P_t(N) in graded order.

    Only defined for |J| >= t + 1; below that the term would collide with
    the diagonal part, so it is rejected as an invalid argument.
    """
    if J.cardinality <= t:
        raise AdfError(
            f"term set {J} has cardinality {J.cardinality}, needs more than t={t}"
        )
    index = enumerate_subsets(J.n, t)
    jbits = J.bits
    jcard = J.cardinality
    return [
        Fraction(0) if I.bits & ~jbits else Fraction(g_entry(jcard, I.cardinality, t))
        for I in index
    ]


def g_entry(jcard: int, icard: int, t: int) -> int:
    """G(J)_I for I inside J: (-1)^(t - |I|) * C(|J| - |I| - 1, t - |I|)."""
    mag = choose(jcard - icard - 1, t - icard)
    return -mag if (t - icard) & 1 else mag


def add_rank_one(
    rows: list[list[Fraction]], coeff: Fraction, g: Sequence[Fraction]
) -> None:
    """rows += coeff * g g^T in place, touching only the support of g."""
    nz = [(k, v) for k, v in enumerate(g) if v]
    for ki, vi in nz:
        row = rows[ki]
        cvi = coeff * vi
        for kj, vj in nz:
            row[kj] += cvi * vj


@dataclass
class RankOneTerm:
    """One rank-one component p_J * G(J) G(J)^T of the almost diagonal form."""

    J: SubsetIndex
    coefficient: Fraction
    g_vec: list[Fraction]

    @property
    def tag(self) -> str:
        return "PD" if self.coefficient > 0 else "ND"


class AlmostDiagonalForm:
    """Diagonal plus signed rank-one terms, congruent to a moment matrix."""

    __slots__ = ("n", "t", "index", "diag", "terms")

    def __init__(
        self,
        n: int,
        t: int,
        index: Sequence[SubsetIndex],
        diag: Sequence[Fraction],
        terms: Sequence[RankOneTerm],
    ) -> None:
        self.n = n
        self.t = t
        self.index = list(index)
        self.diag = list(diag)
        self.terms = list(terms)
        if len(self.diag) != len(self.index):
            raise AdfError("diagonal length does not match the index")
        for term in self.terms:
            if len(term.g_vec) != len(self.index):
                raise AdfError(f"term {term.J} support has wrong length")

    def size(self) -> int:
        return len(self.index)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "diag": {str(s): rat_str(v) for s, v in zip(self.index, self.diag)},
            "terms": [
                {
                    "J": str(term.J),
                    "coeff": rat_str(term.coefficient),
                    "support": [
                        [str(self.index[k]), rat_str(v)]
                        for k, v in enumerate(term.g_vec)
                        if v
                    ],
                }
                for term in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AlmostDiagonalForm":
        """Parse a payload, checking every term against G(J) as decompose builds it."""
        try:
            n = int(data["n"])
            t = int(data["t"])
            diag_map = data["diag"]
            terms_raw = data["terms"]
        except (KeyError, TypeError, ValueError) as exc:
            raise AdfError(f"malformed almost-diagonal payload: {exc}") from exc
        if not isinstance(diag_map, dict) or not isinstance(terms_raw, list):
            raise AdfError("malformed almost-diagonal payload: diag or terms")
        index = enumerate_subsets(n, t)
        pos = {s.bits: k for k, s in enumerate(index)}
        diag = [Fraction(0)] * len(index)
        for key, value in diag_map.items():
            s = SubsetIndex.parse(key, n)
            if s.bits not in pos:
                raise AdfError(f"diagonal label {key} outside P_t")
            diag[pos[s.bits]] = rat(value)
        terms = []
        for item in terms_raw:
            try:
                J = SubsetIndex.parse(item["J"], n)
                coeff = rat(item["coeff"])
                pairs = [
                    (SubsetIndex.parse(label, n), rat(value))
                    for label, value in item["support"]
                ]
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise AdfError(f"malformed rank-one term: {exc}") from exc
            jcard = J.cardinality
            if jcard <= t:
                raise AdfError(f"term set {J} needs more than t={t} elements")
            # Every entry of G(J) on the subsets of J up to size t is nonzero,
            # so the support must list exactly those subsets, once each.
            vec = [Fraction(0)] * len(index)
            for s, value in pairs:
                k = pos.get(s.bits)
                if (
                    k is None
                    or s.bits & ~J.bits
                    or vec[k]
                    or value != g_entry(jcard, s.cardinality, t)
                ):
                    raise AdfError(f"support entry {s} of term {J} does not match G(J)")
                vec[k] = value
            if len(pairs) != sum(choose(jcard, i) for i in range(t + 1)):
                raise AdfError(f"support of term {J} misses entries of G(J)")
            terms.append(RankOneTerm(J, coeff, vec))
        return cls(n, t, index, diag, terms)


def from_pseudo(p: LatticeVector, t: int) -> AlmostDiagonalForm:
    """Almost diagonal form straight from a pseudo-probability vector."""
    if p.kind != PSEUDO_PROBABILITIES:
        raise AdfError("expected a pseudo-probability vector")
    if not 0 <= t <= p.n:
        raise AdfError(f"level {t} out of range for n={p.n}")
    index = enumerate_subsets(p.n, t)
    pos = {s.bits: k for k, s in enumerate(index)}
    diag = [Fraction(0)] * len(index)
    terms: list[RankOneTerm] = []
    for mask, val in p.items():
        card = mask.bit_count()
        if card <= t:
            diag[pos[mask]] = val
        else:
            J = SubsetIndex(mask, p.n)
            terms.append(RankOneTerm(J, val, g_vector(J, t)))
    return AlmostDiagonalForm(p.n, t, index, diag, terms)


def decompose(w: LatticeVector, t: int) -> AlmostDiagonalForm:
    """Almost diagonal form of M_t(w) for a full-lattice moment vector."""
    if w.kind != MOMENTS:
        raise AdfError("decompose expects a moment vector")
    return from_pseudo(to_pseudo_probabilities(w), t)


def assemble(form: AlmostDiagonalForm) -> list[list[Fraction]]:
    """Dense symmetric matrix Diag + sum of coeff * g g^T."""
    size = form.size()
    rows = [[Fraction(0)] * size for _ in range(size)]
    for k, val in enumerate(form.diag):
        rows[k][k] = val
    for term in form.terms:
        add_rank_one(rows, term.coefficient, term.g_vec)
    return rows


def quadratic_form(form: AlmostDiagonalForm, v: Sequence) -> Fraction:
    """Exact value of v^T * assemble(form) * v without building the matrix.

    Splits into the diagonal part sum_I p_I v_I^2 plus, for every term J,
    the coefficient times the squared inner product of G(J) with v.
    """
    vec = [rat(x) for x in v]
    if len(vec) != form.size():
        raise AdfError("vector length does not match the form index")
    total = Fraction(0)
    for val, x in zip(form.diag, vec):
        if val:
            total += val * x * x
    for term in form.terms:
        dot = Fraction(0)
        for g, x in zip(term.g_vec, vec):
            if g and x:
                dot += g * x
        if dot:
            total += term.coefficient * dot * dot
    return total
