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

The form is fixed by p and t, so from_pseudo is the one builder: decompose
and the JSON reader both go through it, and it enumerates P_t once per
form. Each G(J) is fixed by J and that index alone, so a term holds the
two and g_vector builds its integer vector the first time it is read
(assemble, a disk reading of a folded term, a pivot, decide_form).
decompose, the JSON round trip and a recipe that the disks settle without
a pivot read no G(J) and build none. The JSON payload is that (p, t)
alone, p split at t into the diagonal and the term coefficients; no G(J)
is written.

Every term's vector is an integer vector num over one positive
denominator den, in lowest terms: G(J) has den 1, a term made from a
rational vector is brought to that shape once, and the pivots of certify
build theirs fraction-free. RankOneTerm.g_vec is the Fraction view. Terms
are immutable values shared between forms. The other forms are built in
certify, which only assembles and reads them and never writes them:
decide_form's Schur complement of a form onto its nonpositive diagonal
rows, and the stages of a pivot state, the diagonal plus the folded
terms, whose pivoted terms carry their own vectors.

assemble is the one place rank-one terms are summed: as Python ints over
one common denominator, every product landing in one integer upper
triangle at the term's nonzeros, mirrored into dense symmetric integer
rows. The exact oracle, certify's disk reading of a form whose rows
two terms share, and replay's comparison of each pivot stage with its
goldens read those rows as they are; --trace writes the stages as forms
and assembles none.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .lattice import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    LatticeError,
    LatticeVector,
    RationalLike,
    SubsetIndex,
    enumerate_subsets,
    json_int,
    parse_subset_mask,
    rat,
    rat_str,
    subset_label,
    to_pseudo_probabilities,
)


class AdfError(LatticeError):
    """Invalid argument to an almost-diagonal-form operation."""


def g_vector(J: SubsetIndex, index: Sequence[SubsetIndex]) -> list[int]:
    """The rank-one support vector G(J) over the caller's P_t index, as ints.

    index is P_t(N) in graded order, as enumerate_subsets builds it, and t
    is the cardinality of its last subset. G(J) is only defined for
    |J| >= t + 1; below that the term would collide with the diagonal
    part, so it is rejected as an invalid argument. The t + 1 values
    C(|J| - |I| - 1, t - |I|) with their signs are computed once per call,
    and each entry is a lookup by |I|. Its entry at any t-subset of J is 1,
    so its content is 1.
    """
    t = index[-1].bits.bit_count()
    jbits = J.bits
    jcard = jbits.bit_count()
    if jcard <= t:
        raise AdfError(f"term set {J} has cardinality {jcard}, needs more than t={t}")
    # G(J)_I = (-1)^(t - |I|) * C(|J| - |I| - 1, t - |I|) for I inside J.
    by_card = [(-1) ** (t - i) * math.comb(jcard - i - 1, t - i) for i in range(t + 1)]
    return [0 if I.bits & ~jbits else by_card[I.bits.bit_count()] for I in index]


class RankOneTerm:
    """One rank-one component coefficient * g g^T of an almost diagonal form.

    g is stored as an integer vector num over one positive denominator
    den, with gcd(den, *num) == 1; g_vec is the Fraction view of it.
    An immutable value, compared by identity: nothing edits a term or its
    vector once it is made, so forms, pivot states and snapshots share
    term objects. A term of from_pseudo is made with J and the form's P_t
    index and no vector, and num = G(J) (den 1) is built by g_vector when
    it is first read; decompose, the JSON round trip and a recipe that the
    disks settle without a pivot read none. A term made with a rational
    vector (a Schur complement's) is brought to num / den once, through
    rat, so a float or bool entry is refused; a pivot's term is made by
    scaled from integers already in lowest terms.
    """

    __slots__ = ("J", "coefficient", "den", "_num", "_index")

    def __init__(self, J: SubsetIndex, coefficient: Fraction,
                 g_vec: Union[Sequence[RationalLike], None] = None,
                 index: Union[Sequence[SubsetIndex], None] = None) -> None:
        self.J, self.coefficient, self._index, self.den, self._num = J, coefficient, index, 1, None
        if g_vec is not None:
            vec = [rat(x) for x in g_vec]
            self.den = math.lcm(*(v.denominator for v in vec))
            self._num = [v.numerator * (self.den // v.denominator) for v in vec]

    @classmethod
    def scaled(cls, J: SubsetIndex, coefficient: Fraction, num: list[int],
               den: int) -> "RankOneTerm":
        """The term over num / den, brought to a positive den and content 1."""
        k = math.gcd(den, *num)
        k = -k if den < 0 else k
        term = cls(J, coefficient)
        term._num, term.den = [x // k for x in num], den // k
        return term

    @property
    def num(self) -> list[int]:
        if self._num is None:
            self._num = g_vector(self.J, self._index)
        return self._num

    @property
    def g_vec(self) -> list[Fraction]:
        return [Fraction(x, self.den) for x in self.num]


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

    def size(self) -> int:
        return len(self.index)

    def to_json_dict(self) -> dict:
        """The (p, t) of the form: p on P_t as diag, p_J above t as terms.

        A form from_pseudo builds is fixed by these, so G(J) is neither
        written nor read: from_json_dict gives each term its J again. The
        forms certify makes (decide_form's Schur complements, pivot
        stages) are never written.
        """
        return {
            "n": self.n,
            "t": self.t,
            "diag": {subset_label(s.bits): rat_str(v) for s, v in zip(self.index, self.diag)},
            "terms": [
                {"J": subset_label(term.J.bits), "coeff": rat_str(term.coefficient)}
                for term in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AlmostDiagonalForm":
        """Read a payload back as the form from_pseudo builds for it.

        The payload states a pseudo-probability vector: diag gives p on P_t
        and each term's coeff gives p_J above t. The form is from_pseudo of
        that vector, so no G(J) is read, and each one is built only when
        the form's reader needs it. Labels are parsed straight to masks. It is
        accepted only if decompose could have written it: every label is
        listed once, no coefficient is zero, and a term has the keys J and
        coeff and no other.
        """
        try:
            n = json_int(data["n"])
            t = json_int(data["t"])
            diag_map = data["diag"]
            terms_raw = data["terms"]
        except (KeyError, TypeError, ValueError) as exc:
            raise AdfError(f"malformed almost-diagonal payload: {exc}") from exc
        if not isinstance(diag_map, dict) or not isinstance(terms_raw, list):
            raise AdfError("malformed almost-diagonal payload: diag or terms")
        stated: dict[int, Fraction] = {}
        for key, value in diag_map.items():
            mask = parse_subset_mask(key, n)
            if mask.bit_count() > t or mask in stated:
                raise AdfError(f"diagonal label {key} is outside P_t or listed twice")
            stated[mask] = rat(value)
        for item in terms_raw:
            try:
                mask = parse_subset_mask(item["J"], n)
                coeff = rat(item["coeff"])
                extra = sorted(set(item) - {"J", "coeff"})
            except (KeyError, TypeError, ValueError) as exc:
                raise AdfError(f"malformed rank-one term: {exc}") from exc
            if extra:
                raise AdfError(
                    f"rank-one term {item['J']} has keys other than J and coeff: {extra}")
            if mask.bit_count() <= t:
                raise AdfError(f"term set {item['J']} needs more than t={t} elements")
            if not coeff or mask in stated:
                raise AdfError(f"term {item['J']} has coefficient zero or is listed twice")
            stated[mask] = coeff
        return from_pseudo(LatticeVector(n, PSEUDO_PROBABILITIES, stated), t)


def from_pseudo(p: LatticeVector, t: int) -> AlmostDiagonalForm:
    """Almost diagonal form straight from a pseudo-probability vector.

    Each term gets its J and the shared P_t index; no G(J) is built here.
    """
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
            terms.append(RankOneTerm(SubsetIndex(mask, p.n), val, index=index))
    return AlmostDiagonalForm(p.n, t, index, diag, terms)


def decompose(w: LatticeVector, t: int) -> AlmostDiagonalForm:
    """Almost diagonal form of M_t(w) for a full-lattice moment vector."""
    if w.kind != MOMENTS:
        raise AdfError("decompose expects a moment vector")
    return from_pseudo(to_pseudo_probabilities(w), t)


def assemble(form: AlmostDiagonalForm) -> tuple[list[list[int]], int]:
    """The form's dense symmetric matrix as integer rows over one denominator.

    Returns (rows, den): entry (i, j) of Diag + sum of c g g^T is
    rows[i][j] / den, where den > 0 is the lcm of the diagonal's
    denominators and of q = c.denominator * d^2 for each term (c, num / d).
    This is the one place rank-one terms are summed: each term adds
    c.numerator (den / q) num_i num_j to the upper triangle over the
    nonzeros of num, which is then mirrored below the diagonal. Any form
    takes this path: G(J) terms from from_pseudo as well as decide_form's
    Schur complement and the pivot stages.
    """
    scaled: list[tuple[int, int, list[tuple[int, int]]]] = []
    for term in form.terms:
        c = term.coefficient
        nz = [(k, v) for k, v in enumerate(term.num) if v]
        if c and nz:
            scaled.append((c.numerator, c.denominator * term.den * term.den, nz))
    den = math.lcm(*(d.denominator for d in form.diag), *(q for _, q, _ in scaled))
    size = form.size()
    rows = [[0] * size for _ in range(size)]
    for i, d in enumerate(form.diag):
        rows[i][i] = d.numerator * (den // d.denominator)
    for a, q, nz in scaled:
        m = a * (den // q)
        for k, (ki, hi) in enumerate(nz):
            row = rows[ki]
            mh = m * hi
            for kj, hj in nz[k:]:
                row[kj] += mh * hj
    # Column j of the upper triangle is read before row j's lower part is written.
    for j, col in enumerate(zip(*rows)):
        rows[j][:j] = col[:j]
    return rows, den


def quadratic_form(form: AlmostDiagonalForm, v: Sequence) -> Fraction:
    """Exact value of v^T M v, M the form's matrix, without building M.

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
