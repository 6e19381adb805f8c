"""Subset-lattice indexing, exact rational entries, and the fast transforms.

Subsets of the ground set {1..n} are bitmasks: bit i-1 set means element i
belongs to the subset. The canonical order used everywhere is graded: first
by cardinality, then by bitmask value within each cardinality class. All
arithmetic is exact via fractions.Fraction; floats are rejected on sight so
no certification path can silently lose exactness.

The two transforms here convert between a moment vector w (indexed by all
subsets) and its pseudo-probability vector. The pseudo-probability of I is
the alternating superset sum

    p_I = sum over S containing I of (-1)^(|S|-|I|) * w_S

and the inverse is the plain superset sum w_I = sum over S containing I of
p_S. Both share one exact integer kernel: the entries are written as
integer numerators over the common denominator L of the stored values,
one superset pass per bit runs over a mask->int map that holds only the
down-closure D of the support (n * |D| additions, never a 2^n list), and
each nonzero result x is read back as the reduced rational x / L.

Constraints are linear, g(x) = constant + sum_i w_i x_i (LinearConstraint):
all three gap families and the paper's two covering problems need no
more, and g at the 0/1 point with support I is the constant plus the
weights of the elements of I.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Union

# Vector kinds carried by LatticeVector.
MOMENTS = "moments"
PSEUDO_PROBABILITIES = "pseudo-probabilities"

DEFAULT_MAX_GROUND = 24

# Largest P_t that enumerate_subsets builds: the full P_n at n = 12, so a
# dense matrix over P_t has at most 4096^2 cells.
MAX_SUBSETS = 4096

# Most entries a lattice transform stores: the full lattice at n = 14. The
# down-closure it holds can double in each round, so a single full set
# over n = 24 would need 2^24 entries; the tests' widest sparse inputs
# (8 masks of at most 10 elements) need at most 8192.
MAX_TRANSFORM_ENTRIES = 1 << 14


class LatticeError(ValueError):
    """Invalid argument to a lattice operation."""


def max_ground_size() -> int:
    """Cap on the ground-set size n (dense arrays have 2^n entries)."""
    return DEFAULT_MAX_GROUND


# ---------------------------------------------------------------------------
# rational text form
# ---------------------------------------------------------------------------

RationalLike = Union[int, str, Fraction]

_ZERO = Fraction(0)

# An optional sign, ASCII digits, and an optional "/" with ASCII digits,
# padded with whitespace; \s is Unicode whitespace, the set str.strip removes.
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction.

    Floats are rejected: a binary float that leaked into a certificate
    would defeat the exactness guarantee, so the caller must convert
    explicitly if that is really intended. Booleans are refused too,
    although bool subclasses int, so a JSON true is never read as 1.
    Strings take the text form only: exponents, decimal points,
    underscores and non-ASCII digits are refused, so no short string can
    stand for a huge integer.
    """
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is not None:
            num, den = match.groups()
            try:
                return Fraction(int(num), int(den)) if den else Fraction(int(num))
            except (ValueError, ZeroDivisionError) as exc:
                raise LatticeError(f"not a rational: {value!r}") from exc
    elif isinstance(value, Fraction):
        return value
    elif isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise LatticeError(f"not a rational: {value!r}")


def json_int(value: object) -> int:
    """An integer field of a JSON payload, taken only as a JSON integer.

    Floats, booleans and strings raise TypeError instead of being
    truncated or converted, so each parser reports them as malformed.
    """
    if type(value) is not int:
        raise TypeError(f"not an integer: {value!r}")
    return value


def rat_str(value: RationalLike) -> str:
    """Canonical text form: 'p/q' in lowest terms with q > 0, or a bare int."""
    return str(rat(value))


# ---------------------------------------------------------------------------
# subset indices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetIndex:
    """A subset of {1..n}, stored as a bitmask together with its ground size."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= max_ground_size():
            raise LatticeError(f"ground size {self.n} out of range")
        if not 0 <= self.bits < (1 << self.n):
            raise LatticeError(f"bitmask {self.bits} out of range for n={self.n}")

    def sort_key(self) -> tuple[int, int]:
        return (self.bits.bit_count(), self.bits)

    def __str__(self) -> str:
        return subset_label(self.bits)

    @classmethod
    def parse(cls, text: str, n: int) -> "SubsetIndex":
        """Parse the text form '{1,3}' (or '{}' for the empty set)."""
        return cls(parse_subset_mask(text, n), n)


def subset_label(bits: int) -> str:
    """The text form '{1,3}' of a bitmask ('{}' for the empty set)."""
    parts = []
    while bits:
        low = bits & -bits
        parts.append(str(low.bit_length()))
        bits ^= low
    return "{" + ",".join(parts) + "}"


def parse_subset_mask(text: str, n: int) -> int:
    """The bitmask of the text form '{1,3}' ('{}' for the empty set) over {1..n}.

    Each element is ASCII digits, optionally padded with whitespace, in
    1..n and listed once. n is checked first, so no element can ask for a
    mask wider than the ground-size cap. Readers of many labels call this
    directly and build no SubsetIndex. The label is stripped once, and an
    element only when it is padded.
    """
    if not 0 <= n <= max_ground_size():
        raise LatticeError(f"ground size {n} out of range")
    if not isinstance(text, str):
        raise LatticeError(f"not a subset: {text!r}")
    body = text.strip()
    if body[:1] != "{" or body[-1:] != "}":
        raise LatticeError(f"not a subset: {text!r}")
    inner = body[1:-1]
    bits = 0
    for part in inner.split(",") if inner and not inner.isspace() else ():
        if not (part.isdigit() and part.isascii()):
            part = part.strip()
        try:
            if not (part.isdigit() and part.isascii()):
                raise ValueError(part)
            i = int(part)
        except ValueError as exc:
            raise LatticeError(f"not a subset: {text!r}") from exc
        if not 1 <= i <= n:
            raise LatticeError(f"element {i} outside ground set of size {n}")
        if bits >> (i - 1) & 1:
            raise LatticeError(f"repeated element {i} in {text!r}")
        bits |= 1 << (i - 1)
    return bits


def check_subset_count(n: int, t: int) -> None:
    """Refuse P_t over {1..n} when it has more than MAX_SUBSETS subsets.

    Raises LatticeError for that and for an out-of-range n or t. Only
    counts are computed, so callers can run it before they build anything
    of size 2^n.
    """
    if n < 0 or n > max_ground_size():
        raise LatticeError(f"ground size {n} out of range")
    if not 0 <= t <= n:
        raise LatticeError(f"level {t} out of range for n={n}")
    count = sum(math.comb(n, i) for i in range(t + 1))
    if count > MAX_SUBSETS:
        raise LatticeError(
            f"P_{t} over n={n} has {count} subsets, above the limit of {MAX_SUBSETS}"
        )


def enumerate_subsets(n: int, t: int) -> list[SubsetIndex]:
    """All subsets of {1..n} with cardinality at most t, in graded order.

    This is the one place P_t is materialized; check_subset_count refuses
    its size before any subset is built.
    """
    check_subset_count(n, t)
    out: list[SubsetIndex] = []
    for card in range(t + 1):
        masks = sorted(
            sum(1 << i for i in combo) for combo in combinations(range(n), card)
        )
        out.extend(SubsetIndex(m, n) for m in masks)
    return out


def _mask_of(mask: int, n: int) -> int:
    if not 0 <= mask < (1 << n):
        raise LatticeError(f"bitmask {mask} out of range for n={n}")
    return mask


# ---------------------------------------------------------------------------
# lattice vectors
# ---------------------------------------------------------------------------


class LatticeVector:
    """Exact rational vector indexed by subsets of {1..n}.

    The entries are given as a mapping from int masks to rationals, and
    the store is a mask->value map of the nonzero ones; absent masks read
    as zero, and to_dict copies the map out for callers that read many
    masks.
    """

    __slots__ = ("n", "kind", "_entries")

    def __init__(
        self,
        n: int,
        kind: str,
        entries: Union[Mapping[int, RationalLike], None] = None,
    ) -> None:
        if n < 0 or n > max_ground_size():
            raise LatticeError(f"ground size {n} out of range")
        if kind not in (MOMENTS, PSEUDO_PROBABILITIES):
            raise LatticeError(f"unknown vector kind {kind!r}")
        self.n = n
        self.kind = kind
        values = {_mask_of(m, n): rat(v) for m, v in (entries or {}).items()}
        self._entries = {mask: q for mask, q in values.items() if q}

    def get(self, mask: int) -> Fraction:
        return self._entries.get(_mask_of(mask, self.n), _ZERO)

    __getitem__ = get

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Nonzero (mask, value) pairs in graded order."""
        pairs = sorted(self._entries.items(), key=lambda mv: (mv[0].bit_count(), mv[0]))
        return iter(pairs)

    def to_dict(self) -> dict[int, Fraction]:
        """The nonzero entries as a new mask -> value dict."""
        return dict(self._entries)

    def nonzero_count(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeVector):
            return NotImplemented
        mine = (self.n, self.kind, self._entries)
        return mine == (other.n, other.kind, other._entries)


# ---------------------------------------------------------------------------
# the transforms
# ---------------------------------------------------------------------------


def _superset_transform(
    vec: LatticeVector, op: Callable[[int, int], int], kind: str
) -> LatticeVector:
    """Apply a[S] = op(a[S], a[S + b]) for every bit b missing from S.

    operator.sub gives the alternating superset sum, operator.add the plain
    one. The entries are scaled to integer numerators over the common
    denominator L of the stored values, so the pass adds Python ints; each
    result is read back as the reduced rational Fraction(x, L). Only the
    down-closure of the support is stored (the trimmed transform of
    Bjorklund, Husfeldt, Kaski and Koivisto, STACS 2008): round b visits
    a snapshot of the stored masks that hold bit b and writes into the
    mask without it, so after round b the keys are the masks below a
    support mask that differ from it only in bits 0..b. Every other
    entry of the dense pass is zero, and the cost is n times the size of
    the down-closure. A round that leaves more than MAX_TRANSFORM_ENTRIES
    entries raises LatticeError before the next round can double them.
    """
    L = math.lcm(*(q.denominator for q in vec._entries.values()))
    a = {mask: q.numerator * (L // q.denominator) for mask, q in vec._entries.items()}
    for b in range(vec.n):
        bit = 1 << b
        for mask in [m for m in a if m & bit]:
            low = mask ^ bit
            a[low] = op(a.get(low, 0), a[mask])
        if len(a) > MAX_TRANSFORM_ENTRIES:
            raise LatticeError(
                f"the transform over n={vec.n} holds {len(a)} entries after round {b + 1}, "
                f"above the limit of {MAX_TRANSFORM_ENTRIES}"
            )
    out = LatticeVector(vec.n, kind)
    out._entries = {mask: Fraction(x, L) for mask, x in a.items() if x}
    return out


def to_pseudo_probabilities(w: LatticeVector) -> LatticeVector:
    """Full-lattice transform from moments to pseudo-probabilities."""
    if w.kind != MOMENTS:
        raise LatticeError("expected a moment vector")
    return _superset_transform(w, operator.sub, PSEUDO_PROBABILITIES)


def from_pseudo_probabilities(p: LatticeVector) -> LatticeVector:
    """Inverse transform: superset sums of the pseudo-probabilities."""
    if p.kind != PSEUDO_PROBABILITIES:
        raise LatticeError("expected a pseudo-probability vector")
    return _superset_transform(p, operator.add, MOMENTS)


# ---------------------------------------------------------------------------
# linear constraints
# ---------------------------------------------------------------------------


class LinearConstraint:
    """Linear constraint g(x) = constant + sum_i weights[i] * x_i over {1..n}.

    Elements are 1-based; zero weights are dropped. At the 0/1 point with
    support I, g is the constant plus the weights of the elements of I.
    """

    __slots__ = ("n", "constant", "weights")

    def __init__(
        self,
        n: int,
        weights: Mapping[int, RationalLike],
        constant: RationalLike = 0,
    ) -> None:
        if n < 0 or n > max_ground_size():
            raise LatticeError(f"ground size {n} out of range")
        self.n = n
        self.constant = rat(constant)
        self.weights: dict[int, Fraction] = {}
        for i, wi in weights.items():
            if not 1 <= i <= n:
                raise LatticeError(f"element {i} outside ground set of size {n}")
            val = rat(wi)
            if val:
                self.weights[i] = val

    def scaled_values(self, masks: Iterable[int]) -> tuple[int, list[int]]:
        """The common denominator L of the constant and weights, and L * g at each mask.

        Each value is the integer numerator of the constant plus those of
        the weights whose bit the mask has, so a caller evaluating g at
        many points adds Python ints and builds each rational result once.
        """
        L = math.lcm(
            self.constant.denominator, *(q.denominator for q in self.weights.values())
        )
        c = self.constant.numerator * (L // self.constant.denominator)
        bits = [
            (1 << (i - 1), q.numerator * (L // q.denominator))
            for i, q in self.weights.items()
        ]
        return L, [c + sum(w for bit, w in bits if imask & bit) for imask in masks]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearConstraint):
            return NotImplemented
        mine = (self.n, self.constant, self.weights)
        return mine == (other.n, other.constant, other.weights)
