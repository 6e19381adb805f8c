"""The subset-label and rational codecs as the library wrote them before the one-pass versions, kept as references.

The bodies of rat, rat_str, SubsetIndex.__str__ (here subset_str, over a
SubsetIndex argument) and parse_subset_mask are copied unchanged. The
tests draw texts and masks and require the library's codecs to accept
and refuse the same texts as these, return the same values and raise
LatticeError with the same messages.
"""

from __future__ import annotations

import re
from fractions import Fraction

from momentcert.lattice import LatticeError, RationalLike, SubsetIndex, max_ground_size

# An optional sign, ASCII digits, and an optional "/" with ASCII digits.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rat(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value.strip())
        if match is not None:
            num, den = match.groups()
            try:
                return Fraction(int(num), int(den or 1))
            except (ValueError, ZeroDivisionError) as exc:
                raise LatticeError(f"not a rational: {value!r}") from exc
    raise LatticeError(f"not a rational: {value!r}")


def rat_str(value: RationalLike) -> str:
    q = rat(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def subset_str(self: SubsetIndex) -> str:
    return "{" + ",".join(str(i + 1) for i in range(self.n) if self.bits >> i & 1) + "}"


def parse_subset_mask(text: str, n: int) -> int:
    if not 0 <= n <= max_ground_size():
        raise LatticeError(f"ground size {n} out of range")
    if not isinstance(text, str):
        raise LatticeError(f"not a subset: {text!r}")
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise LatticeError(f"not a subset: {text!r}")
    inner = body[1:-1].strip()
    bits = 0
    for part in inner.split(",") if inner else ():
        part = part.strip()
        try:
            if not (part.isascii() and part.isdigit()):
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
