"""Moment matrices invariant under a product of symmetric groups, decided by orbit blocks.

Let the ground set {1..n} split into orbits of sizes n_1, ..., n_q, and
let M_t be the truncated moment matrix of a vector whose moment at a set
depends only on its per-orbit counts c = (c_1, ..., c_q), through a given
function m(c). M_t commutes with the product of the symmetric groups of
the orbits, so it splits into one block per tuple k with
k_j <= n_j / 2 and sum(k) <= t, each congruent to an isotypic block of
M_t (Gatermann and Parrilo, JPAA 2004; Schrijver, IEEE Trans. IT 2005).
Block k is indexed by the level tuples i with k_j <= i_j <= n_j - k_j and
sum(i) <= t, and

    B_k[i][i'] = sum over d, r of prod_j (-1)^d_j C(k_j, d_j)
                 C(n_j - 2k_j, i_j - k_j) C(i_j - k_j, r_j)
                 C(n_j - k_j - i_j, i'_j - k_j - r_j) * m(c),
    c_j = d_j + i_j + i'_j - k_j - r_j.

M_t is PSD if and only if every block is, and the blocks hold
sum_k |B_k| * prod_j (C(n_j, k_j) - C(n_j, k_j - 1)) = |P_t| rows between
them, each block counted with the dimension of its irreducible.

The congruence is explicit: B_k = 2^(-sum k) S_k^T M_t S_k, where column
i of S_k is the signed sum over the sets that take one element from each
of the first k_j pairs of orbit j (the second element of a pair
contributing a sign -1) and an (i_j - k_j)-subset of the rest of orbit j.
So a block's NotPSD witness x lifts to v = S_k x with v^T M_t v < 0, and
lift writes it densely over enumerate_subsets(n, t), the rows of M_t.

Each block is decided by is_psd_exact. A block entry is a sum over the
product of per-orbit term lists (c_j and its integer coefficient, equal
c_j merged), which are cached by (n_j, k_j, i_j, i'_j); m is read once
per count tuple c.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, prod
from typing import Callable, Iterator, NamedTuple, Sequence, Union

from .certify import CertifyError, PsdCertificate, is_psd_exact
from .lattice import enumerate_subsets

Rational = Union[int, Fraction]


class OrbitBlock(NamedTuple):
    """Block k of an orbit-invariant moment matrix and its level tuples, the block's rows."""

    k: tuple[int, ...]
    levels: tuple[tuple[int, ...], ...]


def _bounded_tuples(lo: Sequence[int], hi: Sequence[int], total: int) -> Iterator[tuple[int, ...]]:
    """Tuples x with lo_j <= x_j <= hi_j and sum(x) <= total, in lexicographic order."""
    if not lo:
        yield ()
        return
    reserve = sum(lo[1:])
    for x in range(lo[0], min(hi[0], total - reserve) + 1):
        for tail in _bounded_tuples(lo[1:], hi[1:], total - x):
            yield (x, *tail)


@lru_cache(maxsize=None)
def orbit_blocks(sizes: tuple[int, ...], t: int) -> tuple[OrbitBlock, ...]:
    """The blocks of M_t for orbits of the given sizes, k in lexicographic order.

    sizes is a tuple, since the blocks are cached by (sizes, t).
    """
    blocks = []
    for k in _bounded_tuples((0,) * len(sizes), [n // 2 for n in sizes], t):
        levels = tuple(_bounded_tuples(k, [n - kj for n, kj in zip(sizes, k)], t))
        blocks.append(OrbitBlock(k, levels))
    return tuple(blocks)


@lru_cache(maxsize=None)
def _orbit_terms(n: int, k: int, i: int, ip: int) -> tuple[tuple[int, int], ...]:
    """One orbit's (c_j, coefficient) terms of B_k[i][i'], equal c_j merged."""
    base = comb(n - 2 * k, i - k)
    acc: dict[int, int] = {}
    for d in range(k + 1):
        sign = -comb(k, d) if d & 1 else comb(k, d)
        for r in range(min(i, ip) - k + 1):
            coef = sign * base * comb(i - k, r) * comb(n - k - i, ip - k - r)
            if coef:
                c = d + i + ip - k - r
                acc[c] = acc.get(c, 0) + coef
    return tuple((c, v) for c, v in sorted(acc.items()) if v)


def block_matrix(
    sizes: Sequence[int], block: OrbitBlock, moment: Callable[[tuple[int, ...]], Rational]
) -> list[list[Rational]]:
    """Rows of B_k, with m read through moment (callers may memoize it).

    Each entry is the plain sum of coefficient times moment, so integer
    moments give int rows, which is_psd_exact reads as they are. B_k is
    symmetric (each orbit's C(n_j - 2k_j, i_j - k_j) C(i_j - k_j, r_j)
    C(n_j - k_j - i_j, i'_j - k_j - r_j) is a multinomial symmetric in i_j
    and i'_j), so only the upper triangle is summed.
    """
    size = len(block.levels)
    rows: list[list[Rational]] = [[0] * size for _ in range(size)]
    for r, i in enumerate(block.levels):
        for col, ip in enumerate(block.levels[r:], start=r):
            lists = [_orbit_terms(n, kj, a, b) for n, kj, a, b in zip(sizes, block.k, i, ip)]
            total = 0
            for combo in product(*lists):
                coef = prod(v for _, v in combo)
                total += coef * moment(tuple(c for c, _ in combo))
            rows[r][col] = rows[col][r] = total
    return rows


def _orbit_sizes(orbits: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    members = sorted(e for orbit in orbits for e in orbit)
    if members != list(range(1, n + 1)):
        raise CertifyError(f"orbits do not partition the ground set {{1..{n}}}")
    return tuple(len(orbit) for orbit in orbits)


def lift(
    orbits: Sequence[Sequence[int]], n: int, t: int, block: OrbitBlock, x: Sequence[Fraction]
) -> list[Fraction]:
    """S_k x over the rows of M_t, enumerate_subsets(n, t) in graded order.

    Orbit j's pairs are its sorted members 2l and 2l + 1 for l < k_j, and
    its rest is the members after them. A set gets x_i times the sign of
    its pair picks when it takes exactly one element of every pair and
    i_j - k_j elements of each rest, with i a level of the block; every
    other set gets zero.
    """
    _orbit_sizes(orbits, n)
    row_of = {i: x[r] for r, i in enumerate(block.levels)}
    bit = [[1 << (e - 1) for e in sorted(orbit)] for orbit in orbits]
    pairs = [
        [(bits[2 * l], bits[2 * l + 1]) for l in range(kj)] for bits, kj in zip(bit, block.k)
    ]
    rests = [sum(bits[2 * kj:]) for bits, kj in zip(bit, block.k)]

    def entry(S: int) -> Fraction:
        sign, level = 1, []
        for orbit_pairs, rest, kj in zip(pairs, rests, block.k):
            for a, b in orbit_pairs:
                if bool(S & a) == bool(S & b):
                    return Fraction(0)
                if S & b:
                    sign = -sign
            level.append(kj + (S & rest).bit_count())
        xi = row_of.get(tuple(level), Fraction(0))
        return xi if sign > 0 else -xi

    return [entry(subset.bits) for subset in enumerate_subsets(n, t)]


def decide_orbits(
    orbits: Sequence[Sequence[int]],
    n: int,
    t: int,
    moment: Callable[[tuple[int, ...]], Rational],
) -> PsdCertificate:
    """Exact PSD decision of M_t, one block at a time.

    orbits partition {1..n}, each given by its members, and moment(c) is
    the moment at any set with per-orbit counts c, an int or a Fraction.
    A positive factor common to every moment changes neither the verdict
    nor the witness, so a caller may pass integer moments. The blocks are
    decided by is_psd_exact in orbit_blocks order; the first NotPSD
    block's witness is lifted to the rows of M_t, and the blocks after it
    are not built.
    """
    sizes = _orbit_sizes(orbits, n)
    cached = lru_cache(maxsize=None)(moment)
    for block in orbit_blocks(sizes, t):
        cert = is_psd_exact(block_matrix(sizes, block, cached))
        if cert.verdict != "PSD":
            return replace(cert, witness=lift(orbits, n, t, block, cert.witness))
    return PsdCertificate(verdict="PSD", method="exact-factorization")
