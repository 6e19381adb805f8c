"""Orbit blocks against dense moment matrices, and the schedule coverings they decide."""

import time
from fractions import Fraction as F
from itertools import product
from math import comb, prod

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_ref
from momentcert import (
    build_schedule,
    enumerate_subsets,
    find_min_feasible_P,
    is_psd_exact,
    quad_eval,
    verify_schedule,
)
from momentcert.gaps import _covering_certificates, _covering_orbits
from momentcert.orbits import block_matrix, decide_orbits, lift, orbit_blocks
from schedule_ref import covering_certificates, covering_matrix


def counts(orbits, mask):
    return tuple(sum(1 for e in orbit if mask >> (e - 1) & 1) for orbit in orbits)


def dense(orbits, n, t, moment):
    """M_t with entry (S, T) = moment(per-orbit counts of S union T), built cell by cell."""
    masks = [s.bits for s in enumerate_subsets(n, t)]
    return [[F(moment(counts(orbits, a | b))) for b in masks] for a in masks]


def check_congruence(orbits, n, t, moment, M):
    """2^(sum k) B_k == S_k^T M S_k for every block, and the blocks fill P_t."""
    sizes = tuple(len(orbit) for orbit in orbits)
    blocks = orbit_blocks(sizes, t)
    # Each block stands for the dimension of its irreducible,
    # prod_j (C(n_j, k_j) - C(n_j, k_j - 1)), copies of itself.
    multiplicity = [
        prod(comb(nj, kj) - (comb(nj, kj - 1) if kj else 0) for nj, kj in zip(sizes, b.k))
        for b in blocks
    ]
    assert sum(len(b.levels) * m for b, m in zip(blocks, multiplicity)) == len(M)
    for block in blocks:
        size = len(block.levels)
        columns = []
        for r in range(size):
            e = [F(int(r == c)) for c in range(size)]
            col = lift(orbits, n, t, block, e)
            columns.append([(pos, v) for pos, v in enumerate(col) if v])
        B = block_matrix(sizes, block, moment)
        scale = 2 ** sum(block.k)
        for r, cr in enumerate(columns):
            for c, cc in enumerate(columns):
                value = sum((u * M[p][q] * v for p, u in cr for q, v in cc), F(0))
                assert scale * B[r][c] == value


# ---------------------------------------------------------------------------
# any orbit-invariant moment matrix
# ---------------------------------------------------------------------------


@st.composite
def invariant_moments(draw):
    """Orbits of {1..n} and integer moments of a signed invariant measure.

    Each count class a of points gets a weight q_a in [-1, 6]; the moment at
    a set with counts c counts the points of each class above it,
    prod_j C(n_j - c_j, a_j - c_j). Nonnegative weights give a PSD matrix
    at every level, and a negative one often does not.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n = sum(sizes)
    orbits, start = [], 1
    for size in sizes:
        orbits.append(tuple(range(start, start + size)))
        start += size
    t = draw(st.integers(0, min(3 if n <= 8 else 2, n)))  # at most 93 dense rows
    classes = list(product(*(range(size + 1) for size in sizes)))
    weights = {a: draw(st.integers(-1, 6)) for a in classes}

    def moment(c):
        return sum(
            q * prod(comb(nj - cj, aj - cj) if aj >= cj else 0
                     for nj, cj, aj in zip(sizes, c, a))
            for a, q in weights.items()
        )

    return orbits, n, t, moment


@settings(max_examples=120, deadline=None)
@given(invariant_moments())
def test_orbit_blocks_decide_invariant_moment_matrices(case):
    orbits, n, t, moment = case
    M = dense(orbits, n, t, moment)
    check_congruence(orbits, n, t, moment, M)
    cert = decide_orbits(orbits, n, t, moment)
    assert cert.verdict == is_psd_exact(M).verdict
    assert cert.method == "exact-factorization"
    if cert.verdict == "NotPSD":
        assert len(cert.witness) == len(M)
        assert quad_eval(M, cert.witness) < 0
    else:
        assert cert.witness is None


# ---------------------------------------------------------------------------
# the schedule coverings
# ---------------------------------------------------------------------------

# (n, k) with n <= 4 and n/k integral whose dense covering matrices the
# oracle decides within a test's time; (4, 4/3) has 137 rows and took up
# to 12 s per instance, and (4, 1) has 697 rows and did not finish.
DENSE_CASES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, F(3, 2)), (3, 3), (4, 2), (4, 4)]


@st.composite
def weight_bases(draw):
    den = draw(st.integers(1, 3))
    return F(draw(st.integers(den + 1, 40 * den)), den)


def covering_scale(instance, level):
    """The positive factor |P_cap| a^l between _covering_orbits' moments and the covering."""
    cap = instance.level_cap
    return sum(comb(instance.jobs, j) for j in range(cap + 1)) * instance.P.numerator**level


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DENSE_CASES), weight_bases())
def test_covering_blocks_match_the_dense_reference(nk, P):
    instance = build_schedule(*nk, P)
    t = instance.level_cap - 1
    blocks = list(_covering_certificates(instance))
    reference = list(covering_certificates(instance))
    assert [c.verdict for c in blocks] == [c.verdict for c in reference]
    for level, cert in enumerate(blocks, start=1):
        rows = covering_matrix(instance, level)
        if cert.verdict == "NotPSD":
            assert quad_eval(rows, cert.witness) < 0
        else:
            assert cert.witness is None
        orbits, moment = _covering_orbits(instance, level)
        M = dense(orbits, instance.jobs, t, moment)
        scale = covering_scale(instance, level)
        assert M == [[scale * v for v in row] for row in rows]
        check_congruence(orbits, instance.jobs, t, moment, M)


@settings(max_examples=8, deadline=None)
@given(weight_bases())
def test_covering_witnesses_hold_past_the_dense_oracle(P):
    # 137 dense rows at (4, 4/3): too slow to decide in a test, quick to evaluate.
    instance = build_schedule(4, F(4, 3), P)
    for level, cert in enumerate(_covering_certificates(instance), start=1):
        if cert.verdict == "NotPSD":
            assert quad_eval(covering_matrix(instance, level), cert.witness) < 0


def test_weight_base_threshold_at_n4_k1_is_326_by_two_routes():
    started = time.monotonic()
    assert find_min_feasible_P(4, 1) == 326
    assert time.monotonic() - started < 60

    # P = 325: the NotPSD covering's witness, on the 697-row matrix that
    # moment_matrix builds, not on the blocks.
    below = build_schedule(4, 1, 325)
    verdicts = []
    for level, cert in enumerate(_covering_certificates(below), start=1):
        verdicts.append(cert.verdict)
        if cert.verdict == "NotPSD":
            rows = covering_matrix(below, level)
            assert len(rows) == 697
            assert quad_eval(rows, cert.witness) < 0
    assert "NotPSD" in verdicts

    # P = 326: every block of every covering PSD, by the Fraction reference
    # elimination as well as by the library.
    at = build_schedule(4, 1, 326)
    assert verify_schedule(at).feasible
    for level in range(1, 5):
        orbits, moment = _covering_orbits(at, level)
        sizes = tuple(len(orbit) for orbit in orbits)
        for block in orbit_blocks(sizes, 3):
            assert oracle_ref.is_psd_exact(block_matrix(sizes, block, moment)).verdict == "PSD"
