"""Moment matrices, shifted functionals, and the zeta-block factorization."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcert import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    LatticeError,
    LatticeVector,
    LinearConstraint,
    constraint_diagonal,
    enumerate_subsets,
    from_pseudo_probabilities,
    to_pseudo_probabilities,
)
from moments_ref import ZetaBlock, extract_distribution, from_dense, moment_matrix, shift, to_dense

TWO_COINS = LatticeVector(
    2, MOMENTS, {0b00: 1, 0b01: "1/2", 0b10: "1/2", 0b11: "1/4"}
)


def random_moments(n, rng):
    values = [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(1 << n)]
    return from_dense(n, MOMENTS, values)


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------


def test_shift_frozen_example():
    # g = x1 + x2 - 1/4 against the two-coin moments: z_I picks up both
    # singleton extensions of I minus a quarter of y_I.
    g = LinearConstraint(2, {1: 1, 2: 1}, constant="-1/4")
    z = shift(g, TWO_COINS)
    assert to_dense(z) == [F(3, 4), F(5, 8), F(5, 8), F(7, 16)]


def test_shift_by_one_is_identity():
    g = LinearConstraint(3, {}, constant=1)
    w = random_moments(3, random.Random(7))
    assert shift(g, w) == w


def test_shift_requires_moment_kind():
    g = LinearConstraint(2, {}, constant=1)
    with pytest.raises(LatticeError):
        shift(g, to_pseudo_probabilities(TWO_COINS))


# ---------------------------------------------------------------------------
# moment matrices
# ---------------------------------------------------------------------------


def test_moment_matrix_entries_are_union_moments():
    w = random_moments(3, random.Random(11))
    rows = moment_matrix(w, 2)
    index = enumerate_subsets(3, 2)
    assert len(rows) == len(index)
    for i, si in enumerate(index):
        assert len(rows[i]) == len(index)
        for j, sj in enumerate(index):
            assert rows[i][j] == w.get(si.bits | sj.bits)


@st.composite
def sparse_pseudo_vectors(draw):
    n = draw(st.integers(1, 6))
    values = st.fractions(min_value=-4, max_value=4, max_denominator=7)
    entries = draw(st.dictionaries(st.integers(0, (1 << n) - 1), values, max_size=8))
    t = draw(st.integers(0, n))
    return LatticeVector(n, PSEUDO_PROBABILITIES, entries), t


@settings(max_examples=60, deadline=None)
@given(sparse_pseudo_vectors())
def test_moment_matrix_of_pseudo_vector_matches_its_moments(case):
    # Entry (I, J) is the moment at I union J: the sum of p over the stored
    # masks containing the union, summed here entry by entry.
    p, t = case
    index = enumerate_subsets(p.n, t)
    rows = moment_matrix(p, t)
    assert len(rows) == len(index)
    for row, a in zip(rows, index):
        assert row == [
            sum(
                (val for mask, val in p.items() if (a.bits | b.bits) & ~mask == 0),
                F(0),
            )
            for b in index
        ]


def test_moment_matrix_level_bounds():
    with pytest.raises(LatticeError):
        moment_matrix(TWO_COINS, 3)
    with pytest.raises(LatticeError):
        moment_matrix(TWO_COINS, -1)


# ---------------------------------------------------------------------------
# zeta blocks and the full-level factorization
# ---------------------------------------------------------------------------


def test_zeta_block_shapes_and_membership():
    blocks = ZetaBlock.build(3, 1)
    assert len(blocks.a) == 4 and len(blocks.b[0]) == 4
    # a holds inclusions within the head, b inclusions into the tail.
    assert blocks.a[0] == [1, 1, 1, 1][:1] + blocks.a[0][1:]
    for row in blocks.a:
        assert set(row) <= {0, 1}


def test_zeta_head_block_inverse():
    blocks = ZetaBlock.build(4, 2)
    inv = blocks.a_inverse()
    size = len(blocks.a)
    prod = [
        [
            sum(blocks.a[i][k] * inv[k][j] for k in range(size))
            for j in range(size)
        ]
        for i in range(size)
    ]
    assert prod == [[1 if i == j else 0 for j in range(size)] for i in range(size)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_full_diagonalize_matches_dense_congruence(n):
    # Z Diag(p) Z^T with the literal 0/1 zeta matrix must reproduce the
    # full moment matrix entry by entry.
    rng = random.Random(100 + n)
    w = random_moments(n, rng)
    p = to_pseudo_probabilities(w)
    assert from_pseudo_probabilities(p) == w
    size = 1 << n
    zeta = [
        [1 if i & j == i else 0 for j in range(size)] for i in range(size)
    ]
    dense_p = to_dense(p)
    for i in range(size):
        for j in range(size):
            got = sum(zeta[i][k] * dense_p[k] * zeta[j][k] for k in range(size))
            assert got == w.get(i | j)


# ---------------------------------------------------------------------------
# constraint diagonals
# ---------------------------------------------------------------------------


def test_constraint_diagonal_equals_pseudo_of_shift():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 5)
        w = random_moments(n, rng)
        weights = {i + 1: F(rng.randint(-3, 3)) for i in range(n)}
        g = LinearConstraint(n, weights, constant=F(rng.randint(-2, 2)))
        assert constraint_diagonal(g, w) == to_pseudo_probabilities(shift(g, w))


@st.composite
def linear_constraints_and_moments(draw):
    n = draw(st.integers(1, 6))
    values = st.fractions(min_value=-4, max_value=4, max_denominator=7)
    weights = {i: draw(values | st.just(F(0))) for i in range(1, n + 1)}
    g = LinearConstraint(n, weights, constant=draw(values))
    moments = draw(st.lists(values, min_size=1 << n, max_size=1 << n))
    return g, from_dense(n, MOMENTS, moments)


@settings(max_examples=80, deadline=None)
@given(linear_constraints_and_moments())
def test_constraint_diagonal_matches_the_dense_shift(case):
    g, w = case
    assert constraint_diagonal(g, w) == to_pseudo_probabilities(shift(g, w))
    n = g.n
    for bad in ({0: 1}, {n + 1: 1}, {1: 0.5}, {1: True}):
        with pytest.raises(LatticeError):
            LinearConstraint(n, bad)
    with pytest.raises(LatticeError):
        LinearConstraint(n, {}, constant=False)


def test_constraint_diagonal_accepts_pseudo_input():
    w = random_moments(3, random.Random(5))
    g = LinearConstraint(3, {1: 2, 3: -1}, constant=1)
    via_moments = constraint_diagonal(g, w)
    via_pseudo = constraint_diagonal(g, to_pseudo_probabilities(w))
    assert via_moments == via_pseudo


# ---------------------------------------------------------------------------
# distribution extraction
# ---------------------------------------------------------------------------


def test_extract_two_coins():
    res = extract_distribution(TWO_COINS)
    assert res.ok
    assert {str(s): v for s, v in res.support} == {
        "{}": F(1, 4),
        "{1}": F(1, 4),
        "{2}": F(1, 4),
        "{1,2}": F(1, 4),
    }


def test_extract_requires_normalization():
    w = LatticeVector(1, MOMENTS, {0: 2, 1: 1})
    with pytest.raises(LatticeError):
        extract_distribution(w)


def test_extract_flags_negative_weight():
    # moments of a signed combination: y_emptyset = 1, y_1 = 2 forces the
    # outcome excluding element 1 to carry weight -1.
    w = LatticeVector(1, MOMENTS, {0: 1, 1: 2})
    res = extract_distribution(w)
    assert not res.ok
    assert res.violation is not None


def test_extract_checks_constraints_on_support():
    w = TWO_COINS
    g = LinearConstraint(2, {1: 1, 2: 1}, constant=-2)
    res = extract_distribution(w, [g])
    assert not res.ok
    ok_res = extract_distribution(
        w, [LinearConstraint(2, {1: 1, 2: 1}, constant=0)]
    )
    assert ok_res.ok
