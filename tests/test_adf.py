"""Almost diagonal forms: support vectors, decomposition, reassembly."""

import random
from fractions import Fraction as F

import pytest

from momentcert import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    AdfError,
    AlmostDiagonalForm,
    LatticeVector,
    SubsetIndex,
    ZetaBlock,
    assemble,
    decompose,
    enumerate_subsets,
    from_pseudo,
    g_vector,
    moment_matrix,
    quadratic_form,
    to_pseudo_probabilities,
)


def random_moments(n, rng):
    values = [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(1 << n)]
    return LatticeVector.from_dense(n, MOMENTS, values)


def matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


# ---------------------------------------------------------------------------
# support vectors
# ---------------------------------------------------------------------------


def test_g_vector_one_above_level_is_signed_indicator():
    g = g_vector(SubsetIndex(0b011, 3), 1)
    # graded order over P_1({1,2,3}): {}, {1}, {2}, {3}
    assert g == [F(-1), F(1), F(1), F(0)]


def test_g_vector_binomial_magnitudes():
    g = g_vector(SubsetIndex(0b1111, 4), 2)
    index = enumerate_subsets(4, 2)
    expected = {0: F(3), 1: F(-2), 2: F(1)}
    for val, I in zip(g, index):
        assert val == expected[I.cardinality]


def test_g_vector_rejects_low_cardinality():
    with pytest.raises(AdfError):
        g_vector(SubsetIndex(0b001, 3), 1)


def test_g_vector_vanishes_outside_the_set():
    g = g_vector(SubsetIndex(0b0110, 4), 1)
    for val, I in zip(g, enumerate_subsets(4, 1)):
        if I.bits & ~0b0110:
            assert val == 0


# ---------------------------------------------------------------------------
# decomposition structure
# ---------------------------------------------------------------------------


def test_decompose_diag_is_low_level_pseudo():
    rng = random.Random(31)
    w = random_moments(3, rng)
    p = to_pseudo_probabilities(w)
    form = decompose(w, 1)
    assert form.diag == [p.get(s.bits) for s in enumerate_subsets(3, 1)]
    assert sorted(term.J.cardinality for term in form.terms) == [2, 2, 2, 3]


def test_decompose_at_full_level_has_no_terms():
    w = random_moments(3, random.Random(3))
    form = decompose(w, 3)
    assert form.terms == []
    p = to_pseudo_probabilities(w)
    assert form.diag == [p.get(s.bits) for s in enumerate_subsets(3, 3)]


def test_decompose_drops_zero_tail_coefficients():
    p = LatticeVector(
        2,
        "pseudo-probabilities",
        {0b00: "1/2", 0b01: "1/4", 0b10: "1/4", 0b11: 0},
    )
    form = from_pseudo(p, 1)
    assert form.terms == []


def test_term_tags_follow_coefficient_sign():
    p = LatticeVector(
        2,
        "pseudo-probabilities",
        {0b00: 1, 0b11: "-1/3"},
    )
    form = from_pseudo(p, 1)
    (term,) = form.terms
    assert term.tag == "ND" and term.coefficient == F(-1, 3)


# ---------------------------------------------------------------------------
# congruence identities, checked against the literal inclusion matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
def test_assemble_is_conjugated_moment_matrix(n, t):
    rng = random.Random(50 + 10 * n + t)
    w = random_moments(n, rng)
    form = decompose(w, t)
    blocks = ZetaBlock.build(n, t)
    inv = [[F(v) for v in row] for row in blocks.a_inverse()]
    m = moment_matrix(w, t).rows
    conj = matmul(matmul(inv, m), [list(row) for row in zip(*inv)])
    assert assemble(form) == conj


@pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_head_and_tail_blocks_rebuild_the_moment_matrix(n, t):
    # block factorization: the low-level pseudo-probabilities enter through
    # the head inclusion block, everything above the level through the tail
    # block, and together they tile the truncated moment matrix.
    rng = random.Random(90 + 10 * n + t)
    w = random_moments(n, rng)
    form = decompose(w, t)
    blocks = ZetaBlock.build(n, t)
    a = [[F(v) for v in row] for row in blocks.a]
    size = form.size()
    x = [
        [form.diag[i] if i == j else F(0) for j in range(size)]
        for i in range(size)
    ]
    head = matmul(matmul(a, x), [list(row) for row in zip(*a)])

    p = to_pseudo_probabilities(w)
    tail_sets = [s for s in enumerate_subsets(n, n) if s.cardinality > t]
    b = [[F(v) for v in row] for row in blocks.b]
    tail = [
        [
            sum(
                b[i][k] * p.get(K.bits) * b[j][k]
                for k, K in enumerate(tail_sets)
            )
            for j in range(len(head))
        ]
        for i in range(len(head))
    ]
    m = moment_matrix(w, t).rows
    for i in range(len(head)):
        for j in range(len(head)):
            assert head[i][j] + tail[i][j] == m[i][j]


def test_quadratic_form_matches_assembled_matrix():
    rng = random.Random(77)
    w = random_moments(4, rng)
    form = decompose(w, 2)
    dense = assemble(form)
    size = form.size()
    for _ in range(25):
        v = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(size)]
        direct = sum(
            v[i] * dense[i][j] * v[j] for i in range(size) for j in range(size)
        )
        assert quadratic_form(form, v) == direct


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_adf_json_roundtrip():
    w = random_moments(3, random.Random(13))
    form = decompose(w, 1)
    data = form.to_json_dict()
    again = AlmostDiagonalForm.from_json_dict(data)
    assert again.n == form.n and again.t == form.t
    assert again.diag == form.diag
    assert [(t.J, t.coefficient, t.g_vec) for t in again.terms] == [
        (t.J, t.coefficient, t.g_vec) for t in form.terms
    ]


def test_adf_json_rejects_mangled_payload():
    w = random_moments(2, random.Random(1))
    data = decompose(w, 1).to_json_dict()
    data["terms"] = [{"J": "{1,2}"}]
    with pytest.raises(AdfError):
        AlmostDiagonalForm.from_json_dict(data)


def test_adf_json_rejects_terms_decompose_cannot_write():
    p = LatticeVector(3, PSEUDO_PROBABILITIES, {0b000: 1, 0b011: "1/2"})
    good = from_pseudo(p, 1).to_json_dict()
    (term,) = good["terms"]
    assert term["support"] == [["{}", "-1"], ["{1}", "1"], ["{2}", "1"]]
    bad_supports = [
        [["{}", "-2"], ["{1}", "1"], ["{2}", "1"]],  # wrong value
        [["{1}", "1"], ["{2}", "1"]],  # missing entry
        [["{}", "-1"], ["{1}", "1"], ["{1}", "1"]],  # repeated entry
        [["{}", "-1"], ["{1}", "1"], ["{2}", "1"], ["{3}", "1"]],  # outside J
    ]
    bad_terms = [dict(term, support=support) for support in bad_supports]
    # |J| <= t: such a term would collide with the diagonal part
    low = {"J": "{1}", "coeff": "1", "support": [["{}", "-1"], ["{1}", "1"]]}
    bad_terms.append(low)
    for bad in bad_terms:
        with pytest.raises(AdfError):
            AlmostDiagonalForm.from_json_dict(dict(good, terms=[bad]))
