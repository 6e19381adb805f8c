"""Almost diagonal forms: support vectors, decomposition, reassembly."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcert import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    AdfError,
    AlmostDiagonalForm,
    LatticeError,
    LatticeVector,
    RankOneTerm,
    SubsetIndex,
    assemble,
    decompose,
    enumerate_subsets,
    from_pseudo,
    g_vector,
    quadratic_form,
    to_pseudo_probabilities,
)
from moments_ref import ZetaBlock, from_dense, moment_matrix
from rank_one_ref import dense


def random_moments(n, rng):
    values = [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(1 << n)]
    return from_dense(n, MOMENTS, values)


def matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


# ---------------------------------------------------------------------------
# support vectors
# ---------------------------------------------------------------------------


def test_g_vector_one_above_level_is_signed_indicator():
    g = g_vector(SubsetIndex(0b011, 3), enumerate_subsets(3, 1))
    # graded order over P_1({1,2,3}): {}, {1}, {2}, {3}
    assert g == [F(-1), F(1), F(1), F(0)]


def test_g_vector_binomial_magnitudes():
    index = enumerate_subsets(4, 2)
    g = g_vector(SubsetIndex(0b1111, 4), index)
    expected = {0: F(3), 1: F(-2), 2: F(1)}
    for val, I in zip(g, index):
        assert val == expected[I.bits.bit_count()]


def test_g_vector_rejects_low_cardinality():
    with pytest.raises(AdfError):
        g_vector(SubsetIndex(0b001, 3), enumerate_subsets(3, 1))


def test_g_vector_vanishes_outside_the_set():
    index = enumerate_subsets(4, 1)
    g = g_vector(SubsetIndex(0b0110, 4), index)
    for val, I in zip(g, index):
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
    assert sorted(term.J.bits.bit_count() for term in form.terms) == [2, 2, 2, 3]


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


def test_terms_keep_the_sign_of_their_coefficient():
    p = LatticeVector(
        2,
        "pseudo-probabilities",
        {0b00: 1, 0b11: "-1/3"},
    )
    form = from_pseudo(p, 1)
    (term,) = form.terms
    assert term.coefficient < 0 and term.coefficient == F(-1, 3)


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
    m = moment_matrix(w, t)
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
    tail_sets = [s for s in enumerate_subsets(n, n) if s.bits.bit_count() > t]
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
    m = moment_matrix(w, t)
    for i in range(len(head)):
        for j in range(len(head)):
            assert head[i][j] + tail[i][j] == m[i][j]


def fraction_assemble(form):
    """Reference for assemble: Diag plus each term added in Fractions."""
    return dense(form.diag, form.terms)


rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def sparse_pseudo_forms(draw):
    n = draw(st.integers(0, 6))
    t = draw(st.integers(0, n))
    values = draw(st.dictionaries(st.integers(0, (1 << n) - 1), rationals, max_size=10))
    form = from_pseudo(LatticeVector(n, PSEUDO_PROBABILITIES, values), t)
    if n > t and draw(st.booleans()):
        # the zero-coefficient top term trace_bound_check keeps
        top = SubsetIndex((1 << n) - 1, n)
        form.terms.append(RankOneTerm(top, F(0), g_vector(top, form.index)))
    return form


@st.composite
def rational_forms(draw):
    # free diagonal plus rational, non-integer vectors, as in decide_form's
    # Schur complement, with zero coefficients and all-zero vectors mixed in
    size = draw(st.integers(0, 8))
    diag = draw(st.lists(rationals, min_size=size, max_size=size))
    vectors = st.lists(rationals | st.just(F(0)), min_size=size, max_size=size)
    terms = [
        RankOneTerm(SubsetIndex(0, 3), coeff, vec)
        for coeff, vec in draw(st.lists(st.tuples(rationals, vectors), max_size=6))
    ]
    if draw(st.booleans()):
        terms.append(RankOneTerm(SubsetIndex(0, 3), draw(rationals), [F(0)] * size))
    return AlmostDiagonalForm(3, 3, [SubsetIndex(k, 3) for k in range(size)], diag, terms)


@settings(max_examples=150, deadline=None)
@given(sparse_pseudo_forms() | rational_forms())
def test_assemble_equals_the_fraction_rank_one_sum(form):
    dense = assemble(form)
    assert dense == fraction_assemble(form)
    assert all(type(x) is F for row in dense for x in row)


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


@settings(max_examples=100, deadline=None)
@given(sparse_pseudo_forms())
def test_each_lazy_g_vec_is_g_vector_of_its_set(form):
    for term in form.terms:
        # from_pseudo hands over J and the index, and the first read builds G(J)
        assert term.num == g_vector(term.J, form.index) == term.g_vec
        assert term.num is term.num and term.den == 1


@pytest.mark.parametrize("bad", [0.5, True])
def test_rank_one_term_refuses_float_and_bool_entries(bad):
    # a rational vector is normalised once, through rat, at construction
    with pytest.raises(LatticeError, match="not a rational"):
        RankOneTerm(SubsetIndex(0, 3), F(1), [F(1, 2), bad, 0])


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
    assert term == {"J": "{1,2}", "coeff": "1/2"}
    # G(J) is rebuilt, never read: any key beside J and coeff is refused,
    # the support lists of the earlier format included
    bad_terms = [
        dict(term, support=[["{}", "-1"], ["{1}", "1"], ["{2}", "1"]]),
        dict(term, support=[]),
        dict(term, note="x"),
    ]
    # |J| <= t: such a term would collide with the diagonal part
    bad_terms.append({"J": "{1}", "coeff": "1"})
    for bad in bad_terms:
        with pytest.raises(AdfError):
            AlmostDiagonalForm.from_json_dict(dict(good, terms=[bad]))


def test_adf_json_repeated_bad_strings_fail_with_the_same_message():
    p = LatticeVector(3, PSEUDO_PROBABILITIES, {0b000: 1, 0b011: "1/2", 0b101: "1/3"})
    good = from_pseudo(p, 1).to_json_dict()
    for field, bad, message in (
        ("J", "{1,x}", "malformed rank-one term: not a subset: '{1,x}'"),
        ("coeff", "1.5", "malformed rank-one term: not a rational: '1.5'"),
        ("coeff", 1.0, "malformed rank-one term: not a rational: 1.0"),
    ):
        # in the second term only, after the first has been read, and in both
        for first_too in (False, True):
            terms = [
                dict(term, **{field: bad}) if k or first_too else term
                for k, term in enumerate(good["terms"])
            ]
            with pytest.raises(AdfError) as err:
                AlmostDiagonalForm.from_json_dict(dict(good, terms=terms))
            assert str(err.value) == message
    # a diagonal label is read before any term, outside the term parse
    diag = dict(good["diag"], **{"{1,x}": "1"})
    with pytest.raises(LatticeError) as err:
        AlmostDiagonalForm.from_json_dict(dict(good, diag=diag))
    assert str(err.value) == "not a subset: '{1,x}'"


@st.composite
def pseudo_and_level(draw):
    n = draw(st.integers(1, 4))
    t = draw(st.integers(0, n - 1))
    values = draw(st.lists(st.integers(-3, 3), min_size=1 << n, max_size=1 << n))
    return LatticeVector(n, PSEUDO_PROBABILITIES, dict(enumerate(values))), t


@settings(max_examples=60, deadline=None)
@given(pseudo_and_level(), st.data())
def test_adf_json_reads_back_the_form_and_refuses_each_mutation(pt, draws):
    p, t = pt
    form = from_pseudo(p, t)
    data = form.to_json_dict()
    again = AlmostDiagonalForm.from_json_dict(data)
    assert again.index == form.index and again.diag == form.diag
    assert [(u.J, u.coefficient, u.g_vec) for u in again.terms] == [
        (u.J, u.coefficient, u.g_vec) for u in form.terms
    ]
    # the same diagonal label listed a second time as "{ 1}" next to "{1}"
    label = draws.draw(st.sampled_from(sorted(data["diag"])))
    respelled = {"{ " + label[1:]: data["diag"][label]}
    mutants = [dict(data, diag=dict(data["diag"], **respelled))]
    if data["terms"]:
        k = draws.draw(st.integers(0, len(data["terms"]) - 1))
        term = data["terms"][k]
        for bad in (dict(term, coeff="0"), dict(term, support=[])):
            terms = data["terms"][:k] + [bad] + data["terms"][k + 1:]
            mutants.append(dict(data, terms=terms))
        mutants.append(dict(data, terms=data["terms"] + [term]))
    for bad in mutants:
        with pytest.raises(AdfError):
            AlmostDiagonalForm.from_json_dict(bad)
