"""Disks, pivot folding, the exact oracle, and the combined recipe."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import momentcert.adf
import momentcert.certify
from momentcert import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    AlmostDiagonalForm,
    CertifyError,
    InvalidPivotError,
    LatticeVector,
    PivotState,
    PsdCertificate,
    RankOneTerm,
    SubsetIndex,
    assemble,
    certify_matrix,
    certify_recipe,
    decide_form,
    decompose,
    from_pseudo,
    from_pseudo_probabilities,
    g_vector,
    gershgorin,
    is_psd_exact,
    pivot_reduce,
    quad_eval,
    quadratic_form,
    rat_str,
)

import oracle_ref
import rank_one_ref
from psd_minors import principal_minors_psd
from rank_one_ref import add_rank_one, as_fractions, dense

# z^N = (1, -1/3, 1, 2) over the two-element lattice: diagonal part
# (1, -1/3, 1) plus the single rank-one term 2 * G({1,2}) G({1,2})^T.
STRATEGY = from_pseudo(
    LatticeVector(
        2,
        PSEUDO_PROBABILITIES,
        {0b00: 1, 0b01: "-1/3", 0b10: 1, 0b11: 2},
    ),
    1,
)

# Moments (1, 1, 1, 1/4): the pair moment is far below what two almost-sure
# singletons allow, so M_1 has a negative eigenvalue.
INDEFINITE = LatticeVector(2, MOMENTS, {0b00: 1, 0b01: 1, 0b10: 1, 0b11: "1/4"})


def frac_matrix(rows):
    return [[F(v) for v in row] for row in rows]


def stage(state, remaining=False):
    """Diagonal + folded terms of a pivot state, densified by the Fraction reference.

    That is what a snapshot records and the disks read; with remaining, the
    unfolded terms are added too, giving a matrix congruent to the input form.
    """
    return dense(state.diag, state.folded + (state.terms if remaining else []))


def pivot_congruence(g, s):
    """T = I + sum of m_i E_{i,s} over i != s, with m_i = -g_i / g_s.

    g is the pivoted term's vector, read before the pivot, so the tests
    build T themselves rather than from anything pivot_reduce records.
    """
    T = [[F(int(i == j)) for j in range(len(g))] for i in range(len(g))]
    for i, gi in enumerate(g):
        if i != s:
            T[i][s] = -gi / g[s]
    return T


def random_form(n, t, rng):
    values = {
        m: F(rng.randint(-6, 6), rng.randint(1, 3)) for m in range(1 << n)
    }
    return from_pseudo(LatticeVector(n, PSEUDO_PROBABILITIES, values), t)


# ---------------------------------------------------------------------------
# Gershgorin disks
# ---------------------------------------------------------------------------


def test_disks_on_the_strategy_matrix():
    report = gershgorin(as_fractions(*assemble(STRATEGY)))
    assert report.centers == [F(3), F(5, 3), F(3)]
    assert report.radii == [F(4), F(4), F(4)]
    assert not report.all_nonnegative
    assert report.margin() == F(5, 3) - F(4)


def test_disks_reject_asymmetry():
    with pytest.raises(CertifyError):
        gershgorin([[F(1), F(2)], [F(3), F(1)]])


def test_disks_rows_json_uses_labels():
    report = gershgorin(frac_matrix([[2, 1], [1, 2]]))
    rows = report.rows_json(["{}", "{1}"])
    assert rows == [
        {"row": "{}", "center": "2", "radius": "1"},
        {"row": "{1}", "center": "2", "radius": "1"},
    ]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(0), st.integers(-(10 ** 40), 10 ** 40)),
       st.one_of(st.just(1), st.integers(1, 10 ** 20)))
@example(0, 1)
@example(-7, 1)
@example(7, 1)
@example(-6, 4)
@example(6, 4)
@example(0, 9)
def test_ratio_str_is_rat_str_of_the_fraction(x, den):
    # the text of the disks, the replay stages and the trace vectors
    assert momentcert.certify.ratio_str(x, den) == rat_str(F(x, den))


# ---------------------------------------------------------------------------
# pivoting
# ---------------------------------------------------------------------------


def test_single_pivot_on_the_strategy_form():
    state = PivotState(STRATEGY)
    pivot_reduce(state, SubsetIndex(0b11, 2), SubsetIndex(0b01, 2))
    assert state.terms == []
    assert stage(state, remaining=True) == frac_matrix(
        [
            ["2/3", "-1/3", "1/3"],
            ["-1/3", "5/3", "1/3"],
            ["1/3", "1/3", "2/3"],
        ]
    )
    report = gershgorin(state)
    assert report.centers == [F(2, 3), F(5, 3), F(2, 3)]
    assert report.radii == [F(2, 3), F(2, 3), F(2, 3)]
    assert report.all_nonnegative


def test_pivot_requires_support_at_the_pivot_row():
    form = random_form(3, 1, random.Random(2))
    state = PivotState(form)
    # term {1,2} has no support on row {3}
    with pytest.raises(InvalidPivotError):
        pivot_reduce(state, SubsetIndex(0b011, 3), SubsetIndex(0b100, 3))


def test_pivot_on_unknown_term_fails():
    state = PivotState(STRATEGY)
    with pytest.raises(CertifyError):
        pivot_reduce(state, SubsetIndex(0b01, 2), SubsetIndex(0b00, 2))


def test_pivots_are_congruences():
    # each pivot multiplies the assembled state by T = I + sum m_i E_{i,s}
    # on the left and T^T on the right; T built from the pivoted term's
    # vector must reproduce the state exactly, term vectors included.
    rng = random.Random(41)
    for trial in range(8):
        form = random_form(3, 1, rng)
        state = PivotState(form)
        before = stage(state, remaining=True)
        candidates = [
            (term.J, state.index[i])
            for term in state.terms
            for i, v in enumerate(term.g_vec)
            if v
        ]
        if not candidates:
            continue
        H, S = candidates[rng.randrange(len(candidates))]
        size = len(state.index)
        s = state.position(S)
        T = pivot_congruence(state.find_term(H).g_vec, s)
        pivot_reduce(state, H, S)
        expected = [
            [
                sum(
                    T[i][a] * before[a][b] * T[j][b]
                    for a in range(size)
                    for b in range(size)
                )
                for j in range(size)
            ]
            for i in range(size)
        ]
        assert stage(state, remaining=True) == expected


def test_fold_negative_terms_only_folds_negatives():
    form = random_form(3, 1, random.Random(9))
    state = PivotState(form)
    negatives = [t.J.bits for t in state.terms if t.coefficient < 0]
    assembled_before = stage(state, remaining=True)
    state.fold_negative_terms()
    assert all(t.coefficient > 0 for t in state.terms)
    assert {t.J.bits for t in state.terms}.isdisjoint(negatives)
    # folding moves mass between the two summands without changing the total
    assert stage(state, remaining=True) == assembled_before


@st.composite
def mixed_sign_forms(draw):
    """from_pseudo forms with n <= 5, t <= 2 and mixed-sign p.

    Diagonal rows are drawn zero, negative or positive and coefficients of
    either sign, so pivots meet zero, negative and positive sigma = W_ss.
    """
    n = draw(st.integers(1, 5))
    t = draw(st.integers(0, min(2, n - 1)))
    diag = st.sampled_from([-3, -1, F(-1, 2), 0, 0, 1, F(2, 3), 2, 7])
    values = {m: draw(diag) for m in range(1 << n) if m.bit_count() <= t}
    above = [m for m in range(1 << n) if m.bit_count() > t]
    coeff = st.sampled_from([-2, -1, F(-1, 3), F(1, 2), 1, 3, 10])
    for m in draw(st.lists(st.sampled_from(above), min_size=1, max_size=4, unique=True)):
        values[m] = draw(coeff)
    return from_pseudo(LatticeVector(n, PSEUDO_PROBABILITIES, values), t)


def matmul(X, Y):
    return [
        [sum((x * Y[k][j] for k, x in enumerate(row) if x), F(0)) for j in range(len(Y[0]))]
        for row in X
    ]


def assert_disks_match(state):
    # the raw-matrix path, with its symmetry check, is the reference
    want = gershgorin(stage(state))
    got = gershgorin(state)
    assert (got.centers, got.radii) == (want.centers, want.radii)


@settings(max_examples=150, deadline=None)
@given(mixed_sign_forms(), st.booleans(), st.integers(0, 4), st.data())
def test_rank_one_pivots_match_the_dense_congruence(form, fold_first, pivots, data):
    state = PivotState(form)

    def fold():
        expected = stage(state)
        for term in state.terms:
            if term.coefficient < 0:
                add_rank_one(expected, term.coefficient, term.g_vec)
        state.fold_negative_terms()
        assert stage(state) == expected
        assert_disks_match(state)

    assert_disks_match(state)
    if fold_first:
        fold()
    stages = []
    for _ in range(pivots):
        candidates = [
            (term.J, i) for term in state.terms for i, v in enumerate(term.g_vec) if v
        ]
        if not candidates:
            break
        J, s = data.draw(st.sampled_from(candidates))
        term = state.find_term(J)
        c, gs, before = term.coefficient, term.g_vec[s], stage(state)
        T = pivot_congruence(term.g_vec, s)
        pivot_reduce(state, J, state.index[s])
        expected = matmul(matmul(T, before), [list(col) for col in zip(*T)])
        expected[s][s] += c * gs * gs
        assert stage(state) == expected
        assert_disks_match(state)
        stages.append(expected)
    if not fold_first:
        fold()
    # the written trace holds the snapshot forms; rebuild each stage from its JSON
    labels = state.labels()
    cert = PsdCertificate("PSD", "gershgorin-recipe", row_labels=labels,
                          snapshots=state.snapshots)
    trace = cert.to_json_dict(include_trace=True)["trace"]
    assert [rank_one_ref.stage_from_json(s, labels) for s in trace] == stages


@st.composite
def rational_term_forms(draw):
    """Forms whose terms carry rational vectors, as decide_form's Schur complements do.

    Entries have denominators above 1 and either sign, so pivots meet
    negative g_s and vectors whose content is not 1; zero diagonal rows
    give pivots with sigma = 0, and any negative terms can be folded first,
    so that two folded terms share a row.
    """
    size = draw(st.integers(2, 6))
    entry = st.sampled_from([0, 0, 1, -1, 2, -4, F(1, 2), F(-2, 3), F(3, 4), F(-6, 5)])
    coeff = st.sampled_from([F(-2), F(-1, 3), F(1, 2), F(1), F(3)])
    diag_entry = st.sampled_from([F(0), F(0), F(-1, 2), F(1), F(2, 3), F(3)])
    vector = st.lists(entry, min_size=size, max_size=size)
    terms = [
        RankOneTerm(SubsetIndex(j, 3), draw(coeff), draw(vector))
        for j in range(draw(st.integers(1, 4)))
    ]
    index = [SubsetIndex(k, 3) for k in range(size)]
    diag = draw(st.lists(diag_entry, min_size=size, max_size=size))
    return AlmostDiagonalForm(3, 1, index, diag, terms)


def assert_integer_terms(state):
    for term in state.folded + state.terms:
        assert all(type(x) is int for x in term.num)
        assert term.den > 0 and math.gcd(term.den, *term.num) == 1
        assert term.g_vec == [F(x, term.den) for x in term.num]
    values = list(state.diag)
    for report in (gershgorin(state), gershgorin(state.stage())):
        values += report.centers + report.radii
        want = gershgorin(stage(state))
        assert (report.centers, report.radii) == (want.centers, want.radii)
    assert all(type(v) is F for v in values)
    assert as_fractions(*assemble(state.stage())) == stage(state)


@settings(max_examples=150, deadline=None)
@given(rational_term_forms(), st.booleans(), st.data())
def test_pivot_chains_keep_terms_as_integers_over_one_denominator(form, fold_first, data):
    state = PivotState(form)
    if fold_first:
        state.fold_negative_terms()
    assert_integer_terms(state)
    for _ in range(4):
        candidates = [(t.J, i) for t in state.terms for i, v in enumerate(t.num) if v]
        if not candidates:
            break
        J, s = data.draw(st.sampled_from(candidates))
        before = stage(state, remaining=True)
        T = pivot_congruence(state.find_term(J).g_vec, s)
        pivot_reduce(state, J, state.index[s])
        assert stage(state, remaining=True) == matmul(matmul(T, before), [list(c) for c in zip(*T)])
        assert_integer_terms(state)


@st.composite
def integer_term_forms(draw):
    """Forms whose terms are integer vectors over random denominators.

    The diagonal holds zero, negative and positive rationals, and the
    coefficients carry either sign. With disjoint supports the disks are
    read in closed form; otherwise the supports may overlap, and they are
    read from the integer triangle.
    """
    size = draw(st.integers(1, 7))
    rational = st.builds(F, st.integers(-9, 9), st.integers(1, 12))
    diag = draw(st.lists(st.one_of(st.just(F(0)), rational), min_size=size, max_size=size))
    disjoint = draw(st.booleans())
    free = list(range(size))
    terms = []
    for j in range(draw(st.integers(0, 4))):
        support = draw(st.sets(st.sampled_from(free or [0]), min_size=1, max_size=3))
        if disjoint:
            support &= set(free)
            free = [k for k in free if k not in support]
        num = [draw(st.integers(-9, 9).filter(bool)) if k in support else 0 for k in range(size)]
        coeff = draw(st.builds(F, st.integers(-5, 5), st.integers(1, 6)))
        terms.append(RankOneTerm.scaled(SubsetIndex(j, 3), coeff, num, draw(st.integers(1, 30))))
    return AlmostDiagonalForm(3, 1, [SubsetIndex(k, 3) for k in range(size)], diag, terms)


def assert_report_matches(report, ref, index):
    """The integer report reads as the Fraction reference does, reading for reading."""
    assert report.den > 0 and all(type(x) is int for x in report.cnum + report.rnum)
    assert (report.centers, report.radii) == (ref.centers, ref.radii)
    assert [F(m, report.den) for m in report.margins] == ref.margins
    assert report.margin() == ref.margin()
    assert report.all_nonnegative == ref.all_nonnegative

    def worst_first(r):
        return sorted(range(len(index)), key=lambda i: (r.margins[i], index[i].sort_key()))

    assert worst_first(report) == worst_first(ref)
    labels = [str(s) for s in index]
    assert report.rows_json(labels) == ref.rows_json(labels)
    assert report.rows_json() == ref.rows_json()


@settings(max_examples=200, deadline=None)
@given(integer_term_forms(), st.integers(0, 3), st.booleans(), st.data())
def test_disk_report_matches_the_fraction_reference(form, pivots, fold, data):
    assert_report_matches(gershgorin(form), rank_one_ref.form_disks(form), form.index)
    rows = as_fractions(*assemble(form))
    assert_report_matches(gershgorin(rows), rank_one_ref.row_disks(rows), form.index)
    state = PivotState(form)
    for _ in range(pivots):
        candidates = [(t.J, i) for t in state.terms for i, v in enumerate(t.num) if v]
        if not candidates:
            break
        J, s = data.draw(st.sampled_from(candidates))
        pivot_reduce(state, J, state.index[s])
        if fold:
            state.fold_negative_terms()
        assert_report_matches(gershgorin(state), rank_one_ref.form_disks(state.stage()), state.index)


# ---------------------------------------------------------------------------
# the exact oracle
# ---------------------------------------------------------------------------


def test_oracle_accepts_gram_matrices():
    rng = random.Random(17)
    for trial in range(20):
        size = rng.randint(1, 5)
        b = [
            [F(rng.randint(-3, 3)) for _ in range(size)]
            for _ in range(rng.randint(1, size + 2))
        ]
        gram = [
            [sum(row[i] * row[j] for row in b) for j in range(size)]
            for i in range(size)
        ]
        cert = is_psd_exact(gram)
        assert cert.verdict == "PSD"
        assert cert.witness is None


def test_oracle_rejects_with_reusable_witness():
    cases = [
        [[F(-1)]],
        frac_matrix([[0, 1], [1, 0]]),
        frac_matrix([[0, -1], [-1, 5]]),
        frac_matrix([[1, 2], [2, 1]]),
        as_fractions(*assemble(decompose(INDEFINITE, 1))),
    ]
    for rows in cases:
        cert = is_psd_exact(rows)
        assert cert.verdict == "NotPSD"
        assert quad_eval(rows, cert.witness) < 0


def test_oracle_zero_diagonal_needs_no_negative_entry():
    # all diagonals zero but the matrix is nonzero: indefinite either way,
    # and the witness must pick the sign that actually goes negative.
    for sign in (1, -1):
        rows = frac_matrix([[0, sign], [sign, 0]])
        cert = is_psd_exact(rows)
        assert cert.verdict == "NotPSD"
        assert quad_eval(rows, cert.witness) < 0


def test_minor_scan_agrees_with_the_oracle():
    rng = random.Random(29)
    for trial in range(60):
        size = rng.randint(1, 4)
        rows = [[F(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                v = F(rng.randint(-3, 3))
                rows[i][j] = v
                rows[j][i] = v
        assert principal_minors_psd(rows) == (
            is_psd_exact(rows).verdict == "PSD"
        )


# NotPSD only after 4 pivots, by a negative diagonal.
LATE_NEGATIVE = [
    [8, 5, 0, -1, -3, -4],
    [5, 6, -3, 1, 0, -6],
    [0, -3, 7, 3, 0, 0],
    [-1, 1, 3, 5, 0, 3],
    [-3, 0, 0, 0, 7, 0],
    [-4, -6, 0, 3, 0, 7],
]
# NotPSD only after 3 pivots, by the all-zero-diagonal block on rows 0 and 2.
LATE_ZERO_BLOCK = [
    [2108, 0, 298, 4320, -6480],
    [0, 38880, 2160, 12960, -23760],
    [298, 2160, 1823, -4320, 4320],
    [4320, 12960, -4320, 38880, -19440],
    [-6480, -23760, 4320, -19440, 34560],
]


def test_oracle_witness_is_the_elimination_basis_row():
    # The witnesses are the rows e_r E and (e_i - e_j) E of the accumulated
    # elimination E, as a full basis matrix carried through every step gives them.
    cases = [
        (LATE_NEGATIVE, ["-11/31", "1", "3/7", "0", "-33/217", "142/217"], F(-214, 217)),
        (LATE_ZERO_BLOCK, ["1", "61/144", "-1", "-37/432", "5/9"], F(-4320)),
    ]
    for rows, witness, value in cases:
        rows = frac_matrix(rows)
        cert = is_psd_exact(rows)
        assert cert.verdict == "NotPSD"
        assert cert.witness == [F(v) for v in witness]
        assert quad_eval(rows, cert.witness) == value


@st.composite
def sparse_symmetric(draw):
    """A Gram matrix of a sparse factor, then symmetric bumps, zero rows and zero diagonals."""
    size = draw(st.integers(1, 8))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, F(-1, 2), F(3, 2)])
    factor = draw(st.lists(st.lists(entry, min_size=size, max_size=size), min_size=1, max_size=size))
    rows = [[F(sum(b[i] * b[j] for b in factor)) for j in range(size)] for i in range(size)]
    index = st.integers(0, size - 1)
    for i, j, delta in draw(st.lists(st.tuples(index, index, st.sampled_from([-2, -1, 1])), max_size=3)):
        rows[i][j] += delta
        if i != j:
            rows[j][i] += delta
    for i in draw(st.sets(index, max_size=3)):
        for j in range(size):
            rows[i][j] = rows[j][i] = F(0)
    for i in draw(st.sets(index, max_size=3)):
        rows[i][i] = F(0)
    return rows


@settings(max_examples=200, deadline=None)
@given(sparse_symmetric())
def test_oracle_agrees_with_minors_on_sparse_matrices(rows):
    cert = is_psd_exact(rows)
    assert (cert.verdict == "PSD") == principal_minors_psd(rows)
    if cert.verdict == "NotPSD":
        assert quad_eval(rows, cert.witness) < 0


ORACLE_ENTRIES = st.sampled_from([0, 0, 1, -1, 2, F(1, 2), F(-2, 3), F(5, 6), F(7, 4)])


@st.composite
def oracle_inputs(draw):
    """Symmetric rational matrices for comparing the oracle with its Fraction reference.

    A Gram matrix of fewer vectors than rows (singular PSD) is masked to a
    dense, diagonal, tridiagonal or block-diagonal shape. Symmetric bumps
    then often leave every diagonal positive and make a negative one appear
    only after some pivots; zero rows, and a zero-diagonal block joined by
    one off-diagonal entry, are drawn too. Entries mix denominators, and
    their few values make ties for the largest diagonal common.
    """
    size = draw(st.integers(0, 7))
    if size == 0:
        return []
    vectors = draw(st.lists(st.lists(ORACLE_ENTRIES, min_size=size, max_size=size),
                            max_size=max(size - 1, 1)))
    block = draw(st.integers(1, 3))
    keep = draw(st.sampled_from([
        lambda i, j: True,
        lambda i, j: i == j,
        lambda i, j: abs(i - j) <= 1,
        lambda i, j: i // block == j // block,
    ]))
    rows = [[sum((v[i] * v[j] for v in vectors), F(0)) if keep(i, j) else F(0)
             for j in range(size)] for i in range(size)]
    index = st.integers(0, size - 1)
    for i, j, delta in draw(st.lists(st.tuples(index, index, ORACLE_ENTRIES), max_size=2)):
        rows[i][j] += delta
        if i != j:
            rows[j][i] += delta
    for i in draw(st.sets(index, max_size=2)):
        for j in range(size):
            rows[i][j] = rows[j][i] = F(0)
    zeros = sorted(draw(st.sets(index, max_size=3)))
    for i in zeros:
        rows[i][i] = F(0)
    if len(zeros) >= 2:
        i, j = zeros[:2]
        rows[i][j] = rows[j][i] = draw(ORACLE_ENTRIES.filter(bool))
    return rows


@settings(max_examples=400, deadline=None)
@given(oracle_inputs())
def test_oracle_matches_the_fraction_reference(rows):
    cert, ref = is_psd_exact(rows), oracle_ref.is_psd_exact(rows)
    assert (cert.verdict, cert.method) == (ref.verdict, ref.method)
    assert cert.witness == ref.witness
    if cert.witness is not None:
        assert quad_eval(rows, cert.witness) < 0


def test_oracle_error_messages():
    with pytest.raises(CertifyError, match=r"^matrix is not square$"):
        is_psd_exact([[F(1), F(0)], [F(0)]])
    with pytest.raises(CertifyError, match=r"^matrix is not symmetric at \(2,1\)$"):
        is_psd_exact(frac_matrix([[1, 0, 0], [0, 1, 2], [0, 3, 1]]))
    # a float has as_integer_ratio too, but no certified path takes one
    for decide in (is_psd_exact, gershgorin, certify_matrix):
        with pytest.raises(CertifyError, match=r"^matrix row 1 has a float entry$"):
            decide([[F(1), F(0)], [F(0), 0.5]])


@st.composite
def few_term_forms(draw):
    """from_pseudo forms with one to three terms over mostly positive diagonals.

    Zero and negative diagonal rows, negative coefficients (which keep the
    form on the dense path) and a trailing zero-coefficient term, as
    trace_bound_check appends one, are all drawn.
    """
    n = draw(st.integers(2, 5))
    t = draw(st.integers(1, n - 1))
    diag = st.sampled_from([-2, -1, 0, 1, 1, 2, 5, F(1, 3), F(7, 2), 30])
    values = {m: draw(diag) for m in range(1 << n) if m.bit_count() <= t}
    above = [m for m in range(1 << n) if m.bit_count() > t]
    coeff = st.sampled_from([1, 2, F(1, 2), 9, 40, -1])
    for m in draw(st.lists(st.sampled_from(above), min_size=1, max_size=3, unique=True)):
        values[m] = draw(coeff)
    form = from_pseudo(LatticeVector(n, PSEUDO_PROBABILITIES, values), t)
    if draw(st.booleans()):
        J = SubsetIndex(draw(st.sampled_from(above)), n)
        form.terms.append(RankOneTerm(J, F(0), g_vector(J, form.index)))
    return form


@settings(max_examples=300, deadline=None)
@given(few_term_forms())
def test_decide_form_agrees_with_the_dense_oracle(form):
    cert = decide_form(form)
    dense = is_psd_exact(as_fractions(*assemble(form)))
    # dropping assemble's positive denominator changes neither verdict nor witness
    assert is_psd_exact(assemble(form)[0]).to_json_dict() == dense.to_json_dict()
    assert cert.verdict == dense.verdict
    if cert.verdict == "PSD":
        assert cert.to_json_dict() == dense.to_json_dict()
    else:
        # quadratic_form never builds the matrix, so it checks the lift on its own.
        assert quadratic_form(form, cert.witness) < 0


# ---------------------------------------------------------------------------
# the recipe
# ---------------------------------------------------------------------------


def test_recipe_greedy_settles_the_strategy_form():
    cert = certify_recipe(STRATEGY)
    assert cert.verdict == "PSD"
    assert cert.recipe_conclusive
    assert [step.to_json_dict() for step in cert.schedule] == [
        {"H": "{1,2}", "S": "{1}"}
    ]
    assert cert.final_disks.centers == [F(2, 3), F(5, 3), F(2, 3)]
    assert cert.final_disks.radii == [F(2, 3), F(2, 3), F(2, 3)]
    oracle = is_psd_exact(as_fractions(*assemble(STRATEGY)))
    assert oracle.verdict == "PSD"
    # the oracle decided, not the disks
    assert not oracle.recipe_conclusive


def test_recipe_explicit_schedule_matches_greedy_here():
    schedule = [(SubsetIndex(0b11, 2), SubsetIndex(0b01, 2))]
    cert = certify_recipe(STRATEGY, schedule=schedule)
    assert cert.verdict == "PSD" and cert.recipe_conclusive
    assert cert.final_disks.centers == [F(2, 3), F(5, 3), F(2, 3)]


def test_recipe_falls_back_to_the_oracle():
    form = decompose(INDEFINITE, 1)
    cert = certify_recipe(form)
    assert cert.verdict == "NotPSD"
    assert not cert.recipe_conclusive
    assert cert.method == "exact-factorization"
    assert quad_eval(as_fractions(*assemble(form)), cert.witness) < 0


def test_recipe_verdicts_match_the_oracle_on_random_forms():
    rng = random.Random(59)
    for trial in range(25):
        form = random_form(rng.randint(2, 3), 1, rng)
        cert = certify_recipe(form)
        oracle = is_psd_exact(as_fractions(*assemble(form)))
        if cert.recipe_conclusive:
            # a conclusive disk pass is a soundness claim, never a refutation
            assert cert.verdict == "PSD"
            assert oracle.verdict == "PSD"
        else:
            assert cert.verdict == oracle.verdict


def measure_moments(n, rng):
    """Moments of a random measure on {0,1}^n: its pseudo-probabilities are the point weights."""
    weights = {m: rng.randint(0, 5) for m in range(1 << n)}
    return from_pseudo_probabilities(LatticeVector(n, PSEUDO_PROBABILITIES, weights))


def test_a_measure_form_is_decomposed_and_certified_without_any_g_vector(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("g_vector was called")

    monkeypatch.setattr(momentcert.adf, "g_vector", unreachable)
    for n, t in [(4, 1), (5, 2), (6, 2)]:
        form = decompose(measure_moments(n, random.Random(n)), t)
        assert form.terms
        again = AlmostDiagonalForm.from_json_dict(form.to_json_dict())
        for f in (form, again):
            cert = certify_recipe(f)
            assert cert.verdict == "PSD" and cert.recipe_conclusive
            assert cert.schedule == []


def test_pivots_leave_the_input_form_and_earlier_snapshots_unchanged(monkeypatch):
    def frozen(form):
        return list(form.diag), [(u.J, u.coefficient, list(u.g_vec)) for u in form.terms]

    real = momentcert.certify.pivot_reduce
    seen = []

    def recording(state, H, S):
        out = real(state, H, S)
        seen.append([frozen(f) for f in state.snapshots])
        return out

    monkeypatch.setattr(momentcert.certify, "pivot_reduce", recording)
    for seed in range(5):
        rng = random.Random(seed)
        w = measure_moments(4, rng).to_dict()
        # one singleton moment made negative: NotPSD, after greedy pivots
        w[1 << rng.randrange(4)] = F(-1, 2)
        form = decompose(LatticeVector(4, MOMENTS, w), 1)
        before = frozen(form)
        seen.clear()
        cert = certify_recipe(form)
        assert cert.verdict == "NotPSD" and len(cert.schedule) >= 2
        assert frozen(form) == before
        assert len(seen) == len(cert.schedule)
        for recorded in seen:
            assert [frozen(f) for f in cert.snapshots[:len(recorded)]] == recorded


def test_recipe_output_is_deterministic():
    a = certify_recipe(STRATEGY).to_json_dict(include_trace=True)
    b = certify_recipe(STRATEGY).to_json_dict(include_trace=True)
    assert a == b


def test_certificate_json_shape():
    data = certify_recipe(STRATEGY).to_json_dict()
    assert set(data) == {"verdict", "method", "schedule", "final_disks"}
    assert data["final_disks"][0] == {
        "row": "{}",
        "center": "2/3",
        "radius": "2/3",
    }
