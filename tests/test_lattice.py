"""Subset indexing, rational coercion, and the lattice transforms."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentcert import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    LatticeError,
    LatticeVector,
    LinearConstraint,
    SubsetIndex,
    enumerate_subsets,
    from_pseudo_probabilities,
    rat,
    rat_str,
    to_pseudo_probabilities,
)
import codec_ref
from momentcert.lattice import check_subset_count, parse_subset_mask, subset_label
from moments_ref import from_dense, pair_value, to_dense


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------


def test_rat_accepts_int_str_fraction():
    assert rat(3) == F(3)
    assert rat("-7/2") == F(-7, 2)
    assert rat(F(1, 3)) == F(1, 3)
    assert rat(" 5/10 ") == F(1, 2)


@pytest.mark.parametrize(
    "bad", [1.5, "1/0", "abc", None, [1], "1e5000", "0.5", "1_0", True, False]
)
def test_rat_rejects_nonrationals(bad):
    with pytest.raises(LatticeError):
        rat(bad)


def test_rat_str_is_canonical():
    assert rat_str(F(4, 2)) == "2"
    assert rat_str("-6/4") == "-3/2"
    assert rat_str(0) == "0"


# ---------------------------------------------------------------------------
# subset indices
# ---------------------------------------------------------------------------


def test_subset_members_and_text_roundtrip():
    s = SubsetIndex(0b101, 3)
    assert str(s) == "{1,3}"
    assert SubsetIndex.parse("{1,3}", 3) == s
    assert SubsetIndex.parse("{}", 3) == SubsetIndex(0, 3)


@pytest.mark.parametrize(
    "text", ["{0}", "{4}", "{1,1}", "1,2", "{x}", 5, None, "{0_1}", "{+1}", "{\u0661}"]
)
def test_subset_parse_rejects_garbage(text):
    with pytest.raises(LatticeError):
        SubsetIndex.parse(text, 3)


# Texts over the characters the codecs treat specially: ASCII and Arabic-Indic
# digits, the label and rational punctuation, ASCII and Unicode whitespace
# (str.strip removes both), and the characters of underscored, decimal and
# exponent forms.
_CODEC_TEXT = st.text(
    alphabet=list("0123456789\u0661\u0663{},/+- \t\n\r\x0b\x0c\xa0\u3000_.e"), max_size=12
)


def _outcome(f, *args):
    """f(*args) as ("ok", value), or ("raises", type, message) when it raises."""
    try:
        return ("ok", f(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return ("raises", type(exc), str(exc))


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(_CODEC_TEXT, st.builds("{{{}}}".format, _CODEC_TEXT), st.none(),
                      st.integers()),
       n=st.integers(-1, 26))
@example(text="\u3000{ 1 ,\xa02\t}\xa0", n=3)
@example(text="{" + "1" * 5000 + "}", n=3)
@example(text="{2,x}", n=1)
@example(text="{1,1,x}", n=3)
def test_parse_subset_mask_matches_the_reference(text, n):
    got = _outcome(parse_subset_mask, text, n)
    assert got == _outcome(codec_ref.parse_subset_mask, text, n)
    assert got[0] == "ok" or got[1] is LatticeError


@settings(max_examples=400, deadline=None)
@given(value=st.one_of(_CODEC_TEXT, st.integers(), st.fractions(), st.booleans(),
                       st.floats(allow_nan=False), st.none()))
@example(value="\xa0-6/4\u3000")
@example(value="1" * 5000)
@example(value="1/0")
def test_rat_and_rat_str_match_the_reference(value):
    got = _outcome(rat, value)
    assert got == _outcome(codec_ref.rat, value)
    assert got[0] == "ok" or got[1] is LatticeError
    assert _outcome(rat_str, value) == _outcome(codec_ref.rat_str, value)


def test_subset_labels_match_the_reference_and_parse_back():
    for n in range(11):
        for mask in range(1 << n):
            label = subset_label(mask)
            assert label == str(SubsetIndex(mask, n)) == codec_ref.subset_str(SubsetIndex(mask, n))
            assert parse_subset_mask(label, n) == mask


def test_subset_validation():
    with pytest.raises(LatticeError):
        SubsetIndex(8, 3)
    with pytest.raises(LatticeError):
        SubsetIndex(0, -1)


def test_enumerate_subsets_graded_order():
    got = [s.bits for s in enumerate_subsets(3, 2)]
    assert got == [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110]
    cards = [s.bits.bit_count() for s in enumerate_subsets(4, 4)]
    assert cards == sorted(cards)


def test_enumerate_subsets_refuses_more_than_the_limit():
    assert len(enumerate_subsets(12, 12)) == 4096
    with pytest.raises(LatticeError):
        enumerate_subsets(13, 13)


def test_check_subset_count_refuses_only_above_the_limit():
    check_subset_count(12, 12)
    check_subset_count(24, 2)
    for n, t in [(13, 13), (24, 24), (24, 4), (25, 1), (3, 4), (3, -1)]:
        with pytest.raises(LatticeError):
            check_subset_count(n, t)


def test_subset_ordering_matches_graded_enumeration():
    index = enumerate_subsets(4, 4)
    assert index == sorted(index, key=SubsetIndex.sort_key)


# ---------------------------------------------------------------------------
# lattice vectors
# ---------------------------------------------------------------------------


def test_vector_zero_default_and_eq():
    v = LatticeVector(3, MOMENTS, {0b001: "1/2"})
    assert v.get(0b010) == 0
    assert v.get(0b001) == v[0b001] == F(1, 2)
    w = LatticeVector(3, MOMENTS, {0b001: F(1, 2), 0b100: 0})
    assert v == w
    assert v != LatticeVector(3, PSEUDO_PROBABILITIES, {0b001: "1/2"})


def test_vector_dense_and_sparse_agree():
    # 7 of 8 entries nonzero: well over half the lattice
    entries = {m: F(m + 1, 3) for m in range(7)}
    mapped = LatticeVector(3, MOMENTS, entries)
    values = [F(m + 1, 3) for m in range(7)] + [F(0)]
    dense = from_dense(3, MOMENTS, values)
    assert mapped == dense
    assert all(mapped.get(m) == dense.get(m) == values[m] for m in range(8))
    assert list(mapped.items()) == list(dense.items())
    assert [m for m, _ in dense.items()] == sorted(
        range(7), key=lambda m: (m.bit_count(), m)
    )
    assert to_dense(mapped) == to_dense(dense) == values
    assert mapped.nonzero_count() == dense.nonzero_count() == 7
    # from_dense counts no zeros and takes no floats
    assert from_dense(3, MOMENTS, [F(0)] * 7 + [F(1)]).nonzero_count() == 1
    with pytest.raises(LatticeError):
        from_dense(2, MOMENTS, [F(1), 0.5, F(0), F(0)])


def test_vector_rejects_floats():
    with pytest.raises(LatticeError):
        LatticeVector(2, MOMENTS, {0: 0.5})


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_pseudo_probabilities_frozen_example():
    # moments 1, 1/2, 1/2, 1/4 describe two fair independent coins: every
    # outcome should carry weight exactly 1/4.
    w = LatticeVector(
        2, MOMENTS, {0b00: 1, 0b01: "1/2", 0b10: "1/2", 0b11: "1/4"}
    )
    p = to_pseudo_probabilities(w)
    assert [p.get(m) for m in range(4)] == [F(1, 4)] * 4
    assert from_pseudo_probabilities(p) == w


def test_pair_value_is_the_complement_pseudo():
    w = LatticeVector(
        3,
        MOMENTS,
        {m: F(1, m + 1) for m in range(8)},
    )
    p = to_pseudo_probabilities(w)
    for mask in range(8):
        comp = ~mask & 0b111
        assert pair_value(w, mask, comp) == p.get(mask)


def test_pair_value_requires_moments():
    p = LatticeVector(2, PSEUDO_PROBABILITIES, {0: 1})
    with pytest.raises(LatticeError):
        pair_value(p, 0, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.fractions(max_denominator=12),
                min_size=1 << n,
                max_size=1 << n,
            ),
        )
    )
)
def test_transform_roundtrip(case):
    n, values = case
    w = from_dense(n, MOMENTS, [F(v) for v in values])
    assert from_pseudo_probabilities(to_pseudo_probabilities(w)) == w


# Denominators mix powers of one prime with coprime ones, so the common
# denominator of a draw is rarely any single entry's denominator.
_DENOMINATORS = [1, 2, 3, 4, 5, 7, 9, 11, 16, 27, 49, 97]


def _sparse_vectors(kind):
    def vector(n):
        entry = st.builds(
            F,
            st.integers(min_value=-60, max_value=60),
            st.sampled_from(_DENOMINATORS),
        )
        entries = st.dictionaries(
            st.integers(min_value=0, max_value=(1 << n) - 1), entry, max_size=12
        )
        return entries.map(lambda e: (e, LatticeVector(n, kind, e)))

    return st.integers(min_value=0, max_value=8).flatmap(vector)


def _superset_sums(entries, alternating):
    """Each mask's superset sum over the stored entries, one entry at a time."""
    out = {}
    for s_mask, val in entries.items():
        sub = s_mask
        while True:
            sign = -1 if alternating and (s_mask ^ sub).bit_count() & 1 else 1
            out[sub] = out.get(sub, F(0)) + sign * val
            if sub == 0:
                break
            sub = (sub - 1) & s_mask
    return {m: v for m, v in out.items() if v}


@settings(max_examples=100, deadline=None)
@given(_sparse_vectors(MOMENTS))
def test_to_pseudo_is_the_alternating_superset_sum(case):
    entries, w = case
    expected = _superset_sums(entries, alternating=True)
    p = to_pseudo_probabilities(w)
    assert p.kind == PSEUDO_PROBABILITIES
    assert dict(p.items()) == expected
    assert p.nonzero_count() == len(expected)
    assert from_pseudo_probabilities(p) == w


@settings(max_examples=100, deadline=None)
@given(_sparse_vectors(PSEUDO_PROBABILITIES))
def test_from_pseudo_is_the_plain_superset_sum(case):
    entries, p = case
    expected = _superset_sums(entries, alternating=False)
    w = from_pseudo_probabilities(p)
    assert w.kind == MOMENTS
    assert dict(w.items()) == expected
    assert w.nonzero_count() == len(expected)
    assert to_pseudo_probabilities(w) == p


@st.composite
def _wide_sparse_entries(draw):
    """Up to 8 nonzero entries over as many as 24 elements, each mask of at most
    10 members, so the down-closure stays small where 2^n does not."""
    n = draw(st.integers(min_value=1, max_value=24))
    mask = st.sets(st.integers(min_value=0, max_value=n - 1), max_size=10).map(
        lambda bits: sum(1 << b for b in bits)
    )
    value = st.builds(
        F,
        st.integers(min_value=-60, max_value=60).filter(bool),
        st.sampled_from(_DENOMINATORS),
    )
    return n, draw(st.dictionaries(mask, value, max_size=8))


@pytest.mark.parametrize(
    "kind, transform, alternating",
    [
        (MOMENTS, to_pseudo_probabilities, True),
        (PSEUDO_PROBABILITIES, from_pseudo_probabilities, False),
    ],
)
@settings(max_examples=40, deadline=None)
@given(case=_wide_sparse_entries())
def test_transforms_on_wide_ground_sets_stay_in_the_down_closure(
    kind, transform, alternating, case
):
    # Each output entry is the literal sum over the stored S containing U of
    # (+-1) * v_S, and no output mask falls outside the down-closure of the
    # input support, at ground sizes a 2^n pass could not hold.
    n, entries = case
    closure = set()
    for s_mask in entries:
        sub = s_mask
        while True:
            closure.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & s_mask
    out = dict(transform(LatticeVector(n, kind, entries)).items())
    assert set(out) <= closure
    for u in closure:
        expected = sum(
            (-v if alternating and (s_mask ^ u).bit_count() & 1 else v)
            for s_mask, v in entries.items()
            if u & ~s_mask == 0
        )
        assert out.get(u, 0) == expected


def test_transform_kind_checks():
    w = LatticeVector(2, MOMENTS, {0: 1})
    p = LatticeVector(2, PSEUDO_PROBABILITIES, {0: 1})
    with pytest.raises(LatticeError):
        to_pseudo_probabilities(p)
    with pytest.raises(LatticeError):
        from_pseudo_probabilities(w)


# ---------------------------------------------------------------------------
# linear constraints
# ---------------------------------------------------------------------------


def test_linear_constraint_values():
    g = LinearConstraint(3, {1: 1, 2: "1/2", 3: 1}, constant="-1/4")
    assert g.constant == F(-1, 4)
    assert g.weights == {1: 1, 2: F(1, 2), 3: 1}
    # L = 4; g({}) = -1/4 and g({1,3}) = 7/4, g({1,2}) = 5/4
    assert g.scaled_values([0, 0b101, 0b011]) == (4, [-1, 7, 5])


def test_constraint_drops_zero_coefficients():
    g = LinearConstraint(2, {1: 0, 2: "1"})
    assert g.weights == {2: 1}
    assert g == LinearConstraint(2, {2: 1})
    assert g != LinearConstraint(2, {2: 1}, constant=1)


def test_constraint_rejects_out_of_range_elements():
    with pytest.raises(LatticeError):
        LinearConstraint(2, {3: 1})
