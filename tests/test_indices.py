"""Index data model: classification, tails, and linear combinations."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mzvint.indices import (
    INFINITY,
    IndexClass,
    IndexSum,
    classify,
    depth,
    format_index,
    m_index,
    m_of_sum,
    tail_index,
    terms_json,
    weight,
)

indices = st.lists(st.integers(-5, 5), max_size=5).map(tuple)
coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
index_sums = st.lists(st.tuples(indices, coeffs), max_size=5).map(IndexSum)


def test_weight_examples():
    assert weight((1, 2, 3)) == 6
    assert weight(()) == 0
    assert weight((-2, 5)) == 3


def test_depth_examples():
    assert depth((1, 2, 3)) == 3
    assert depth(()) == 0
    assert depth((0,)) == 1


def test_tail_index_examples():
    assert tail_index((1, -2, 3), 2) == (-2, 3)
    assert tail_index((1, -2, 3), 1) == (1, -2, 3)
    assert tail_index((5,), 1) == (5,)


def test_tail_index_out_of_range():
    with pytest.raises(ValueError):
        tail_index((1, 2), 0)
    with pytest.raises(ValueError):
        tail_index((1, 2), 3)
    with pytest.raises(ValueError):
        tail_index((), 1)


def test_m_index_examples():
    assert m_index((0,)) == -1
    assert m_index(()) == INFINITY
    assert m_index((-2, 5)) == 1


@given(indices)
def test_m_index_is_min_over_tails(k):
    if not k:
        assert m_index(k) == INFINITY
    else:
        tails = [tail_index(k, t) for t in range(1, depth(k) + 1)]
        assert m_index(k) == min(weight(t) - depth(t) for t in tails)


@given(indices, st.integers(-5, 5))
def test_m_index_append_formula(k, c):
    # growing an index by one entry: m(k + (c,)) = min(m(k) + c - 1, c - 1)
    assert m_index(k + (c,)) == min(m_index(k) + c - 1, c - 1)


def test_classify_examples():
    assert classify((2,)) is IndexClass.ADMISSIBLE
    assert classify((1,)) is IndexClass.REGULARIZABLE_ONLY
    assert classify((0, 3)) is IndexClass.ADMISSIBLE
    assert classify((0,)) is IndexClass.NON_REGULARIZABLE
    assert classify(()) is IndexClass.ADMISSIBLE


@given(st.lists(st.integers(1, 6), min_size=1, max_size=5))
def test_positive_index_admissible_iff_last_entry_exceeds_one(entries):
    k = tuple(entries)
    if k[-1] > 1:
        assert m_index(k) > 0
    else:
        assert m_index(k) == 0


def test_m_of_sum_examples():
    assert m_of_sum(IndexSum([((0,), 1), ((2,), 1)])) == -1
    assert m_of_sum(IndexSum()) == INFINITY
    assert m_of_sum(IndexSum([((2,), Fraction(1, 2)), ((3,), Fraction(-1, 2))])) == 1


def test_infinity_sentinel_arithmetic():
    assert INFINITY + 5 == INFINITY
    assert INFINITY > 10**9
    assert min(INFINITY, -3) == -3


# ---------------------------------------------------------------------------
# IndexSum: rational vector space


def test_zero_coefficients_pruned():
    s = IndexSum([((1,), Fraction(1, 2)), ((1,), Fraction(-1, 2)), ((2,), 0)])
    assert not s
    assert s.support() == frozenset()
    assert len(s) == 0


def test_accumulation_merges_duplicate_indices():
    s = IndexSum([((1, 2), 1), ((1, 2), 2), ((3,), 1)])
    assert s.coefficient((1, 2)) == 3
    assert s.coefficient((3,)) == 1
    assert s.coefficient((9,)) == 0


@given(index_sums, index_sums, index_sums)
def test_addition_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(index_sums)
def test_zero_is_neutral_and_negation_cancels(a):
    zero = IndexSum()
    assert a + zero == a
    assert a + (-a) == zero
    assert a - a == zero


@given(index_sums, coeffs, coeffs)
def test_scalar_action(a, x, y):
    assert x * (y * a) == (x * y) * a
    assert (x + y) * a == x * a + y * a
    assert 1 * a == a
    assert 0 * a == IndexSum()


@given(index_sums, index_sums, coeffs)
def test_scalar_distributes_over_sums(a, b, x):
    assert x * (a + b) == x * a + x * b


# The reference for the integer storage: a plain {index: Fraction} dict.
int_or_fraction = st.one_of(st.integers(-6, 6), coeffs)
term_lists = st.lists(st.tuples(indices, int_or_fraction), max_size=6)


def _reference(terms) -> dict:
    ref: dict = {}
    for index, c in terms:
        ref[index] = ref.get(index, 0) + Fraction(c)
    return {index: c for index, c in ref.items() if c}


def _assert_stored(s: IndexSum, ref: dict) -> None:
    # canonical form: den > 0, no zero numerator, gcd 1; Fractions at the edges
    assert type(s._den) is int and s._den > 0
    assert all(type(num) is int and num for num in s._nums.values())
    assert math.gcd(s._den, *s._nums.values()) == 1
    assert dict(s) == ref
    assert all(type(c) is Fraction for _, c in s)


@given(term_lists, st.randoms(use_true_random=False))
def test_index_sum_storage_is_canonical(terms, rnd):
    s = IndexSum(terms)
    _assert_stored(s, _reference(terms))
    permuted = rnd.sample(terms, len(terms))
    halves = [(index, Fraction(c) / 2) for index, c in permuted for _ in range(2)]
    as_fractions = [(index, Fraction(c)) for index, c in terms]
    as_ints = [(index, int(c) if Fraction(c).denominator == 1 else c) for index, c in as_fractions]
    for other in (IndexSum(permuted), IndexSum(halves), IndexSum(as_fractions), IndexSum(as_ints)):
        assert other == s and hash(other) == hash(s)


@given(term_lists, term_lists, int_or_fraction)
def test_index_sum_arithmetic_matches_reference(t1, t2, x):
    a, b = IndexSum(t1), IndexSum(t2)
    ra = _reference(t1)
    _assert_stored(a + b, _reference(t1 + t2))
    _assert_stored(a - b, _reference(t1 + [(index, -Fraction(c)) for index, c in t2]))
    _assert_stored(-a, {index: -c for index, c in ra.items()})
    scaled = _reference([(index, x * Fraction(c)) for index, c in t1])
    _assert_stored(x * a, scaled)
    _assert_stored(a * x, scaled)
    for index in {*ra, *_reference(t2), (9, 9)}:
        c = a.coefficient(index)
        assert type(c) is Fraction and c == ra.get(index, 0)
    assert a.terms() == sorted(ra.items(), key=lambda item: (len(item[0]), item[0]))
    assert json.loads(terms_json(a))["terms"] == [
        {"coeff": str(c), "index": list(index)} for index, c in a.terms()
    ]


def test_canonical_term_order_by_depth_then_lex():
    s = IndexSum([((2, 1), 1), ((5,), 1), ((1, 4), 1), ((), 1), ((1,), 1)])
    assert [k for k, _ in s.terms()] == [(), (1,), (5,), (1, 4), (2, 1)]


def test_json_round_trip_and_shape():
    s = IndexSum([((2,), 1), ((3,), -1)])
    data = json.loads(terms_json(s))
    assert data == {
        "terms": [
            {"coeff": "1", "index": [2]},
            {"coeff": "-1", "index": [3]},
        ]
    }


def test_terms_json_same_text_with_the_index_table_cold_or_warm():
    from mzvint import clear_caches
    from mzvint.indices import _coeff_head, _index_tail

    s = IndexSum([((), Fraction(1, 6)), ((-2, 3), Fraction(-5, 6)), ((4, -1, 0), Fraction(3, 2)), ((1,), -1)])
    t = IndexSum([((-2, 3), 2), ((7,), -1), ((), Fraction(1, 6))])
    sums = (s, t, s - t)
    assert s._den == 6 and t._den == 6
    reference = [
        json.dumps({"terms": [{"coeff": str(c), "index": list(k)} for k, c in x.terms()]}, separators=(",", ":"))
        for x in sums
    ]
    clear_caches()
    # both text tables, the index texts and the coefficient texts, start cold
    assert _index_tail.cache_info().currsize == _coeff_head.cache_info().currsize == 0
    cold = [terms_json(x) for x in sums]
    assert cold == [terms_json(x) for x in sums] == reference
    clear_caches()


def test_pretty_rendering():
    s = IndexSum([((2,), 1), ((3,), -1)])
    assert s.pretty() == "1·(2) - 1·(3)"
    assert IndexSum().pretty() == "0"
    assert IndexSum.single((1, 2), Fraction(-1, 2)).pretty() == "-1/2·(1,2)"


def test_format_index():
    assert format_index((0, 3)) == "(0,3)"
    assert format_index(()) == "()"
