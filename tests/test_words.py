"""The word encoding of indices: blocks, the bijection, and letter counts."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from mzvint.words import EMPTY_WORD, index_from_word, is_wy, length, word_from_index

indices = st.lists(st.integers(-5, 5), max_size=6).map(tuple)


def test_word_from_index_examples():
    assert word_from_index((0,)) == (0, 0)  # y
    assert word_from_index((1, 0)) == (0, 1, 0)  # yjy
    assert word_from_index((-1, 2)) == (2, -1, 0)  # jjydy
    assert word_from_index(()) == EMPTY_WORD


def test_index_from_word_examples():
    assert index_from_word((0, 1, 0)) == (1, 0)
    assert index_from_word(EMPTY_WORD) == ()
    assert index_from_word((2, 0)) == (2,)


def test_index_from_word_rejects_non_wy():
    # j, d, jjyd, yj
    for w in ((1,), (-1,), (2, -1), (0, 1)):
        assert not is_wy(w)
        with pytest.raises(ValueError):
            index_from_word(w)


@given(indices)
def test_round_trip_index_to_word(k):
    w = word_from_index(k)
    assert is_wy(w)
    assert len(w) - 1 == len(k)  # one y letter per entry
    assert index_from_word(w) == k


@given(indices)
def test_round_trip_word_to_index(k):
    w = word_from_index(k)
    assert word_from_index(index_from_word(w)) == w


def test_length_examples():
    assert length((0, 0)) == 1  # y
    assert length((2, -1, 0)) == 5  # jjydy
    assert length(EMPTY_WORD) == 0


@given(indices)
def test_length_of_index_word(k):
    # r y-letters plus the absolute exponents
    assert length(word_from_index(k)) == sum(abs(e) for e in k) + len(k)
