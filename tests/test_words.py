"""The word encoding of indices: blocks and the bijection."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from mzvint.shuffle import EMPTY_WORD, index_from_word, word_from_index

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
        with pytest.raises(ValueError):
            index_from_word(w)


@given(indices)
def test_round_trip_index_to_word(k):
    w = word_from_index(k)
    assert len(w) - 1 == len(k)  # one y letter per entry
    assert index_from_word(w) == k


@given(indices)
def test_round_trip_word_to_index(k):
    w = word_from_index(k)
    assert word_from_index(index_from_word(w)) == w
