"""The word encoding of integer indices, used by the shuffle product.

A word over the letters {j, d, y} modulo the cancellation jd = dj = 1 is
stored as its exponent blocks ``(a_1, ..., a_s)``, meaning
``j^{a_1} y j^{a_2} y ... y j^{a_s}``: a negative exponent is a run of d and
exponent zero the empty run. Cancellation is the addition of exponents, so
a blocks tuple is already a normal form and distinct tuples are distinct
words. The empty word is ``(0,)``.

Words ending in y (last block zero) are in bijection with integer indices:
the word of ``(k_1, ..., k_r)`` is ``j^{k_r} y j^{k_{r-1}} y ... j^{k_1} y``,
i.e. the blocks read the index backwards with a trailing zero block.
Prepending a letter acts on the last index entry: j raises it, d lowers it,
y appends a fresh zero entry.
"""

from __future__ import annotations

from .indices import Index

__all__ = ["Blocks", "EMPTY_WORD", "word_from_index", "index_from_word", "length", "is_wy"]

Blocks = tuple[int, ...]

EMPTY_WORD: Blocks = (0,)


def word_from_index(k: Index) -> Blocks:
    """The word of an index: the entries reversed, then a final zero block."""
    return tuple(k)[::-1] + (0,)


def index_from_word(w: Blocks) -> Index:
    """Inverse of :func:`word_from_index`.

    Only words ending in y (the empty word included) correspond to indices;
    any other word is rejected rather than silently projected.
    """
    if w[-1] != 0:
        raise ValueError(f"word {w} does not end in y and has no index")
    return w[-2::-1]


def length(w: Blocks) -> int:
    """Letter count of the word: y letters plus absolute exponents."""
    return sum(map(abs, w)) + len(w) - 1


def is_wy(w: Blocks) -> bool:
    """True for words with an index: the empty word or a word ending in y."""
    return w[-1] == 0
