"""Shuffle product on integer indices via recursive word rewriting.

A word over the letters {j, d, y} modulo the cancellation jd = dj = 1 is
stored as its exponent blocks ``(a_1, ..., a_s)``, meaning
``j^{a_1} y j^{a_2} y ... y j^{a_s}``, where a negative exponent is a run
of d. Cancellation adds exponents, so a blocks tuple is a normal form; the
empty word is ``(0,)``. Words ending in y (last block zero) are in
bijection with integer indices: the word of ``(k_1, ..., k_r)`` is
``j^{k_r} y j^{k_{r-1}} y ... j^{k_1} y``, so prepending j raises the last
entry, d lowers it and y appends a zero entry.

The recursion applies, in fixed priority order:

* unit:    1 # w = w # 1 = w
* y-rule:  a leading y on either factor is pulled out front,
           yu # v = u # yv = y(u # v)
* d-rule:  a maximal leading run d^n is eliminated through the closed
           Leibniz expansion
           d^n u # v = sum_{t=0}^{n} (-1)^t C(n,t) d^{n-t}(u # d^t v)
           (and its mirror image when the run is on the right factor)
* j-rule:  ju # jv = j(u # jv) + j(ju # v)

The quotient by the words that do not end in y never has to act: both
factors end in y, at least one is not empty, and every rule edits only the
first block, so every term ends in y (``index_from_word`` raises on any
other word). Arguments are put in a canonical order first (the smaller
blocks tuple on the left; the output depends on this order), which makes
the procedure symmetric and lets the memo table use an unordered pair as
its key. On random pairs the recursion has never gone more than one level
deeper than the two words have letters (the tests check this), so it needs
no budget of its own; ``MAX_LETTERS`` in ``mzvint.cli`` keeps command-line
input below CPython's frame limit.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from .indices import Index, IndexSum, IndexSumLike, add_term, bilinear

__all__ = ["Blocks", "EMPTY_WORD", "word_from_index", "index_from_word", "shuffle"]

Blocks = tuple[int, ...]
EMPTY_WORD: Blocks = (0,)


def word_from_index(k: Index) -> Blocks:
    """The word of an index: the entries reversed, then a final zero block."""
    return tuple(k)[::-1] + (0,)


def index_from_word(w: Blocks) -> Index:
    """Inverse of :func:`word_from_index`; raises on a word not ending in y."""
    if w[-1] != 0:
        raise ValueError(f"word {w} does not end in y and has no index")
    return w[-2::-1]


# Expansion results keyed by the (sorted) argument pair; values are tuples of
# (blocks, integer coefficient). Entries are only ever written complete, so a
# racing reader sees either nothing or the final value.
_MEMO: dict[tuple[Blocks, Blocks], tuple[tuple[Blocks, int], ...]] = {}


def _expand(bu: Blocks, bv: Blocks) -> tuple[tuple[Blocks, int], ...]:
    if bu == EMPTY_WORD:
        return ((bv, 1),)
    if bv == EMPTY_WORD:
        return ((bu, 1),)
    if bv < bu:
        bu, bv = bv, bu
    key = (bu, bv)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached

    out: dict[Blocks, int] = {}
    hu, hv = bu[0], bv[0]
    # The product is symmetric, so each rule that applies to either factor
    # first moves that factor to the left.
    if hu == 0 or hv == 0:  # a factor starts with y (it is not empty here)
        if hu:
            bu, bv = bv, bu
        for blocks, coeff in _expand(bu[1:], bv):
            add_term(out, (0,) + blocks, coeff)
    elif hu < 0 or hv < 0:  # a factor starts with a d-run of length n
        if hu > 0:
            bu, bv = bv, bu
        n = -bu[0]
        rest = (0,) + bu[1:]
        for t in range(n + 1):
            coeff = comb(n, t) if t % 2 == 0 else -comb(n, t)
            shifted = (bv[0] - t,) + bv[1:]
            for blocks, inner in _expand(rest, shifted):
                add_term(out, (blocks[0] - (n - t),) + blocks[1:], coeff * inner)
    else:  # both factors start with j
        for blocks, coeff in _expand((hu - 1,) + bu[1:], bv):
            add_term(out, (blocks[0] + 1,) + blocks[1:], coeff)
        for blocks, coeff in _expand(bu, (hv - 1,) + bv[1:]):
            add_term(out, (blocks[0] + 1,) + blocks[1:], coeff)

    result = tuple(out.items())
    _MEMO[key] = result
    return result


def _pair(k: Index, k2: Index) -> Iterator[tuple[Index, int]]:
    # lazy: bilinear gathers all pairs before summing, so a list would copy every memo entry
    terms = _expand(word_from_index(k), word_from_index(k2))
    return ((index_from_word(blocks), coeff) for blocks, coeff in terms)


def shuffle(a: IndexSumLike, b: IndexSumLike) -> IndexSum:
    """Bilinear extension of the word shuffle to index combinations."""
    return bilinear(a, b, _pair)
