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
first block, so every term ends in y and is kept as its index. Arguments
are put in a canonical order first (the smaller blocks tuple on the left;
the output depends on this order), which makes the procedure symmetric and
lets the memo table use an unordered pair as its key. On random pairs the
recursion has never gone more than one level deeper than the two words
have letters (the tests check this), so it needs no budget of its own;
``MAX_LETTERS`` in ``mzvint.cli`` keeps command-line input below CPython's
frame limit.

The unit rule and the y-rule run as a loop in front of the memo, not as
levels of the recursion: the value of a pair with a leading y is its
child's value with a zero block in front, so only the pairs that the d- and
j-rules open are memoized, and the zero blocks are put back, as zero
entries at the end of the index, as each term is built. A memo entry is two
parallel tuples, the indices of the terms' words and their integer
coefficients; the keys and the rules stay on words. So no term is converted
back from its word, and a product with no leading y takes the entry's own
tuples as its keys.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from .indices import MEMO_TABLES, Index, IndexSum, IndexSumLike, add_term, bilinear

__all__ = ["Blocks", "EMPTY_WORD", "word_from_index", "index_from_word", "shuffle"]

Blocks = tuple[int, ...]
EMPTY_WORD: Blocks = (0,)
# the terms' indices and their integer coefficients, as two parallel tuples
Entry = tuple[tuple[Index, ...], tuple[int, ...]]


def word_from_index(k: Index) -> Blocks:
    """The word of an index: the entries reversed, then a final zero block."""
    return tuple(k)[::-1] + (0,)


def index_from_word(w: Blocks) -> Index:
    """Inverse of :func:`word_from_index`; raises on a word not ending in y."""
    if w[-1] != 0:
        raise ValueError(f"word {w} does not end in y and has no index")
    return w[-2::-1]


# Expansion results keyed by the sorted pair, in which neither word is empty
# nor starts with y: a y-node is never stored. Each value is an ``Entry``.
# Entries are only ever written complete, so a racing reader sees either
# nothing or the final value.
_MEMO: dict[tuple[Blocks, Blocks], Entry] = {}
MEMO_TABLES.append(_MEMO)


def _expand(bu: Blocks, bv: Blocks) -> tuple[Blocks, Entry]:
    """``(prefix, entry)`` with bu # bv = sum of coeff times the word
    prefix + ``word_from_index(index)`` over ``zip(*entry)``: ``prefix``
    holds the zero blocks of the leading y letters, pulled out by the unit
    rule and the y-rule in a loop."""
    prefix: Blocks = ()
    while True:
        if bu == EMPTY_WORD:
            return prefix, ((index_from_word(bv),), (1,))
        if bv == EMPTY_WORD:
            return prefix, ((index_from_word(bu),), (1,))
        if bv < bu:
            bu, bv = bv, bu
        if bu[0] == 0:
            bu = bu[1:]
        elif bv[0] == 0:
            bv = bv[1:]
        else:
            break
        prefix += (0,)
    key = (bu, bv)
    cached = _MEMO.get(key)
    if cached is not None:
        return prefix, cached

    hu, hv = bu[0], bv[0]
    # The product is symmetric, so each rule that applies to either factor
    # first moves that factor to the left.
    if hu < 0 or hv < 0:  # a factor starts with a d-run of length n
        if hu > 0:
            bu, bv = bv, bu
        n = -bu[0]
        # d^n y w # v = sum_t (-1)^t C(n,t) d^(n-t) y (w # d^t v): every term
        # of child t ends in the entry t - n, so no two children share an
        # index, a child's indices are distinct and no coefficient is zero,
        # and the children's terms are concatenated, not summed
        keys: list[Index] = []
        coeffs: list[int] = []
        for t in range(n + 1):
            scale = comb(n, t) if t % 2 == 0 else -comb(n, t)
            child_prefix, (indices, child_coeffs) = _expand(bu[1:], (bv[0] - t,) + bv[1:])
            tail = child_prefix + (t - n,)
            keys += [index + tail for index in indices]
            coeffs += [scale * c for c in child_coeffs]
        entry = (tuple(keys), tuple(coeffs))
    else:  # both factors start with j
        # j raises the first block: the index's last entry, or under a prefix
        # of y letters the last of the zero entries that the prefix appends
        out: dict[Index, int] = {}
        for left, right in (((hu - 1,) + bu[1:], bv), (bu, (hv - 1,) + bv[1:])):
            child_prefix, (indices, child_coeffs) = _expand(left, right)
            for index, c in zip(indices, child_coeffs):
                index += child_prefix
                add_term(out, index[:-1] + (index[-1] + 1,), c)
        entry = (tuple(out), tuple(out.values()))
    _MEMO[key] = entry
    return prefix, entry


def _pair(k: Index, k2: Index) -> Iterator[tuple[Index, int]]:
    # lazy: bilinear gathers all pairs before summing, so a list would copy every memo entry
    prefix, entry = _expand(word_from_index(k), word_from_index(k2))
    if not prefix:
        return zip(*entry)
    return ((index + prefix, coeff) for index, coeff in zip(*entry))


def shuffle(a: IndexSumLike, b: IndexSumLike) -> IndexSum:
    """Bilinear extension of the word shuffle to index combinations."""
    return bilinear(a, b, _pair)
