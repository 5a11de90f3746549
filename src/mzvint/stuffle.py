"""Stuffle (quasi-shuffle) product on integer indices.

The recursion peels last entries: with a, b the last entries of the two
factors,

    (head, a) * (head', b) = (head * (head', b), a)
                           + ((head, a) * head', b)
                           + (head * head', a + b)

and the empty index is the unit. Single-index inputs always produce integer
coefficients. Results are memoized on the unordered index pair, which is
sound because the recursion is symmetric in its two arguments.
"""

from __future__ import annotations

from .indices import Index, IndexSum, IndexSumLike, add_term, bilinear, memo

__all__ = ["stuffle"]


def _pair(k: Index, k2: Index) -> tuple[tuple[Index, int], ...]:
    # Depth-0 bases short-circuit before any peeling of last entries.
    if not k:
        return ((k2, 1),)
    if not k2:
        return ((k, 1),)
    if k2 < k:
        k, k2 = k2, k
    return _pair_sorted(k, k2)


@memo
def _pair_sorted(k: Index, k2: Index) -> tuple[tuple[Index, int], ...]:
    a, b = k[-1], k2[-1]
    out: dict[Index, int] = {}
    for tail_entry, sub in ((a, _pair(k[:-1], k2)), (b, _pair(k, k2[:-1])), (a + b, _pair(k[:-1], k2[:-1]))):
        for index, coeff in sub:
            add_term(out, index + (tail_entry,), coeff)
    return tuple(out.items())


def stuffle(a: IndexSumLike, b: IndexSumLike) -> IndexSum:
    """Bilinear extension of the index-pair recursion."""
    return bilinear(a, b, _pair)
