"""Elimination of non-positive interior entries from integer indices.

A single step removes the leftmost non-positive entry k_m (m strictly before
the last position) by a power-sum expansion, producing a combination of
depth-(r-1) indices built from three families:

* merge upward:   entry m absorbed into m+1 as k_{m+1} + k_m - 1 + i, with
  coefficient C(-k_m+1, i) * B^-_i / (-k_m+1) for i = 0..-k_m;
* delete:         entry m dropped, with coefficient -1, only when k_m = 0;
* merge downward: entry m absorbed into m-1 as k_{m-1} + k_m - 1 + i, with
  coefficient -C(-k_m+1, i) * B^+_i / (-k_m+1); the whole family vanishes
  when m = 1 (there is no lower neighbour and the boundary sum is empty).

Iterating the step to its fixed point is a linear, idempotent projection:
every output index has all entries before the last positive, the last entry
is never rewritten, and the defining power-series identity is preserved
exactly at every stage (module ``series`` verifies this coefficientwise).
One step is an integer row over (1 - k_m) * lcm(den B_0..B_{-k_m}). The image
of each single index is cached as ``(den, ((index, num), ...))`` in lowest
terms with den > 0; a combination is summed in ints over the lcm of its
denominators (``indices.integer_sum``) into an ``IndexSum``, which stores
that same form: no Fraction is built on the way.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm

from .indices import Index, IndexSum, IndexSumLike, integer_form, integer_sum
from .rationals import bernoulli

__all__ = ["reduce_step", "pi_plus"]


def _reduction_position(k: Index) -> int | None:
    """Minimal 1-based position m < depth(k) with k_m <= 0, if any."""
    for i in range(len(k) - 1):
        if k[i] <= 0:
            return i + 1
    return None


def _reduce_at(k: Index, m: int) -> tuple[int, list[tuple[Index, int]]]:
    # B^+_i = (-1)^i B^-_i, and B^-_i = 0 for odd i > 1, so B^+_i = B^-_i
    # except B^+_1 = -B^-_1: one lookup per i serves both families
    km = k[m - 1]
    n = -km  # >= 0
    bs = [bernoulli(i) for i in range(n + 1)]
    scale = lcm(*(b.denominator for b in bs))
    nums = [(i, comb(n + 1, i) * b.numerator * (scale // b.denominator)) for i, b in enumerate(bs) if b]
    den = (n + 1) * scale
    row = [(k[: m - 1] + (k[m] + km - 1 + i,) + k[m + 1 :], num) for i, num in nums]
    if km == 0:
        row.append((k[: m - 1] + k[m:], -den))
    if m >= 2:
        row += [(k[: m - 2] + (k[m - 2] + km - 1 + i,) + k[m:], num if i == 1 else -num) for i, num in nums]
    return den, row


def reduce_step(k: Index) -> IndexSum:
    """One elimination step at the leftmost non-positive interior position.

    Raises ValueError when no such position exists (all entries before the
    last are positive); such indices are already fixed points.
    """
    k = tuple(k)
    m = _reduction_position(k)
    if m is None:
        raise ValueError(
            f"index {k} has no non-positive entry before its last position; nothing to reduce"
        )
    return IndexSum._over(*integer_sum(((1, *_reduce_at(k, m)),)))


@lru_cache(maxsize=None)
def _pi_plus_index(k: Index) -> tuple[int, tuple[tuple[Index, int], ...]]:
    m = _reduction_position(k)
    if m is None:
        return 1, ((k, 1),)
    den, row = _reduce_at(k, m)
    den, nums = integer_sum((c, den * d, items) for index, c in row for d, items in (_pi_plus_index(index),))
    return den, tuple(nums.items())


def pi_plus(a: IndexSumLike) -> IndexSum:
    """Linear fixed point of :func:`reduce_step`.

    Total on all index combinations: indices whose entries before the last
    are already positive (in particular every depth <= 1 index) map to
    themselves. Admissible input yields admissible positive support;
    regularizable input yields positive support. Idempotent by construction.
    """
    den, terms = integer_form(a)
    parts = ((c, den * d, items) for index, c in terms for d, items in (_pi_plus_index(index),))
    return IndexSum._over(*integer_sum(parts))
