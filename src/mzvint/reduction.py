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
The image of each single index is cached as ``(den, ((index, num), ...))``
in lowest terms with den > 0; a combination is summed in ints over the lcm
of its denominators (``indices.integer_sum``), with Fractions for its output.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .indices import Index, IndexSum, IndexSumLike, as_index_sum, integer_sum
from .rationals import bernoulli

__all__ = ["reduce_step", "pi_plus"]


def _reduction_position(k: Index) -> int | None:
    """Minimal 1-based position m < depth(k) with k_m <= 0, if any."""
    for i in range(len(k) - 1):
        if k[i] <= 0:
            return i + 1
    return None


def _reduce_at(k: Index, m: int) -> list[tuple[Index, Fraction]]:
    km = k[m - 1]
    n = -km  # >= 0
    inv = Fraction(1, n + 1)
    terms: list[tuple[Index, Fraction]] = []
    for i in range(n + 1):
        coeff = inv * comb(n + 1, i) * bernoulli(i, "minus")
        if coeff:
            merged_up = k[: m - 1] + (k[m] + km - 1 + i,) + k[m + 1 :]
            terms.append((merged_up, coeff))
    if km == 0:
        terms.append((k[: m - 1] + k[m:], Fraction(-1)))
    if m >= 2:
        for i in range(n + 1):
            coeff = -inv * comb(n + 1, i) * bernoulli(i, "plus")
            if coeff:
                merged_down = k[: m - 2] + (k[m - 2] + km - 1 + i,) + k[m:]
                terms.append((merged_down, coeff))
    return terms


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
    return IndexSum(_reduce_at(k, m))


@lru_cache(maxsize=None)
def _pi_plus_index(k: Index) -> tuple[int, tuple[tuple[Index, int], ...]]:
    m = _reduction_position(k)
    if m is None:
        return 1, ((k, 1),)
    den, nums = integer_sum((c, *_pi_plus_index(index)) for index, c in _reduce_at(k, m))
    return den, tuple(nums.items())


def pi_plus(a: IndexSumLike) -> IndexSum:
    """Linear fixed point of :func:`reduce_step`.

    Total on all index combinations: indices whose entries before the last
    are already positive (in particular every depth <= 1 index) map to
    themselves. Admissible input yields admissible positive support;
    regularizable input yields positive support. Idempotent by construction.
    """
    return IndexSum._over(*integer_sum((c, *_pi_plus_index(index)) for index, c in as_index_sum(a)))
