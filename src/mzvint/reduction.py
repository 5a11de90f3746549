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
One step is an integer row over (1 - k_m) * lcm(den B_0..B_{-k_m}), whose
Bernoulli part is cached per n = -k_m. π⁺ of a combination ``(den,
{index: num})`` is one loop: each round steps the deepest indices with a
non-positive entry before their last and adds the untouched terms, in one
``indices.integer_sum``. A step lowers depth by exactly 1, so equal
intermediates merge or cancel before they are stepped: each distinct index
is stepped once, with no recursion. π⁺ of each index asked for singly is
cached in that form, in lowest terms with den > 0, the form an ``IndexSum``
stores: no Fraction is built on the way.
"""

from __future__ import annotations

from math import comb, lcm

from .indices import Index, IndexSum, IndexSumLike, format_index, integer_sum, memo
from .rationals import bernoulli

__all__ = ["reduce_step", "pi_plus"]


def _reduction_position(k: Index) -> int | None:
    """Minimal 1-based position m < depth(k) with k_m <= 0, if any."""
    for i in range(len(k) - 1):
        if k[i] <= 0:
            return i + 1
    return None


@memo
def _row(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``(den, ((i, num), ...))`` with num/den = C(n+1, i) * B^-_i / (n+1),
    den = (n+1) * lcm(den B_0..B_n), for the i in 0..n with B_i != 0: every
    odd i > 1 is left out."""
    bernoulli(n)  # B_n first: its one pass fills B_0..B_n
    bs = [(i, bernoulli(i)) for i in range(n + 1) if i < 2 or i % 2 == 0]
    scale = lcm(*(b.denominator for _, b in bs))
    return (n + 1) * scale, tuple((i, comb(n + 1, i) * b.numerator * (scale // b.denominator)) for i, b in bs)


def _reduce_at(k: Index, m: int) -> tuple[int, list[tuple[Index, int]]]:
    # B^+_i = (-1)^i B^-_i, and B^-_i = 0 for odd i > 1, so B^+_i = B^-_i
    # except B^+_1 = -B^-_1: one row entry per i serves both families
    km = k[m - 1]
    den, nums = _row(-km)
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
            f"index {format_index(k)} has no non-positive entry before its last position; nothing to reduce"
        )
    return IndexSum._over(*integer_sum(((1, *_reduce_at(k, m)),)))


def _eliminate(den: int, nums: dict[Index, int]) -> tuple[int, dict[Index, int]]:
    """π⁺ of the combination ``(den, nums)``, in the same form: while some
    index has a non-positive entry before its last, step the deepest such
    indices and add the untouched terms, in one ``integer_sum`` per round."""
    while True:
        steps = {k: m for k in nums if (m := _reduction_position(k))}
        if not steps:
            return den, nums
        depth = max(map(len, steps))
        steps = {k: m for k, m in steps.items() if len(k) == depth}
        parts = [(1, den, [(k, c) for k, c in nums.items() if k not in steps])]
        for k, m in steps.items():
            d, row = _reduce_at(k, m)
            parts.append((nums[k], den * d, row))
        den, nums = integer_sum(parts)


@memo
def _pi_plus_index(k: Index) -> tuple[int, tuple[tuple[Index, int], ...]]:
    den, nums = _eliminate(1, {k: 1})
    return den, tuple(nums.items())


def pi_plus(a: IndexSumLike) -> IndexSum:
    """Linear fixed point of :func:`reduce_step`.

    Total on all index combinations: indices whose entries before the last
    are already positive (in particular every depth <= 1 index) map to
    themselves. Admissible input yields admissible positive support;
    regularizable input yields positive support. Idempotent by construction.
    """
    if isinstance(a, IndexSum):
        return IndexSum._over(*_eliminate(a._den, a._nums))
    den, items = _pi_plus_index(tuple(a))
    return IndexSum._over(den, dict(items))
