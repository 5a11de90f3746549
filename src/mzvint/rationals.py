"""Exact Bernoulli numbers.

Every value produced here is a :class:`fractions.Fraction` (arbitrary
precision, normalized to lowest terms with positive denominator). Nothing in
this module touches floating point; the series oracles downstream depend on
that.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .indices import MEMO_TABLES

__all__ = ["bernoulli"]


_bernoulli_lower: dict[int, Fraction] = {}  # B_n by n; a miss at n fills B_0..B_n, and B_(n+1) = 0 for even n
MEMO_TABLES.append(_bernoulli_lower)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B^-_n, the family generated by t/(e^t-1), so
    B_1 = -1/2. The other family, generated by t/(1-e^{-t}), is
    B^+_n = (-1)^n B^-_n: the two differ only at n = 1.

    Values are memoized; concurrent callers may at worst recompute a value,
    never observe a different one.
    """
    if n < 0:
        raise ValueError(f"Bernoulli index must be non-negative, got {n}")
    value = _bernoulli_lower.get(n)
    if value is not None:
        return value
    # B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the integer tangent numbers
    # T_1..T_(n/2) of one triangle (Brent-Harvey 2011, algorithm TangentNumbers)
    t = [factorial(j) for j in range(n // 2)]  # t[j] is T_(j+1) once every pass is done
    for i in range(1, len(t)):
        for j in range(i, len(t)):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    values = {0: Fraction(1), 1: Fraction(-1, 2), **dict.fromkeys(range(3, n + 2, 2), Fraction(0))}
    for k, tk in enumerate(t, 1):  # an ascending fill builds each Fraction once
        values[2 * k] = _bernoulli_lower.get(2 * k) or Fraction((-1) ** (k - 1) * 2 * k * tk, 4**k * (4**k - 1))
    _bernoulli_lower.update(values)
    return values[n]
