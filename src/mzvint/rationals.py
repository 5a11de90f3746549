"""Exact rational helpers: Bernoulli numbers and rational text forms.

Every value produced here is a :class:`fractions.Fraction` (arbitrary
precision, normalized to lowest terms with positive denominator). Nothing in
this module touches floating point; the series oracles downstream depend on
that.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Literal

__all__ = ["Sign", "bernoulli", "format_rational"]

Sign = Literal["plus", "minus"]


@lru_cache(maxsize=None)
def _bernoulli_lower(n: int) -> Fraction:
    # "minus" convention (B_1 = -1/2); B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from
    # the integer tangent numbers T_k (Brent-Harvey 2011, algorithm TangentNumbers)
    if n < 2 or n % 2:
        return {0: Fraction(1), 1: Fraction(-1, 2)}.get(n, Fraction(0))
    k = n // 2
    t = [factorial(j) for j in range(k)]  # t[j] is T_(j+1) once every pass is done
    for i in range(1, k):
        for j in range(i, k):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return Fraction((-1) ** (k - 1) * n * t[-1], 4**k * (4**k - 1))


def bernoulli(n: int, sign: Sign) -> Fraction:
    """Bernoulli number B_n in the requested sign convention.

    ``sign="plus"`` is the family generated by t/(1-e^{-t}), ``sign="minus"``
    the one generated by t/(e^t-1). They agree for every n except n = 1,
    where the plus family gives +1/2 and the minus family -1/2.

    Values are memoized; concurrent callers may at worst recompute a value,
    never observe a different one.
    """
    if n < 0:
        raise ValueError(f"Bernoulli index must be non-negative, got {n}")
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    return Fraction(1, 2) if n == 1 and sign == "plus" else _bernoulli_lower(n)


def format_rational(value: Fraction | int) -> str:
    """Serialize a rational as ``"p/q"`` in lowest terms, or ``"p"`` when q = 1."""
    return str(value)
