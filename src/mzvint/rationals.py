"""Exact rational helpers: Bernoulli numbers and rational text forms.

Every value produced here is a :class:`fractions.Fraction` (arbitrary
precision, normalized to lowest terms with positive denominator). Nothing in
this module touches floating point; the series oracles downstream depend on
that.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Literal

__all__ = ["Sign", "bernoulli", "format_rational"]

Sign = Literal["plus", "minus"]


@lru_cache(maxsize=None)
def _bernoulli_lower(n: int) -> Fraction:
    # "minus" convention (B_1 = -1/2), from sum_{j=0}^{m} C(m+1, j) B_j = [m == 0].
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * _bernoulli_lower(j)
    return -acc / (n + 1)


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
    value = _bernoulli_lower(n)
    if n == 1 and sign == "plus":
        return -value
    return value


def format_rational(value: Fraction | int) -> str:
    """Serialize a rational as ``"p/q"`` in lowest terms, or ``"p"`` when q = 1."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
