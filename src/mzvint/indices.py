"""Integer indices and their formal rational linear combinations.

An index is a plain tuple of integers; the empty tuple is the depth-0 index.
A combination (``IndexSum``) is integer numerators over one denominator; all
arithmetic on combinations adds ints over a common denominator (:func:`integer_sum`).
The central classifier is the regularizability index: the minimum over all
suffixes of (weight - depth). Indices with a positive (resp. non-negative)
regularizability index are admissible (resp. regularizable).
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Union

__all__ = [
    "Index",
    "INFINITY",
    "IndexClass",
    "AdmissibilityError",
    "weight",
    "depth",
    "tail_index",
    "m_index",
    "classify",
    "is_admissible",
    "is_regularizable",
    "format_index",
    "IndexSum",
    "add_term",
    "integer_sum",
    "integer_form",
    "terms_json",
    "bilinear",
    "m_of_sum",
    "MEMO_TABLES",
    "memo",
]

Index = tuple[int, ...]

# Sentinel for the regularizability index of the empty index: totally ordered
# above all integers and absorbing under addition, so the min-formulas stay
# total when the empty index participates.
INFINITY = math.inf


class IndexClass(Enum):
    ADMISSIBLE = "admissible"
    REGULARIZABLE_ONLY = "regularizable_only"
    NON_REGULARIZABLE = "non_regularizable"


class AdmissibilityError(ValueError):
    """Raised when an operation defined only for admissible indices is
    applied to a non-admissible one."""


def weight(k: Index) -> int:
    """Sum of the entries; 0 for the empty index."""
    return sum(k)


def depth(k: Index) -> int:
    """Number of entries."""
    return len(k)


def tail_index(k: Index, t: int) -> Index:
    """The suffix (k_t, ..., k_r) for 1 <= t <= depth(k)."""
    if not 1 <= t <= len(k):
        raise ValueError(f"tail position {t} out of range 1..{len(k)}")
    return k[t - 1 :]


def m_index(k: Index) -> int | float:
    """Regularizability index: min over suffixes of (weight - depth).

    Returns :data:`INFINITY` for the empty index.
    """
    best: int | float = INFINITY
    acc = 0
    for entry in reversed(k):
        acc += entry - 1
        if acc < best:
            best = acc
    return best


def classify(k: Index) -> IndexClass:
    """Admissible iff m > 0, regularizable-only iff m = 0, otherwise
    non-regularizable. The empty index is admissible."""
    m = m_index(k)
    if m > 0:
        return IndexClass.ADMISSIBLE
    if m == 0:
        return IndexClass.REGULARIZABLE_ONLY
    return IndexClass.NON_REGULARIZABLE


def is_admissible(k: Index) -> bool:
    return m_index(k) > 0


def is_regularizable(k: Index) -> bool:
    return m_index(k) >= 0


def format_index(k: Index) -> str:
    """Text form ``(k1,k2,...)``; ``()`` for the empty index."""
    return "(" + ",".join(str(e) for e in k) + ")"


MEMO_TABLES: list = []  # every memo table, appended by the module defining it


def memo(fn: Callable) -> Callable:
    """``lru_cache(maxsize=None)(fn)``, listed in :data:`MEMO_TABLES`."""
    MEMO_TABLES.append(lru_cache(maxsize=None)(fn))
    return MEMO_TABLES[-1]


TermsLike = Union[Mapping[Index, Fraction], Iterable[tuple[Index, Fraction]]]


def add_term(data: dict, key: Hashable, coeff) -> None:
    """Add a nonzero ``coeff`` to the coefficient of ``key`` in ``data``, in
    place, dropping the key when its coefficient becomes zero, so the keys
    of ``data`` stay its support. This is the one accumulation step of every
    sparse combination in the package."""
    acc = data.get(key)
    if acc is None:
        data[key] = coeff
    else:
        acc += coeff
        if acc:
            data[key] = acc
        else:
            del data[key]


def integer_sum(parts: Iterable[tuple[int, int, Iterable]]) -> tuple[int, dict]:
    """Sum over ``parts`` of num/den times ``items``, (key, int) pairs with
    int ``num`` and den > 0, as a new ``(D, {key: int})`` in lowest terms,
    D > 0: ints over one common denominator, one gcd at the end. The
    algebra's one rational accumulation."""
    parts = list(parts)
    common = math.lcm(*(den for _, den, _ in parts))
    acc: dict = {}
    for num, den, items in parts:
        factor = num * (common // den)
        for key, coeff in items:
            add_term(acc, key, factor * coeff)
    g = math.gcd(common, *acc.values())
    if g > 1:
        acc = {key: coeff // g for key, coeff in acc.items()}
    return common // g, acc


IndexSumLike = Union["IndexSum", Index]


def integer_form(x: IndexSumLike) -> tuple[int, Iterable[tuple[Index, int]]]:
    """``(den, (index, num) pairs)`` with x = sum of num/den * index, den > 0;
    a bare index is ``(1, ((k, 1),))``. How the algebra reads its operands."""
    if isinstance(x, IndexSum):
        return x._den, x._nums.items()
    return 1, ((tuple(x), 1),)


def _ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` without the Fraction: ``"p/q"`` in lowest
    terms, or ``"p"`` when q = 1. The engine's one rational text form."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class IndexSum:
    """A finite formal Q-linear combination of indices.

    Stored as ``_den`` > 0 and ``_nums`` = {index: nonzero int} with
    gcd(_den, *_nums.values()) == 1: the keys are the support and equal sums
    store equal ints. Coefficients are read out as Fractions. Instances are
    immutable values: all arithmetic returns new sums, and they are safe to
    share between threads.
    """

    __slots__ = ("_den", "_nums")

    def __init__(self, terms: TermsLike = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        coeffs = [(tuple(index), Fraction(coeff)) for index, coeff in items]
        self._den, self._nums = integer_sum(
            (c.numerator, c.denominator, ((index, 1),)) for index, c in coeffs if c
        )

    @classmethod
    def single(cls, index: Index, coeff: Fraction | int = 1) -> "IndexSum":
        return cls(((index, coeff),))

    @classmethod
    def _over(cls, den: int, nums: dict[Index, int]) -> "IndexSum":
        # takes nums over; (den, nums) must already be in the stored form
        out = cls.__new__(cls)
        out._den, out._nums = den, nums
        return out

    def _sorted_nums(self) -> list[tuple[Index, int]]:
        return sorted(self._nums.items(), key=lambda item: (len(item[0]), item[0]))

    def terms(self) -> list[tuple[Index, Fraction]]:
        """Terms in canonical order: by depth, then lexicographically."""
        return [(index, Fraction(num, self._den)) for index, num in self._sorted_nums()]

    def support(self) -> frozenset[Index]:
        return frozenset(self._nums)

    def coefficient(self, index: Index) -> Fraction:
        return Fraction(self._nums.get(tuple(index), 0), self._den)

    def __iter__(self) -> Iterator[tuple[Index, Fraction]]:
        """Terms in storage order; use :meth:`terms` for the canonical order."""
        den = self._den
        return ((index, Fraction(num, den)) for index, num in self._nums.items())

    def __len__(self) -> int:
        return len(self._nums)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexSum):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._nums.items())))

    def _scaled(self, num: int, den: int = 1) -> tuple[int, int, Iterable[tuple[Index, int]]]:
        # this sum times num/den, as one part of integer_sum
        return num, den * self._den, self._nums.items()

    def __add__(self, other: "IndexSum") -> "IndexSum":
        if not isinstance(other, IndexSum):
            return NotImplemented
        return IndexSum._over(*integer_sum((self._scaled(1), other._scaled(1))))

    def __neg__(self) -> "IndexSum":
        return IndexSum._over(*integer_sum((self._scaled(-1),)))

    def __sub__(self, other: "IndexSum") -> "IndexSum":
        if not isinstance(other, IndexSum):
            return NotImplemented
        return IndexSum._over(*integer_sum((self._scaled(1), other._scaled(-1))))

    def __mul__(self, scalar: Fraction | int) -> "IndexSum":
        if isinstance(scalar, IndexSum):
            return NotImplemented
        c = Fraction(scalar)
        if not c:
            return IndexSum()
        return IndexSum._over(*integer_sum((self._scaled(c.numerator, c.denominator),)))

    __rmul__ = __mul__

    def pretty(self) -> str:
        """Human-readable rendering, e.g. ``1·(2) - 1·(3)``."""
        if not self._nums:
            return "0"
        text = " ".join(
            f"{'+' if num > 0 else '-'} {_ratio_text(abs(num), self._den)}·{format_index(index)}"
            for index, num in self._sorted_nums()
        )
        # the leading term carries its sign without a space, and "+" not at all
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"IndexSum<{self.pretty()}>"


@memo
def _index_tail(index: Index) -> tuple[str, bool]:
    """The ``,"index":[k1,...]}`` JSON text of ``index``, and whether it is
    positive admissible: entries >= 1, so admissible iff the last is >= 2;
    () is vacuously both."""
    text = ',"index":[' + ",".join(map(str, index)) + "]}"
    return text, not index or (index[-1] >= 2 and min(index) >= 1)


@memo
def _coeff_head(num: int, den: int) -> str:
    """The ``{"coeff":"p/q"`` JSON text of num/den: every JSON coefficient
    the package writes comes from this table."""
    return '{"coeff":"' + _ratio_text(num, den) + '"'


def terms_json(s: IndexSum) -> str:
    """The ``{"terms":[{"coeff":"p/q","index":[k1,...]},...]}`` text of ``s`` in
    canonical order (by length, stable over the lexicographic order: no key
    function), from the memoized text of each coefficient and index."""
    den, get = s._den, s._nums.get
    terms = [_coeff_head(get(index), den) + _index_tail(index)[0] for index in sorted(sorted(s._nums), key=len)]
    return '{"terms":[' + ",".join(terms) + "]}"


def m_of_sum(s: IndexSum) -> int | float:
    """Minimum of the regularizability index over the support; infinity for
    the zero sum (empty minimum, matching the empty index convention)."""
    return min((m_index(index) for index in s._nums), default=INFINITY)


PairTerms = Callable[[Index, Index], Iterable[tuple[Index, int]]]


def bilinear(a: IndexSumLike, b: IndexSumLike, pair_terms: PairTerms) -> IndexSum:
    """The bilinear extension of a product rule on pairs of indices:
    sum over the terms ca*k of ``a`` and cb*k2 of ``b`` of
    ca*cb*``pair_terms(k, k2)``, where ``pair_terms`` yields (index, integer
    coefficient) pairs."""
    (da, left), (db, right) = integer_form(a), integer_form(b)
    parts = [(na * nb, da * db, pair_terms(k, k2)) for k, na in left for k2, nb in right]
    return IndexSum._over(*integer_sum(parts))
