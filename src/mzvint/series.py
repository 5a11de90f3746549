"""Exact truncated series and harmonic sums, used as independent oracles.

For an index (k_1, ..., k_r) the attached power series has coefficients

    c_n = sum over 0 < n_1 < ... < n_r = n of prod n_i^{-k_i}

and the truncated harmonic sum relaxes n_r = n to n_r <= N, so it is
c_0 + ... + c_N. The series of (k_1, ..., k_i) is a prefix sum of that of
(k_1, ..., k_{i-1}) times n^{-k_i}: a stage of O(N) operations. A linear
combination is evaluated by one depth-first walk over the suffix tree of
its indices. Each index adds its weight to the constant term of its own
node, and each finished node (e,) + s goes through the stage of e into the
vector of node s; the root's vector is the combination's series. So a
combination costs O(N) operations per distinct non-empty suffix of its
indices and holds at most depth + 1 vectors. It provides brute-force
ground truth for the reduction map and both products without sharing any
code with them.

The dynamic program runs on Python integers only. With L = lcm(1..N) and
P(k) the sum of the positive entries of k, every n <= N divides L, so
n^{-k_i} = (L/n)^{k_i} / L^{k_i} for k_i > 0 and c_n(k) * L^{P(k)} and
H_N(k) * L^{P(k)} are integers; each stage multiplies by the integer
(L/n)^{k_i} or n^{-k_i} and takes no gcd. A linear combination with
rational coefficients is held as one integer vector v over one denominator
D = Q * L^E, where Q is the combination's common denominator and E the
largest P of its indices. Two exact rationals a/A and b/B are equal exactly
when the integers a*B and b*A are, so every verdict is a certificate, not a
screen: no modular reduction and no rounding enters it. The public values
are converted to Fractions once, at the end. Floating point enters only in
:func:`zeta_real_approx`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul
from typing import Sequence

from .indices import Index, IndexSum, AdmissibilityError, format_index, integer_form, is_admissible, m_index, memo
from .reduction import pi_plus
from .shuffle import shuffle
from .stuffle import stuffle

__all__ = [
    "SeriesPoly",
    "mpl_coefficients",
    "harmonic_sum",
    "Report",
    "combination_series",
    "verify_reduction",
    "verify_shuffle",
    "verify_stuffle",
    "zeta_real_approx",
]

@dataclass(frozen=True)
class SeriesPoly:
    """A power series truncated at a fixed order, with exact coefficients
    ``coeffs[n]`` for z^n, n = 0..order."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "SeriesPoly") -> "SeriesPoly":
        """Product truncated at the common order."""
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        return SeriesPoly(tuple(_truncated_product(self.coeffs, other.coeffs)))


def _truncated_product(a, b):
    """Coefficients of the product of two series of one order, truncated
    at that order."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b[: len(a) - i]):
            if y:
                out[i + j] += x * y
    return out


def _check_order(order: int, what: str = "truncation order") -> None:
    if order < 1:
        raise ValueError(f"{what} must be >= 1, got {order}")


def _lcm_upto(n: int) -> int:
    return math.lcm(*range(1, n + 1))


def _positive_weight(k: Index) -> int:
    """P(k): the exponent of L in the scale of k's series and harmonic sum."""
    return sum(e for e in k if e > 0)


def _stage_factors(entry: int, L: int, bound: int) -> list[int]:
    """n^{-entry} * L^{max(entry, 0)} for n = 1..bound."""
    if entry > 0:
        return [(L // n) ** entry for n in range(1, bound + 1)]
    return [n ** (-entry) for n in range(1, bound + 1)]


def _series_dp(weights: Sequence[tuple[Index, int]], order: int, L: int) -> list[int]:
    """Sum of w * c_n(k) * L^P(k) over the pairs (k, w), for n = 0..order,
    with L = lcm(1..order), by one walk of the suffix tree of the indices."""
    zeros = [0] * (order + 1)
    factors: dict[int, list[int]] = {}
    path: list[Index] = [()]  # the suffixes on the walk's current path
    vecs = [zeros[:]]  # and their vectors, root first
    # sorted by reversed entries, indices that share a suffix come together;
    # the closing empty index finishes every suffix left on the path
    for k, w in [*sorted(weights, key=lambda item: item[0][::-1]), ((), 0)]:
        while k[len(k) - len(path[-1]) :] != path[-1]:  # not a suffix of k: finished
            entry, vec = path.pop()[0], vecs.pop()
            if entry not in factors:
                factors[entry] = _stage_factors(entry, L, order)
            vecs[-1][1:] = map(add, vecs[-1][1:], map(mul, accumulate(vec[:-1]), factors[entry]))
        for depth in range(len(path[-1]) + 1, len(k) + 1):
            path.append(k[-depth:])
            vecs.append(zeros[:])
        vecs[-1][0] += w
    return vecs[0]


@memo
def _mpl_cached(k: Index, order: int) -> tuple[int, ...]:
    return tuple(_series_dp([(k, 1)], order, _lcm_upto(order)))


def mpl_coefficients(k: Index, order: int) -> SeriesPoly:
    """Exact coefficients c_0..c_order of the series attached to ``k``."""
    _check_order(order)
    k = tuple(k)
    scale = _lcm_upto(order) ** _positive_weight(k)
    return SeriesPoly(tuple(Fraction(c, scale) for c in _mpl_cached(k, order)))


@memo
def _harmonic_cached(k: Index, bound: int) -> int:
    # H_N(k) = sum of c_n(k) over n <= N, at the same scale L^P(k)
    return sum(_series_dp([(k, 1)], bound, _lcm_upto(bound)))


def harmonic_sum(k: Index, bound: int) -> Fraction:
    """Exact nested sum over 0 < n_1 < ... < n_r <= bound of prod n_i^{-k_i}."""
    _check_order(bound, "bound")
    k = tuple(k)
    return Fraction(_harmonic_cached(k, bound), _lcm_upto(bound) ** _positive_weight(k))


@dataclass(frozen=True)
class Report:
    """Outcome of an exact coefficientwise comparison."""

    passed: bool
    first_mismatch: int | None
    order: int


def _series_combination(combo: IndexSum, order: int, L: int) -> tuple[list[int], int]:
    """Integers v_0..v_order and D = Q * L^E, Q the denominator of ``combo``
    and E the largest P of its indices, with v_n / D the coefficient of z^n
    in the series of ``combo``."""
    den, items = integer_form(combo)
    terms = [(index, num, _positive_weight(index)) for index, num in items]
    E = max((p for _, _, p in terms), default=0)
    weights = [(index, num * L ** (E - p)) for index, num, p in terms]
    return _series_dp(weights, order, L), den * L**E


def _compare(
    lhs: Sequence[int], lhs_den: int, rhs: Sequence[int], rhs_den: int, order: int
) -> Report:
    """Coefficientwise comparison of lhs / lhs_den with rhs / rhs_den."""
    for n, (a, b) in enumerate(zip(lhs, rhs)):
        if a * rhs_den != b * lhs_den:
            return Report(False, n, order)
    return Report(True, None, order)


def combination_series(combo: IndexSum, order: int) -> SeriesPoly:
    """Series attached to a linear combination of indices, truncated at
    the given order."""
    _check_order(order)
    vec, den = _series_combination(combo, order, _lcm_upto(order))
    return SeriesPoly(tuple(Fraction(v, den) for v in vec))


def verify_reduction(k: Index, order: int) -> Report:
    """Check that the positive reduction of ``k`` reproduces its series
    coefficients exactly up to the given order."""
    _check_order(order)
    k = tuple(k)
    L = _lcm_upto(order)
    lhs = _mpl_cached(k, order)
    rhs, rhs_den = _series_combination(pi_plus(k), order, L)
    return _compare(lhs, L ** _positive_weight(k), rhs, rhs_den, order)


def verify_shuffle(k: Index, k2: Index, order: int) -> Report:
    """Check the series-product identity for the shuffle expansion of a pair."""
    _check_order(order)
    k, k2 = tuple(k), tuple(k2)
    L = _lcm_upto(order)
    lhs = _truncated_product(_mpl_cached(k, order), _mpl_cached(k2, order))
    lhs_den = L ** (_positive_weight(k) + _positive_weight(k2))
    rhs, rhs_den = _series_combination(shuffle(k, k2), order, L)
    return _compare(lhs, lhs_den, rhs, rhs_den, order)


def verify_stuffle(k: Index, k2: Index, bound: int) -> Report:
    """Check the truncated-harmonic-product identity for the stuffle
    expansion of a pair; this is an exact rational identity for every bound."""
    _check_order(bound, "bound")
    k, k2 = tuple(k), tuple(k2)
    L = _lcm_upto(bound)
    lhs = _harmonic_cached(k, bound) * _harmonic_cached(k2, bound)
    lhs_den = L ** (_positive_weight(k) + _positive_weight(k2))
    rhs, rhs_den = _series_combination(stuffle(k, k2), bound, L)
    if lhs * rhs_den == sum(rhs) * lhs_den:
        return Report(True, None, bound)
    return Report(False, bound, bound)


@memo
def _zeta_real_cached(k: Index, terms: int) -> tuple[float, float]:
    cur = [1.0] * (terms + 1)
    try:
        for entry in k:
            powers = map(pow, map(float, range(1, terms + 1)), repeat(-entry))
            cur = [0.0, *accumulate(map(mul, powers, cur))]
        value = cur[terms]
    except OverflowError:  # a power n^(-entry) past float range
        value = math.inf
    # a sum that overflowed stays inf, or turns NaN where inf meets a zero factor
    if not math.isfinite(value):
        raise ValueError(f"the float partial sum of {format_index(k)} over {terms} terms overflows")
    m = m_index(k)
    # Crude tail heuristic: the outermost variable decays like n^{-(m+1)} up
    # to logarithmic factors from the inner sums. Reported, not guaranteed.
    try:
        hint = (1.0 + math.log(terms)) ** (len(k) - 1) / (m * float(terms) ** m)
    except OverflowError:  # terms^m is past float range, the quotient need not be
        hint = math.exp((len(k) - 1) * math.log1p(math.log(terms)) - math.log(m * terms**m))
    return value, hint


def zeta_real_approx(k: Index, terms: int) -> tuple[float, float]:
    """Floating-point partial sum of the defining series with all summation
    variables <= ``terms``, for an admissible index, together with a crude
    tail-size hint. No convergence acceleration is applied; a partial sum past
    float range raises ``ValueError``."""
    k = tuple(k)
    if not is_admissible(k):
        raise AdmissibilityError(f"real evaluation requires an admissible index, got {format_index(k)}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    return _zeta_real_cached(k, terms)
