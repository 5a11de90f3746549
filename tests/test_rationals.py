"""Bernoulli numbers, power-sum polynomials, and the rational text form."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

import mzvint.rationals as rationals
from mzvint import clear_caches
from mzvint.indices import _ratio_text
from mzvint.rationals import bernoulli
from mzvint.reduction import reduce_step


def bernoulli_plus_oracle(n: int) -> list[Fraction]:
    """Independent oracle: Akiyama-Tanigawa triangle, plus convention (B1 = +1/2)."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def test_bernoulli_one_signs():
    # B_1 = -1/2 here; the plus family's +1/2 is checked against the triangle oracle
    assert bernoulli(1) == Fraction(-1, 2)


def test_bernoulli_zero():
    assert bernoulli(0) == 1


def test_bernoulli_small_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0


def test_bernoulli_matches_triangle_oracle():
    # B_0..B_101: past MAX_ENTRY = 100, the largest |entry| the command line accepts
    oracle = bernoulli_plus_oracle(101)
    for n in range(102):
        assert (-1) ** n * bernoulli(n) == oracle[n]


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_bernoulli_cold_fills_match_triangle_oracle(order):
    oracle = bernoulli_plus_oracle(101)
    ns = range(102) if order == "ascending" else range(101, -1, -1)
    clear_caches()
    assert [(-1) ** n * bernoulli(n) for n in ns] == [oracle[n] for n in ns]


def test_bernoulli_miss_fills_every_lower_value():
    clear_caches()
    bernoulli(100)
    assert set(rationals._bernoulli_lower) >= set(range(101))
    assert all((-1) ** n * rationals._bernoulli_lower[n] == b for n, b in enumerate(bernoulli_plus_oracle(100)))


def test_bernoulli_matches_sympy():
    # sympy's B_1 is +1/2 (since sympy 1.12), so it is the plus family
    sympy = pytest.importorskip("sympy", minversion="1.12")
    for n in range(102):
        expected = sympy.bernoulli(n)
        assert (-1) ** n * bernoulli(n) == Fraction(int(expected.p), int(expected.q)), n


def test_bernoulli_odd_vanish():
    for n in range(3, 31, 2):
        assert bernoulli(n) == 0


def test_bernoulli_results_in_lowest_terms():
    for n in range(0, 20):
        value = bernoulli(n)
        assert value.denominator > 0
        from math import gcd

        assert gcd(abs(value.numerator), value.denominator) == 1


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_memoization_transparent():
    first = [bernoulli(n) for n in range(40)]
    second = [bernoulli(n) for n in range(40)]
    assert first == second
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(bernoulli, range(40)))
    assert concurrent == first


# Power sums as polynomials in their upper limit m (Faulhaber's formula), read
# off the reduction step, which is where the engine uses them: eliminating
# the entry -k of (A, -k, B) merges it down into A with the coefficients
# -C(k+1, i) B^+_i / (k+1) of sum_{n=1}^{m} n^k, negated, and up into B with
# the coefficients C(k+1, i) B^-_i / (k+1) of sum_{n=1}^{m-1} n^k; for k = 0
# the dropped entry carries the -1 constant of the exclusive sum.


def faulhaber(k: int, bound: str) -> tuple[tuple[tuple[int, Fraction], ...], Fraction]:
    """(power, coefficient) pairs in descending powers, and the constant."""
    a, b = 100, 200  # far apart, so the term families cannot collide
    step = reduce_step((a, -k, b))
    pairs = []
    for i in range(k + 1):
        if bound == "inclusive":
            coeff = -step.coefficient((a - k - 1 + i, b))
        else:
            coeff = step.coefficient((a, b - k - 1 + i))
        if coeff:
            pairs.append((k + 1 - i, coeff))
    constant = step.coefficient((a, b)) if bound == "exclusive" else Fraction(0)
    return tuple(pairs), constant


def test_faulhaber_linear_inclusive():
    assert faulhaber(1, "inclusive") == (((2, Fraction(1, 2)), (1, Fraction(1, 2))), 0)


def test_faulhaber_constant_exclusive():
    assert faulhaber(0, "exclusive") == (((1, Fraction(1)),), -1)


def test_faulhaber_quadratic_inclusive():
    pairs, _ = faulhaber(2, "inclusive")
    assert pairs == (
        (3, Fraction(1, 3)),
        (2, Fraction(1, 2)),
        (1, Fraction(1, 6)),
    )


@pytest.mark.parametrize("bound", ["inclusive", "exclusive"])
def test_faulhaber_matches_literal_sums(bound):
    for k in range(0, 13):
        pairs, constant = faulhaber(k, bound)
        assert max(p for p, _ in pairs) == k + 1
        for m in range(1, 31):
            top = m if bound == "inclusive" else m - 1
            literal = sum(Fraction(n) ** k for n in range(1, top + 1))
            assert constant + sum(c * Fraction(m) ** p for p, c in pairs) == literal


def test_rational_serialization():
    # the engine's one rational text form, num/den with den > 0
    assert _ratio_text(1, 2) == "1/2"
    assert _ratio_text(-3, 4) == "-3/4"
    assert _ratio_text(5, 1) == "5"
    for den in (1, 5):
        assert _ratio_text(0, den) == "0"
    assert _ratio_text(-7, 1) == "-7"
    assert _ratio_text(-6, 3) == "-2"
    assert _ratio_text(6, 4) == "3/2"
    assert _ratio_text(10**30 + 1, 10**30) == f"{10**30 + 1}/{10**30}"
