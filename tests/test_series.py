"""Series and harmonic-sum oracles against brute-force enumeration."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

import mzvint.series as series
from mzvint.indices import AdmissibilityError, IndexSum
from mzvint.reduction import pi_plus
from mzvint.series import (
    SeriesPoly,
    combination_series,
    harmonic_sum,
    mpl_coefficients,
    verify_reduction,
    verify_shuffle,
    verify_stuffle,
    zeta_real_approx,
)
from mzvint.shuffle import shuffle
from mzvint.stuffle import stuffle

ZETA_2 = math.pi**2 / 6
ZETA_3 = 1.2020569031595942854


def _rational_power(n: int, k: int) -> Fraction:
    return Fraction(1, n**k) if k >= 0 else Fraction(n ** (-k))


def enumerated_coefficient(k: tuple[int, ...], n: int) -> Fraction:
    """Exponential-time oracle: sum over strictly increasing tuples ending at n."""
    if not k:
        return Fraction(1 if n == 0 else 0)
    if n == 0:
        return Fraction(0)
    total = Fraction(0)
    for inner in itertools.combinations(range(1, n), len(k) - 1):
        tup = inner + (n,)
        term = Fraction(1)
        for ni, ki in zip(tup, k):
            term *= _rational_power(ni, ki)
        total += term
    return total


def enumerated_harmonic(k: tuple[int, ...], bound: int) -> Fraction:
    total = Fraction(0)
    for tup in itertools.combinations(range(1, bound + 1), len(k)):
        term = Fraction(1)
        for ni, ki in zip(tup, k):
            term *= _rational_power(ni, ki)
        total += term
    return total


def test_mpl_single_inverse_squares():
    assert mpl_coefficients((2,), 4).coeffs == (
        Fraction(0),
        Fraction(1),
        Fraction(1, 4),
        Fraction(1, 9),
        Fraction(1, 16),
    )


def test_mpl_examples():
    assert mpl_coefficients((0, 3), 3).coeffs[3] == Fraction(2, 27)
    assert mpl_coefficients((1, 1), 3).coeffs[3] == Fraction(1, 2)


def test_mpl_depth_zero_constant_one():
    poly = mpl_coefficients((), 5)
    assert poly.coeffs == (Fraction(1), 0, 0, 0, 0, 0)


def test_mpl_deep_indices_have_zero_low_coefficients():
    poly = mpl_coefficients((1, 1, 1), 8)
    assert poly.coeffs[0] == poly.coeffs[1] == poly.coeffs[2] == 0
    assert poly.coeffs[3] != 0


def test_mpl_matches_enumeration_exhaustive():
    for depth in range(0, 4):
        for k in itertools.product(range(-2, 3), repeat=depth):
            poly = mpl_coefficients(k, 8) if depth else mpl_coefficients((), 8)
            for n in range(0, 9):
                assert poly.coeffs[n] == enumerated_coefficient(k, n), (k, n)


def test_mpl_matches_enumeration_random():
    rng = random.Random(51)
    for _ in range(40):
        k = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3)))
        poly = mpl_coefficients(k, 12)
        for n in range(0, 13):
            assert poly.coeffs[n] == enumerated_coefficient(k, n)


def test_mpl_rejects_bad_order():
    with pytest.raises(ValueError):
        mpl_coefficients((2,), 0)


def test_harmonic_examples():
    assert harmonic_sum((1,), 2) == Fraction(3, 2)
    assert harmonic_sum((1, 2), 3) == Fraction(5, 12)
    assert harmonic_sum((), 10) == 1


def test_harmonic_matches_enumeration():
    rng = random.Random(53)
    for _ in range(40):
        k = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3)))
        bound = rng.randint(1, 9)
        assert harmonic_sum(k, bound) == enumerated_harmonic(k, bound)


def test_harmonic_peeling_recursion():
    rng = random.Random(59)
    for _ in range(40):
        k = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        bound = rng.randint(1, 12)
        head, last = k[:-1], k[-1]
        expected = sum(
            (
                _rational_power(n, last)
                * (harmonic_sum(head, n - 1) if n > 1 else (1 if not head else 0))
                for n in range(1, bound + 1)
            ),
            Fraction(0),
        )
        assert harmonic_sum(k, bound) == expected


def test_harmonic_equals_sum_of_series_coefficients():
    rng = random.Random(61)
    for _ in range(30):
        k = tuple(rng.randint(-2, 3) for _ in range(rng.randint(0, 3)))
        bound = rng.randint(1, 15)
        poly = mpl_coefficients(k, bound)
        tail = sum(poly.coeffs[1:], Fraction(0))
        if not k:
            assert harmonic_sum(k, bound) == 1
        else:
            assert harmonic_sum(k, bound) == tail


def test_series_poly_arithmetic():
    a = SeriesPoly((Fraction(1), Fraction(2), Fraction(0)))
    b = SeriesPoly((Fraction(0), Fraction(1), Fraction(1)))
    assert (a * b).coeffs == (0, 1, 3)  # truncated at order 2
    with pytest.raises(ValueError):
        a * SeriesPoly((Fraction(1),))


def test_clear_caches_empties_every_memo_table():
    import importlib

    from mzvint import clear_caches

    def sizes():
        tables = [importlib.import_module("mzvint.shuffle")._MEMO]
        tables += [
            getattr(importlib.import_module(f"mzvint.{module}"), name)
            for module, name in (
                ("reduction", "_pi_plus_index"),
                ("stuffle", "_pair_sorted"),
                ("series", "_mpl_cached"),
                ("series", "_harmonic_cached"),
                ("series", "_zeta_real_cached"),
                ("rationals", "_bernoulli_lower"),
            )
        ]
        return [len(t) if isinstance(t, dict) else t.cache_info().currsize for t in tables]

    pi_plus((-1, 2))  # fill every table here, whatever ran before
    verify_shuffle((-1, 2), (2,), 8)
    verify_stuffle((-1, 2), (2,), 8)
    zeta_real_approx((2,), 10)
    assert all(sizes())
    clear_caches()
    assert sizes() == [0] * 7


def test_verify_reduction_examples():
    assert verify_reduction((0, 3), 50).passed
    assert verify_reduction((-2, 5), 50).passed
    report = verify_reduction((2, 3), 10)
    assert report.passed and report.first_mismatch is None and report.order == 10


def test_verify_shuffle_examples():
    assert verify_shuffle((0,), (0,), 50).passed
    assert verify_shuffle((-1,), (-1,), 50).passed
    assert verify_shuffle((1,), (2,), 50).passed


def test_verify_stuffle_examples():
    assert verify_stuffle((2,), (3,), 20).passed
    assert verify_stuffle((0,), (-1,), 20).passed
    assert verify_stuffle((), (5,), 20).passed


def test_zeta_real_single_two():
    value, hint = zeta_real_approx((2,), 100000)
    assert abs(value - ZETA_2) < 1e-4
    assert hint > 0


def test_zeta_real_reduced_pair():
    value, _ = zeta_real_approx((0, 3), 10000)
    assert abs(value - (ZETA_2 - ZETA_3)) < 1e-3


def test_zeta_real_depth_two_harmonic_tail():
    # partial sums converge like log(N)/N here; the plain sum at N = 10^4
    # sits about 1.08e-3 under the limit, so assert the honest bracket
    value, hint = zeta_real_approx((1, 2), 10000)
    err = abs(value - ZETA_3)
    assert 5e-4 < err < 2e-3
    assert hint >= err * 0.5  # the heuristic should not be wildly optimistic


def test_zeta_real_empty_index():
    assert zeta_real_approx((), 10) == (1.0, 0.0)


def test_zeta_real_rejects_non_admissible():
    with pytest.raises(AdmissibilityError):
        zeta_real_approx((1,), 100)
    with pytest.raises(AdmissibilityError):
        zeta_real_approx((0, 1), 100)
    with pytest.raises(ValueError):
        zeta_real_approx((2,), 0)


# ---------------------------------------------------------------------------
# The integer oracle against the Fraction dynamic programs it replaced, at the
# verify defaults (series order 60, harmonic bound 50).

SERIES_ORDER = 60
HARMONIC_BOUND = 50

# large P (positive entries up to 6 at depth 3), negative entries, mixed
REFERENCE_INDICES = [
    (),
    (1,),
    (6,),
    (-5,),
    (6, 6, 6),
    (5, 6, 4),
    (1, 1, 6),
    (-3, -3, -3),
    (-2, 6, -1),
    (6, -4, 5),
    (0, 0, 6),
    (3, 0, -3),
]


def reference_mpl(k: tuple[int, ...], order: int) -> list[Fraction]:
    cur = [Fraction(0)] * (order + 1)
    cur[0] = Fraction(1)
    for entry in k:
        nxt = [Fraction(0)] * (order + 1)
        prefix = Fraction(0)
        for n in range(1, order + 1):
            prefix += cur[n - 1]
            if prefix:
                nxt[n] = prefix * _rational_power(n, entry)
        cur = nxt
    return cur


def reference_harmonic(k: tuple[int, ...], bound: int) -> Fraction:
    cur = [Fraction(1)] * (bound + 1)
    for entry in k:
        nxt = [Fraction(0)] * (bound + 1)
        running = Fraction(0)
        for n in range(1, bound + 1):
            running += _rational_power(n, entry) * cur[n - 1]
            nxt[n] = running
        cur = nxt
    return cur[bound]


def reference_combination(combo: IndexSum, order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for index, coeff in combo:
        for n, c in enumerate(reference_mpl(index, order)):
            out[n] += coeff * c
    return out


def reference_first_mismatch(lhs: list[Fraction], rhs: list[Fraction]) -> int | None:
    return next((n for n, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)


def reference_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    order = len(a) - 1
    return [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)) for n in range(order + 1)]


def _rng_pairs(seed: int, count: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    rng = random.Random(seed)

    def draw() -> tuple[int, ...]:
        return tuple(rng.randint(-3, 4) for _ in range(rng.randint(1, 2)))

    return [(draw(), draw()) for _ in range(count)]


@pytest.mark.parametrize("k", REFERENCE_INDICES)
def test_mpl_and_harmonic_match_fraction_reference(k):
    assert list(mpl_coefficients(k, SERIES_ORDER).coeffs) == reference_mpl(k, SERIES_ORDER)
    assert harmonic_sum(k, HARMONIC_BOUND) == reference_harmonic(k, HARMONIC_BOUND)


@pytest.mark.parametrize("k", [k for k in REFERENCE_INDICES if k])
def test_combination_series_matches_fraction_reference(k):
    combos = [
        pi_plus(k),
        shuffle(k, (-1, 2)),
        stuffle(k, (2, -1)),
        IndexSum({k: Fraction(-7, 12), (2, 3): Fraction(5, 8)}),
    ]
    for combo in combos:
        got = combination_series(combo, SERIES_ORDER).coeffs
        assert list(got) == reference_combination(combo, SERIES_ORDER)


def _drop_term(position: int):
    def drop(expansion: IndexSum) -> IndexSum:
        terms = expansion.terms()
        del terms[position]
        return IndexSum(terms)

    return drop


@pytest.mark.parametrize("position", [0, -1])
def test_dropped_term_fails_reduction_like_fraction_reference(monkeypatch, position):
    drop = _drop_term(position)
    monkeypatch.setattr(series, "pi_plus", lambda k: drop(pi_plus(k)))
    for k in [(6, -4, 5), (-2, 6, -1), (3, 0, -3), (0, 0, 6), (-3, -3, -3)]:
        report = verify_reduction(k, SERIES_ORDER)
        expected = reference_first_mismatch(
            reference_mpl(k, SERIES_ORDER), reference_combination(drop(pi_plus(k)), SERIES_ORDER)
        )
        assert expected is not None
        assert (report.passed, report.first_mismatch) == (False, expected), k


@pytest.mark.parametrize("position", [0, -1])
def test_dropped_term_fails_shuffle_like_fraction_reference(monkeypatch, position):
    drop = _drop_term(position)
    monkeypatch.setattr(series, "shuffle", lambda k, k2: drop(shuffle(k, k2)))
    for k, k2 in _rng_pairs(71, 6):
        report = verify_shuffle(k, k2, SERIES_ORDER)
        lhs = reference_product(reference_mpl(k, SERIES_ORDER), reference_mpl(k2, SERIES_ORDER))
        rhs = reference_combination(drop(shuffle(k, k2)), SERIES_ORDER)
        expected = reference_first_mismatch(lhs, rhs)
        assert expected is not None
        assert (report.passed, report.first_mismatch) == (False, expected), (k, k2)


@pytest.mark.parametrize("position", [0, -1])
def test_dropped_term_fails_stuffle_like_fraction_reference(monkeypatch, position):
    drop = _drop_term(position)
    monkeypatch.setattr(series, "stuffle", lambda k, k2: drop(stuffle(k, k2)))
    for k, k2 in _rng_pairs(73, 6) + [((6, 6, 6), (5, -3, 6))]:
        report = verify_stuffle(k, k2, HARMONIC_BOUND)
        lhs = reference_harmonic(k, HARMONIC_BOUND) * reference_harmonic(k2, HARMONIC_BOUND)
        rhs = sum(
            (c * reference_harmonic(i, HARMONIC_BOUND) for i, c in drop(stuffle(k, k2))),
            Fraction(0),
        )
        assert lhs != rhs
        assert (report.passed, report.first_mismatch) == (False, HARMONIC_BOUND), (k, k2)
