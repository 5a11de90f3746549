"""Positive-index reduction: single steps, the fixed-point map, closures."""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from mzvint import clear_caches
from mzvint.indices import IndexSum, add_term, is_admissible, is_regularizable, m_index
from mzvint.rationals import bernoulli
from mzvint.reduction import _pi_plus_index, _reduce_at, _reduction_position, pi_plus, reduce_step
from mzvint.series import verify_reduction
from mzvint.shuffle import shuffle
from mzvint.stuffle import stuffle

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_reduce_step_zero_entry():
    assert reduce_step((0, 3)) == IndexSum([((2,), 1), ((3,), -1)])


def test_reduce_step_negative_entry():
    assert reduce_step((-1, 4)) == IndexSum(
        [((2,), Fraction(1, 2)), ((3,), Fraction(-1, 2))]
    )


def test_reduce_step_interior_position():
    assert reduce_step((2, 0, 3)) == IndexSum(
        [((2, 2), 1), ((2, 3), -1), ((1, 3), -1)]
    )


def _step_formula(k, m) -> dict:
    # the three families of the module docstring, one Fraction per term
    km = k[m - 1]
    n = -km
    out: dict = {}
    for i in range(n + 1):
        c = Fraction(math.comb(n + 1, i), n + 1)
        add_term(out, k[: m - 1] + (k[m] + km - 1 + i,) + k[m + 1 :], c * bernoulli(i))
        if m >= 2:
            add_term(out, k[: m - 2] + (k[m - 2] + km - 1 + i,) + k[m:], -c * (-1) ** i * bernoulli(i))
    if km == 0:
        add_term(out, k[: m - 1] + k[m:], Fraction(-1))
    return {index: c for index, c in out.items() if c}


def test_reduce_at_row_matches_the_fraction_formula():
    for km in range(0, -41, -1):
        for k, m in (((km, 4, 2), 1), ((3, km, 4), 2)):
            den, row = _reduce_at(k, m)
            assert type(den) is int and den > 0
            assert all(type(num) is int and num for _, num in row)
            assert len({index for index, _ in row}) == len(row)
            assert {index: Fraction(num, den) for index, num in row} == _step_formula(k, m), k


def test_reduce_step_drops_depth_by_one():
    rng = random.Random(3)
    for _ in range(200):
        k = tuple(rng.randint(-3, 3) for _ in range(rng.randint(2, 5)))
        if all(e > 0 for e in k[:-1]):
            continue
        for index, _ in reduce_step(k):
            assert len(index) == len(k) - 1


def test_reduce_step_domain_errors():
    with pytest.raises(ValueError):
        reduce_step((2, 3))  # all positive
    with pytest.raises(ValueError):
        reduce_step((3, -2))  # only the last entry is non-positive
    with pytest.raises(ValueError):
        reduce_step(())
    with pytest.raises(ValueError):
        reduce_step((0,))  # depth one: the single entry is the last entry


def test_pi_plus_fixed_points():
    for k in [(), (5,), (-3,), (0,), (2, 3), (3, -2), (1, 1, 7)]:
        assert pi_plus(k) == IndexSum.single(k)


def test_pi_plus_worked_reductions():
    assert pi_plus((0, 3)) == IndexSum([((2,), 1), ((3,), -1)])
    assert pi_plus((-1, 4)) == IndexSum(
        [((2,), Fraction(1, 2)), ((3,), Fraction(-1, 2))]
    )
    assert pi_plus((-2, 5)) == IndexSum(
        [((2,), Fraction(1, 3)), ((3,), Fraction(-1, 2)), ((4,), Fraction(1, 6))]
    )


def test_pi_plus_double_step():
    # (0,0,4) -> (-1,4) - (0,4) -> series-certified final combination
    assert pi_plus((0, 0, 4)) == IndexSum(
        [((2,), Fraction(1, 2)), ((3,), Fraction(-3, 2)), ((4,), 1)]
    )
    assert verify_reduction((0, 0, 4), 60).passed


def test_pi_plus_linear_and_idempotent():
    rng = random.Random(9)
    for _ in range(60):
        k = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 4)))
        k2 = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 4)))
        a = IndexSum([(k, Fraction(2, 3)), (k2, Fraction(-5))])
        combined = pi_plus(a)
        assert combined == Fraction(2, 3) * pi_plus(k) + Fraction(-5) * pi_plus(k2)
        assert pi_plus(combined) == combined


def test_pi_plus_codomain_shape():
    # every output index: all entries before the last positive, and the last
    # entry strictly above the input's regularizability index
    for depth in range(0, 4):
        for k in itertools.product(range(-2, 4), repeat=depth):
            m = m_index(k)
            for index, _ in pi_plus(k):
                assert all(e > 0 for e in index[:-1])
                if index:
                    assert index[-1] > m


def test_pi_plus_preserves_admissibility_and_regularizability():
    for depth in range(0, 4):
        for k in itertools.product(range(-3, 5), repeat=depth):
            if is_admissible(k):
                assert all(
                    e > 0 for index, _ in pi_plus(k) for e in index
                ), k
                assert all(is_admissible(index) for index in pi_plus(k).support()), k
            elif is_regularizable(k):
                assert all(
                    e > 0 for index, _ in pi_plus(k) for e in index
                ), k


def test_series_identity_small_grid():
    for depth in range(0, 3):
        for k in itertools.product(range(-2, 3), repeat=depth):
            assert verify_reduction(k, 40).passed, k


def test_series_identity_random_deeper():
    rng = random.Random(17)
    for _ in range(50):
        k = tuple(rng.randint(-3, 4) for _ in range(rng.randint(0, 4)))
        assert verify_reduction(k, 40).passed, k


def test_homomorphism_with_outer_reduction():
    rng = random.Random(19)
    for _ in range(80):
        k = tuple(rng.randint(-2, 3) for _ in range(rng.randint(0, 3)))
        k2 = tuple(rng.randint(-2, 3) for _ in range(rng.randint(0, 3)))
        assert pi_plus(shuffle(k, k2)) == pi_plus(shuffle(pi_plus(k), pi_plus(k2)))
        assert pi_plus(stuffle(k, k2)) == pi_plus(stuffle(pi_plus(k), pi_plus(k2)))


def test_homomorphism_admissible_needs_no_outer_reduction():
    # positive admissible supports are closed under both products, so the
    # reduced factors multiply directly to the reduced product
    grid = [()] + [
        k
        for depth in (1, 2)
        for k in itertools.product(range(-2, 4), repeat=depth)
        if is_admissible(k)
    ]
    for k in grid:
        for k2 in grid:
            assert pi_plus(shuffle(k, k2)) == shuffle(pi_plus(k), pi_plus(k2))
            assert pi_plus(stuffle(k, k2)) == stuffle(pi_plus(k), pi_plus(k2))


def test_memoization_transparent():
    first = pi_plus((0, -1, 0, 2))
    second = pi_plus((0, -1, 0, 2))
    assert first == second
    assert first is not None and len(first) > 0


# Reference: the Fraction accumulation that the integer one replaced, one
# Fraction multiply and add per term. It shares the elimination step
# (reduce_step) with the engine; only the summation differs. Its memo is a
# plain dict, so the test can list the indices it holds.
_REFERENCE_MEMO: dict[tuple[int, ...], IndexSum] = {}


def _reference_reduce_terms(terms) -> IndexSum:
    acc: dict = {}
    for index, coeff in terms:
        for reduced, c in _reference_pi_plus_index(index):
            add_term(acc, reduced, coeff * c)
    return IndexSum(acc)


def _reference_pi_plus_index(k: tuple[int, ...]) -> IndexSum:
    if k not in _REFERENCE_MEMO:
        m = _reduction_position(k)
        if m is None:
            _REFERENCE_MEMO[k] = IndexSum.single(k)
        else:
            _REFERENCE_MEMO[k] = _reference_reduce_terms(reduce_step(k))
    return _REFERENCE_MEMO[k]


def _reference_pi_plus(a) -> IndexSum:
    return _reference_reduce_terms(a if isinstance(a, IndexSum) else [(tuple(a), Fraction(1))])


def test_pi_plus_matches_fraction_reference():
    rng = random.Random(41)
    indices = [tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 4))) for _ in range(300)]
    combos = [
        IndexSum(
            (index, Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 12)))
            for index in rng.sample(indices, rng.randint(1, 5))
        )
        for _ in range(40)
    ]
    # pi_plus((0, 3)) = (2) - (3), so these inputs have nonzero terms whose
    # reductions cancel
    cancelling = [
        IndexSum([((0, 3), c), ((2,), -c), ((3,), c)]) for c in (Fraction(1), Fraction(-5, 6))
    ]
    clear_caches()
    _REFERENCE_MEMO.clear()
    for value in [*indices, *combos, IndexSum(), *cancelling]:
        expected = _reference_pi_plus(value)
        got = pi_plus(value)
        assert got == expected, value
        assert all(type(c) is Fraction for _, c in got)
    for value in [IndexSum(), *cancelling]:
        assert not pi_plus(value)


def test_pi_plus_cache_entries_in_lowest_terms():
    # the memo holds exactly the indices asked for singly: not the
    # intermediates of their elimination, nor the terms of a combination
    clear_caches()
    _REFERENCE_MEMO.clear()
    rng = random.Random(43)
    asked = [tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 4))) for _ in range(100)]
    for k in asked:
        assert pi_plus(k) == _reference_pi_plus(k)
    combined = IndexSum((k, 1) for k in asked)
    assert pi_plus(combined) == _reference_pi_plus(combined)
    info = _pi_plus_index.cache_info()
    assert info.currsize == len(set(asked)) < len(_REFERENCE_MEMO)
    for k in set(asked):
        den, terms = _pi_plus_index(k)
        assert isinstance(den, int) and den > 0
        assert all(type(num) is int and num for _, num in terms)
        assert math.gcd(den, *(num for _, num in terms)) == 1
        assert IndexSum((index, Fraction(num, den)) for index, num in terms) == _reference_pi_plus(k)
    assert _pi_plus_index.cache_info().misses == info.misses  # every lookup was a hit


def test_pi_plus_of_raw_products_matches_fraction_reference():
    # products of indices with several non-positive entries: many terms of
    # the product reach the same intermediate indices
    rng = random.Random(47)
    clear_caches()
    _REFERENCE_MEMO.clear()
    for _ in range(8):
        k = tuple(rng.randint(-3, 0) for _ in range(rng.randint(2, 3))) + (rng.randint(1, 3),)
        k2 = tuple(rng.randint(-3, 0) for _ in range(rng.randint(2, 3))) + (rng.randint(1, 3),)
        for product in (shuffle, stuffle):
            raw = product(k, k2)
            assert pi_plus(raw) == _reference_pi_plus(raw), (k, k2, product)


def test_pi_plus_cancels_in_mid_loop():
    # (0,0,4) steps to (-1,4) - (0,4), which the other two terms cancel
    # before either is stepped; only c * (2,3) is left
    for c in (Fraction(0), Fraction(3, 7)):
        a = IndexSum([((0, 0, 4), 1), ((-1, 4), -1), ((0, 4), 1), ((2, 3), c)])
        assert pi_plus(a) == _reference_pi_plus(a) == IndexSum.single((2, 3), c)


def test_pi_plus_steps_each_distinct_index_once(monkeypatch):
    import mzvint.reduction as reduction

    stepped = []

    def counting(k, m):
        stepped.append(k)
        return _reduce_at(k, m)

    monkeypatch.setattr(reduction, "_reduce_at", counting)
    clear_caches()
    # terms of several depths: a deeper term's step reaches a shallower term
    mixed = [IndexSum([((0, 0, 4), 1), ((-1, 4), 1)]), stuffle((-2, -3, 2), (0, -1, 3))]
    for value in [(1, -3, -3, -3, -3, -3, -3, 2), (0,) * 12 + (2,), *mixed]:
        stepped.clear()
        pi_plus(value)
        assert stepped and len(stepped) == len(set(stepped)), value


def test_pi_plus_of_a_single_term_sum_is_pi_plus_of_the_index():
    for depth in range(0, 4):
        for k in itertools.product(range(-2, 3), repeat=depth):
            assert pi_plus(IndexSum.single(k)) == pi_plus(k), k


def test_pi_plus_needs_no_recursion():
    # 117 zeros then 2: a step lowers depth by one, so a recursive reduction
    # would need a frame per level (about 350 in all)
    code = (
        "import sys; from mzvint import pi_plus; sys.setrecursionlimit(150); "
        "print(len(pi_plus((0,) * 117 + (2,))))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "118"
