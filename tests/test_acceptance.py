"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure). Timed criteria assert their runtime budget as well.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from math import comb

from mzvint.cli import main as cli_main
from mzvint.indices import IndexSum
from mzvint.reduction import pi_plus
from mzvint.relations import dsr_relation, is_homomorphic, min_formula_holds, verify_relation_numeric
from mzvint.series import verify_reduction, verify_shuffle, verify_stuffle, zeta_real_approx
from mzvint.shuffle import shuffle
from mzvint.stuffle import stuffle
from mzvint.shuffle import index_from_word, word_from_index

ZETA_2 = math.pi**2 / 6
ZETA_3 = 1.2020569031595942854


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _sample(rng: random.Random, max_depth: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randint(lo, hi) for _ in range(rng.randint(0, max_depth)))


def test_criterion_01_reduction_identity_exhaustive_grid():
    start = time.monotonic()
    count = 0
    failures = []
    for depth in range(0, 4):
        for k in itertools.product(range(-3, 5), repeat=depth):
            count += 1
            if not verify_reduction(k, 60).passed:
                failures.append(k)
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _report("criterion 1 (reduction identity, order 60)", ok, f"{count} cases, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 60.0


def test_criterion_02_worked_reductions():
    got_a = pi_plus((0, 3))
    got_b = pi_plus((-1, 4))
    ok = got_a == IndexSum([((2,), 1), ((3,), -1)]) and got_b == IndexSum(
        [((2,), Fraction(1, 2)), ((3,), Fraction(-1, 2))]
    )
    _report("criterion 2 (worked reductions)", ok, f"{got_a.pretty()}; {got_b.pretty()}")
    assert ok


def test_criterion_03_shuffle_min_formula_thousand_pairs():
    rng = random.Random(2026)
    start = time.monotonic()
    failures = []
    for _ in range(1000):
        k, k2 = _sample(rng, 4, -4, 4), _sample(rng, 4, -4, 4)
        if not min_formula_holds(shuffle, k, k2):
            failures.append((k, k2))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    _report("criterion 3 (shuffle min-formula)", ok, f"1000 pairs, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 30.0


def test_criterion_04_stuffle_min_formula_thousand_pairs():
    rng = random.Random(2027)
    start = time.monotonic()
    failures = []
    for _ in range(1000):
        k, k2 = _sample(rng, 4, -4, 4), _sample(rng, 4, -4, 4)
        if not min_formula_holds(stuffle, k, k2):
            failures.append((k, k2))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    _report("criterion 4 (stuffle min-formula)", ok, f"1000 pairs, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 10.0


def test_criterion_05_exact_stuffle_oracle():
    rng = random.Random(2028)
    failures = []
    for _ in range(500):
        k, k2 = _sample(rng, 3, -3, 3), _sample(rng, 3, -3, 3)
        if not verify_stuffle(k, k2, 50).passed:
            failures.append((k, k2))
    ok = not failures
    _report("criterion 5 (exact stuffle oracle, bound 50)", ok, "500 pairs")
    assert not failures, failures[:5]


def test_criterion_06_exact_shuffle_oracle():
    rng = random.Random(2029)
    failures = []
    for _ in range(500):
        k, k2 = _sample(rng, 3, -3, 3), _sample(rng, 3, -3, 3)
        if not verify_shuffle(k, k2, 60).passed:
            failures.append((k, k2))
    ok = not failures
    _report("criterion 6 (exact shuffle oracle, order 60)", ok, "500 pairs")
    # any mismatch here is a release blocker: it would falsify the adopted
    # series-level product identity
    assert not failures, failures[:5]


def test_criterion_07_reduction_is_product_homomorphism():
    start = time.monotonic()
    grid = [()] + [
        k for depth in (1, 2) for k in itertools.product(range(-2, 4), repeat=depth)
    ]
    failures = []
    for k in grid:
        for k2 in grid:
            if not is_homomorphic(shuffle, k, k2):
                failures.append(("shuffle", k, k2))
            if not is_homomorphic(stuffle, k, k2):
                failures.append(("stuffle", k, k2))
    rng = random.Random(2030)
    deep = 0
    while deep < 200:
        k, k2 = _sample(rng, 3, -2, 3), _sample(rng, 3, -2, 3)
        deep += 1
        if not is_homomorphic(shuffle, k, k2):
            failures.append(("shuffle-deep", k, k2))
        if not is_homomorphic(stuffle, k, k2):
            failures.append(("stuffle-deep", k, k2))
    elapsed = time.monotonic() - start
    ok = not failures
    _report(
        "criterion 7 (homomorphism, exhaustive + 200 random)",
        ok,
        f"{len(grid) ** 2} grid pairs, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]


def test_criterion_08_euler_instance():
    sh = shuffle((2,), (3,))
    st = stuffle((2,), (3,))
    ok_sh = sh == IndexSum([((2, 3), 3), ((1, 4), 6), ((3, 2), 1)])
    ok_st = st == IndexSum([((2, 3), 1), ((3, 2), 1), ((5,), 1)])
    rel = dsr_relation((2,), (3,))
    ok_diff = rel.difference == IndexSum([((2, 3), 2), ((1, 4), 6), ((5,), -1)])
    report = verify_relation_numeric(rel, 10000, 1e-3)
    ok = ok_sh and ok_st and ok_diff and report.passed
    _report("criterion 8 (Euler instance)", ok, f"|difference| = {abs(report.value):.2e}")
    assert ok


# --------------------------------------------------------------------------
# criterion 9: the depth-one-by-depth-two family with a negative middle entry
#
# Independent closed-form oracle for (a) # (b,c) with b < 0: outer weights
# C(c-1+i, i) over i < a and C(a-1+i, i) over i < c, the same binomial
# pattern as the depth-one Euler decomposition; exactness of the whole form
# is re-checked against the series oracle below. The delta-extended
# binomial implements the convention C(n, -1) = 1 iff n = -1.


def _binomial_delta(n: int, k: int) -> int:
    if k == -1:
        return 1 if n == -1 else 0
    if k < -1:
        return 0
    return comb(n, k) if 0 <= k <= n else 0


def closed_shuffle_expansion(a: int, b: int, c: int) -> IndexSum:
    assert b < 0
    terms = []
    for i in range(0, a):
        w = comb(c - 1 + i, i)
        s = a - i
        for j in range(0, min(s - 1, -b) + 1):
            terms.append(((s - j, b + j, c + i), w * (-1) ** j * _binomial_delta(-b, j)))
        for j in range(0, -b - s + 1):
            coeff = _binomial_delta(-b - 1 - j, s - 1)
            if coeff:
                terms.append(((-j, b + s + j, c + i), w * (-1) ** s * coeff))
    for i in range(0, c):
        terms.append(((b, c - i, a + i), comb(a - 1 + i, i)))
    return IndexSum(terms)


def closed_stuffle_expansion(a: int, b: int, c: int) -> IndexSum:
    return IndexSum(
        [((b, c, a), 1), ((b, a, c), 1), ((a, b, c), 1), ((a + b, c), 1), ((b, a + c), 1)]
    )


def test_criterion_09_worked_family_instance():
    a, b, c = 2, -1, 4
    raw_sh = shuffle((a,), (b, c))
    raw_st = stuffle((a,), (b, c))
    cf_sh = closed_shuffle_expansion(a, b, c)
    cf_st = closed_stuffle_expansion(a, b, c)
    ok_terms = raw_sh == cf_sh and raw_st == cf_st
    # the closed forms must satisfy the exact series identity themselves
    ok_series = verify_shuffle((a,), (b, c), 60).passed and verify_stuffle((a,), (b, c), 50).passed
    rel = dsr_relation((a,), (b, c))
    ok_expansions = rel.shuffle_expansion == pi_plus(cf_sh) and rel.stuffle_expansion == pi_plus(cf_st)
    report = verify_relation_numeric(rel, 10000, 1e-2)
    ok = ok_terms and ok_series and ok_expansions and report.passed
    _report(
        "criterion 9 (closed-form family at (2,-1,4))",
        ok,
        f"terms match: {ok_terms}, numeric |diff| = {abs(report.value):.2e}",
    )
    assert ok_terms
    assert ok_series
    assert ok_expansions
    assert report.passed


def test_criterion_10_numeric_reduction_check():
    value, _ = zeta_real_approx((0, 3), 10000)
    target = ZETA_2 - ZETA_3
    ok = abs(value - target) < 1e-3
    _report("criterion 10 (numeric reduction check)", ok, f"err = {abs(value - target):.2e}")
    assert ok


def test_criterion_11_bijection_roundtrips():
    rng = random.Random(2031)
    start = time.monotonic()
    failures = 0
    for _ in range(100000):
        k = tuple(rng.randint(-5, 5) for _ in range(rng.randint(0, 6)))
        if index_from_word(word_from_index(k)) != k:
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 5.0
    _report("criterion 11 (bijection round-trips)", ok, f"100000 cases, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 5.0


def test_criterion_12_cli_determinism(capsys):
    invocations = [
        ["pi-plus", "(0,3)"],
        ["shuffle", "(2)", "(3)"],
        ["relation", "(2)", "(0,3)"],
        ["verify", "--suite", "m-formula", "--cases", "25", "--seed", "42"],
        ["verify", "--suite", "stuffle", "--cases", "20", "--seed", "9"],
    ]
    ok = True
    for argv in invocations:
        cli_main(list(argv))
        first = capsys.readouterr()
        cli_main(list(argv))
        second = capsys.readouterr()
        if first != second:
            ok = False
    _report("criterion 12 (CLI determinism)", ok, f"{len(invocations)} invocations x2")
    assert ok
