"""Shuffle product: word recursion, index algebra, and its oracles."""

from __future__ import annotations

import functools
import importlib
import random
from collections import Counter
from fractions import Fraction
from math import comb

from mzvint import clear_caches
from mzvint.indices import IndexSum, add_term, bilinear, m_index, m_of_sum
from mzvint.reduction import pi_plus
from mzvint.series import combination_series, mpl_coefficients, verify_shuffle
from mzvint.shuffle import EMPTY_WORD, index_from_word, shuffle, word_from_index


def euler_product(a: int, b: int) -> IndexSum:
    """Independent oracle: Euler's decomposition of a product of two
    depth-one values, a, b >= 2."""
    terms = []
    for i in range(a):
        terms.append(((a - i, b + i), comb(i + b - 1, b - 1)))
    for i in range(b):
        terms.append(((b - i, a + i), comb(i + a - 1, a - 1)))
    return IndexSum(terms)


# ---------------------------------------------------------------------------
# classical two-letter shuffle, as an independent cross-oracle for positive
# indices


def _two_letter(k: tuple[int, ...]) -> tuple[int, ...]:
    # entry e becomes the block 1 0^{e-1}, read in index order; with this
    # orientation the interleaving identity matches the nested-sum series
    out: list[int] = []
    for e in k:
        out.append(1)
        out.extend([0] * (e - 1))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _interleavings(u: tuple[int, ...], v: tuple[int, ...]):
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    acc: Counter = Counter()
    for rest, c in _interleavings(u[1:], v):
        acc[(u[0],) + rest] += c
    for rest, c in _interleavings(u, v[1:]):
        acc[(v[0],) + rest] += c
    return tuple(acc.items())


def _decode(word: tuple[int, ...]) -> tuple[int, ...]:
    entries: list[int] = []
    for letter in word:
        if letter == 1:
            entries.append(1)
        else:
            entries[-1] += 1
    return tuple(entries)


def classical_shuffle(k, k2) -> IndexSum:
    acc: Counter = Counter()
    for word, c in _interleavings(_two_letter(k), _two_letter(k2)):
        acc[_decode(word)] += c
    return IndexSum(acc.items())


# ---------------------------------------------------------------------------
# word-level examples: a word ending in y is an index, so the word products
# are read on indices (the word of (k_1, ..., k_r) is j^{k_r} y ... j^{k_1} y)


def test_words_with_zero_entries():
    # yy # y = y(y # y) = yyy: the y-rule pulls each leading y out front
    assert shuffle((0, 0), (0,)) == IndexSum.single((0, 0, 0))
    assert verify_shuffle((0, 0), (0,), 40).passed


def test_words_depth_one_positive():
    # jy # jy = 2 jyjy
    assert shuffle((1,), (1,)) == IndexSum.single((1, 1), 2)


def test_words_depth_one_negative():
    # dy # dy = dydy - yddy
    assert shuffle((-1,), (-1,)) == IndexSum([((-1, -1), 1), ((-2, 0), -1)])


def test_unit_laws():
    for k in [(), (0,), (2, 3), (-1, 4)]:
        assert shuffle((), k) == IndexSum.single(k)
        assert shuffle(k, ()) == IndexSum.single(k)


# series certificates for the three word examples
def test_series_certificate_zero_pair():
    # square of sum(z^n) has coefficients n-1
    got = mpl_coefficients((0, 0), 50)
    assert all(got.coeffs[n] == n - 1 for n in range(1, 51))
    assert verify_shuffle((0,), (0,), 50).passed


def test_series_certificate_one_pair():
    assert verify_shuffle((1,), (1,), 50).passed
    # c_n of the double index (1,1) is H_{n-1}/n
    got = mpl_coefficients((1, 1), 30)
    for n in range(1, 31):
        h = sum(Fraction(1, m) for m in range(1, n))
        assert got.coeffs[n] == h / n


def test_series_certificate_negative_pair():
    # both sides are z^2/(1-z)^4, whose coefficients are C(n+1, 3)
    lhs = mpl_coefficients((-1,), 40) * mpl_coefficients((-1,), 40)
    rhs = combination_series(IndexSum([((-1, -1), 1), ((-2, 0), -1)]), 40)
    assert lhs == rhs
    assert all(lhs.coeffs[n] == comb(n + 1, 3) for n in range(2, 41))
    assert verify_shuffle((-1,), (-1,), 50).passed


# ---------------------------------------------------------------------------
# index-level examples


def test_euler_instance_two_three():
    assert shuffle((2,), (3,)) == IndexSum(
        [((2, 3), 3), ((1, 4), 6), ((3, 2), 1)]
    )
    assert shuffle((2,), (3,)) == euler_product(2, 3)


def test_depth_one_squares_match_euler():
    for a in range(2, 6):
        for b in range(a, 6):
            assert shuffle((a,), (b,)) == euler_product(a, b)


def test_zero_times_zero():
    assert shuffle((0,), (0,)) == IndexSum.single((0, 0))


def test_classical_cross_oracle_exhaustive_shallow():
    for ka in range(1, 4):
        for kb in range(1, 4):
            for kc in range(1, 4):
                assert shuffle((ka,), (kb, kc)) == classical_shuffle((ka,), (kb, kc))


def test_classical_cross_oracle_random_deeper():
    rng = random.Random(2024)
    for _ in range(25):
        k = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        k2 = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        if sum(k) + sum(k2) > 14:
            continue
        assert shuffle(k, k2) == classical_shuffle(k, k2)


def test_deterministic_representative_for_unequal_runs():
    # fixed rewriting strategy: the longer run is eliminated first
    expected = IndexSum(
        [((-1, -3), 1), ((-2, -2), -3), ((-3, -1), 3), ((-4, 0), -1)]
    )
    assert shuffle((-1,), (-3,)) == expected
    assert shuffle((-3,), (-1,)) == expected
    assert verify_shuffle((-1,), (-3,), 40).passed


# ---------------------------------------------------------------------------
# algebraic properties


def _sample(rng, max_depth, lo, hi):
    return tuple(rng.randint(lo, hi) for _ in range(rng.randint(0, max_depth)))


def test_min_formula_random():
    rng = random.Random(31)
    for _ in range(300):
        k, k2 = _sample(rng, 4, -4, 4), _sample(rng, 4, -4, 4)
        m1, m2 = m_index(k), m_index(k2)
        assert m_of_sum(shuffle(k, k2)) == min(m1, m2, m1 + m2)


def test_prefix_letter_effect_on_m():
    # prepending a letter to a word acts on the last index entry: j raises
    # it, d lowers it, y appends a zero entry
    rng = random.Random(77)
    for _ in range(300):
        k = _sample(rng, 5, -4, 4)
        m = m_index(k)
        assert m_index(k + (0,)) == min(-1, m - 1)
        if k:
            raised = k[:-1] + (k[-1] + 1,)
            lowered = k[:-1] + (k[-1] - 1,)
            assert m_index(raised) == m + 1
            assert m_index(lowered) == m - 1


def test_closure_admissible_and_regularizable():
    rng = random.Random(5150)
    seen_adm = seen_reg = 0
    while seen_adm < 60 or seen_reg < 60:
        k, k2 = _sample(rng, 3, -3, 3), _sample(rng, 3, -3, 3)
        m1, m2 = m_index(k), m_index(k2)
        if m1 > 0 and m2 > 0:
            seen_adm += 1
            assert all(m_index(l) > 0 for l in shuffle(k, k2).support())
        elif m1 >= 0 and m2 >= 0:
            seen_reg += 1
            assert all(m_index(l) >= 0 for l in shuffle(k, k2).support())


def test_commutativity_literal():
    rng = random.Random(404)
    for _ in range(150):
        k, k2 = _sample(rng, 3, -3, 3), _sample(rng, 3, -3, 3)
        assert shuffle(k, k2) == shuffle(k2, k)


def test_associativity_exactness():
    # The rewrite rules are not confluent on word sums: regrouped triple
    # products may pick different representatives of the same series (e.g.
    # (-1,-3) - 3(-2,-2) + 2(-3,-1) has identically zero coefficients).
    # Associativity therefore holds exactly at the series level and after
    # positive reduction, and literally whenever no d-letters participate.
    rng = random.Random(606)
    nonliteral = 0
    for _ in range(60):
        a, b, c = (_sample(rng, 2, -2, 2) for _ in range(3))
        left = shuffle(shuffle(a, b), c)
        right = shuffle(a, shuffle(b, c))
        if left != right:
            nonliteral += 1
        assert combination_series(left, 25) == combination_series(right, 25)
        assert pi_plus(left) == pi_plus(right)
    # the regrouping ambiguity is real: some triples differ literally
    assert nonliteral > 0


def test_associativity_literal_without_d_letters():
    rng = random.Random(707)
    for _ in range(80):
        a, b, c = (
            tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 3))) for _ in range(3)
        )
        assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))


def test_series_oracle_random_pairs():
    rng = random.Random(808)
    for _ in range(60):
        k, k2 = _sample(rng, 3, -3, 3), _sample(rng, 3, -3, 3)
        report = verify_shuffle(k, k2, 40)
        assert report.passed, (k, k2, report)


def test_bilinearity():
    a = IndexSum([((2,), Fraction(1, 2)), ((0,), Fraction(-1))])
    b = IndexSum([((3,), 2)])
    direct = shuffle(a, b)
    expanded = Fraction(1, 2) * 2 * shuffle((2,), (3,)) + Fraction(-1) * 2 * shuffle(
        (0,), (3,)
    )
    assert direct == expanded


def test_concurrent_calls_match_sequential():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(909)
    pairs = [(_sample(rng, 3, -3, 3), _sample(rng, 3, -3, 3)) for _ in range(40)]
    expected = [shuffle(k, k2) for k, k2 in pairs]
    clear_caches()
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda p: shuffle(*p), pairs))
    assert concurrent == expected


def test_expand_depth_within_letters_plus_one(monkeypatch):
    # the recursion goes at most one level deeper than the two words have
    # letters, so a depth budget proportional to the letter count never fires
    module = importlib.import_module("mzvint.shuffle")
    expand = module._expand
    depth = peak = 0

    def traced(bu, bv):
        nonlocal depth, peak
        depth += 1
        peak = max(peak, depth)
        try:
            return expand(bu, bv)
        finally:
            depth -= 1

    monkeypatch.setattr(module, "_expand", traced)
    rng = random.Random(4242)
    for _ in range(100):
        k, k2 = _sample(rng, 3, -4, 4), _sample(rng, 3, -4, 4)
        clear_caches()  # a warm memo would skip the recursion
        peak = 0
        shuffle(k, k2)
        letters = len(k) + sum(map(abs, k)) + len(k2) + sum(map(abs, k2))
        assert peak <= letters + 1, (k, k2)
    clear_caches()


# ---------------------------------------------------------------------------
# the memo kernel against the rewriting it replaced, which stored every
# y-node and kept each entry as one (blocks, coeff) pair per term

_REFERENCE_MEMO: dict = {}


def reference_expand(bu, bv):
    if bu == EMPTY_WORD:
        return ((bv, 1),)
    if bv == EMPTY_WORD:
        return ((bu, 1),)
    if bv < bu:
        bu, bv = bv, bu
    key = (bu, bv)
    cached = _REFERENCE_MEMO.get(key)
    if cached is not None:
        return cached

    out: dict = {}
    hu, hv = bu[0], bv[0]
    if hu == 0 or hv == 0:
        if hu:
            bu, bv = bv, bu
        for blocks, coeff in reference_expand(bu[1:], bv):
            add_term(out, (0,) + blocks, coeff)
    elif hu < 0 or hv < 0:
        if hu > 0:
            bu, bv = bv, bu
        n = -bu[0]
        rest = (0,) + bu[1:]
        for t in range(n + 1):
            coeff = comb(n, t) if t % 2 == 0 else -comb(n, t)
            shifted = (bv[0] - t,) + bv[1:]
            for blocks, inner in reference_expand(rest, shifted):
                add_term(out, (blocks[0] - (n - t),) + blocks[1:], coeff * inner)
    else:
        for blocks, coeff in reference_expand((hu - 1,) + bu[1:], bv):
            add_term(out, (blocks[0] + 1,) + blocks[1:], coeff)
        for blocks, coeff in reference_expand(bu, (hv - 1,) + bv[1:]):
            add_term(out, (blocks[0] + 1,) + blocks[1:], coeff)

    result = tuple(out.items())
    _REFERENCE_MEMO[key] = result
    return result


def reference_shuffle(k, k2):
    def pair(k, k2):
        terms = reference_expand(word_from_index(k), word_from_index(k2))
        return ((index_from_word(blocks), coeff) for blocks, coeff in terms)

    return bilinear(k, k2, pair)


# the m-formula case that set the verify memory peak (verify seed 65)
SEED_65_PAIR = ((-2, -3, -4, -4), (0, -1, 2, -4))


def test_kernel_matches_reference_term_order():
    rng = random.Random(1515)
    pairs = [(_sample(rng, 3, -4, 4), _sample(rng, 3, -4, 4)) for _ in range(300)]
    # d-runs like the cold CLI's shuffle commands
    pairs += [
        ((-7, 2, 3), (4, 1, 2)),
        ((-2, 1, 1), (3, 2)),
        ((-5, 4), (1, 3, 2)),
        ((-6, 1, 2), (5,)),
        ((-3, 3, 1), (2, 2, 2)),
        SEED_65_PAIR,
    ]
    # each route runs on a cold memo and then reuses it across the pairs
    clear_caches()
    got = [list(shuffle(k, k2)._nums.items()) for k, k2 in pairs]
    clear_caches()
    _REFERENCE_MEMO.clear()
    expected = [list(reference_shuffle(k, k2)._nums.items()) for k, k2 in pairs]
    _REFERENCE_MEMO.clear()
    for pair, g, e in zip(pairs, got, expected):
        assert g == e, pair


def test_product_keys_are_the_memo_terms():
    # a pair with no leading y reads its terms off the top memo entry uncopied
    module = importlib.import_module("mzvint.shuffle")
    for k, k2 in (SEED_65_PAIR, ((2, 3), (1, 2))):
        clear_caches()
        product = shuffle(k, k2)
        indices, _ = module._MEMO[tuple(sorted((word_from_index(k), word_from_index(k2))))]
        by_id = {id(index): index for index in indices}
        assert product and all(by_id.get(id(index)) is index for index in product._nums), (k, k2)
        for indices, _ in module._MEMO.values():
            for index in indices:
                assert type(index) is tuple and index != (), index
                assert all(type(entry) is int for entry in index), index
    clear_caches()


def test_memo_stores_no_y_node_and_parallel_tuples():
    module = importlib.import_module("mzvint.shuffle")
    clear_caches()
    shuffle(*SEED_65_PAIR)
    memo = module._MEMO
    for bu, bv in memo:
        assert bu <= bv
        for word in (bu, bv):
            assert word != EMPTY_WORD and word[0] != 0, (bu, bv)
    for blocks, coeffs in memo.values():
        assert len(blocks) == len(coeffs)
    # the kernel that stored y-nodes kept 221 entries of 131 146 terms
    assert len(memo) <= 85
    assert sum(len(blocks) for blocks, _ in memo.values()) <= 81_009
    clear_caches()
