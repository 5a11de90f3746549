"""Stuffle product: recursion, exact harmonic oracle, algebra laws."""

from __future__ import annotations

import random
from fractions import Fraction

from mzvint.indices import IndexSum, m_index, m_of_sum
from mzvint.series import harmonic_sum, verify_stuffle
from mzvint.stuffle import stuffle


def test_depth_one_pair():
    assert stuffle((2,), (3,)) == IndexSum([((2, 3), 1), ((3, 2), 1), ((5,), 1)])


def test_unit_laws():
    for k in [(), (-1, 4), (0,), (2, 3)]:
        assert stuffle((), k) == IndexSum.single(k)
        assert stuffle(k, ()) == IndexSum.single(k)


def test_mixed_sign_example():
    assert stuffle((2,), (-1, 4)) == IndexSum(
        [
            ((-1, 4, 2), 1),
            ((-1, 2, 4), 1),
            ((2, -1, 4), 1),
            ((1, 4), 1),
            ((-1, 6), 1),
        ]
    )


def test_single_indices_have_integer_coefficients():
    rng = random.Random(11)
    for _ in range(100):
        k = tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 4)))
        k2 = tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 4)))
        for _, coeff in stuffle(k, k2):
            assert coeff.denominator == 1
            assert coeff > 0


def test_term_count_of_depth_one_by_depth_two():
    # one entry against two entries always yields five terms
    result = stuffle((5,), (7, 9))
    assert len(result) == 5


def _sample(rng, max_depth, lo, hi):
    return tuple(rng.randint(lo, hi) for _ in range(rng.randint(0, max_depth)))


def test_harmonic_oracle_random():
    rng = random.Random(23)
    for _ in range(120):
        k, k2 = _sample(rng, 3, -3, 3), _sample(rng, 3, -3, 3)
        assert verify_stuffle(k, k2, 30).passed, (k, k2)


def test_harmonic_oracle_by_hand():
    # H_3(2) * H_3(3) expanded against the three-term decomposition
    lhs = harmonic_sum((2,), 3) * harmonic_sum((3,), 3)
    rhs = (
        harmonic_sum((2, 3), 3)
        + harmonic_sum((3, 2), 3)
        + harmonic_sum((5,), 3)
    )
    assert lhs == rhs


def test_min_formula_random():
    rng = random.Random(37)
    for _ in range(400):
        k, k2 = _sample(rng, 4, -4, 4), _sample(rng, 4, -4, 4)
        m1, m2 = m_index(k), m_index(k2)
        assert m_of_sum(stuffle(k, k2)) == min(m1, m2, m1 + m2)


def test_closure_admissible_and_regularizable():
    rng = random.Random(41)
    seen_adm = seen_reg = 0
    while seen_adm < 60 or seen_reg < 60:
        k, k2 = _sample(rng, 3, -3, 3), _sample(rng, 3, -3, 3)
        m1, m2 = m_index(k), m_index(k2)
        if m1 > 0 and m2 > 0:
            seen_adm += 1
            assert all(m_index(l) > 0 for l in stuffle(k, k2).support())
        elif m1 >= 0 and m2 >= 0:
            seen_reg += 1
            assert all(m_index(l) >= 0 for l in stuffle(k, k2).support())


def test_commutativity_and_associativity_literal():
    rng = random.Random(43)
    for _ in range(120):
        a, b, c = (_sample(rng, 3, -3, 3) for _ in range(3))
        assert stuffle(a, b) == stuffle(b, a)
        assert stuffle(stuffle(a, b), c) == stuffle(a, stuffle(b, c))


def test_bilinearity():
    a = IndexSum([((2,), Fraction(1, 3)), ((1, 1), 1)])
    b = IndexSum([((0,), -2)])
    direct = stuffle(a, b)
    expanded = Fraction(1, 3) * -2 * stuffle((2,), (0,)) + -2 * stuffle((1, 1), (0,))
    assert direct == expanded
