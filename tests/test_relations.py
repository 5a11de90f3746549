"""Zeta symbols and certified double-product relations."""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction

import pytest

import mzvint.relations as relations
from mzvint import clear_caches
from mzvint.indices import AdmissibilityError, IndexSum, format_index, is_admissible
from mzvint.reduction import pi_plus
from mzvint.relations import (
    Relation,
    dsr_relation,
    relation_json_line,
    verify_relation_numeric,
)
from mzvint.shuffle import shuffle
from mzvint.stuffle import stuffle


def test_dsr_relation_euler_pair():
    rel = dsr_relation((2,), (3,))
    assert rel.pair == ((2,), (3,))
    assert rel.shuffle_expansion == IndexSum([((2, 3), 3), ((1, 4), 6), ((3, 2), 1)])
    assert rel.stuffle_expansion == IndexSum([((2, 3), 1), ((3, 2), 1), ((5,), 1)])
    assert rel.difference == IndexSum([((2, 3), 2), ((1, 4), 6), ((5,), -1)])


def test_dsr_relation_square_pair():
    rel = dsr_relation((2,), (2,))
    assert rel.shuffle_expansion == IndexSum([((2, 2), 2), ((1, 3), 4)])
    assert rel.stuffle_expansion == IndexSum([((2, 2), 2), ((4,), 1)])
    assert rel.difference == IndexSum([((1, 3), 4), ((4,), -1)])
    report = verify_relation_numeric(rel, 10000, 1e-3)
    assert report.passed


def test_dsr_relation_rejects_non_admissible():
    # (1,) is regularizable only; the others are not regularizable
    for bad in [(1,), (2, 1), (0,), (3, 1)]:
        with pytest.raises(AdmissibilityError):
            dsr_relation(bad, (2,))
        with pytest.raises(AdmissibilityError):
            dsr_relation((2,), bad)


def test_expansions_are_positive_admissible():
    rng = random.Random(67)
    produced = 0
    while produced < 40:
        k = tuple(rng.randint(-2, 4) for _ in range(rng.randint(0, 3)))
        k2 = tuple(rng.randint(-2, 4) for _ in range(rng.randint(0, 3)))
        if not (is_admissible(k) and is_admissible(k2)):
            continue
        produced += 1
        rel = dsr_relation(k, k2)
        for expansion in (rel.shuffle_expansion, rel.stuffle_expansion, rel.difference):
            for index, _ in expansion:
                assert all(e > 0 for e in index) and is_admissible(index)


def test_difference_reads_as_vanishing_combination():
    rel = dsr_relation((2,), (3,))
    report = verify_relation_numeric(rel, 10000, 1e-3)
    assert report.passed
    assert abs(report.value) < 1e-6


def test_all_small_weight_relations_pass_numeric_check():
    # every relation built from admissible pairs of total weight <= 7
    # (depth <= 2 pool, entries in [-2, 5]) vanishes numerically
    pool = []
    for d in (0, 1, 2):
        for k in itertools.product(range(-2, 6), repeat=d):
            if is_admissible(k) and sum(k) <= 6:
                pool.append(k)
    checked = 0
    for i, k in enumerate(pool):
        for k2 in pool[i:]:
            if sum(k) + sum(k2) > 7:
                continue
            rel = dsr_relation(k, k2)
            report = verify_relation_numeric(rel, 10000, 1e-2)
            assert report.passed, (k, k2, report.value)
            checked += 1
    assert checked > 50


def test_zero_difference_passes_trivially():
    rel = Relation(
        pair=((2,), ()),
        shuffle_expansion=IndexSum.single((2,)),
        stuffle_expansion=IndexSum.single((2,)),
    )
    assert rel.difference == IndexSum()
    report = verify_relation_numeric(rel, 10, 1e-12)
    assert report.passed and report.value == 0.0


def test_verify_relation_numeric_guards():
    rel = dsr_relation((2,), (3,))
    with pytest.raises(ValueError):
        verify_relation_numeric(rel, 0, 1e-3)
    with pytest.raises(ValueError):
        verify_relation_numeric(rel, 100, 0.0)


def test_relation_json_shape_and_stability():
    rel = dsr_relation((2,), (3,))
    line1 = relation_json_line(rel)
    line2 = relation_json_line(dsr_relation((2,), (3,)))
    assert line1 == line2
    data = json.loads(line1)
    assert data["pair"] == [[2], [3]]
    assert set(data) == {"pair", "shuffle", "stuffle", "difference"}
    assert data["difference"]["terms"][0] == {"coeff": "-1", "index": [5]}
    assert data["shuffle"] == reference_terms(rel.shuffle_expansion)
    assert line1 == reference_json_line(rel)


def reference_terms(s):
    return {"terms": [{"coeff": str(c), "index": list(index)} for index, c in s.terms()]}


def reference_json_line(rel):
    """The line as ``json.dumps`` writes it: the reference for the text the
    one-pass writer builds by hand."""
    payload = {
        "pair": [list(rel.pair[0]), list(rel.pair[1])],
        "shuffle": reference_terms(rel.shuffle_expansion),
        "stuffle": reference_terms(rel.stuffle_expansion),
        "difference": reference_terms(rel.difference),
    }
    return json.dumps(payload, separators=(",", ":"))


def test_relation_json_line_matches_json_dumps_on_edge_cases():
    # an empty difference, and an empty index in the pair
    rel = dsr_relation((), (2,))
    assert rel.difference == IndexSum()
    assert relation_json_line(rel).endswith(',"difference":{"terms":[]}}')
    # non-integer coefficients: pi_plus((1, -3, 4)) has denominators, and so
    # does the relation of (-1, 4)
    reduced = pi_plus((1, -3, 4))
    rel = Relation(((1, -3, 4), ()), reduced, -reduced)
    assert rel.difference == reduced + reduced
    assert "/" in relation_json_line(rel) and "/" in relation_json_line(dsr_relation((-1, 4), (2,)))
    # coefficients of more than 20 digits, over a common denominator that
    # some numerators share
    big = Fraction(10**25 + 1, 3)
    shuffle_expansion = IndexSum([((2, 3), big), ((5,), Fraction(1, 3)), ((1, 4), 2)])
    stuffle_expansion = IndexSum([((2, 3), -big), ((3, 2), Fraction(10**22, 7))])
    wide = Relation(((2,), (3,)), shuffle_expansion, stuffle_expansion)
    assert wide.difference == shuffle_expansion - stuffle_expansion
    for r in (dsr_relation((), (2,)), rel, dsr_relation((-1, 4), (2,)), wide):
        assert relation_json_line(r) == reference_json_line(r)
    assert str(2 * big) in relation_json_line(wide)


def reference_relation(k, k2):
    """Multiply the raw pair, then reduce: the reference that the
    reduce-first ``dsr_relation`` must match term for term."""
    shuffle_expansion = pi_plus(shuffle(k, k2))
    stuffle_expansion = pi_plus(stuffle(k, k2))
    rel = Relation((k, k2), shuffle_expansion, stuffle_expansion)
    assert rel.difference == shuffle_expansion - stuffle_expansion
    return rel


def assert_same_as_reference(k, k2):
    rel, ref = dsr_relation(k, k2), reference_relation(k, k2)
    # the walk's difference against the one integer_sum makes
    assert rel.difference == rel.shuffle_expansion - rel.stuffle_expansion, (k, k2)
    assert rel == ref, (k, k2)
    assert relation_json_line(rel) == relation_json_line(ref), (k, k2)


# the relation_sweep box: depth <= 3, entries -2..4, weight <= 5
SWEEP_BOX = [
    k
    for d in (1, 2, 3)
    for k in itertools.product(range(-2, 5), repeat=d)
    if sum(k) <= 5 and is_admissible(k)
]


def test_relation_json_line_matches_json_dumps_on_sweep_box():
    for k, k2 in itertools.combinations_with_replacement(SWEEP_BOX, 2):
        rel = dsr_relation(k, k2)
        assert relation_json_line(rel) == reference_json_line(rel), (k, k2)


def test_reduce_first_matches_reference_route_on_sweep_box():
    pairs = list(itertools.combinations_with_replacement(SWEEP_BOX, 2))
    assert len(pairs) == 741
    for k, k2 in pairs:
        assert_same_as_reference(k, k2)


@pytest.mark.parametrize(
    "k, k2",
    [
        ((2, -3, -3, 10), (1, -2, 5)),
        ((-4, 7), (-4, 7)),
        ((1, -30, 35), (3,)),
        ((1, -20, 25), (3,)),
    ],
)
def test_reduce_first_matches_reference_route_on_extreme_pairs(k, k2):
    try:
        assert_same_as_reference(k, k2)
    finally:
        clear_caches()  # the reference route leaves large memo tables behind


def test_positivity_guard_stays_live(monkeypatch):
    # a product that breaks the closure guarantee: (0, 2) is neither positive nor
    # admissible, m((0,2)) = min(1, 0) = 0, so it is only regularizable
    monkeypatch.setattr(relations, "shuffle", lambda a, b: IndexSum.single((0, 2)))
    with pytest.raises(RuntimeError, match=r"shuffle expansion contains .*\(0,2\);"):
        dsr_relation((2,), (3,))


@pytest.mark.parametrize("product", ["shuffle", "stuffle"])
@pytest.mark.parametrize("bad", [(0, 2), (2, 1), (1,), (3, -1, 4), (2, 2, 1)])
def test_positivity_guard_names_each_bad_index(monkeypatch, product, bad):
    # (3, -1, 4) is admissible but not positive; (2, 1) and (1,) are positive but
    # not admissible; (0, 2) is neither, only regularizable; the good term keeps
    # the support mixed
    monkeypatch.setattr(relations, product, lambda a, b: IndexSum([((2, 3), 1), (bad, 1)]))
    with pytest.raises(RuntimeError, match=rf"{product} expansion contains .*{re.escape(format_index(bad))};"):
        dsr_relation((2,), (3,))


def test_positivity_guard_names_the_shuffle_index_when_both_break(monkeypatch):
    # each expansion breaks closure at its own index: the shuffle's is named
    monkeypatch.setattr(relations, "shuffle", lambda a, b: IndexSum([((2, 3), 1), ((2, 1), 1)]))
    monkeypatch.setattr(relations, "stuffle", lambda a, b: IndexSum([((0, 2), 1), ((2, 3), 1)]))
    with pytest.raises(RuntimeError, match=r"shuffle expansion contains .*\(2,1\);"):
        dsr_relation((2,), (3,))


def test_positivity_guard_passes_positive_admissible_support(monkeypatch):
    out = IndexSum([((), 1), ((2,), 1), ((1, 1, 2), 1)])
    monkeypatch.setattr(relations, "shuffle", lambda a, b: out)
    assert dsr_relation((2,), (3,)).shuffle_expansion == out
