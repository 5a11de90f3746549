"""Formal zeta symbols for admissible integer indices and the relations the
two products force between them.

An admissible integer index stands for the rational combination of positive
admissible symbols produced by the positive reduction. Multiplying two
symbols through the shuffle product and through the stuffle product must
give the same value, so the difference of the two reduced expansions is a
certified linear relation among positive admissible zeta values. Because
the positive reduction is a homomorphism for both products, each pair is
reduced first and the two positive combinations are then multiplied: the
result is the reduction of the raw product, without the d-rule recursion
on the raw pair or the reduction of its often much larger product.

The checks that both products obey the min-formula for the
regularizability index and that the positive reduction is a homomorphism
for both are here too, shared by ``mzvint verify`` and the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .indices import (
    AdmissibilityError,
    Index,
    IndexSum,
    IndexSumLike,
    is_admissible,
    m_index,
    m_of_sum,
)
from .reduction import pi_plus
from .series import zeta_real_approx
from .shuffle import shuffle
from .stuffle import stuffle

__all__ = [
    "Relation",
    "NumericReport",
    "dsr_relation",
    "verify_relation_numeric",
    "relation_json_line",
    "min_formula_holds",
    "is_homomorphic",
]

Product = Callable[[IndexSumLike, IndexSumLike], IndexSum]


def _require_admissible(k: Index) -> Index:
    k = tuple(k)
    if not is_admissible(k):
        raise AdmissibilityError(
            f"index {k} is not admissible; zeta symbols are only defined for admissible indices"
        )
    return k


@dataclass(frozen=True)
class Relation:
    """A double-product relation instance for one pair of admissible indices.

    ``difference`` is shuffle minus stuffle expansion; read as
    sum(coeff * zeta(index)) = 0 over its terms. Both full expansions are
    kept alongside for auditing and deduplication downstream.
    """

    pair: tuple[Index, Index]
    shuffle_expansion: IndexSum
    stuffle_expansion: IndexSum
    difference: IndexSum


def _check_positive_admissible(s: IndexSum, what: str) -> None:
    # the empty index is vacuously positive and admissible
    for index in s.support():
        if (index and min(index) <= 0) or not is_admissible(index):
            raise RuntimeError(
                f"{what} contains the non positive-admissible index {index}; "
                "this contradicts the closure guarantees and indicates a bug"
            )


def dsr_relation(k: Index, k2: Index) -> Relation:
    """Build the certified relation for a pair of admissible indices.

    The expansions are ``shuffle(a, b)`` and ``stuffle(a, b)`` with
    ``a, b = pi_plus(k), pi_plus(k2)``, the symbols of ``k`` and ``k2``
    expanded into positive admissible symbols. Since pi_plus is a
    homomorphism for both products, they equal ``pi_plus(shuffle(k, k2))``
    and ``pi_plus(stuffle(k, k2))``; a product of two positive admissible
    sums is already positive admissible, so no reduction follows it.
    """
    k = _require_admissible(k)
    k2 = _require_admissible(k2)
    a, b = pi_plus(k), pi_plus(k2)
    shuffle_expansion = shuffle(a, b)
    stuffle_expansion = stuffle(a, b)
    _check_positive_admissible(shuffle_expansion, "shuffle expansion")
    _check_positive_admissible(stuffle_expansion, "stuffle expansion")
    return Relation(
        pair=(k, k2),
        shuffle_expansion=shuffle_expansion,
        stuffle_expansion=stuffle_expansion,
        difference=shuffle_expansion - stuffle_expansion,
    )


@dataclass(frozen=True)
class NumericReport:
    """Floating-point evaluation of a relation's difference."""

    passed: bool
    value: float
    order: int
    tolerance: float


def verify_relation_numeric(rel: Relation, terms: int, tolerance: float) -> NumericReport:
    """Evaluate the difference with real partial sums; pass iff the absolute
    value stays below the tolerance."""
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    total = 0.0
    # canonical order: the float sum must not depend on storage order
    for index, coeff in rel.difference.terms():
        value, _ = zeta_real_approx(index, terms)
        total += float(coeff) * value
    return NumericReport(abs(total) < tolerance, total, terms, tolerance)


def relation_json_line(rel: Relation) -> str:
    """One-line JSON form, stable across runs for identical inputs."""
    payload = {
        "pair": [list(rel.pair[0]), list(rel.pair[1])],
        "shuffle": rel.shuffle_expansion.to_json_dict(),
        "stuffle": rel.stuffle_expansion.to_json_dict(),
        "difference": rel.difference.to_json_dict(),
    }
    return json.dumps(payload, separators=(",", ":"))


# Callers pass the product they look up at call time (``shuffle`` or
# ``stuffle``), and ``pi_plus`` is read from this module's globals on each
# call, so a function rebound on a module is the one that runs.


def min_formula_holds(product: Product, k: Index, k2: Index) -> bool:
    """The product's support has regularizability index
    min(m(k), m(k2), m(k) + m(k2))."""
    m1, m2 = m_index(k), m_index(k2)
    return m_of_sum(product(k, k2)) == min(m1, m2, m1 + m2)


def is_homomorphic(product: Product, k: Index, k2: Index) -> bool:
    """pi_plus(k . k2) equals pi_plus(pi_plus(k) . pi_plus(k2)) for the
    product ``.``."""
    return pi_plus(product(k, k2)) == pi_plus(product(pi_plus(k), pi_plus(k2)))
