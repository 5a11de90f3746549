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
on the raw pair or the reduction of its often much larger product. One
sorted walk over the two expansions' joint support, which holds the
difference's, checks closure, forms the difference and writes the JSON text
of all three sums.

The checks that both products obey the min-formula and that π⁺ is a
homomorphism for both are here too, shared by ``mzvint verify`` and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .indices import (
    AdmissibilityError,
    Index,
    IndexSum,
    IndexSumLike,
    _coeff_head,
    _index_tail,
    format_index,
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

Product = Callable[[IndexSumLike, IndexSumLike], "IndexSum"]  # by name: typing's cache would pin the class


def _require_admissible(k: Index) -> Index:
    k = tuple(k)
    if not is_admissible(k):
        raise AdmissibilityError(
            f"index {format_index(k)} is not admissible; zeta symbols are only defined for admissible indices"
        )
    return k


@dataclass(frozen=True)
class Relation:
    """A double-product relation instance for one pair of admissible indices.

    ``difference`` is derived: shuffle minus stuffle expansion, read as
    sum(coeff * zeta(index)) = 0 over its terms. Both full expansions are
    kept alongside for auditing and deduplication downstream.
    """

    pair: tuple[Index, Index]
    shuffle_expansion: IndexSum
    stuffle_expansion: IndexSum
    difference: IndexSum = field(init=False)
    _json: tuple[str, str, str] = field(init=False, compare=False, repr=False)
    # the first index outside the positive admissible ones, as (expansion, index):
    # the shuffle's if it has one, else the stuffle's; None if there is none
    _breach: tuple[str, Index] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # One walk over the two supports in canonical order (the difference's
        # lies inside their union) reads each index's closure bit, writes its
        # terms and forms the difference's numerator over lcm of the dens.
        sh, st = self.shuffle_expansion, self.stuffle_expansion
        den_sh, den_st = sh._den, st._den
        den = math.lcm(den_sh, den_st)
        f_sh, f_st = den // den_sh, den // den_st
        get_sh, get_st = sh._nums.get, st._nums.get
        nums: dict[Index, int] = {}
        texts_sh, texts_st, texts_diff, breaches = [], [], [], []
        for index in sorted(sorted(sh._nums.keys() | st._nums.keys()), key=len):
            tail, positive = _index_tail(index)
            if not positive:
                breaches.append(("shuffle" if index in sh._nums else "stuffle", index))
            num = 0
            if (x := get_sh(index)) is not None:
                texts_sh.append(_coeff_head(x, den_sh) + tail)
                num = x * f_sh
            if (y := get_st(index)) is not None:
                texts_st.append(_coeff_head(y, den_st) + tail)
                num -= y * f_st
            if num:
                nums[index] = num
                texts_diff.append(_coeff_head(num, den) + tail)
        g = math.gcd(den, *nums.values())
        if g > 1:
            nums = {index: num // g for index, num in nums.items()}
        object.__setattr__(self, "difference", IndexSum._over(den // g, nums))
        texts = ('{"terms":[' + ",".join(t) + "]}" for t in (texts_sh, texts_st, texts_diff))
        object.__setattr__(self, "_json", tuple(texts))
        object.__setattr__(self, "_breach", min(breaches, key=lambda b: b[0] == "stuffle", default=None))


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
    rel = Relation((k, k2), shuffle(a, b), stuffle(a, b))
    if rel._breach is not None:
        what, index = rel._breach
        raise RuntimeError(
            f"{what} expansion contains the non positive-admissible index {format_index(index)}; "
            "this contradicts the closure guarantees and indicates a bug"
        )
    return rel


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
    left, right = (",".join(map(str, k)) for k in rel.pair)
    return '{"pair":[[%s],[%s]],"shuffle":%s,"stuffle":%s,"difference":%s}' % (left, right, *rel._json)


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
