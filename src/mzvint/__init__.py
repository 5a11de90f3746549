"""Exact double-shuffle algebra for multiple zeta values of integer indices.

The package classifies integer indices by their regularizability index,
reduces them to positive-index combinations through an exact power-sum
expansion, implements the extended shuffle and stuffle products, and emits
certified linear relations among positive admissible zeta values. Every
symbolic computation is exact rational arithmetic; independent truncated
series and harmonic-sum oracles verify the identities coefficientwise.

The names exported here are the whole public surface: the index core and
its sparse Q-linear combinations (``IndexSum``), the positive reduction,
the two products, the relations and the oracles that certify them, and the
Bernoulli numbers the reduction rests on; ``clear_caches`` empties every
memo table. The word encoding (``mzvint.shuffle``), the
shared checks (``mzvint.relations``) and the command line (``mzvint.cli``)
stay in their modules.
"""

from .indices import (
    INFINITY,
    AdmissibilityError,
    Index,
    IndexClass,
    IndexSum,
    classify,
    depth,
    format_index,
    is_admissible,
    is_regularizable,
    m_index,
    m_of_sum,
    tail_index,
    weight,
)
from .rationals import _bernoulli_lower, bernoulli
from .reduction import _pi_plus_index, pi_plus, reduce_step
from .relations import (
    NumericReport,
    Relation,
    dsr_relation,
    relation_json_line,
    verify_relation_numeric,
)
from .series import (
    _harmonic_cached,
    _mpl_cached,
    _zeta_real_cached,
    Report,
    SeriesPoly,
    combination_series,
    harmonic_sum,
    mpl_coefficients,
    verify_reduction,
    verify_shuffle,
    verify_stuffle,
    zeta_real_approx,
)
from .shuffle import _MEMO, shuffle
from .stuffle import _pair_sorted, stuffle

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty all seven memo tables: the shuffle and stuffle pair rules, the
    positive reduction of single indices, the series, harmonic and
    floating-point partial sums, and the Bernoulli numbers."""
    _MEMO.clear()
    for table in (
        _pair_sorted,
        _pi_plus_index,
        _mpl_cached,
        _harmonic_cached,
        _zeta_real_cached,
        _bernoulli_lower,
    ):
        table.cache_clear()


__all__ = [
    "AdmissibilityError",
    "INFINITY",
    "Index",
    "IndexClass",
    "IndexSum",
    "NumericReport",
    "Relation",
    "Report",
    "SeriesPoly",
    "bernoulli",
    "classify",
    "clear_caches",
    "combination_series",
    "depth",
    "dsr_relation",
    "format_index",
    "harmonic_sum",
    "is_admissible",
    "is_regularizable",
    "m_index",
    "m_of_sum",
    "mpl_coefficients",
    "pi_plus",
    "reduce_step",
    "relation_json_line",
    "shuffle",
    "stuffle",
    "tail_index",
    "verify_reduction",
    "verify_relation_numeric",
    "verify_shuffle",
    "verify_stuffle",
    "weight",
    "zeta_real_approx",
]
