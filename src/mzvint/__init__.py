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
memo table listed in ``mzvint.indices.MEMO_TABLES``. The word encoding
(``mzvint.shuffle``), the shared checks (``mzvint.relations``) and the
command line (``mzvint.cli``) stay in their modules.
"""

from .indices import (
    INFINITY,
    MEMO_TABLES,
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
from .rationals import bernoulli
from .reduction import pi_plus, reduce_step
from .relations import (
    NumericReport,
    Relation,
    dsr_relation,
    relation_json_line,
    verify_relation_numeric,
)
from .series import (
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
from .shuffle import shuffle
from .stuffle import stuffle

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every table in ``MEMO_TABLES``: the shuffle and stuffle pair
    rules, π⁺ of single indices, the Bernoulli rows of the elimination
    step, the oracles' partial sums, the Bernoulli numbers and the JSON
    texts of each index and coefficient. No table has a size bound; this is
    the one control on growth."""
    for table in MEMO_TABLES:
        table.clear() if isinstance(table, dict) else table.cache_clear()


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
