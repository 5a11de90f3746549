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
Bernoulli numbers and rational text forms they rest on. The word encoding
behind the shuffle product (``mzvint.words``), the shared checks
(``mzvint.relations``) and the command line (``mzvint.cli``) stay in their
modules.
"""

from .indices import (
    EMPTY_INDEX,
    INFINITY,
    AdmissibilityError,
    Index,
    IndexClass,
    IndexSum,
    as_index_sum,
    classify,
    concat,
    depth,
    format_index,
    is_admissible,
    is_regularizable,
    m_index,
    m_of_sum,
    tail_index,
    weight,
)
from .rationals import bernoulli, binomial, format_rational, parse_rational
from .reduction import pi_plus, reduce_step
from .relations import (
    NumericReport,
    Relation,
    dsr_relation,
    relation_json_dict,
    relation_json_line,
    verify_relation_numeric,
    zeta_expand,
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

__all__ = [
    "AdmissibilityError",
    "EMPTY_INDEX",
    "INFINITY",
    "Index",
    "IndexClass",
    "IndexSum",
    "NumericReport",
    "Relation",
    "Report",
    "SeriesPoly",
    "as_index_sum",
    "bernoulli",
    "binomial",
    "classify",
    "combination_series",
    "concat",
    "depth",
    "dsr_relation",
    "format_index",
    "format_rational",
    "harmonic_sum",
    "is_admissible",
    "is_regularizable",
    "m_index",
    "m_of_sum",
    "mpl_coefficients",
    "parse_rational",
    "pi_plus",
    "reduce_step",
    "relation_json_dict",
    "relation_json_line",
    "shuffle",
    "stuffle",
    "tail_index",
    "verify_reduction",
    "verify_relation_numeric",
    "verify_shuffle",
    "verify_stuffle",
    "weight",
    "zeta_expand",
    "zeta_real_approx",
]
