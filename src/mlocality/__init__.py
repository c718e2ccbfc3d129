"""Hierarchy of multipartite Bell-type inequalities.

Construct the inequality family, evaluate it on noisy n-qubit states,
certify the classical nonsignaling m-local bound numerically, and locate
visibility thresholds for the GHZ and W families.
"""

from .inequality import (
    BellExpression,
    DimensionMismatchError,
    ParameterDomainError,
    Term,
    build_hierarchy_inequality,
    parse_expression,
    serialize_expression,
    term_count,
)
from .lhv import CertificationError, certify_m_local_bound, max_strategy_lhs
from .quantum import (
    MeasurementAngles,
    NoisyState,
    StateVector,
    evaluate_lhs,
    ghz_state,
    w_state,
)
from .search import (
    NoViolationError,
    OptimizerConfig,
    SearchTrace,
    SymmetricAngles,
    ThresholdResult,
    exhaustive_symmetric_max,
    find_threshold,
    maximize_violation,
    reproduce_table,
)

__version__ = "0.1.0"

__all__ = [
    "BellExpression",
    "CertificationError",
    "DimensionMismatchError",
    "MeasurementAngles",
    "NoViolationError",
    "NoisyState",
    "OptimizerConfig",
    "ParameterDomainError",
    "SearchTrace",
    "StateVector",
    "SymmetricAngles",
    "Term",
    "ThresholdResult",
    "build_hierarchy_inequality",
    "certify_m_local_bound",
    "evaluate_lhs",
    "exhaustive_symmetric_max",
    "find_threshold",
    "ghz_state",
    "max_strategy_lhs",
    "maximize_violation",
    "parse_expression",
    "reproduce_table",
    "serialize_expression",
    "term_count",
    "w_state",
]
