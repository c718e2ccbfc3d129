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
from .lhv import (
    CertificationError,
    ConditionalDistribution,
    Partition,
    certify_m_local_bound,
    check_nonsignaling,
    distribution_lhs,
    enumerate_partitions,
    max_strategy_lhs,
    product_distribution,
    sample_nonsignaling_block,
)
from .quantum import (
    MeasurementAngles,
    NoisyState,
    StateVector,
    evaluate_lhs,
    ghz_state,
    term_probability,
    w_state,
)
from .search import (
    NoViolationError,
    OptimizerConfig,
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
    "ConditionalDistribution",
    "DimensionMismatchError",
    "MeasurementAngles",
    "NoViolationError",
    "NoisyState",
    "OptimizerConfig",
    "ParameterDomainError",
    "Partition",
    "StateVector",
    "SymmetricAngles",
    "Term",
    "ThresholdResult",
    "build_hierarchy_inequality",
    "certify_m_local_bound",
    "check_nonsignaling",
    "distribution_lhs",
    "enumerate_partitions",
    "evaluate_lhs",
    "exhaustive_symmetric_max",
    "find_threshold",
    "ghz_state",
    "max_strategy_lhs",
    "maximize_violation",
    "parse_expression",
    "product_distribution",
    "reproduce_table",
    "sample_nonsignaling_block",
    "serialize_expression",
    "term_count",
    "term_probability",
    "w_state",
]
