"""Functional linear processes with space-varying long memory.

The package simulates sequences of random functions built by filtering
spatially correlated innovations through power-law moving-average weights
whose exponent varies over the index space, computes their exact and
asymptotic covariance structure, and verifies the central limit theorem
for the suitably renormalized partial sums by deterministic identities
and Monte Carlo experiments.
"""

from .model import (
    InnovationModel,
    MemoryFunction,
    ProcessSpec,
    SpaceGrid,
    TailBudgetError,
    ValidationError,
    ValidationReport,
    load_spec,
    spec_from_dict,
    truncation_length,
    validate,
)
from .analytics import (
    RegimeError,
    classify_summability,
    cross_covariance_asymptotic,
    cross_covariance_matrix,
    l2_membership,
    limit_kernel,
    normalization_plan,
    partial_sum_covariance_series,
    partial_sum_weights,
    scale_integral,
    scale_integral_closed_form,
)
from .simulate import (
    generate_paths,
    innovation_block,
    partial_sums_via_z,
)
from .mcverify import (
    CovarianceReport,
    ExponentFit,
    NormalityReport,
    fit_variance_exponent,
    normality_diagnostics,
    run_clt_experiment,
)

__version__ = "0.28.0"

__all__ = [
    "CovarianceReport",
    "ExponentFit",
    "InnovationModel",
    "MemoryFunction",
    "NormalityReport",
    "ProcessSpec",
    "RegimeError",
    "SpaceGrid",
    "TailBudgetError",
    "ValidationError",
    "ValidationReport",
    "classify_summability",
    "cross_covariance_asymptotic",
    "cross_covariance_matrix",
    "fit_variance_exponent",
    "generate_paths",
    "innovation_block",
    "l2_membership",
    "limit_kernel",
    "load_spec",
    "normality_diagnostics",
    "normalization_plan",
    "partial_sum_covariance_series",
    "partial_sum_weights",
    "partial_sums_via_z",
    "run_clt_experiment",
    "scale_integral",
    "scale_integral_closed_form",
    "spec_from_dict",
    "truncation_length",
    "validate",
    "__version__",
]
