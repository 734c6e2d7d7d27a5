"""Estimation and simulation toolkit for parallel cluster-randomized
trials with a baseline period.

Public surface: trial containers and variance components, the eight
treatment-effect estimators with model-based and jackknife variances,
exact estimands and large-I limits over finite size mixtures, a
deterministic Monte Carlo engine, and CSV/JSON plumbing.
"""

from .trial import (
    TrialValidationError,
    CorrelationStructure,
    VarianceComponents,
    CellStats,
    ObservedTrial,
)
from .estimators import (
    EstimatorKind,
    EstimationError,
    UnsupportedWeightingError,
    FitOptions,
    FitResult,
    fit,
)
from .reml import estimate_variance_components
from .inference import (
    IntervalEstimate,
    jackknife_variance,
    confidence_interval,
    wald_test,
    fit_with_inference,
)
from .estimands import (
    PopulationMixture,
    true_pate,
    true_cate,
    plim,
    estimand_weights,
    optimal_icc,
    optimal_sampling_prob,
    emew_bias,
)
from .simulate import (
    SimScenario,
    SimReport,
    EstimatorSummary,
    StudyError,
    generate_cells,
    generate_trial,
    run_study,
    expand_truncated_poisson,
)
from .io import (
    parse_trial_csv,
    emit_trial_csv,
    load_scenario_json,
    load_size_table,
)

__version__ = "0.1.0"

__all__ = [
    "TrialValidationError", "CorrelationStructure",
    "VarianceComponents", "CellStats", "ObservedTrial",
    "EstimatorKind", "EstimationError", "UnsupportedWeightingError",
    "FitOptions", "FitResult", "fit", "estimate_variance_components",
    "IntervalEstimate", "jackknife_variance", "confidence_interval",
    "wald_test", "fit_with_inference",
    "PopulationMixture", "true_pate", "true_cate", "plim", "estimand_weights",
    "optimal_icc", "optimal_sampling_prob", "emew_bias",
    "SimScenario", "SimReport", "EstimatorSummary", "StudyError",
    "generate_cells", "generate_trial", "run_study", "expand_truncated_poisson",
    "parse_trial_csv", "emit_trial_csv", "load_scenario_json",
    "load_size_table",
    "__version__",
]
