"""Kalman analysis-step library with cross-objective gain optimality checks.

The analytic Kalman gain is the minimizer of the posterior covariance's
trace. This package computes that gain and the Joseph-form covariance update,
and verifies numerically that the same gain also minimizes the generalized
variance (determinant) and, under Gaussian errors, the differential entropy:
three dispersion objectives, one optimum.
"""

from .exceptions import (DimensionMismatch, GainlabError, InvalidParameter,
                         LineSearchFailed, NotPositiveDefinite)
from .kalman_update import FilterProblem, analytic_gain, joseph_update
from .matrix_core import (cholesky, det, frobenius_norm, log_det, random_spd,
                          trace, validate_covariance)
from .objectives import (ObjectiveKind, analysis_cov_differential,
                         differential_entropy, directional_logdet_differential,
                         finite_difference_gradient, log_generalized_variance,
                         logdet_gradient, objective_gradient, total_variance)
from .optimizer import (EquivalenceReport, OptimizationReport, OptimizerConfig,
                        cross_objective_equivalence, minimize_objective,
                        stationarity_residual, trace_gradient)
from .experiment import (ExperimentConfig, ExperimentResult, SummaryRecord,
                         TrialRecord, emit_report, make_problem, mix_seed,
                         run_experiment)

__version__ = "0.1.0"

__all__ = [
    "GainlabError", "DimensionMismatch", "InvalidParameter",
    "NotPositiveDefinite", "LineSearchFailed",
    "cholesky", "log_det", "det", "trace", "frobenius_norm", "random_spd",
    "validate_covariance",
    "FilterProblem", "analytic_gain", "joseph_update",
    "ObjectiveKind", "total_variance", "log_generalized_variance",
    "differential_entropy", "analysis_cov_differential",
    "directional_logdet_differential", "logdet_gradient",
    "objective_gradient", "finite_difference_gradient",
    "OptimizerConfig", "OptimizationReport", "EquivalenceReport",
    "minimize_objective", "cross_objective_equivalence",
    "stationarity_residual", "trace_gradient",
    "ExperimentConfig", "TrialRecord", "SummaryRecord", "ExperimentResult",
    "make_problem", "mix_seed", "run_experiment", "emit_report",
]
