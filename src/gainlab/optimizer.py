"""Gain-matrix minimization of the dispersion objectives, with convergence reports.

The minimizer is deliberately first-order: the descent direction is always the
negative analytic gradient, so every iteration exercises the closed-form
gradient of the chosen objective. Step sizes come from the Barzilai-Borwein
spectral estimate and are safeguarded by Armijo backtracking; see
:func:`minimize_objective` for the exact acceptance rule.
"""

from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from . import matrix_core, objectives
from .exceptions import InvalidParameter, LineSearchFailed, NotPositiveDefinite
from .kalman_update import (FilterProblem, _joseph_form, analytic_gain,
                            innovation_covariance)
from .matrix_core import frobenius_norm
from .objectives import ObjectiveKind

__all__ = [
    "OptimizerConfig",
    "OptimizationReport",
    "EquivalenceReport",
    "OBJECTIVE_PAIRS",
    "trace_gradient",
    "objective_gradient",
    "stationarity_residual",
    "minimize_objective",
    "cross_objective_equivalence",
]

_EPS = float(np.finfo(float).eps)
_MIN_STEP = 1e-16
_BB_STEP_RANGE = (1e-12, 1e12)
_DESCENT_WINDOW = 10


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for :func:`minimize_objective`.

    ``init_gain`` selects the starting point: the zero gain (``"zero"``, the
    default; it reproduces the prior covariance and is always a valid SPD
    starting point), the analytic gain (``"analytic"``), or an explicit
    (n, m) matrix.
    """

    max_iters: int = 5000
    grad_tol: float = 1e-9
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    initial_step: float = 1.0
    init_gain: Union[str, np.ndarray] = "zero"

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidParameter(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.grad_tol > 0:
            raise InvalidParameter(f"grad_tol must be > 0, got {self.grad_tol}")
        if not 0.0 < self.armijo_c < 1.0:
            raise InvalidParameter(f"armijo_c must be in (0, 1), got {self.armijo_c}")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise InvalidParameter(
                f"backtrack_factor must be in (0, 1), got {self.backtrack_factor}")
        if not self.initial_step > 0:
            raise InvalidParameter(
                f"initial_step must be > 0, got {self.initial_step}")
        if isinstance(self.init_gain, str):
            if self.init_gain not in ("zero", "analytic"):
                raise InvalidParameter(
                    f"init_gain must be 'zero', 'analytic', or a matrix, "
                    f"got {self.init_gain!r}")
        else:
            object.__setattr__(self, "init_gain",
                               np.asarray(self.init_gain, dtype=float))


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of one minimization run."""

    final_gain: np.ndarray
    final_objective: float
    iterations: int
    converged: bool
    gradient_norm_trajectory: list[float]
    stationarity_residual: float
    objective_kind: ObjectiveKind


def trace_gradient(problem: FilterProblem, gain: np.ndarray) -> np.ndarray:
    """Analytic gradient of the total-variance objective.

    This is the log-determinant gradient's bracket without the
    inverse-posterior prefactor: ``2 K (H P H.T + R) - 2 P H.T``. Both
    gradients therefore vanish at exactly the same gain, which is why the
    trace and determinant objectives share their minimizer.
    """
    k = problem.check_gain(gain)
    return objectives._trace_gradient(k, *objectives._gradient_terms(problem))


def _entropy_gradient(problem: FilterProblem, gain: np.ndarray) -> np.ndarray:
    # Entropy = constant + half the log generalized variance.
    return 0.5 * objectives.logdet_gradient(problem, gain)


_GRADIENTS = {
    ObjectiveKind.TOTAL_VARIANCE: trace_gradient,
    ObjectiveKind.LOG_GENERALIZED_VARIANCE: objectives.logdet_gradient,
    ObjectiveKind.DIFFERENTIAL_ENTROPY: _entropy_gradient,
}


def objective_gradient(problem: FilterProblem, gain: np.ndarray,
                       kind: ObjectiveKind) -> np.ndarray:
    """Analytic gradient of the selected objective at a gain."""
    return _GRADIENTS[kind](problem, gain)


def stationarity_residual(problem: FilterProblem, gain: np.ndarray) -> float:
    """Frobenius norm of ``K H P H.T + K R - P H.T``.

    Zero exactly at the analytic gain in exact arithmetic; reported separately
    from the raw gradient norm because it does not carry the inverse-posterior
    prefactor.
    """
    k = problem.check_gain(gain)
    residual = k @ innovation_covariance(problem) - problem.prior @ problem.obs_op.T
    return frobenius_norm(residual)


class _Kernel:
    """Trusted value and gradient of one objective on one problem.

    Built once per minimization; it caches the identity, ``P H.T`` and
    ``H (P H.T) + R``. It evaluates the same private formulas as the public
    functions but skips the checks that cannot fail on an optimizer iterate:
    the problem was validated by :class:`FilterProblem`, every iterate has
    the problem's gain shape, and the symmetrized posterior is exactly
    symmetric. What it keeps: a non-finite gain, or a non-finite posterior
    on the log-det and entropy paths, raises InvalidParameter; a posterior
    whose Cholesky factorization breaks down or has a pivot at or below
    ``PD_TOL`` raises NotPositiveDefinite.
    """

    def __init__(self, problem: FilterProblem, kind: ObjectiveKind):
        self._problem = problem
        self._kind = kind
        self._identity = np.eye(problem.state_dim)
        self._ph_t, self._gram = objectives._gradient_terms(problem)

    def value(self, gain: np.ndarray) -> tuple[float, Optional[np.ndarray]]:
        """Objective at ``gain`` and the posterior's Cholesky factor.

        The factor is None for the total variance, which needs none.
        """
        if not np.isfinite(gain).all():
            raise InvalidParameter("gain contains non-finite entries")
        posterior = _joseph_form(self._problem, gain, self._identity)
        if self._kind is ObjectiveKind.TOTAL_VARIANCE:
            return matrix_core.trace(posterior), None
        if not np.isfinite(posterior).all():
            raise InvalidParameter("matrix contains non-finite entries")
        factor = matrix_core._cholesky_factor(posterior)
        logdet = matrix_core._log_det_of_factor(factor)
        if self._kind is ObjectiveKind.LOG_GENERALIZED_VARIANCE:
            return logdet, factor
        return objectives._entropy(self._problem.state_dim, logdet), factor

    def gradient(self, gain: np.ndarray,
                 factor: Optional[np.ndarray]) -> np.ndarray:
        """Gradient at ``gain``, reusing the factor :meth:`value` returned there."""
        grad = objectives._trace_gradient(gain, self._ph_t, self._gram)
        if self._kind is ObjectiveKind.TOTAL_VARIANCE:
            return grad
        grad = objectives._logdet_gradient(factor, grad)
        if self._kind is ObjectiveKind.LOG_GENERALIZED_VARIANCE:
            return grad
        return 0.5 * grad


def _initial_gain(problem: FilterProblem, config: OptimizerConfig) -> np.ndarray:
    if isinstance(config.init_gain, str):
        if config.init_gain == "zero":
            return np.zeros((problem.state_dim, problem.obs_dim))
        return analytic_gain(problem)
    return problem.check_gain(config.init_gain, name="init_gain")


def minimize_objective(problem: FilterProblem, kind: ObjectiveKind,
                       config: OptimizerConfig = OptimizerConfig(),
                       ) -> OptimizationReport:
    """Minimize an objective over the gain by safeguarded gradient descent.

    Each iteration steps along the negative analytic gradient. The trial step
    is the Barzilai-Borwein estimate ``<s, y> / <y, y>`` from the previous
    displacement/gradient-change pair and is halved by ``backtrack_factor``
    until accepted. The first iteration, which has no spectral information
    yet, uses ``initial_step / ||g||`` so that the first trial displacement
    has norm ``initial_step`` regardless of objective scaling (this keeps
    minimization paths of affinely related objectives aligned).

    Acceptance is the nonmonotone (watchdog) Armijo condition of
    Grippo-Lucidi-Lampariello: a step ``t`` is accepted when

        ``f(k - t g) <= max(recent f) - armijo_c * t * ||g||^2 + slack``

    with the reference value taken over the last 10 accepted iterates and a
    slack of a few ulps of the reference, so rounding noise in the objective
    cannot veto progress. The window lets the spectral step take its
    characteristic transient objective increases, without which the iteration
    degrades to plain gradient descent and provably stalls on ill-conditioned
    instances; the running window maximum is still non-increasing, so every
    iterate stays at or below the starting objective (up to accumulated
    slack).

    Steps whose objective evaluation raises NotPositiveDefinite are rejected
    exactly like Armijo failures, which keeps iterates inside the SPD-feasible
    region without a formal barrier. Convergence is declared on the gradient
    norm, not on objective change.

    Objectives and gradients are evaluated through a trusted kernel built
    once per call rather than through the validating public functions: each
    trial step costs one Joseph update and, for the log-det and entropy, one
    Cholesky factorization with the same pivot floor, and the accepted
    step's factor is reused for its gradient. Values and iterates are
    bit-for-bit those of the public functions.

    Raises
    ------
    LineSearchFailed
        If no acceptable step exists above 1e-16, signalling a numerically
        pathological instance.
    """
    kernel = _Kernel(problem, kind)
    gain = _initial_gain(problem, config)
    val, factor = kernel.value(gain)
    grad = kernel.gradient(gain, factor)
    gnorm = frobenius_norm(grad)
    trajectory = [gnorm]
    recent_vals = [val]

    prev_gain = None
    prev_grad = None
    step = config.initial_step / max(gnorm, _MIN_STEP)
    iterations = 0
    converged = gnorm <= config.grad_tol

    while not converged and iterations < config.max_iters:
        if prev_gain is not None:
            displacement = gain - prev_gain
            grad_change = grad - prev_grad
            sy = float(np.sum(displacement * grad_change))
            yy = float(np.sum(grad_change * grad_change))
            if sy > 0.0 and yy > 0.0:
                step = sy / yy
        step = min(max(step, _BB_STEP_RANGE[0]), _BB_STEP_RANGE[1])

        reference = max(recent_vals)
        slack = 8.0 * _EPS * (1.0 + abs(reference))
        t = step
        candidate = cand_val = cand_factor = None
        while t >= _MIN_STEP:
            trial = gain - t * grad
            try:
                trial_val, trial_factor = kernel.value(trial)
            except NotPositiveDefinite:
                t *= config.backtrack_factor
                continue
            needed = config.armijo_c * t * gnorm * gnorm
            if trial_val <= reference - needed + slack:
                candidate, cand_val, cand_factor = trial, trial_val, trial_factor
                break
            t *= config.backtrack_factor
        if candidate is None:
            raise LineSearchFailed(
                f"no acceptable step above {_MIN_STEP:g} at iteration "
                f"{iterations} (gradient norm {gnorm:.3e})")

        prev_gain, prev_grad = gain, grad
        gain, val = candidate, cand_val
        grad = kernel.gradient(gain, cand_factor)
        gnorm = frobenius_norm(grad)
        trajectory.append(gnorm)
        recent_vals.append(val)
        if len(recent_vals) > _DESCENT_WINDOW:
            recent_vals.pop(0)
        step = t
        iterations += 1
        converged = gnorm <= config.grad_tol

    return OptimizationReport(
        final_gain=gain,
        final_objective=val,
        iterations=iterations,
        converged=converged,
        gradient_norm_trajectory=trajectory,
        stationarity_residual=stationarity_residual(problem, gain),
        objective_kind=kind,
    )


OBJECTIVE_PAIRS = (
    (ObjectiveKind.LOG_GENERALIZED_VARIANCE, ObjectiveKind.TOTAL_VARIANCE),
    (ObjectiveKind.LOG_GENERALIZED_VARIANCE, ObjectiveKind.DIFFERENTIAL_ENTROPY),
    (ObjectiveKind.TOTAL_VARIANCE, ObjectiveKind.DIFFERENTIAL_ENTROPY),
)


@dataclass(frozen=True)
class EquivalenceReport:
    """Cross-objective minimization evidence for one problem.

    All three objectives are minimized from the zero gain; if their optima
    coincide with the closed-form gain, the pairwise distances and the
    distances to the analytic gain are all near zero.
    """

    analytic: np.ndarray
    reports: dict[ObjectiveKind, OptimizationReport]
    distance_to_analytic: dict[ObjectiveKind, float]
    pairwise_distance: dict[tuple[ObjectiveKind, ObjectiveKind], float] = field(
        default_factory=dict)

    @property
    def max_distance_to_analytic(self) -> float:
        return max(self.distance_to_analytic.values())


def cross_objective_equivalence(problem: FilterProblem,
                                config: OptimizerConfig = OptimizerConfig(),
                                ) -> EquivalenceReport:
    """Minimize all three objectives from the zero gain and compare optima."""
    config = replace(config, init_gain="zero")
    reference = analytic_gain(problem)
    reports = {kind: minimize_objective(problem, kind, config)
               for kind in ObjectiveKind}
    to_analytic = {kind: frobenius_norm(report.final_gain - reference)
                   for kind, report in reports.items()}
    pairwise = {(a, b): frobenius_norm(reports[a].final_gain
                                       - reports[b].final_gain)
                for a, b in OBJECTIVE_PAIRS}
    return EquivalenceReport(
        analytic=reference,
        reports=reports,
        distance_to_analytic=to_analytic,
        pairwise_distance=pairwise,
    )
