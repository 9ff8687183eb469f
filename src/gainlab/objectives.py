"""Scalar dispersion objectives over the gain matrix, and their derivatives.

Three objectives measure the spread of the posterior covariance produced by
the Joseph update at a candidate gain: the trace (total variance), the
log-determinant (log generalized variance), and the Gaussian differential
entropy. The module also provides the directional differential and analytic
matrix gradient of the log-determinant objective, together with a central
finite-difference gradient that serves as an independent numerical oracle.
"""

import enum
import math

import numpy as np
from scipy.linalg import cho_solve

from . import matrix_core
from .kalman_update import FilterProblem, joseph_update

__all__ = [
    "ObjectiveKind",
    "total_variance",
    "log_generalized_variance",
    "differential_entropy",
    "evaluate_objective",
    "analysis_cov_differential",
    "directional_logdet_differential",
    "logdet_gradient",
    "finite_difference_gradient",
]


class ObjectiveKind(enum.Enum):
    """Which scalar dispersion measure of the posterior covariance to use."""

    TOTAL_VARIANCE = "trace"
    LOG_GENERALIZED_VARIANCE = "logdet"
    DIFFERENTIAL_ENTROPY = "entropy"

    @property
    def short_name(self) -> str:
        return self.value


def total_variance(problem: FilterProblem, gain: np.ndarray) -> float:
    """Trace of the updated covariance; ignores cross-covariances."""
    return matrix_core.trace(joseph_update(problem, gain))


def log_generalized_variance(problem: FilterProblem, gain: np.ndarray) -> float:
    """Log-determinant of the updated covariance.

    Raises NotPositiveDefinite when the update degenerates numerically at the
    given gain; callers doing line searches treat that as a rejected step.
    """
    return matrix_core.log_det(joseph_update(problem, gain))


def differential_entropy(problem: FilterProblem, gain: np.ndarray) -> float:
    """Differential entropy (nats) of a Gaussian with the updated covariance.

    Evaluates ``(N/2) log(2 pi e) + (1/2) log det`` with N the state
    dimension. The constant first term is included, not dropped, so absolute
    entropies are meaningful; differences between gains still depend only on
    the log-determinant term.
    """
    return _entropy(problem.state_dim, log_generalized_variance(problem, gain))


def _entropy(state_dim: int, logdet: float) -> float:
    """Gaussian entropy in dimension ``state_dim`` from the covariance's log-det."""
    constant = 0.5 * state_dim * math.log(2.0 * math.pi * math.e)
    return constant + 0.5 * logdet


_EVALUATORS = {
    ObjectiveKind.TOTAL_VARIANCE: total_variance,
    ObjectiveKind.LOG_GENERALIZED_VARIANCE: log_generalized_variance,
    ObjectiveKind.DIFFERENTIAL_ENTROPY: differential_entropy,
}


def evaluate_objective(problem: FilterProblem, gain: np.ndarray,
                       kind: ObjectiveKind) -> float:
    """Evaluate the selected objective at a gain."""
    return _EVALUATORS[kind](problem, gain)


def analysis_cov_differential(problem: FilterProblem, gain: np.ndarray,
                              dgain: np.ndarray) -> np.ndarray:
    """First-order change of the updated covariance for a gain perturbation.

    Expands d(posterior) at ``gain`` in direction ``dgain`` into its six
    terms; linear in ``dgain`` and equal to the central difference of
    ``joseph_update`` up to O(h^2).
    """
    k = problem.check_gain(gain)
    dk = problem.check_gain(dgain, name="dgain")
    p = problem.prior
    h = problem.obs_op
    r = problem.obs_noise
    ph_t = p @ h.T            # (n, m)
    khph_t = k @ h @ ph_t     # (n, n)
    kr = k @ r                # (n, m)
    return (-ph_t @ dk.T - dk @ ph_t.T
            + dk @ khph_t.T + khph_t @ dk.T
            + dk @ kr.T + kr @ dk.T)


def directional_logdet_differential(problem: FilterProblem, gain: np.ndarray,
                                    dgain: np.ndarray) -> float:
    """Directional derivative of the log-determinant objective.

    Computed in trace form as ``tr(inv(P_posterior) @ dP_posterior)``; agrees
    with the Frobenius inner product of :func:`logdet_gradient` with the
    direction.
    """
    posterior = joseph_update(problem, gain)
    factor = matrix_core.cholesky(posterior)
    dposterior = analysis_cov_differential(problem, gain, dgain)
    return float(np.trace(cho_solve((factor, True), dposterior)))


def logdet_gradient(problem: FilterProblem, gain: np.ndarray) -> np.ndarray:
    """Analytic gradient of the log-determinant objective with respect to the gain.

    Evaluates ``inv(P_posterior) @ (2 K H P H.T + 2 K R - 2 P H.T)``, shape
    (n, m). The posterior is Cholesky-validated, and the inverse is applied
    by a linear solve and kept un-symmetrized, exactly as the closed form
    states it; the finite-difference oracle arbitrates correctness.
    """
    k = problem.check_gain(gain)
    posterior = joseph_update(problem, k)
    matrix_core.cholesky(posterior)
    return _logdet_gradient(posterior,
                            _trace_gradient(k, *_gradient_terms(problem)))


def _gradient_terms(problem: FilterProblem) -> tuple[np.ndarray, np.ndarray]:
    """``P H.T`` and ``H (P H.T) + R``: the gain-free terms of both gradients.

    The second term is left unsymmetrized, unlike
    :func:`~gainlab.kalman_update.innovation_covariance`, which also
    associates its products differently. ``problem`` may be a stack of
    problems, as in :func:`~gainlab.kalman_update._joseph_form`.
    """
    ph_t = problem.prior @ problem.obs_op.swapaxes(-1, -2)
    return ph_t, problem.obs_op @ ph_t + problem.obs_noise


def _trace_gradient(gain: np.ndarray, ph_t: np.ndarray,
                    gram: np.ndarray) -> np.ndarray:
    """Total-variance gradient ``2 K (H P H.T + R) - 2 P H.T`` from its terms."""
    return 2.0 * (gain @ gram - ph_t)


def _logdet_gradient(posterior: np.ndarray,
                     trace_grad: np.ndarray) -> np.ndarray:
    """Log-det gradient: the trace gradient solved against the posterior.

    ``posterior`` is the SPD posterior at the same gain; both arguments may
    be stacks, and a stacked solve equals the per-row solves bit for bit.
    """
    return np.linalg.solve(posterior, trace_grad)


def finite_difference_gradient(problem: FilterProblem, gain: np.ndarray,
                               kind: ObjectiveKind) -> np.ndarray:
    """Central-difference gradient of an objective; the independent oracle.

    Perturbs one gain entry at a time with step ``1e-6 * (1 + |k_ij|)``,
    which balances truncation against rounding for double precision.
    """
    k = problem.check_gain(gain)
    grad = np.zeros_like(k)
    objective = _EVALUATORS[kind]
    for i in range(k.shape[0]):
        for j in range(k.shape[1]):
            step = 1e-6 * (1.0 + abs(k[i, j]))
            bumped = k.copy()
            bumped[i, j] = k[i, j] + step
            plus = objective(problem, bumped)
            bumped[i, j] = k[i, j] - step
            minus = objective(problem, bumped)
            grad[i, j] = (plus - minus) / (2.0 * step)
    return grad
