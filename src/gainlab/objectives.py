"""Scalar dispersion objectives over the gain matrix, and their derivatives.

Three objectives measure the spread of the posterior covariance produced by
the Joseph update at a candidate gain: the trace (total variance), the
log-determinant (log generalized variance), and the Gaussian differential
entropy. The module also provides the directional differential and analytic
matrix gradient of the log-determinant objective, together with a central
finite-difference gradient that serves as an independent numerical oracle.

The objectives also have one stacked form, which evaluates many gains with
one Joseph update and one Cholesky factorization and gives each row the
value, or the error, of the public evaluator, bit for bit. The optimizer
evaluates its iterates through it. So does the oracle: it validates the gain
once, at the public boundary, and evaluates all its perturbed copies as one
stack. The oracle still shares only the objective formulas with the
closed-form gradients, exactly as a loop over the public evaluators would.
"""

import enum
import math

import numpy as np
from scipy.linalg import cho_solve

from . import matrix_core
from .exceptions import InvalidParameter
from .kalman_update import FilterProblem, _joseph_form, joseph_update

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

# Perturbed gains the finite-difference oracle evaluates as one stack, at
# most; this bounds the memory of a gradient check on large problems.
_FD_BLOCK_ROWS = 256


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


def _stacked_values(problem, gains: np.ndarray, identity: np.ndarray,
                    n_trace: int, entropy: np.ndarray):
    """Objective of every row of a (B, n, m) gain stack: (values, posteriors, errors).

    ``problem`` is a :class:`FilterProblem` shared by every row, or a stack
    of validated problems as :func:`~gainlab.kalman_update._joseph_form`
    takes them. Rows ``[0, n_trace)`` evaluate the total variance; every
    other row the log-determinant, or the entropy where the boolean
    ``entropy[row]`` is set. ``identity`` is the (n, n) identity.

    ``errors`` maps a row to what the public evaluator raises at that gain,
    and that row's value is meaningless: InvalidParameter for a non-finite
    gain or, on a log-det or entropy row, a non-finite posterior;
    NotPositiveDefinite for a posterior whose Cholesky factorization breaks
    down or has a pivot at or below ``PD_TOL``. Total-variance rows never
    factorize. Gains have the problem's shape by construction and the
    symmetrized posterior is exactly symmetric, so neither is checked. A row
    without an error has the public evaluator's value, bit for bit.
    """
    errors = {}
    finite = np.isfinite(gains)
    if not finite.all():
        bad = ~finite.all(axis=(-2, -1))
        gains = np.where(bad[:, None, None], 0.0, gains)
        for row in np.flatnonzero(bad):
            errors[int(row)] = InvalidParameter(
                "gain contains non-finite entries")
    posteriors = _joseph_form(problem, gains, identity)
    if n_trace == len(gains):
        return matrix_core._trace(posteriors), posteriors, errors
    values = np.empty(len(gains))
    if n_trace:
        values[:n_trace] = matrix_core._trace(posteriors[:n_trace])
    others = posteriors[n_trace:]
    finite = np.isfinite(others)
    if not finite.all():
        bad = ~finite.all(axis=(-2, -1))
        others = np.where(bad[:, None, None], identity, others)
        for row in np.flatnonzero(bad):
            errors.setdefault(n_trace + int(row), InvalidParameter(
                "matrix contains non-finite entries"))
    factors, failures = matrix_core._cholesky_factors(others)
    for row, exc in failures.items():
        errors.setdefault(n_trace + row, exc)
    logdet = matrix_core._log_det_of_factor(factors)
    values[n_trace:] = np.where(entropy[n_trace:],
                                _entropy(identity.shape[0], logdet), logdet)
    return values, posteriors, errors


def finite_difference_gradient(problem: FilterProblem, gain: np.ndarray,
                               kind: ObjectiveKind) -> np.ndarray:
    """Central-difference gradient of an objective; the independent oracle.

    Perturbs one gain entry at a time with step ``1e-6 * (1 + |k_ij|)``,
    which balances truncation against rounding for double precision. The
    gain is validated once; its 2·n·m perturbed copies are then evaluated as
    stacks of at most ``_FD_BLOCK_ROWS`` rows, each with one Joseph update
    and, for the log-det and entropy, one Cholesky factorization. Every
    value equals the public evaluator's at that perturbed gain, bit for bit,
    so the oracle shares only the objective formulas with the closed-form
    gradients, as the public evaluators do. Of several failing
    perturbations, the error is that of the first in entry-major order, the
    upward step before the downward one.

    Raises
    ------
    InvalidParameter
        If a perturbed gain, or on the log-det and entropy its posterior, is
        not finite.
    NotPositiveDefinite
        If a perturbed posterior is not SPD (log-det and entropy).
    """
    k = problem.check_gain(gain)
    steps = 1e-6 * (1.0 + np.abs(k.ravel()))
    entries = np.arange(k.size)
    # Row 2e moves entry e up by its step, row 2e + 1 moves it down.
    flat = np.repeat(k.reshape(1, -1), 2 * k.size, axis=0)
    flat[2 * entries, entries] += steps
    flat[2 * entries + 1, entries] -= steps
    bumped = flat.reshape(-1, *k.shape)
    trace = kind is ObjectiveKind.TOTAL_VARIANCE
    entropy = np.full(len(bumped), kind is ObjectiveKind.DIFFERENTIAL_ENTROPY)
    identity = np.eye(problem.state_dim)
    values = np.empty(len(bumped))
    for start in range(0, len(bumped), _FD_BLOCK_ROWS):
        rows = bumped[start:start + _FD_BLOCK_ROWS]
        values[start:start + len(rows)], _, errors = _stacked_values(
            problem, rows, identity, len(rows) if trace else 0,
            entropy[:len(rows)])
        if errors:
            raise errors[min(errors)]
    return ((values[0::2] - values[1::2]) / (2.0 * steps)).reshape(k.shape)
