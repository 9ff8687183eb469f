"""Scalar dispersion objectives over the gain matrix, and their derivatives.

Three objectives measure the spread of the posterior covariance produced by
the Joseph update at a candidate gain: the trace (total variance), the
log-determinant (log generalized variance), and the Gaussian differential
entropy. Their calculus shares one bracket, ``M = K S - P H.T`` from the
terms ``S`` and ``P H.T`` that each problem stores: the total-variance
gradient is ``2 M``, the log-determinant solves it against the posterior,
the entropy halves that, and the covariance differential is
``dK M.T + M dK.T``. :func:`objective_gradient` is the one dispatch over the
kinds. The module also provides the trace-form directional derivative of
the log-determinant, together with a central finite-difference gradient
that serves as an independent numerical oracle.

The objectives also have one stacked form, the private ``_Batch``: stacked
problems with one objective per row, whose values cost one Joseph update and
one Cholesky factorization for the whole stack, and whose values, errors
and gradients are those of the public functions, bit for bit. The optimizer
evaluates its iterates through it. So does the oracle, ``_finite_differences``:
it takes a batch of rows with one gain each and evaluates the perturbed
copies of every row's gain as consecutive stacks, whatever row they come
from; :func:`finite_difference_gradient` validates its gain once, at the
public boundary, and is a batch of one. The oracle still shares only the
objective formulas with the closed-form gradients, exactly as a loop over
the public evaluators would.
"""

import enum
import math
from typing import Sequence

import numpy as np

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
    "objective_gradient",
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

    ``dK M.T + M dK.T`` at ``gain`` in direction ``dgain = dK``, with the
    bracket ``M = K S - P H.T``; linear in ``dgain`` and equal to the
    central difference of ``joseph_update`` up to O(h^2).
    """
    k = problem.check_gain(gain)
    dk = problem.check_gain(dgain, name="dgain")
    return _differential(problem, k, dk)


def _differential(problem: FilterProblem, gain: np.ndarray,
                  dgain: np.ndarray) -> np.ndarray:
    """:func:`analysis_cov_differential` of gains already checked."""
    m = _bracket(gain, problem.cross, problem.innovation)
    return dgain @ m.T + m @ dgain.T


def directional_logdet_differential(problem: FilterProblem, gain: np.ndarray,
                                    dgain: np.ndarray) -> float:
    """Directional derivative of the log-determinant objective.

    Computed in trace form as ``tr(inv(P_posterior) @ dP_posterior)``, with the
    solve of :func:`_logdet_gradient` after a Cholesky check; agrees with the
    Frobenius inner product of :func:`logdet_gradient` with the direction.
    Each gain is checked once.
    """
    k = problem.check_gain(gain)
    posterior = _joseph_form(problem, k, np.eye(problem.state_dim))
    matrix_core.cholesky(posterior)
    dposterior = _differential(problem, k,
                               problem.check_gain(dgain, name="dgain"))
    return float(np.trace(_logdet_gradient(posterior, dposterior)))


def objective_gradient(problem: FilterProblem, gain: np.ndarray,
                       kind: ObjectiveKind) -> np.ndarray:
    """Analytic gradient of the selected objective with respect to the gain.

    Every kind starts from the total-variance gradient ``2 M``, twice the
    bracket ``M = K S - P H.T``, shape (n, m). The log-determinant
    gradient is ``inv(P_posterior)`` applied to it: the posterior is
    Cholesky-validated, and the inverse is applied by a linear solve and kept
    un-symmetrized, exactly as the closed form states it. The entropy is a
    constant plus half the log-determinant, so its gradient is half the
    log-determinant gradient. All three vanish at exactly the same gain,
    which is why the objectives share their minimizer; the finite-difference
    oracle arbitrates correctness. The gain is checked once.
    """
    k = problem.check_gain(gain)
    grad = 2.0 * _bracket(k, problem.cross, problem.innovation)
    if kind is ObjectiveKind.TOTAL_VARIANCE:
        return grad
    posterior = _joseph_form(problem, k, np.eye(problem.state_dim))
    matrix_core.cholesky(posterior)
    grad = _logdet_gradient(posterior, grad)
    return 0.5 * grad if kind is ObjectiveKind.DIFFERENTIAL_ENTROPY else grad


def logdet_gradient(problem: FilterProblem, gain: np.ndarray) -> np.ndarray:
    """Analytic gradient of the log-determinant objective with respect to the gain.

    Evaluates ``inv(P_posterior) @ (2 K H P H.T + 2 K R - 2 P H.T)``, shape
    (n, m); see :func:`objective_gradient`.
    """
    return objective_gradient(problem, gain,
                              ObjectiveKind.LOG_GENERALIZED_VARIANCE)


def _bracket(gain: np.ndarray, cross: np.ndarray,
             innovation: np.ndarray) -> np.ndarray:
    """The bracket ``M = K S - P H.T``, which equals ``(K - K*) S``.

    ``cross`` and ``innovation`` are a problem's ``P H.T`` and ``S``. All
    three arguments may be stacks, as in a :class:`_Batch`. The
    total-variance gradient is ``2 M``, the stationarity residual
    ``||M||``, and the covariance differential ``dK M.T + M dK.T``.
    """
    return gain @ innovation - cross


def _logdet_gradient(posterior: np.ndarray,
                     trace_grad: np.ndarray) -> np.ndarray:
    """Log-det gradient: the trace gradient solved against the posterior.

    ``posterior`` is the SPD posterior at the same gain; both arguments may
    be stacks, and a stacked solve equals the per-row solves bit for bit.
    """
    return np.linalg.solve(posterior, trace_grad)


class _Batch:
    """Stacked problems of one shape, with one objective per row.

    Rows are in the caller's order, and each row's kind is data:
    ``factored[row]`` is set where the row minimizes the log-determinant or
    the entropy, whose values factorize the posterior, and ``entropy[row]``
    where it minimizes the entropy. ``prior``, ``obs_op``, ``obs_noise``,
    ``cross`` and ``innovation`` are the stacked matrices and gain-free
    terms of problems that :class:`FilterProblem` validated and computed,
    which lets the shared formulas take the batch in place of a problem;
    :meth:`take` slices them. Gains have the batch's shape by construction,
    and the symmetrized posterior is exactly symmetric, so neither is
    checked again; the checks a gain can fail are kept (see :meth:`values`).
    """

    def __init__(self, prior, obs_op, obs_noise, cross, innovation, entropy,
                 factored):
        self.prior = prior
        self.obs_op = obs_op
        self.obs_noise = obs_noise
        self.cross = cross
        self.innovation = innovation
        self.entropy = entropy
        self.factored = factored
        self.identity = np.eye(prior.shape[-1])
        # The rows to factorize, found once per batch; when every row
        # factorizes, they are taken as whole arrays, views and not copies.
        self._factor_ids = np.flatnonzero(factored)
        self._factor_rows = slice(None) if factored.all() else self._factor_ids

    @classmethod
    def stack(cls, problems: Sequence[FilterProblem],
              kinds: Sequence[ObjectiveKind]) -> "_Batch":
        """The batch whose row ``i`` is ``problems[i]`` under ``kinds[i]``."""
        return cls(*(np.stack([getattr(problem, name) for problem in problems])
                     for name in ("prior", "obs_op", "obs_noise", "cross",
                                  "innovation")),
                   np.array([kind is ObjectiveKind.DIFFERENTIAL_ENTROPY
                             for kind in kinds]),
                   np.array([kind is not ObjectiveKind.TOTAL_VARIANCE
                             for kind in kinds]))

    def take(self, rows: np.ndarray) -> "_Batch":
        """The batch of ``rows``: a boolean mask, or an array of row indices."""
        return _Batch(self.prior[rows], self.obs_op[rows], self.obs_noise[rows],
                      self.cross[rows], self.innovation[rows],
                      self.entropy[rows], self.factored[rows])

    def values(self, gains: np.ndarray):
        """Objective of every row at its gain: (values, posteriors, errors).

        ``gains`` is a (B, n, m) stack with one gain per row. ``errors`` maps
        a row to what the public evaluator raises at that gain, and that
        row's value is meaningless: InvalidParameter for a non-finite gain
        or, on a log-det or entropy row, a non-finite posterior;
        NotPositiveDefinite for a posterior whose Cholesky factorization
        breaks down or has a pivot at or below ``PD_TOL``. Total-variance
        rows never factorize. A row without an error has the public
        evaluator's value, bit for bit.
        """
        rows, owners = self._factor_rows, self._factor_ids
        identity = self.identity
        errors = {}
        finite = np.isfinite(gains)
        if not finite.all():
            bad = ~finite.all(axis=(-2, -1))
            gains = np.where(bad[:, None, None], 0.0, gains)
            for row in np.flatnonzero(bad):
                errors[int(row)] = InvalidParameter(
                    "gain contains non-finite entries")
        posteriors = _joseph_form(self, gains, identity)
        if not owners.size:
            return matrix_core._trace(posteriors), posteriors, errors
        others = posteriors[rows]
        finite = np.isfinite(others)
        if not finite.all():
            bad = ~finite.all(axis=(-2, -1))
            others = np.where(bad[:, None, None], identity, others)
            for row in np.flatnonzero(bad):
                errors.setdefault(int(owners[row]), InvalidParameter(
                    "matrix contains non-finite entries"))
        factors, failures = matrix_core._cholesky_factors(others)
        for row, exc in failures.items():
            errors.setdefault(int(owners[row]), exc)
        logdet = matrix_core._log_det_of_factor(factors)
        values = (np.empty(len(gains)) if isinstance(rows, slice)
                  else matrix_core._trace(posteriors))
        values[rows] = np.where(self.entropy[rows],
                                _entropy(identity.shape[0], logdet), logdet)
        return values, posteriors, errors

    def gradients(self, rows, gains: np.ndarray,
                  posteriors: np.ndarray) -> np.ndarray:
        """Gradients of ``rows`` at their gains.

        Each row takes the steps of :func:`objective_gradient` for its kind,
        without the checks: the gains and posteriors passed :meth:`values`.
        ``rows`` is an index array, or ``slice(None)`` for every row.
        ``gains`` and ``posteriors`` cover the whole batch, and the
        posteriors are those :meth:`values` returned at the same gains.
        """
        grads = 2.0 * _bracket(gains[rows], self.cross[rows],
                               self.innovation[rows])
        if not self._factor_ids.size:
            return grads
        picked = (slice(None) if isinstance(self._factor_rows, slice)
                  else np.flatnonzero(self.factored[rows]))
        logdet = _logdet_gradient(posteriors[rows][picked], grads[picked])
        grads[picked] = np.where(self.entropy[rows][picked, None, None],
                                 0.5 * logdet, logdet)
        return grads


def finite_difference_gradient(problem: FilterProblem, gain: np.ndarray,
                               kind: ObjectiveKind) -> np.ndarray:
    """Central-difference gradient of an objective; the independent oracle.

    Perturbs one gain entry at a time with step ``1e-6 * (1 + |k_ij|)``,
    which balances truncation against rounding for double precision. The
    gain is validated once; its 2·n·m perturbed copies are then evaluated as
    a batch of one of :func:`_finite_differences`. Every value equals the
    public evaluator's at that perturbed gain, bit for bit, so the oracle
    shares only the objective formulas with the closed-form gradients, as
    the public evaluators do. Of several failing perturbations, the error is
    that of the first in entry-major order, the upward step before the
    downward one.

    Raises
    ------
    InvalidParameter
        If a perturbed gain, or on the log-det and entropy its posterior, is
        not finite.
    NotPositiveDefinite
        If a perturbed posterior is not SPD (log-det and entropy).
    """
    k = problem.check_gain(gain)
    grads, errors = _finite_differences(_Batch.stack([problem], [kind]), k[None])
    if errors:
        raise errors[0]
    return grads[0]


def _finite_differences(batch: _Batch, gains: np.ndarray,
                        ) -> tuple[np.ndarray, dict]:
    """:func:`finite_difference_gradient` of every row of a batch at its gain.

    ``gains`` is a (B, n, m) stack of finite gains, one per row. Returns the
    (B, n, m) central differences and the errors: a map from each row that
    has a failing perturbation to the error :func:`finite_difference_gradient`
    raises for it, whose gradient is then meaningless. The 2·n·m perturbed
    gains of every row are evaluated in row order, as consecutive stacks of
    at most ``_FD_BLOCK_ROWS`` rows, whatever row they come from; each stack
    costs one Joseph update and, where it has log-det or entropy rows, one
    Cholesky factorization, and repeats its problems' matrices only for its
    own rows.
    """
    count, n, m = gains.shape
    per_row = 2 * n * m
    flat = gains.reshape(count, n * m)
    steps = 1e-6 * (1.0 + np.abs(flat))
    values = np.empty(count * per_row)
    errors = {}
    for start in range(0, len(values), _FD_BLOCK_ROWS):
        # Perturbation p of a row moves entry p // 2 up, or down if p is odd.
        rows, perturbation = np.divmod(
            np.arange(start, min(start + _FD_BLOCK_ROWS, len(values))), per_row)
        entries = perturbation // 2
        moves = steps[rows, entries]
        bumped = flat[rows]
        bumped[np.arange(len(rows)), entries] += np.where(perturbation % 2,
                                                          -moves, moves)
        values[start:start + len(rows)], _, failures = batch.take(rows).values(
            bumped.reshape(-1, n, m))
        for row in sorted(failures):
            errors.setdefault(int(rows[row]), failures[row])
    values = values.reshape(count, n * m, 2)
    grads = (values[..., 0] - values[..., 1]) / (2.0 * steps)
    return grads.reshape(gains.shape), errors
