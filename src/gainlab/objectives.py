"""Scalar dispersion objectives over the gain matrix, and their derivatives.

Three objectives measure the spread of the posterior covariance produced by
the Joseph update at a candidate gain: the trace (total variance), the
log-determinant (log generalized variance), and the Gaussian differential
entropy. Their closed-form gradients share one bracket, the total-variance
gradient ``2 (K S - P H.T)`` with ``S = H P H.T + R``: the log-determinant
solves it against the posterior, and the entropy halves that.
:func:`objective_gradient` is the one dispatch over the kinds. The module
also provides the covariance differential and the trace-form directional
derivative of the log-determinant, together with a central
finite-difference gradient that serves as an independent numerical oracle.

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
from functools import cached_property
from typing import Sequence

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


def objective_gradient(problem: FilterProblem, gain: np.ndarray,
                       kind: ObjectiveKind) -> np.ndarray:
    """Analytic gradient of the selected objective with respect to the gain.

    Every kind starts from the total-variance gradient
    ``2 K (H P H.T + R) - 2 P H.T``, shape (n, m). The log-determinant
    gradient is ``inv(P_posterior)`` applied to it: the posterior is
    Cholesky-validated, and the inverse is applied by a linear solve and kept
    un-symmetrized, exactly as the closed form states it. The entropy is a
    constant plus half the log-determinant, so its gradient is half the
    log-determinant gradient. All three vanish at exactly the same gain,
    which is why the objectives share their minimizer; the finite-difference
    oracle arbitrates correctness.
    """
    k = problem.check_gain(gain)
    grad = _trace_gradient(k, *_gradient_terms(problem))
    if kind is ObjectiveKind.TOTAL_VARIANCE:
        return grad
    posterior = joseph_update(problem, k)
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


def _gradient_terms(problem: FilterProblem) -> tuple[np.ndarray, np.ndarray]:
    """``P H.T`` and ``H (P H.T) + R``: the gain-free terms of every gradient.

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


class _Batch:
    """Stacked problems of one shape, with one objective per row.

    Rows ``[0, n_trace)`` minimize the total variance, so the rows to
    factorize form a slice; each other row minimizes the log-determinant, or
    the entropy where ``entropy[row]`` is set. ``prior``, ``obs_op`` and
    ``obs_noise`` are the stacked matrices of problems that
    :class:`FilterProblem` validated, which lets the shared formulas take
    the batch in place of a problem. Gains have the batch's shape by
    construction, and the symmetrized posterior is exactly symmetric, so
    neither is checked again; the checks a gain can fail are kept (see
    :meth:`values`).
    """

    def __init__(self, prior, obs_op, obs_noise, entropy, n_trace):
        self.prior = prior
        self.obs_op = obs_op
        self.obs_noise = obs_noise
        self.entropy = entropy
        self.n_trace = n_trace
        self.identity = np.eye(prior.shape[-1])

    @cached_property
    def _terms(self) -> tuple[np.ndarray, np.ndarray]:
        # Built on first use: only gradients() needs them, and the oracle
        # never calls it.
        return _gradient_terms(self)

    @classmethod
    def stack(cls, problems: Sequence[FilterProblem],
              kinds: Sequence[ObjectiveKind]) -> tuple["_Batch", np.ndarray]:
        """The batch of ``problems[i]`` under ``kinds[i]``, and its row order.

        Row ``j`` of the batch is ``problems[order[j]]``: the total-variance
        problems first, then the others, each group in its given order.
        """
        order = np.array(sorted(range(len(kinds)), key=lambda i: kinds[i]
                                is not ObjectiveKind.TOTAL_VARIANCE),
                         dtype=np.intp)
        kinds = [kinds[i] for i in order]
        return cls(np.stack([problems[i].prior for i in order]),
                   np.stack([problems[i].obs_op for i in order]),
                   np.stack([problems[i].obs_noise for i in order]),
                   np.array([kind is ObjectiveKind.DIFFERENTIAL_ENTROPY
                             for kind in kinds]),
                   kinds.count(ObjectiveKind.TOTAL_VARIANCE)), order

    def take(self, keep: np.ndarray) -> "_Batch":
        """The batch of the rows where the boolean mask ``keep`` is set."""
        return _Batch(self.prior[keep], self.obs_op[keep], self.obs_noise[keep],
                      self.entropy[keep], int(keep[:self.n_trace].sum()))

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
        n_trace, identity = self.n_trace, self.identity
        errors = {}
        finite = np.isfinite(gains)
        if not finite.all():
            bad = ~finite.all(axis=(-2, -1))
            gains = np.where(bad[:, None, None], 0.0, gains)
            for row in np.flatnonzero(bad):
                errors[int(row)] = InvalidParameter(
                    "gain contains non-finite entries")
        posteriors = _joseph_form(self, gains, identity)
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
        values[n_trace:] = np.where(self.entropy[n_trace:],
                                    _entropy(identity.shape[0], logdet), logdet)
        return values, posteriors, errors

    def gradients(self, rows, gains: np.ndarray,
                  posteriors: np.ndarray) -> np.ndarray:
        """Gradients of ``rows`` at their gains.

        Each row takes the steps of :func:`objective_gradient` for its kind,
        without the checks: the gains and posteriors passed :meth:`values`.
        ``rows`` is a sorted index array, or ``slice(None)`` for every row.
        ``gains`` and ``posteriors`` cover the whole batch, and the
        posteriors are those :meth:`values` returned at the same gains.
        """
        ph_t, gram = self._terms
        grads = _trace_gradient(gains[rows], ph_t[rows], gram[rows])
        split = (self.n_trace if isinstance(rows, slice)
                 else int(np.searchsorted(rows, self.n_trace)))
        if split < len(grads):
            logdet = _logdet_gradient(posteriors[rows][split:], grads[split:])
            grads[split:] = np.where(self.entropy[rows][split:, None, None],
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
    batch, _ = _Batch.stack([problem], [kind])
    grads, errors = _finite_differences(batch, k[None])
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
        block = _Batch(batch.prior[rows], batch.obs_op[rows],
                       batch.obs_noise[rows], batch.entropy[rows],
                       int(np.count_nonzero(rows < batch.n_trace)))
        values[start:start + len(rows)], _, failures = block.values(
            bumped.reshape(-1, n, m))
        for row in sorted(failures):
            errors.setdefault(int(rows[row]), failures[row])
    values = values.reshape(count, n * m, 2)
    grads = (values[..., 0] - values[..., 1]) / (2.0 * steps)
    return grads.reshape(gains.shape), errors
