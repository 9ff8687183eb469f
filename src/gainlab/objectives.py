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
problems with one objective per row, whose one evaluation gives the values,
gradients and errors of every row at its gain, those of the public
functions bit for bit, from one Joseph update, one Cholesky factorization
and one solve for the whole stack. The optimizer evaluates its iterates
through it. The oracle, ``_finite_differences``, shares its one
evaluation, ``_evaluate``, on stacks of whole rows: the perturbed
copies of a row's gain share its ``W`` and ``F``, broadcast. One posterior per
perturbed gain serves all three kinds: its trace, the log-det of its one
Cholesky factor, and the entropy from that log-det.
"""

import enum
import math
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import matrix_core
from .exceptions import DimensionMismatch, InvalidParameter
from .kalman_update import FilterProblem, _joseph_form, _stacks, joseph_update

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

# The bytes a chunk's stacks may hold, about (see experiment._chunks), and
# the most perturbed gains one stack of the oracle holds; from 9x9 up the
# budget allows fewer.
_CHUNK_BYTES = 12_000_000
_FD_BLOCK_ROWS = 256


def _row_bytes(state_dim: int, obs_dim: int) -> int:
    """Bytes a gradcheck instance of this shape holds at most, and a trial
    besides its optimizer's inverse Hessians (see
    :func:`~gainlab.experiment._trial_bytes`): 20 float64 blocks of
    ``(state_dim + obs_dim)²``. By tracemalloc, in a chunk of as many
    instances of one shape as the budget holds, an instance peaks at 19.8
    of them at 4x3, 17.9 at 8x8 and 17.4 at 20x20."""
    return 160 * (state_dim + obs_dim) ** 2


class ObjectiveKind(enum.Enum):
    """Which scalar dispersion measure of the posterior covariance to use."""

    TOTAL_VARIANCE = "trace"
    LOG_GENERALIZED_VARIANCE = "logdet"
    DIFFERENTIAL_ENTROPY = "entropy"


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

    Computed in trace form as ``tr(inv(P_posterior) @ dP_posterior)``, with a
    solve after a Cholesky check; agrees with the Frobenius inner product of
    :func:`logdet_gradient` with the direction. Each gain is checked once.
    """
    k = problem.check_gain(gain)
    posterior = _joseph_form(problem, k, np.eye(len(k), sum(k.shape)))
    matrix_core.cholesky(posterior)
    dposterior = _differential(problem, k,
                               problem.check_gain(dgain, name="dgain"))
    return float(np.trace(matrix_core._solve(posterior, dposterior)))


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
    oracle arbitrates correctness. The gain is checked once. A posterior
    that passes the check but is singular to the solve, as one can be near
    condition 1e17, raises NotPositiveDefinite.
    """
    k = problem.check_gain(gain)
    grad = 2.0 * _bracket(k, problem.cross, problem.innovation)
    if kind is ObjectiveKind.TOTAL_VARIANCE:
        return grad
    posterior = _joseph_form(problem, k, np.eye(len(k), sum(k.shape)))
    matrix_core.cholesky(posterior)
    grad = matrix_core._solve(posterior, grad)
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


class _Batch:
    """Stacked problems of one shape, with one objective per row.

    Rows are in the caller's order, and each row's kind is data:
    ``factored[row]`` is set where the row minimizes the log-determinant or
    the entropy, whose values factorize the posterior, and ``entropy[row]``
    where it minimizes the entropy. Every operand is a view of one static
    per-row slab, which :meth:`take` gathers whole: the ``joint_cov``,
    ``joint_op``, ``cross`` and ``innovation`` of a problem, so that the
    shared formulas take the batch in place of a problem, ``2c S``
    and ``2c P H.T``, then ``c`` and an offset, with ``c`` 0.5 for the
    entropy and 1 otherwise. A factorizing row's value is
    ``offset + c * logdet``, the operations of ``_entropy``, and a gradient
    the solve of ``K (2c S) - 2c P H.T``, or that bracket: the public ones
    bit for bit, as ``c`` is a power of two. ``select`` holds one ``E`` of
    :func:`_joseph_form` per row, so that ``E - K F`` need not broadcast.
    Gains have the batch's shape by construction, and the symmetrized
    posterior is exactly symmetric, so neither is checked again; the checks
    a gain can fail are kept (see :func:`_evaluate`). An evaluation takes
    every row, as LAPACK fails a row alone (see
    :func:`~gainlab.matrix_core._solves`). A batch whose rows all factorize
    computes no trace.
    """

    def __init__(self, slab, flags, select):
        self._slab, self._flags, self.select = slab, flags, select[:len(slab)]
        self.entropy, self.factored = flags
        n, joint = select.shape[1:]
        m, views, start = joint - n, [], 0
        for shape in ((joint, joint), (m, joint)) + ((n, m), (m, m)) * 2:
            views.append(slab[:, start:start + shape[0] * shape[1]].reshape(
                -1, *shape))
            start += shape[0] * shape[1]
        (self.joint_cov, self.joint_op, self.cross, self.innovation,
         self._cross2, self._innovation2) = views
        # The rows to factorize, found once per batch; when every row
        # factorizes, they are taken as whole arrays, views and not copies.
        self._factor_ids = np.flatnonzero(self.factored)
        self._factor_rows = (slice(None) if len(self._factor_ids) == len(slab)
                             else self._factor_ids)
        self._scale, self._offset = slab[self._factor_rows, -2:].T

    @classmethod
    def stack(cls, problems: Sequence[FilterProblem],
              kinds: Sequence[ObjectiveKind], repeats: int = 1) -> "_Batch":
        """Row ``i`` is ``problems[i // repeats]`` under ``kinds[i]``.

        The problems share one shape. When they are the rows of one build,
        in order (see :func:`~gainlab.kalman_update._stacks`), each operand
        is read from that build's stack; otherwise from one ``np.array``
        copy of the problems, cheaper than ``np.stack`` on small matrices.
        Their slab is then repeated ``repeats`` times by one ``np.repeat``.
        """
        names = ("joint_cov", "joint_op", "cross", "innovation")
        stacks = _stacks(problems)
        if stacks is not None:
            fields = [stacks[name] for name in names]
        elif len({(p.state_dim, p.obs_dim) for p in problems}) > 1:
            raise DimensionMismatch("all problems of a batch must share one shape")
        else:
            fields = [np.array([getattr(problem, name) for problem in problems])
                      for name in names]
        n, m = fields[2].shape[1:]
        flags = np.array([[kind is ObjectiveKind.DIFFERENTIAL_ENTROPY
                           for kind in kinds],
                          [kind is not ObjectiveKind.TOTAL_VARIANCE
                           for kind in kinds]])
        scale = np.where(flags[0], 0.5, 1.0)[:, None]
        slab = np.repeat(np.concatenate(
            [field.reshape(len(problems), -1) for field in fields], 1),
            repeats, 0)
        return cls(np.concatenate((
            slab, 2.0 * scale * slab[:, -n * m - m * m:], scale,
            np.where(flags[0], _entropy(n, 0.0), 0.0)[:, None]), 1), flags,
            np.repeat(np.eye(n, n + m)[None], len(kinds), 0))

    def take(self, rows: np.ndarray) -> "_Batch":
        """The batch of ``rows``: a boolean mask, an array of row indices, or
        a slice, whose batch holds views."""
        return _Batch(self._slab[rows], self._flags[:, rows], self.select)

    def evaluate(self, gains: np.ndarray):
        """Every row at its gain: (values, gradients, errors).

        ``gains`` is a (B, n, m) stack with one gain per row. Each row takes
        the steps of its public evaluator and of :func:`objective_gradient`,
        without the checks. ``errors`` maps a row to the first error they
        raise at that gain: those of :func:`_evaluate`, where a
        total-variance row never factorizes and so fails only on a
        non-finite gain, then the NotPositiveDefinite of a posterior
        singular to the gradient's solve. A failed row's value and gradient
        are meaningless; every other row's are the public functions', bit
        for bit. Callers hold ``np.errstate(invalid="ignore")``, as a failed
        row raises that flag.
        """
        rows, owners = self._factor_rows, self._factor_ids
        posteriors, factored, logdets, errors, failures = _evaluate(
            self, gains, rows, self.select)
        grads = _bracket(gains, self._cross2, self._innovation2)
        solved, singular = matrix_core._solves(factored, grads[rows])
        for failed in (failures, singular):
            for row, exc in failed.items():
                errors.setdefault(int(owners[row]), exc)
        values = self._offset + self._scale * logdets
        if len(owners) == len(gains):
            return values, solved, errors
        # The other rows minimize the trace and never factorize.
        grads[rows] = solved
        factored, values = values, matrix_core._trace(posteriors)
        values[owners] = factored
        return values, grads, errors


def _evaluate(stacks, gains: np.ndarray, rows, select: np.ndarray):
    """The posterior of every row at its gain, and the log-dets of ``rows``.

    The one evaluation of :meth:`_Batch.evaluate` and of the oracle
    :func:`_finite_differences`. It reads the ``joint_cov`` and
    ``joint_op`` of ``stacks``, one row per gain, and no row's kind;
    ``select`` is that of :func:`_joseph_form`; (k, q, n, m) gains against
    (k, 1, ...) operands are the k·q gains in order. ``rows``, a slice or an
    array of row indices, selects the posteriors to factorize; when it
    selects none, nothing is factorized. Returns (posteriors, factored,
    logdets, invalid, failures): ``factored`` holds the posteriors of
    ``rows``, the identity for any not finite; ``invalid`` maps each row
    whose gain is not finite to the InvalidParameter of every public
    evaluator, and takes its posterior at the zero gain; ``failures`` maps
    each position in ``rows`` whose posterior fails
    :func:`log_generalized_variance` to its error, InvalidParameter if the
    posterior is not finite, else the NotPositiveDefinite of its Cholesky
    factorization. Every other posterior and log-det is the public
    functions', bit for bit.
    """
    n = select.shape[-2]
    posteriors = _joseph_form(stacks, gains, select).reshape(-1, n, n)
    others = posteriors[rows]
    invalid, failures = {}, {}
    # A non-finite gain entry makes a diagonal entry of its row's posterior
    # non-finite, so the gains are checked only when a posterior is not.
    if not np.logical_and.reduce(np.isfinite(posteriors), axis=None):
        bad = ~np.isfinite(gains).all(axis=(-2, -1))
        if bad.any():
            posteriors = _joseph_form(
                stacks, np.where(bad[..., None, None], 0.0, gains),
                select).reshape(-1, n, n)
            others = posteriors[rows]
            invalid = {int(row): InvalidParameter(
                "gain contains non-finite entries")
                for row in np.flatnonzero(bad)}
        bad = ~np.isfinite(others).all(axis=(-2, -1))
        others = np.where(bad[:, None, None], np.eye(others.shape[-1]), others)
        failures = {int(row): InvalidParameter(
            "matrix contains non-finite entries")
            for row in np.flatnonzero(bad)}
    if not len(others):
        return posteriors, others, np.empty(0), invalid, failures
    factors, breakdowns = matrix_core._cholesky_factors(others)
    failures.update(breakdowns)
    return (posteriors, others, matrix_core._log_det_of_factor(factors),
            invalid, failures)


def finite_difference_gradient(problem: FilterProblem, gain: np.ndarray,
                               kind: ObjectiveKind) -> np.ndarray:
    """Central-difference gradient of an objective; the independent oracle.

    Perturbs one gain entry at a time with step ``1e-6 * (1 + |k_ij|)``,
    which balances truncation against rounding for double precision. The
    gain is validated once; its 2·n·m perturbed copies are then evaluated as
    a batch of one of :func:`_finite_differences`, whose row for this kind
    it returns. Every value equals the public evaluator's at that perturbed
    gain, bit for bit, so the oracle shares only the objective formulas
    with the closed-form gradients, as the public evaluators do. Of several
    failing perturbations, the error is that of the first in entry-major
    order, the upward step before the downward one.

    Raises
    ------
    InvalidParameter
        If a perturbed gain, or on the log-det and entropy its posterior, is
        not finite.
    NotPositiveDefinite
        If a perturbed posterior is not SPD (log-det and entropy).
    """
    k = problem.check_gain(gain)
    grads, errors = _finite_differences(
        _Batch.stack([problem], [kind]), k[None],
        kind is not ObjectiveKind.TOTAL_VARIANCE)
    row = list(ObjectiveKind).index(kind)
    if row in errors:
        raise errors[row]
    return grads[row]


def _finite_differences(batch: _Batch, gains: np.ndarray,
                        factorize: bool = True) -> tuple[np.ndarray, dict]:
    """:func:`finite_difference_gradient` of every row of a batch under every kind.

    ``batch`` is a :class:`_Batch`, or any object, whose ``joint_cov`` and
    ``joint_op`` hold one row per problem, and ``gains`` is
    a (B, n, m) stack of finite gains, one per row. Returns the
    (B · 3, n, m) central differences, in which row ``i * 3 + j`` is row
    ``i`` under ``ObjectiveKind``'s ``j``-th kind, and the errors: a map
    from each of those rows that has a failing perturbation to the error
    :func:`finite_difference_gradient` raises for it, whose gradient is then
    meaningless. A non-finite perturbed gain fails every kind; a non-finite
    or not SPD perturbed posterior fails only the log-det and the entropy.

    One posterior serves every kind. The 2·n·m perturbed gains of every row
    are evaluated in row order, as stacks of at most ``_FD_BLOCK_ROWS``
    gains, and at most ``_CHUNK_BYTES`` at ``_row_bytes`` per gain, of as
    many whole rows as fit, or of runs of one row's; each stack costs one
    Joseph update, with each row's two operands broadcast over its gains,
    and one Cholesky factorization (see :func:`_evaluate`). The trace is that
    of each posterior, the log-det that of its factor, and the entropy
    ``_entropy(n, 0.0) + 0.5 * logdet``, the operations of
    :meth:`_Batch.evaluate`. Unless ``factorize``, no posterior is
    factorized: the log-det and entropy rows are NaN, and only a
    non-finite perturbed gain fails.
    """
    count, n, m = gains.shape
    per_row = 2 * n * m
    flat = gains.reshape(count, 1, n * m)
    steps = 1e-6 * (1.0 + np.abs(flat[:, 0]))
    # Perturbation p of a row moves entry p // 2 up, or down if p is odd.
    entries = np.arange(per_row) // 2
    moves = steps[:, entries]
    moves[:, 1::2] *= -1.0
    traces, logdets = np.full((2, count, per_row), np.nan)
    factored = slice(None) if factorize else slice(0)
    # The first failing perturbation of a row, for the trace and for the
    # factorizing kinds; at one perturbation, a non-finite gain comes first.
    invalid, failed = {}, {}
    size = min(_FD_BLOCK_ROWS, max(1, _CHUNK_BYTES // _row_bytes(n, m)))
    span, width = max(1, size // per_row), min(size, per_row)
    ids, select = np.arange(width), np.eye(n, n + m)
    # A failed factorization raises numpy's invalid flag (see matrix_core).
    with np.errstate(invalid="ignore"):
        for start in range(0, count, span):
            rows = slice(start, start + span)
            block = SimpleNamespace(joint_cov=batch.joint_cov[rows, None],
                                    joint_op=batch.joint_op[rows, None])
            for first in range(0, per_row, width):
                cols, q = slice(first, first + width), min(width, per_row - first)
                bumped = flat[rows].repeat(q, 1)
                bumped[:, ids[:q], entries[cols]] += moves[rows, cols]
                posteriors, _, values, gain_errors, failures = _evaluate(
                    block, bumped.reshape(len(bumped), q, n, m), factored, select)
                traces[rows, cols] = matrix_core._trace(posteriors).reshape(-1, q)
                logdets[rows, cols][factored] = values.reshape(-1, q)
                for row in sorted(gain_errors):
                    invalid.setdefault(start + row // q, gain_errors[row])
                failures.update(gain_errors)
                for row in sorted(failures):
                    failed.setdefault(start + row // q, failures[row])
    grads = np.empty((count, 3, n * m))
    errors = {}
    # The kinds in ObjectiveKind order: trace, log-det, entropy.
    for j, (values, kind_errors) in enumerate([
            (traces, invalid), (logdets, failed),
            (_entropy(n, 0.0) + 0.5 * logdets, failed)]):
        pairs = values.reshape(count, n * m, 2)
        grads[:, j] = (pairs[..., 0] - pairs[..., 1]) / (2.0 * steps)
        for row, exc in kind_errors.items():
            errors[row * 3 + j] = exc
    return grads.reshape(-1, n, m), errors
