"""Scalar dispersion objectives over the gain matrix, and their derivatives.

Three objectives measure the spread of the posterior covariance produced by
the Joseph update at a candidate gain: the trace (total variance), the
log-determinant (log generalized variance), and the Gaussian differential
entropy. Each kind's facts live in one private table, ``_FACTS``, which
every function that takes a kind reads; a public one raises InvalidParameter
for a value that is not an :class:`ObjectiveKind`. Their calculus shares
one bracket, ``M = K S - P H.T``: the total-variance gradient is ``2 M``,
and the covariance differential ``dK M.T + M dK.T``. The module also
provides the trace-form directional derivative of the log-determinant and
a central finite-difference gradient, an independent numerical oracle.

The objectives also have one stacked form, the private ``_Batch``: stacked
problems with one objective per row, whose one evaluation gives the values,
gradients and errors of every row at its gain, those of the public
functions bit for bit, from one Joseph update, one Cholesky factorization
and one solve for the whole stack. The optimizer evaluates its iterates
through it, and the oracle, ``_finite_differences``, shares its one
evaluation, ``_evaluate``, with one posterior per perturbed gain.
"""

import enum
import math
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import matrix_core
from .exceptions import InvalidParameter
from .kalman_update import FilterProblem, _joseph_form, _stack, joseph_update

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


# Each kind's facts, their one home, in ObjectiveKind order, which is a
# kind's column among the oracle's rows: whether its value factorizes the
# posterior, the scale c of the log-det in its value, offset + c * logdet,
# and in its gradient, c · solve(P⁺, 2M), and whether its offset is the
# Gaussian constant c·n·log(2πe), not 0.
_FACTS = {
    ObjectiveKind.TOTAL_VARIANCE: (False, 1.0, False),
    ObjectiveKind.LOG_GENERALIZED_VARIANCE: (True, 1.0, False),
    ObjectiveKind.DIFFERENTIAL_ENTROPY: (True, 0.5, True),
}
_KINDS = tuple(_FACTS)


def _facts(kind: ObjectiveKind, state_dim: int = 0):
    """``kind``'s (factorizes, c, offset) in dimension ``state_dim``;
    InvalidParameter if ``kind`` is not an ObjectiveKind."""
    if not isinstance(kind, ObjectiveKind):
        raise InvalidParameter(
            f"objective kind must be an ObjectiveKind, got {kind!r}")
    factorizes, scale, gaussian = _FACTS[kind]
    return factorizes, scale, ((scale * state_dim) * math.log(
        2.0 * math.pi * math.e) if gaussian else 0.0)


def total_variance(problem: FilterProblem, gain: np.ndarray) -> float:
    """Trace of the updated covariance; ignores cross-covariances."""
    return evaluate_objective(problem, gain, ObjectiveKind.TOTAL_VARIANCE)


def log_generalized_variance(problem: FilterProblem, gain: np.ndarray) -> float:
    """Log-determinant of the updated covariance.

    Raises NotPositiveDefinite when the update degenerates numerically at the
    given gain; callers doing line searches treat that as a rejected step.
    """
    return evaluate_objective(problem, gain,
                              ObjectiveKind.LOG_GENERALIZED_VARIANCE)


def differential_entropy(problem: FilterProblem, gain: np.ndarray) -> float:
    """Differential entropy (nats) of a Gaussian with the updated covariance.

    ``(N/2) log(2 pi e) + (1/2) log det``, N the state dimension: the
    constant is kept, so that absolute entropies are meaningful.
    """
    return evaluate_objective(problem, gain, ObjectiveKind.DIFFERENTIAL_ENTROPY)


def evaluate_objective(problem: FilterProblem, gain: np.ndarray,
                       kind: ObjectiveKind) -> float:
    """The selected objective at a gain, by its facts in ``_FACTS``; a
    ``kind`` that is not an ObjectiveKind raises InvalidParameter."""
    factorizes, scale, offset = _facts(kind, problem.state_dim)
    posterior = joseph_update(problem, gain)
    if not factorizes:
        return matrix_core.trace(posterior)
    return offset + scale * matrix_core.log_det(posterior)


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

    ``2 M``, twice the bracket ``M = K S - P H.T``, shape (n, m), or, for a
    kind that factorizes the posterior, ``c`` times its solve against the
    Cholesky-validated posterior, un-symmetrized, as the closed form states
    it (see ``_FACTS``). All three vanish at the same gain, which is why
    the objectives share their minimizer. The kind and the gain are checked
    once, a non-kind raising InvalidParameter. A posterior that passes the
    check but is singular to the solve, as one can be near condition 1e17,
    raises NotPositiveDefinite.
    """
    factorizes, scale, _ = _facts(kind)
    k = problem.check_gain(gain)
    grad = 2.0 * _bracket(k, problem.cross, problem.innovation)
    if not factorizes:
        return grad
    posterior = _joseph_form(problem, k, np.eye(len(k), sum(k.shape)))
    matrix_core.cholesky(posterior)
    return scale * matrix_core._solve(posterior, grad)


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

    Rows are in the caller's order, and each row's kind is data, its facts
    (see ``_FACTS``): ``factored[row]`` is set where the row's value
    factorizes the posterior. Every operand is a view of one static
    per-row slab, which :meth:`take` gathers whole: the ``joint_cov``,
    ``joint_op``, ``cross`` and ``innovation`` of a problem, so that the
    shared formulas take the batch in place of a problem, ``2c S``
    and ``2c P H.T``, then ``c`` and the offset. A factorizing row's value
    is ``offset + c * logdet``, and a gradient the solve of
    ``K (2c S) - 2c P H.T``, or that bracket: the public ones bit for bit,
    as ``c`` is a power of two. ``select`` holds one ``E`` of
    :func:`_joseph_form` per row, so that ``E - K F`` need not broadcast.
    Gains have the batch's shape by construction, and the symmetrized
    posterior is exactly symmetric, so neither is checked again; the checks
    a gain can fail are kept (see :func:`_evaluate`). An evaluation takes
    every row, as LAPACK fails a row alone (see
    :func:`~gainlab.matrix_core._solves`). A batch whose rows all factorize
    computes no trace.
    """

    def __init__(self, slab, factored, select):
        self._slab, self.factored = slab, factored
        self.select = select[:len(slab)]
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
    def stack(cls, stacks, kinds: Sequence[ObjectiveKind],
              repeats: int = 1) -> "_Batch":
        """Row ``i`` is row ``i // repeats`` of ``stacks`` under ``kinds[i]``.

        ``stacks`` holds the ``joint_cov``, ``joint_op``, ``cross`` and
        ``innovation`` stacks of problems of one shape, as a build (see
        :func:`~gainlab.kalman_update._build_problems`) or
        :func:`~gainlab.kalman_update._stack` gives them. Their slab is
        one concatenation, repeated ``repeats`` times; the caller checks
        ``kinds``.
        """
        fields = (stacks.joint_cov, stacks.joint_op, stacks.cross,
                  stacks.innovation)
        count, n, m = stacks.cross.shape
        # Each row takes its kind's facts by column; tuple.index compares
        # members by identity, where a dict would hash each one in Python.
        facts = np.array([_facts(kind, n) for kind in _KINDS]).T.take(
            [_KINDS.index(kind) for kind in kinds], 1)
        slab = np.repeat(np.concatenate(
            [field.reshape(count, -1) for field in fields], 1), repeats, 0)
        return cls(np.concatenate((
            slab, 2.0 * facts[1:2].T * slab[:, -n * m - m * m:],
            facts[1:].T), 1), facts[0] != 0.0,
            np.repeat(np.eye(n, n + m)[None], len(kinds), 0))

    def take(self, rows: np.ndarray) -> "_Batch":
        """The batch of ``rows``: a boolean mask, an array of row indices, or
        a slice, whose batch holds views."""
        return _Batch(self._slab[rows], self.factored[rows], self.select)

    def evaluate(self, gains: np.ndarray):
        """Every row at its gain: (values, gradients, errors).

        ``gains`` is a (B, n, m) stack with one gain per row. Each row takes
        the steps of its public evaluator and of :func:`objective_gradient`,
        without the checks. ``errors`` maps a row to the first error they
        raise at that gain: those of :func:`_evaluate`, then the
        NotPositiveDefinite of a posterior singular to the gradient's
        solve. A failed row's value and gradient are meaningless; every
        other row's are the public functions', bit for bit. Callers hold
        ``np.errstate(invalid="ignore")``, as a failed row raises that flag.
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
    gain is validated once, and the kind's row of a batch of one of
    :func:`_finite_differences` returned: every value is the public
    evaluator's at that perturbed gain, bit for bit, so the oracle shares
    only the objective formulas with the closed-form gradients. Of several
    failing perturbations, the error is that of the first in entry-major
    order, the upward step before the downward one.

    Raises
    ------
    InvalidParameter
        If ``kind`` is not an ObjectiveKind, or if a perturbed gain, or for
        a kind that factorizes it a perturbed posterior, is not finite.
    NotPositiveDefinite
        If a factorized perturbed posterior is not SPD.
    """
    factorizes, column = _facts(kind)[0], _KINDS.index(kind)
    k = problem.check_gain(gain)
    grads, errors = _finite_differences(_stack([problem]), k[None], factorizes)
    if column in errors:
        raise errors[column]
    return grads[column]


def _finite_differences(stacks, gains: np.ndarray,
                        factorize: bool = True) -> tuple[np.ndarray, dict]:
    """:func:`finite_difference_gradient` of every row of stacks under every kind.

    ``stacks`` is any object whose ``joint_cov`` and ``joint_op`` hold one
    row per problem, as a build's stacks do, and ``gains`` is a (B, n, m)
    stack of finite gains, one per row. Returns the (B · 3, n, m) central
    differences, row ``i * 3 + j`` that of row ``i`` under the kind of
    column ``j``, and the errors: a map from each of those rows that has a
    failing perturbation to the error :func:`finite_difference_gradient`
    raises for it, whose gradient is then meaningless.

    The 2·n·m perturbed gains of every row are evaluated in row order, as
    stacks of at most ``_FD_BLOCK_ROWS`` gains, and at most
    ``_CHUNK_BYTES`` at ``_row_bytes`` per gain, of as many whole rows as
    fit, or of runs of one row's; each stack costs one Joseph update, with
    each row's two operands broadcast over its gains, and one Cholesky
    factorization (see :func:`_evaluate`). Each kind's values are the
    operations of :meth:`_Batch.evaluate`. Unless ``factorize``, no
    posterior is factorized: the rows of the kinds that factorize it are
    NaN, and only a non-finite perturbed gain fails.
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
            block = SimpleNamespace(joint_cov=stacks.joint_cov[rows, None],
                                    joint_op=stacks.joint_op[rows, None])
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
    grads = np.empty((count, len(_KINDS), n * m))
    errors = {}
    for column, kind in enumerate(_KINDS):
        factorizes, scale, offset = _facts(kind, n)
        values, kind_errors = ((offset + scale * logdets, failed) if factorizes
                               else (traces, invalid))
        pairs = values.reshape(count, n * m, 2)
        grads[:, column] = (pairs[..., 0] - pairs[..., 1]) / (2.0 * steps)
        for row, exc in kind_errors.items():
            errors[row * len(_KINDS) + column] = exc
    return grads.reshape(-1, n, m), errors
