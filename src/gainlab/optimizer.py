"""Gain-matrix minimization of the dispersion objectives, with convergence reports.

The minimizer is quasi-Newton: each row keeps a dense BFGS approximation of
its inverse Hessian over the flattened gain, built only from the row's own
closed-form gradients, so every iteration exercises the closed-form gradient
of the chosen objective and nothing else. Steps are safeguarded by
nonmonotone Armijo backtracking; see :func:`minimize_objective` for the
exact rule. This module holds the descent only: the objective values and
gradients, stacked or not, come from :mod:`gainlab.objectives`.

There is one minimizer, :func:`minimize_batch`. It runs many minimizations,
all from the zero gain, in lockstep on stacked ``(B, n, m)`` gains,
``(B, n, n)`` posteriors and ``(B, n·m, n·m)`` inverse Hessians, and every
row keeps its own objective, step, backtracking, curvature, descent window,
iteration count and outcome. Each row's iterates equal those it gets in a
batch of its own, bit for bit, so results do not depend on how problems are
batched. :func:`minimize_objective` is a batch of one and
:func:`cross_objective_equivalence` a batch of three.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import objectives
from .exceptions import GainlabError, InvalidParameter, LineSearchFailed
from .kalman_update import FilterProblem, _analytic_gains
from .matrix_core import _check_numbers, _frobenius_norms, frobenius_norm
from .objectives import ObjectiveKind, _Batch, _bracket

__all__ = [
    "OptimizerConfig",
    "OptimizationReport",
    "EquivalenceReport",
    "OBJECTIVE_PAIRS",
    "trace_gradient",
    "stationarity_residual",
    "minimize_batch",
    "minimize_objective",
    "equivalence_batch",
    "cross_objective_equivalence",
]

_EPS = float(np.finfo(float).eps)
_MIN_STEP = 1e-16
_DESCENT_WINDOW = 10
# Armijo sufficient-decrease constant, backtracking factor, the norm of the
# first trial displacement, and the margin by which <s, y> must exceed zero,
# relative to ||s|| ||y||, for a curvature pair to update the inverse Hessian.
_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_INITIAL_STEP = 1.0
_CURVATURE_MARGIN = 1e-10
# The two patterns of the BFGS update's 2x2 core C (see _bfgs_update).
_CORNER, _EXCHANGE = np.array([[1.0, 0.0], [0.0, 0.0]]), np.eye(2)[::-1]


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for :func:`minimize_objective`.

    Every minimization starts from the zero gain, which reproduces the prior
    covariance and is always a valid SPD starting point.
    """

    max_iters: int = 5000
    grad_tol: float = 1e-9

    def __post_init__(self):
        if type(self.max_iters) is not int:
            raise InvalidParameter(
                f"max_iters must be an int, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise InvalidParameter(f"max_iters must be >= 1, got {self.max_iters}")
        _check_numbers({"grad_tol": self.grad_tol})
        if not self.grad_tol > 0:
            raise InvalidParameter(f"grad_tol must be > 0, got {self.grad_tol}")
        if not math.isfinite(self.grad_tol):
            raise InvalidParameter(f"grad_tol must be finite, got {self.grad_tol}")


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of one minimization run from the zero gain.

    The final gain and its objective value, the iterations taken, and
    whether the gradient norm reached ``grad_tol`` (if not, the run stopped
    at ``max_iters``).
    """

    final_gain: np.ndarray
    final_objective: float
    iterations: int
    converged: bool


def trace_gradient(problem: FilterProblem, gain: np.ndarray) -> np.ndarray:
    """Analytic gradient of the total-variance objective.

    This is the log-determinant gradient without the inverse-posterior
    prefactor: ``2 M``, twice the bracket ``M = K (H P H.T + R) - P H.T``. Both
    gradients therefore vanish at exactly the same gain, which is why the
    trace and determinant objectives share their minimizer; see
    :func:`~gainlab.objectives.objective_gradient`.
    """
    return objectives.objective_gradient(problem, gain,
                                         ObjectiveKind.TOTAL_VARIANCE)


def stationarity_residual(problem: FilterProblem, gain: np.ndarray) -> float:
    """Frobenius norm of the bracket ``M = K (H P H.T + R) - P H.T``.

    Zero exactly at the analytic gain in exact arithmetic, and exactly half
    the norm of :func:`trace_gradient`; reported separately from the raw
    gradient norm because it does not carry the inverse-posterior prefactor.
    """
    k = problem.check_gain(gain)
    return frobenius_norm(objectives._bracket(k, problem.cross,
                                              problem.innovation))


def _bfgs_update(inverses: np.ndarray, paired: np.ndarray, rows: np.ndarray,
                 pairs: np.ndarray, sy: np.ndarray, yy: np.ndarray) -> None:
    """Update the inverse Hessians of ``rows`` in place by their pairs.

    ``pairs`` stacks each row's flattened displacement ``s``, gradient
    change ``y`` and new gradient as (B, 3, n·m), and ``sy`` and ``yy`` are
    entries of their Gram matrix. A row's first pair replaces its identity
    by ``(sy / yy) I`` (Nocedal & Wright, eq. 6.20), and sets ``paired``,
    None once every row has a pair. The update is the BFGS inverse update
    ``(I - r s y.T) H (I - r y s.T) + r s s.T``, ``r = 1 / sy``, written as
    ``V C V.T`` with ``V = [s, H y]`` and the 2x2
    ``C = r [[1 + r y.T H y, -1], [-1, 0]]``, ``y.T H y`` one product.

    The whole stack is updated. A row outside ``rows`` takes zero ``s`` and
    ``y`` and ``sy = 1``, so that nothing divides by zero and it adds an
    exact zero term, which keeps its bytes as no ``H`` holds ``-0.0``: it
    starts with ``+0.0`` off the diagonal, ``(sy / yy) I`` keeps that, and
    in round-to-nearest ``h + x`` is ``-0.0`` only when ``h`` is. A stacked
    ``np.matmul`` gives each row what it gives that row alone.
    """
    if paired is not None:
        first = rows & ~paired
        if np.count_nonzero(first):
            inverses[first] = (sy[first] / yy[first])[:, None, None] * (
                np.eye(pairs.shape[-1]))
            paired |= first
    if np.count_nonzero(rows) < len(rows):
        sy = np.where(rows, sy, 1.0)
        pairs = np.where(rows[:, None, None], pairs, 0.0)
    y = pairs[:, 1, :, None]
    hy = np.matmul(inverses, y)
    r = (1.0 / sy)[:, None, None]
    c = r * (_CORNER * (1.0 + r * np.matmul(y.swapaxes(-1, -2), hy))
             - _EXCHANGE)
    v = np.concatenate((pairs[:, 0, :, None], hy), -1)
    inverses += np.matmul(np.matmul(v, c), v.swapaxes(-1, -2))


def minimize_batch(problems: Sequence[FilterProblem],
                   kinds: Sequence[ObjectiveKind],
                   config: OptimizerConfig = OptimizerConfig(),
                   ) -> list[Union[OptimizationReport, GainlabError]]:
    """Minimize ``kinds[i]`` over the gain of ``problems[i]`` for every i.

    All problems must share one (state_dim, obs_dim) shape, and every
    minimization starts from the zero gain. The minimizations run in
    lockstep, each by the rule of :func:`minimize_objective`: in every
    round, all unfinished rows evaluate their value and gradient at one
    trial step together, and each row's state moves under the mask of rows
    that accepted. A row leaves the batch when it converges, reaches
    ``max_iters`` or fails.

    Returns one outcome per problem, in order: its OptimizationReport, or
    the GainlabError that :func:`minimize_objective` raises for it. A
    failing row never disturbs the others, and no row's result depends on
    which other rows share its batch.
    """
    problems, kinds = list(problems), list(kinds)
    if len(problems) != len(kinds):
        raise InvalidParameter(f"got {len(problems)} problems but "
                               f"{len(kinds)} objective kinds")
    outcomes: list = [None] * len(problems)
    if problems:
        batch = _Batch.stack(problems, kinds)
        _lockstep(batch, np.zeros(batch.cross.shape), config, outcomes)
    return outcomes


def _lockstep(batch: _Batch, gains: np.ndarray, config: OptimizerConfig,
              outcomes: list) -> None:
    """The rounds of :func:`minimize_batch` from the stacked start ``gains``.

    Row ``i`` writes its OptimizationReport or error to ``outcomes[i]``. A
    round is one pass of whole-stack calls, with one evaluation of every
    row at its trial gain, and each row's arithmetic that of
    :func:`minimize_objective`'s rule, operation for operation. The rounds
    hold one ``np.errstate(invalid="ignore")``, which a failed row's LAPACK
    call and a non-finite trial's gradient need (see :meth:`_Batch.evaluate`).
    """
    with np.errstate(invalid="ignore"):
        values, grads, errors = batch.evaluate(gains)
        ids = np.arange(len(gains))
        if errors:
            for row, exc in errors.items():
                outcomes[row] = exc
            ids = np.setdiff1d(ids, list(errors))
            batch, gains, grads = batch.take(ids), gains[ids], grads[ids]
            values = values[ids]
        gnorms = np.sqrt(np.add.reduce(grads * grads, axis=(-2, -1)))
        steps = _INITIAL_STEP / np.maximum(gnorms, _MIN_STEP)
        iterations = np.zeros(len(ids), dtype=np.intp)
        # The working rows' state, one array per quantity, which finished
        # rows leave with one take. ``window`` keeps a row's last
        # _DESCENT_WINDOW accepted values, -inf if unfilled, the current one
        # in slot iterations % _DESCENT_WINDOW. ``inverses`` holds each
        # row's inverse Hessian over its flattened gain, the identity until
        # ``paired`` says it has stored a curvature pair.
        size = gains.shape[-2] * gains.shape[-1]
        window = np.full((len(ids), _DESCENT_WINDOW), -np.inf)
        inverses = np.repeat(np.eye(size)[None], len(ids), 0)
        paired = np.zeros(len(ids), dtype=bool)
        window[:, 0] = values
        ended, everyone, rounds = [], np.arange(len(ids)), 0
        # Once every working row has stored a pair, ``settled`` skips the
        # first-pair test of the update and of the step rule.
        settled = False

        while True:
            # A row ends when it stops, when backtracking has exhausted its
            # step, or with an error, which is its outcome already (``ended``).
            # A row gains at most one iteration a round, so none reaches
            # ``max_iters`` before as many rounds have run.
            stopped = gnorms <= config.grad_tol
            if rounds >= config.max_iters:
                stopped |= iterations >= config.max_iters
            rounds += 1
            done = stopped | ~(steps >= _MIN_STEP)
            if ended:
                done[ended] = True
            if np.count_nonzero(done):
                rows = np.flatnonzero(done)
                counts = iterations[rows]
                for row, gain, value, count, gnorm, stop in zip(
                        ids[rows].tolist(), gains[rows],
                        window[rows, counts % _DESCENT_WINDOW].tolist(),
                        counts.tolist(), gnorms[rows].tolist(),
                        stopped[rows].tolist()):
                    if outcomes[row] is not None:
                        continue
                    outcomes[row] = OptimizationReport(
                        gain, value, count, gnorm <= config.grad_tol,
                    ) if stop else LineSearchFailed(
                        f"no acceptable step above {_MIN_STEP:g} at iteration "
                        f"{count} (gradient norm {gnorm:.3e})")
                keep = ~done
                batch = batch.take(keep)
                (ids, gains, grads, gnorms, steps, iterations, window,
                 inverses, paired) = (
                    state[keep] for state in (ids, gains, grads, gnorms, steps,
                                              iterations, window, inverses,
                                              paired))
                everyone = everyone[:len(ids)]
            if not len(ids):
                return

            # Each row moves by t H g, down its slope <g, t H g>.
            flat = grads.reshape(-1, size)
            moves = steps[:, None] * np.matmul(inverses,
                                               flat[:, :, None])[..., 0]
            slopes = np.matmul(flat[:, None], moves[:, :, None])[:, 0, 0]
            trials = gains - moves.reshape(gains.shape)
            trial_values, trial_grads, errors = batch.evaluate(trials)
            reference = np.maximum.reduce(window, axis=1)
            accepted = trial_values <= (
                reference - _ARMIJO_C * slopes
                + 8.0 * _EPS * (1.0 + np.abs(reference)))
            ended = []
            for row, exc in errors.items():
                # A step into a posterior that is not SPD, or singular to
                # the gradient's solve, is rejected like an Armijo failure;
                # an invalid iterate ends the minimization.
                accepted[row] = False
                if isinstance(exc, InvalidParameter):
                    outcomes[ids[row]] = exc
                    ended.append(row)

            # A rejected row keeps its gain and gradient, and its trial's
            # gradient is thrown away; a round that every row accepted
            # selects nothing.
            rejected = np.count_nonzero(accepted) < len(ids)
            if rejected:
                moved = accepted[:, None, None]
                trials = np.where(moved, trials, gains)
                trial_grads = np.where(moved, trial_grads, grads)
            # A pair updates its row's inverse Hessian where <s, y> is
            # positive by a margin, as the log-det is not convex; a rejected
            # row's s and y are zero, so it never does. One Gram product of
            # each row's s, y and new gradient, and one sqrt, give the
            # curvature test's terms and the gradient norm.
            pairs = np.concatenate((trials - gains, trial_grads - grads,
                                    trial_grads), 1).reshape(-1, 3, size)
            gram = np.matmul(pairs, pairs.swapaxes(-1, -2))
            sy, yy = gram[:, 0, 1], gram[:, 1, 1]
            norms = np.sqrt(gram.diagonal(0, -2, -1))
            curved = sy > _CURVATURE_MARGIN * norms[:, 0] * norms[:, 1]
            if np.count_nonzero(curved):
                _bfgs_update(inverses, None if settled else paired, curved,
                             pairs, sy, yy)

            gains, grads, gnorms = trials, trial_grads, norms[:, 2]
            # An accepted row tries the unit quasi-Newton step, or, until it
            # has a pair, the first trial's displacement; a rejected row
            # halves its step.
            settled = settled or np.count_nonzero(paired) == len(ids)
            steps = np.where(accepted, 1.0 if settled else np.where(
                paired, 1.0, _INITIAL_STEP / np.maximum(gnorms, _MIN_STEP)),
                steps * _BACKTRACK_FACTOR)
            iterations += accepted
            if rejected:
                window[accepted, iterations[accepted] % _DESCENT_WINDOW] = (
                    trial_values[accepted])
            else:
                window[everyone, iterations % _DESCENT_WINDOW] = trial_values


def minimize_objective(problem: FilterProblem, kind: ObjectiveKind,
                       config: OptimizerConfig = OptimizerConfig(),
                       ) -> OptimizationReport:
    """Minimize an objective over the gain by safeguarded BFGS descent.

    The descent starts from the zero gain and returns the four-field
    :class:`OptimizationReport`. Each iteration steps along ``d = -H g``,
    with ``g`` the closed-form gradient flattened to ``n·m`` entries and
    ``H`` a dense BFGS approximation of the inverse Hessian (Nocedal &
    Wright, *Numerical Optimization*, ch. 6). ``H`` is the identity until the
    first curvature pair is stored, and is built only from the minimization's
    own displacements ``s`` and gradient changes ``y``: after an accepted
    step, a pair with ``<s, y> > _CURVATURE_MARGIN * ||s|| ||y||`` (1e-10;
    the log-det is not convex) first replaces the identity by
    ``(<s, y> / <y, y>) I``, eq. 6.20, then applies the BFGS inverse update;
    any other pair leaves ``H`` as it is. So the search reads neither ``S``
    nor the posterior, and the closed-form gradient is all it exercises.
    Until it has stored a pair, an iteration's trial step is
    ``_INITIAL_STEP / ||g||``, so that the trial displacement has norm
    ``_INITIAL_STEP`` = 1.0 regardless of objective scaling (this keeps
    minimization paths of affinely related objectives aligned); after it,
    the unit step ``t = 1``. A rejected step is multiplied by
    ``_BACKTRACK_FACTOR`` = 0.5.

    Acceptance is the nonmonotone (watchdog) Armijo condition of
    Grippo-Lucidi-Lampariello: a step ``t`` is accepted when

        ``f(k + t d) <= max(recent f) + _ARMIJO_C * t * <g, d> + slack``

    with ``_ARMIJO_C`` = 1e-4, the reference value taken over the last 10
    accepted iterates and a slack of a few ulps of the reference, so rounding
    noise in the objective cannot veto progress. The running window maximum
    is non-increasing, so every iterate stays at or below the starting
    objective (up to accumulated slack). The four constants are fixed, not
    settings.

    Steps whose objective evaluation raises NotPositiveDefinite are rejected
    exactly like Armijo failures, which keeps iterates inside the SPD-feasible
    region without a formal barrier. Convergence is declared on the gradient
    norm, not on objective change.

    This is a batch of one for :func:`minimize_batch`, which evaluates the
    validating public functions' formulas on stacked iterates: a round costs
    one evaluation at the trial gains (one block Joseph product, one
    Cholesky factorization with the same pivot floor and one solve for the
    log-det and entropy rows, and one stacked gradient, which a rejected
    row throws away), the products ``H g`` and ``<g, t H g>``, one Gram
    product of ``[s, y, g]`` and, when some row stores a pair, one
    ``V C V.T`` update of every ``H``, an exact zero for the rows that
    store none. Values, gradients and iterates are bit for bit those of
    this rule written as a loop over
    :func:`~gainlab.objectives.evaluate_objective` and
    :func:`~gainlab.objectives.objective_gradient`.

    Raises
    ------
    LineSearchFailed
        If no acceptable step exists above 1e-16, signalling a numerically
        pathological instance.
    InvalidParameter
        If an iterate, or on the log-det and entropy paths its posterior, is
        not finite.
    NotPositiveDefinite
        If the starting gain's posterior is not SPD (log-det and entropy).
    """
    report, = minimize_batch([problem], [kind], config)
    if isinstance(report, GainlabError):
        raise report
    return report


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
    distances to the analytic gain are all near zero. The values of the
    objectives and the stationarity residual at the analytic gain are those
    of the public functions, bit for bit.
    """

    analytic: np.ndarray
    reports: dict[ObjectiveKind, OptimizationReport]
    distance_to_analytic: dict[ObjectiveKind, float]
    pairwise_distance: dict[tuple[ObjectiveKind, ObjectiveKind], float]
    objective_at_analytic: dict[ObjectiveKind, float]
    stationarity_residual: float

    @property
    def max_distance_to_analytic(self) -> float:
        return max(self.distance_to_analytic.values())


def equivalence_batch(problems: Sequence[FilterProblem],
                      config: OptimizerConfig = OptimizerConfig(),
                      ) -> list[Union[EquivalenceReport, GainlabError]]:
    """:func:`cross_objective_equivalence` of many problems of one shape.

    One batch of every problem under every kind runs the minimizations in
    lockstep, then gives the analytic gains as one solve, the values at them
    as one evaluation and the distances and residuals as stacked norms.
    Returns one outcome per problem, in order: its EquivalenceReport, or the
    GainlabError that :func:`cross_objective_equivalence` raises for it.
    """
    if not problems:
        return []
    kinds = tuple(ObjectiveKind)
    batch = _Batch.stack(problems, kinds * len(problems), len(kinds))
    runs: list = [None] * len(kinds) * len(problems)
    _lockstep(batch, np.zeros(batch.cross.shape), config, runs)
    cross, innovation = batch.cross[::len(kinds)], batch.innovation[::len(kinds)]
    analytic, singular = _analytic_gains(cross, innovation)
    # A singular S leaves a NaN gain; a zero one keeps the stack below whole.
    analytic[list(singular)] = 0.0
    # Each analytic gain is a transposed solve, and every row at it keeps
    # that layout, and so the products of the public functions.
    with np.errstate(invalid="ignore"):
        values, _, errors = batch.evaluate(np.repeat(
            analytic.swapaxes(-1, -2), len(kinds), axis=0).swapaxes(-1, -2))
    values = values.reshape(len(problems), len(kinds)).tolist()
    residuals = _frobenius_norms(_bracket(analytic, cross, innovation)).tolist()
    # After its runs, a problem fails on a singular S, or else on its first
    # value at the analytic gain that fails; a trace row never does.
    raised = {row // len(kinds): exc
              for row, exc in sorted(errors.items(), reverse=True)} | singular
    # A failed run's gain is NaN, which only its failing problem reads.
    finals = np.array([np.full(analytic.shape[1:], np.nan)
                       if isinstance(run, GainlabError) else run.final_gain
                       for run in runs])
    by_kind = {kind: finals[k::len(kinds)] for k, kind in enumerate(kinds)}
    gaps = [by_kind[kind] - analytic for kind in kinds] + [
        by_kind[a] - by_kind[b] for a, b in OBJECTIVE_PAIRS]
    distances = np.transpose([_frobenius_norms(gap) for gap in gaps]).tolist()
    outcomes: list = []
    for i in range(len(problems)):
        reports = runs[i * len(kinds):(i + 1) * len(kinds)]
        failed = [run for run in reports if isinstance(run, GainlabError)]
        if failed or i in raised:
            outcomes.append((failed + [raised.get(i)])[0])
            continue
        outcomes.append(EquivalenceReport(
            analytic=analytic[i],
            reports=dict(zip(kinds, reports)),
            distance_to_analytic=dict(zip(kinds, distances[i])),
            pairwise_distance=dict(zip(OBJECTIVE_PAIRS,
                                       distances[i][len(kinds):])),
            objective_at_analytic=dict(zip(kinds, values[i])),
            stationarity_residual=residuals[i],
        ))
    return outcomes


def cross_objective_equivalence(problem: FilterProblem,
                                config: OptimizerConfig = OptimizerConfig(),
                                ) -> EquivalenceReport:
    """Minimize all three objectives from the zero gain and compare optima.

    The three minimizations run as one lockstep batch, and each keeps its
    four-field :class:`OptimizationReport` in ``reports``; the first of them
    in :class:`ObjectiveKind` order that fails raises its error, then a
    singular ``S``, then the first value at the analytic gain that fails.
    """
    equivalence, = equivalence_batch([problem], config)
    if isinstance(equivalence, GainlabError):
        raise equivalence
    return equivalence
