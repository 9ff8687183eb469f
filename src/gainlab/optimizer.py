"""Gain-matrix minimization of the dispersion objectives, with convergence reports.

The minimizer is deliberately first-order: the descent direction is always the
negative analytic gradient, so every iteration exercises the closed-form
gradient of the chosen objective. Step sizes come from the Barzilai-Borwein
spectral estimate and are safeguarded by Armijo backtracking; see
:func:`minimize_objective` for the exact acceptance rule. This module holds
the descent only: the objective values and gradients, stacked or not, come
from :mod:`gainlab.objectives`.

There is one minimizer, :func:`minimize_batch`. It runs many minimizations,
all from the zero gain, in lockstep on stacked ``(B, n, m)`` gains and
``(B, n, n)`` posteriors, and every row keeps its own objective, step,
backtracking, descent window, iteration count and outcome. Each row's
iterates equal those it gets in a batch of its own, bit for bit, so results
do not depend on how problems are batched. :func:`minimize_objective` is a
batch of one and :func:`cross_objective_equivalence` a batch of three.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import objectives
from .exceptions import (DimensionMismatch, GainlabError, InvalidParameter,
                         LineSearchFailed)
from .kalman_update import FilterProblem, analytic_gain
from .matrix_core import _check_numbers, frobenius_norm
from .objectives import ObjectiveKind, _Batch

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
_BB_STEP_RANGE = (1e-12, 1e12)
_DESCENT_WINDOW = 10
# Armijo sufficient-decrease constant, backtracking factor, and the norm of
# the first trial displacement.
_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_INITIAL_STEP = 1.0


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


def _clip_step(steps: np.ndarray) -> np.ndarray:
    """Steps clipped into ``_BB_STEP_RANGE``; NaN stays NaN."""
    return np.minimum(np.maximum(steps, _BB_STEP_RANGE[0]), _BB_STEP_RANGE[1])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner product of each pair of rows of two stacks."""
    return (a * b).sum(axis=(-2, -1))


def minimize_batch(problems: Sequence[FilterProblem],
                   kinds: Sequence[ObjectiveKind],
                   config: OptimizerConfig = OptimizerConfig(),
                   ) -> list[Union[OptimizationReport, GainlabError]]:
    """Minimize ``kinds[i]`` over the gain of ``problems[i]`` for every i.

    All problems must share one (state_dim, obs_dim) shape, and every
    minimization starts from the zero gain. The minimizations run in
    lockstep, each by the rule of :func:`minimize_objective`: in every
    round, all unfinished rows evaluate one trial step together, and only
    the rows that accepted their step compute a gradient. A row leaves the
    batch when it converges, reaches ``max_iters`` or fails.

    Returns one outcome per problem, in order: its OptimizationReport, or
    the GainlabError that :func:`minimize_objective` raises for it. A
    failing row never disturbs the others, and no row's result depends on
    which other rows share its batch.
    """
    problems, kinds = list(problems), list(kinds)
    if len(problems) != len(kinds):
        raise InvalidParameter(f"got {len(problems)} problems but "
                               f"{len(kinds)} objective kinds")
    if len({(p.state_dim, p.obs_dim) for p in problems}) > 1:
        raise DimensionMismatch("all problems of a batch must share one shape")
    outcomes: list = [None] * len(problems)
    if problems:
        gains = np.zeros((len(problems), problems[0].state_dim,
                          problems[0].obs_dim))
        _lockstep(_Batch.stack(problems, kinds), gains, config, outcomes)
    return outcomes


def _lockstep(batch: _Batch, gains: np.ndarray, config: OptimizerConfig,
              outcomes: list) -> None:
    """The rounds of :func:`minimize_batch` from the stacked start ``gains``.

    Row ``i`` writes its OptimizationReport or error to ``outcomes[i]``.
    """
    values, posteriors, errors = batch.values(gains)
    for row, exc in errors.items():
        outcomes[row] = exc
    ids = np.setdiff1d(np.arange(len(gains)), list(errors))
    batch, gains, values, posteriors = (batch.take(ids), gains[ids],
                                        values[ids], posteriors[ids])
    grads = batch.gradients(slice(None), gains, posteriors)
    gnorms = np.sqrt(_row_dots(grads, grads))
    steps = _clip_step(_INITIAL_STEP / np.maximum(gnorms, _MIN_STEP))
    iterations = np.zeros(len(ids), dtype=np.intp)
    # The last _DESCENT_WINDOW accepted values, the oldest overwritten
    # first; -inf marks a slot not filled yet.
    window = np.full((len(ids), _DESCENT_WINDOW), -np.inf)
    window[:, 0] = values
    done = gnorms <= config.grad_tol

    while True:
        if done.any():
            for row in np.flatnonzero(done):
                if outcomes[ids[row]] is None:
                    outcomes[ids[row]] = OptimizationReport(
                        final_gain=gains[row].copy(),
                        final_objective=float(values[row]),
                        iterations=int(iterations[row]),
                        converged=bool(gnorms[row] <= config.grad_tol))
            keep = ~done
            batch = batch.take(keep)
            ids, gains, values, grads, gnorms, steps, iterations, window = (
                a[keep] for a in (ids, gains, values, grads, gnorms, steps,
                                  iterations, window))
        if not len(ids):
            return
        exhausted = ~(steps >= _MIN_STEP)
        if exhausted.any():
            for row in np.flatnonzero(exhausted):
                outcomes[ids[row]] = LineSearchFailed(
                    f"no acceptable step above {_MIN_STEP:g} at iteration "
                    f"{iterations[row]} (gradient norm {gnorms[row]:.3e})")
            done = exhausted
            continue

        trials = gains - steps[:, None, None] * grads
        trial_values, posteriors, errors = batch.values(trials)
        reference = window.max(axis=1)
        slack = 8.0 * _EPS * (1.0 + np.abs(reference))
        needed = _ARMIJO_C * steps * gnorms * gnorms
        accepted = trial_values <= reference - needed + slack
        done = np.zeros(len(ids), dtype=bool)
        for row, exc in errors.items():
            # A step into a posterior that is not SPD is rejected like an
            # Armijo failure; an invalid iterate ends the minimization.
            accepted[row] = False
            if isinstance(exc, InvalidParameter):
                outcomes[ids[row]] = exc
                done[row] = True
        if accepted.all():
            # Every row moves: views of whole arrays instead of copies.
            rows = slice(None)
        else:
            steps[~accepted] *= _BACKTRACK_FACTOR
            rows = np.flatnonzero(accepted)
            if not len(rows):
                continue

        new_grads = batch.gradients(rows, trials, posteriors)
        new_norms = np.sqrt(_row_dots(new_grads, new_grads))
        moved = trials[rows]
        new_values = trial_values[rows]
        # The next trial step is the Barzilai-Borwein estimate <s, y> / <y, y>
        # where it is defined and positive, else the step just accepted.
        displacements = moved - gains[rows]
        changes = new_grads - grads[rows]
        sy = _row_dots(displacements, changes)
        yy = _row_dots(changes, changes)
        next_steps = steps[rows].copy()
        np.divide(sy, yy, out=next_steps, where=(sy > 0.0) & (yy > 0.0))
        steps[rows] = _clip_step(next_steps)

        gains[rows] = moved
        values[rows] = new_values
        grads[rows] = new_grads
        gnorms[rows] = new_norms
        iterations[rows] += 1
        counts = iterations[rows]
        window[np.arange(len(ids))[rows], counts % _DESCENT_WINDOW] = new_values
        done[rows] = (new_norms <= config.grad_tol) | (counts >= config.max_iters)


def minimize_objective(problem: FilterProblem, kind: ObjectiveKind,
                       config: OptimizerConfig = OptimizerConfig(),
                       ) -> OptimizationReport:
    """Minimize an objective over the gain by safeguarded gradient descent.

    The descent starts from the zero gain and returns the four-field
    :class:`OptimizationReport`. Each iteration steps along the negative
    analytic gradient. The trial step is the Barzilai-Borwein estimate
    ``<s, y> / <y, y>`` from the previous displacement/gradient-change pair
    and is multiplied by ``_BACKTRACK_FACTOR`` = 0.5 until accepted. The
    first iteration, which has no spectral information yet, uses
    ``_INITIAL_STEP / ||g||`` so that the first trial displacement has norm
    ``_INITIAL_STEP`` = 1.0 regardless of objective scaling (this keeps
    minimization paths of affinely related objectives aligned).

    Acceptance is the nonmonotone (watchdog) Armijo condition of
    Grippo-Lucidi-Lampariello: a step ``t`` is accepted when

        ``f(k - t g) <= max(recent f) - _ARMIJO_C * t * ||g||^2 + slack``

    with ``_ARMIJO_C`` = 1e-4, the reference value taken over the last 10
    accepted iterates and a slack of a few ulps of the reference, so rounding
    noise in the objective cannot veto progress. The window lets the spectral
    step take its characteristic transient objective increases, without which
    the iteration degrades to plain gradient descent and provably stalls on
    ill-conditioned instances; the running window maximum is still
    non-increasing, so every iterate stays at or below the starting objective
    (up to accumulated slack). The three step constants are fixed, not
    settings.

    Steps whose objective evaluation raises NotPositiveDefinite are rejected
    exactly like Armijo failures, which keeps iterates inside the SPD-feasible
    region without a formal barrier. Convergence is declared on the gradient
    norm, not on objective change.

    This is a batch of one for :func:`minimize_batch`, which evaluates the
    validating public functions' formulas on stacked iterates: each trial
    step costs one Joseph update and, for the log-det and entropy, one
    Cholesky factorization with the same pivot floor, and only an accepted
    step computes a gradient. Values and gradients are bit-for-bit those of
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
    distances to the analytic gain are all near zero.
    """

    analytic: np.ndarray
    reports: dict[ObjectiveKind, OptimizationReport]
    distance_to_analytic: dict[ObjectiveKind, float]
    pairwise_distance: dict[tuple[ObjectiveKind, ObjectiveKind], float]

    @property
    def max_distance_to_analytic(self) -> float:
        return max(self.distance_to_analytic.values())


def equivalence_batch(problems: Sequence[FilterProblem],
                      config: OptimizerConfig = OptimizerConfig(),
                      ) -> list[Union[EquivalenceReport, GainlabError]]:
    """:func:`cross_objective_equivalence` of many problems of one shape.

    All three minimizations of every problem run as one lockstep batch.
    Returns one outcome per problem, in order: its EquivalenceReport, or the
    GainlabError that :func:`cross_objective_equivalence` raises for it.
    """
    kinds = tuple(ObjectiveKind)
    runs = minimize_batch([problem for problem in problems for _ in kinds],
                          [kind for _ in problems for kind in kinds], config)
    outcomes: list = []
    for i, problem in enumerate(problems):
        mine = runs[i * len(kinds):(i + 1) * len(kinds)]
        failed = [run for run in mine if isinstance(run, GainlabError)]
        if failed:
            outcomes.append(failed[0])
            continue
        reference = analytic_gain(problem)
        reports = dict(zip(kinds, mine))
        outcomes.append(EquivalenceReport(
            analytic=reference,
            reports=reports,
            distance_to_analytic={
                kind: frobenius_norm(report.final_gain - reference)
                for kind, report in reports.items()},
            pairwise_distance={
                (a, b): frobenius_norm(reports[a].final_gain
                                       - reports[b].final_gain)
                for a, b in OBJECTIVE_PAIRS},
        ))
    return outcomes


def cross_objective_equivalence(problem: FilterProblem,
                                config: OptimizerConfig = OptimizerConfig(),
                                ) -> EquivalenceReport:
    """Minimize all three objectives from the zero gain and compare optima.

    The three minimizations run as one lockstep batch, and each keeps its
    four-field :class:`OptimizationReport` in ``reports``; the first of them
    in :class:`ObjectiveKind` order that fails raises its error.
    """
    equivalence, = equivalence_batch([problem], config)
    if isinstance(equivalence, GainlabError):
        raise equivalence
    return equivalence
