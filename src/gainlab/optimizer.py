"""Gain-matrix minimization of the dispersion objectives, with convergence reports.

The minimizer is deliberately first-order: the descent direction is always the
negative analytic gradient, so every iteration exercises the closed-form
gradient of the chosen objective. Step sizes come from the Barzilai-Borwein
spectral estimate and are safeguarded by Armijo backtracking; see
:func:`minimize_objective` for the exact acceptance rule.

There is one minimizer, :func:`minimize_batch`. It runs many minimizations
in lockstep on stacked ``(B, n, m)`` gains and ``(B, n, n)`` posteriors, and
every row keeps its own objective, step, backtracking, descent window,
iteration count and outcome. Each row's iterates equal those it gets in a
batch of its own, bit for bit, so results do not depend on how problems are
batched. :func:`minimize_objective` is a batch of one and
:func:`cross_objective_equivalence` a batch of three.
"""

from dataclasses import dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from . import matrix_core, objectives
from .exceptions import (DimensionMismatch, GainlabError, InvalidParameter,
                         LineSearchFailed)
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
    "minimize_batch",
    "minimize_objective",
    "equivalence_batch",
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
    return _entropy_from_logdet(objectives.logdet_gradient(problem, gain))


def _entropy_from_logdet(logdet_grad: np.ndarray) -> np.ndarray:
    # Entropy = constant + half the log generalized variance.
    return 0.5 * logdet_grad


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


class _Batch:
    """Stacked problems of one shape, with one objective per row.

    Rows that minimize the total variance come first, so the rows to
    factorize form a slice. ``prior``, ``obs_op`` and ``obs_noise`` are the
    stacked matrices of problems that :class:`FilterProblem` validated, which
    lets the shared formulas take a batch in place of a problem. Iterates
    have the batch's gain shape by construction, and the symmetrized
    posterior is exactly symmetric, so neither is checked again; the checks
    an iterate can fail are kept (see :meth:`values`).
    """

    def __init__(self, prior, obs_op, obs_noise, entropy, n_trace):
        self.prior = prior
        self.obs_op = obs_op
        self.obs_noise = obs_noise
        self.entropy = entropy  # per row: minimizes the differential entropy
        self.n_trace = n_trace  # rows [0, n_trace) minimize the total variance
        self.state_dim = prior.shape[-1]
        self.identity = np.eye(self.state_dim)
        self.ph_t, self.gram = objectives._gradient_terms(self)

    @classmethod
    def stack(cls, problems: Sequence[FilterProblem],
              kinds: Sequence[ObjectiveKind]) -> "_Batch":
        is_trace = [kind is ObjectiveKind.TOTAL_VARIANCE for kind in kinds]
        n_trace = sum(is_trace)
        if any(is_trace[n_trace:]):
            raise InvalidParameter("total-variance rows must come first")
        return cls(np.stack([p.prior for p in problems]),
                   np.stack([p.obs_op for p in problems]),
                   np.stack([p.obs_noise for p in problems]),
                   np.array([kind is ObjectiveKind.DIFFERENTIAL_ENTROPY
                             for kind in kinds]),
                   n_trace)

    def take(self, keep: np.ndarray) -> "_Batch":
        """The batch of the rows where the boolean mask ``keep`` is set."""
        return _Batch(self.prior[keep], self.obs_op[keep], self.obs_noise[keep],
                      self.entropy[keep], int(keep[:self.n_trace].sum()))

    def values(self, gains: np.ndarray):
        """Objective of every row at its gain: (values, posteriors, errors).

        ``errors`` maps a row to what the public evaluator raises there, and
        that row's value is meaningless: InvalidParameter for a non-finite
        gain or, on a log-det or entropy row, a non-finite posterior;
        NotPositiveDefinite for a posterior whose Cholesky factorization
        breaks down or has a pivot at or below ``PD_TOL``. Total-variance
        rows never factorize.
        """
        errors = {}
        finite = np.isfinite(gains)
        if not finite.all():
            bad = ~finite.all(axis=(-2, -1))
            gains = np.where(bad[:, None, None], 0.0, gains)
            for row in np.flatnonzero(bad):
                errors[int(row)] = InvalidParameter(
                    "gain contains non-finite entries")
        posteriors = _joseph_form(self, gains, self.identity)
        n_trace = self.n_trace
        if n_trace == len(gains):
            return matrix_core._trace(posteriors), posteriors, errors
        values = np.empty(len(gains))
        if n_trace:
            values[:n_trace] = matrix_core._trace(posteriors[:n_trace])
        others = posteriors[n_trace:]
        finite = np.isfinite(others)
        if not finite.all():
            bad = ~finite.all(axis=(-2, -1))
            others = np.where(bad[:, None, None], self.identity, others)
            for row in np.flatnonzero(bad):
                errors.setdefault(n_trace + int(row), InvalidParameter(
                    "matrix contains non-finite entries"))
        factors, failures = matrix_core._cholesky_factors(others)
        for row, exc in failures.items():
            errors.setdefault(n_trace + row, exc)
        logdet = matrix_core._log_det_of_factor(factors)
        values[n_trace:] = np.where(
            self.entropy[n_trace:],
            objectives._entropy(self.state_dim, logdet), logdet)
        return values, posteriors, errors

    def gradients(self, rows, gains: np.ndarray,
                  posteriors: np.ndarray) -> np.ndarray:
        """Gradients of ``rows`` at their gains.

        ``rows`` is a sorted index array, or ``slice(None)`` for every row.
        ``gains`` and ``posteriors`` cover the whole batch, and the
        posteriors are those :meth:`values` returned at the same gains.
        """
        grads = objectives._trace_gradient(gains[rows], self.ph_t[rows],
                                           self.gram[rows])
        split = (self.n_trace if isinstance(rows, slice)
                 else int(np.searchsorted(rows, self.n_trace)))
        if split < len(grads):
            logdet = objectives._logdet_gradient(posteriors[rows][split:],
                                                 grads[split:])
            grads[split:] = np.where(self.entropy[rows][split:, None, None],
                                     _entropy_from_logdet(logdet), logdet)
        return grads


def _clip_step(steps: np.ndarray) -> np.ndarray:
    """Steps clipped into ``_BB_STEP_RANGE``; NaN stays NaN."""
    return np.minimum(np.maximum(steps, _BB_STEP_RANGE[0]), _BB_STEP_RANGE[1])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner product of each pair of rows of two stacks."""
    return (a * b).sum(axis=(-2, -1))


def _initial_gain(problem: FilterProblem, config: OptimizerConfig) -> np.ndarray:
    if isinstance(config.init_gain, str):
        if config.init_gain == "zero":
            return np.zeros((problem.state_dim, problem.obs_dim))
        return analytic_gain(problem)
    return problem.check_gain(config.init_gain, name="init_gain")


def minimize_batch(problems: Sequence[FilterProblem],
                   kinds: Sequence[ObjectiveKind],
                   config: OptimizerConfig = OptimizerConfig(),
                   ) -> list[Union[OptimizationReport, GainlabError]]:
    """Minimize ``kinds[i]`` over the gain of ``problems[i]`` for every i.

    All problems must share one (state_dim, obs_dim) shape. The
    minimizations run in lockstep, each by the rule of
    :func:`minimize_objective`: in every round, all unfinished rows evaluate
    one trial step together, and only the rows that accepted their step
    compute a gradient. A row leaves the batch when it converges, reaches
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
    if len({(p.state_dim, p.obs_dim) for p in problems}) > 1:
        raise DimensionMismatch("all problems of a batch must share one shape")
    outcomes: list = [None] * len(problems)
    starts = {}
    # A stable sort puts the total-variance rows first, as _Batch needs.
    for i in sorted(range(len(problems)),
                    key=lambda i: kinds[i] is not ObjectiveKind.TOTAL_VARIANCE):
        try:
            starts[i] = _initial_gain(problems[i], config)
        except GainlabError as exc:
            outcomes[i] = exc
    if not starts:
        return outcomes
    ids = np.array(list(starts), dtype=np.intp)
    batch = _Batch.stack([problems[i] for i in ids], [kinds[i] for i in ids])
    finals = _lockstep(batch, ids, np.stack(list(starts.values())), config,
                       outcomes)
    for i, (gain, value, iterations, converged, trajectory) in finals.items():
        outcomes[i] = OptimizationReport(
            final_gain=gain,
            final_objective=float(value),
            iterations=int(iterations),
            converged=bool(converged),
            gradient_norm_trajectory=trajectory,
            stationarity_residual=stationarity_residual(problems[i], gain),
            objective_kind=kinds[i],
        )
    return outcomes


def _lockstep(batch: _Batch, ids: np.ndarray, gains: np.ndarray,
              config: OptimizerConfig, outcomes: list) -> dict:
    """The rounds of :func:`minimize_batch` from the stacked start ``gains``.

    ``ids`` maps rows to indices into ``outcomes``, where errors are
    written. The minimizations that finish are
    returned, keyed by index, as (final gain, objective value, iterations,
    converged, gradient-norm trajectory).
    """
    finals = {}
    values, posteriors, errors = batch.values(gains)
    if errors:
        keep = np.ones(len(ids), dtype=bool)
        for row, exc in errors.items():
            outcomes[ids[row]] = exc
            keep[row] = False
        batch, ids, gains, values, posteriors = (
            batch.take(keep), ids[keep], gains[keep], values[keep],
            posteriors[keep])
    grads = batch.gradients(slice(None), gains, posteriors)
    gnorms = np.sqrt(_row_dots(grads, grads))
    steps = _clip_step(config.initial_step / np.maximum(gnorms, _MIN_STEP))
    iterations = np.zeros(len(ids), dtype=np.intp)
    # The last _DESCENT_WINDOW accepted values, the oldest overwritten
    # first; -inf marks a slot not filled yet.
    window = np.full((len(ids), _DESCENT_WINDOW), -np.inf)
    window[:, 0] = values
    trajectories = {i: [norm] for i, norm in zip(ids.tolist(), gnorms.tolist())}
    done = gnorms <= config.grad_tol

    while True:
        if done.any():
            for row in np.flatnonzero(done):
                if outcomes[ids[row]] is None:
                    finals[int(ids[row])] = (
                        gains[row].copy(), values[row], iterations[row],
                        gnorms[row] <= config.grad_tol,
                        trajectories[ids[row]])
            keep = ~done
            batch = batch.take(keep)
            ids, gains, values, grads, gnorms, steps, iterations, window = (
                a[keep] for a in (ids, gains, values, grads, gnorms, steps,
                                  iterations, window))
        if not len(ids):
            return finals
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
        needed = config.armijo_c * steps * gnorms * gnorms
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
            steps[~accepted] *= config.backtrack_factor
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
        for i, norm in zip(ids[rows].tolist(), new_norms.tolist()):
            trajectories[i].append(norm)
        done[rows] = (new_norms <= config.grad_tol) | (counts >= config.max_iters)


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

    This is a batch of one for :func:`minimize_batch`, which evaluates the
    validating public functions' formulas on stacked iterates: each trial
    step costs one Joseph update and, for the log-det and entropy, one
    Cholesky factorization with the same pivot floor, and only an accepted
    step computes a gradient. Values and gradients are bit-for-bit those of
    :func:`~gainlab.objectives.evaluate_objective` and
    :func:`objective_gradient`.

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
    pairwise_distance: dict[tuple[ObjectiveKind, ObjectiveKind], float] = field(
        default_factory=dict)

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
    config = replace(config, init_gain="zero")
    outcomes: list = [None] * len(problems)
    references = {}
    for i, problem in enumerate(problems):
        try:
            references[i] = analytic_gain(problem)
        except GainlabError as exc:
            outcomes[i] = exc
    kinds = tuple(ObjectiveKind)
    runs = minimize_batch([problems[i] for i in references for _ in kinds],
                          [kind for _ in references for kind in kinds], config)
    for j, (i, reference) in enumerate(references.items()):
        mine = runs[j * len(kinds):(j + 1) * len(kinds)]
        failed = [run for run in mine if isinstance(run, GainlabError)]
        if failed:
            outcomes[i] = failed[0]
            continue
        reports = dict(zip(kinds, mine))
        outcomes[i] = EquivalenceReport(
            analytic=reference,
            reports=reports,
            distance_to_analytic={
                kind: frobenius_norm(report.final_gain - reference)
                for kind, report in reports.items()},
            pairwise_distance={
                (a, b): frobenius_norm(reports[a].final_gain
                                       - reports[b].final_gain)
                for a, b in OBJECTIVE_PAIRS},
        )
    return outcomes


def cross_objective_equivalence(problem: FilterProblem,
                                config: OptimizerConfig = OptimizerConfig(),
                                ) -> EquivalenceReport:
    """Minimize all three objectives from the zero gain and compare optima.

    The three minimizations run as one lockstep batch; the first of them in
    :class:`ObjectiveKind` order that fails raises its error.
    """
    equivalence, = equivalence_batch([problem], config)
    if isinstance(equivalence, GainlabError):
        raise equivalence
    return equivalence
