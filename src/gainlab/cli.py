"""Command-line entry points: batch runs, single-instance checks, gradient checks.

Exit codes: 0 when every check passed its threshold, 1 when at least one
failed, 2 for configuration or I/O errors.
"""

import argparse
import sys
from collections import defaultdict
from typing import Sequence

import numpy as np

from . import objectives, optimizer
from .exceptions import GainlabError, InvalidParameter
from .experiment import (DISTANCE_THRESHOLD, ExperimentConfig, _make_problems,
                         emit_report, make_problem, mix_seed, run_experiment)
from .kalman_update import FilterProblem, analytic_gain
from .matrix_core import _frobenius_norms, frobenius_norm
from .objectives import ObjectiveKind

_GRADCHECK_TOL = 1e-5
_RESIDUAL_TOL = 1e-8
_GRADCHECK_CONDS = (1.0, 10.0, 100.0)
# Instances that gradcheck generates and checks together, at most; this
# bounds its memory for any --instances. A chunk holds its problems, gains
# and gradients, whose size grows as the square of --max-dim: a chunk's
# peak, the oracle's stacks included, is 1.2 MB at the default --max-dim 6
# and 26 MB at --max-dim 35.
_GRADCHECK_CHUNK = 256


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainlab",
        description="Verify that the analytic Kalman gain minimizes the trace, "
                    "determinant, and differential entropy of the posterior "
                    "covariance.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a batch of seeded equivalence trials")
    run.add_argument("--state-dim", type=int, default=4)
    run.add_argument("--obs-dim", type=int, default=3)
    run.add_argument("--trials", type=int, default=50)
    run.add_argument("--seed", type=int, default=1, help="master seed")
    run.add_argument("--cond", type=float, default=10.0,
                     help="condition-number target for random covariances")
    run.add_argument("--grad-tol", type=float, default=1e-9)
    run.add_argument("--max-iters", type=int, default=5000)
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.add_argument("--out", default="-", help="output path, '-' for stdout")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes; output is identical for any count")

    check = sub.add_parser("check",
                           help="verbose verification of one seeded instance")
    check.add_argument("--seed", type=int, default=1)
    check.add_argument("--state-dim", type=int, default=4)
    check.add_argument("--obs-dim", type=int, default=3)
    check.add_argument("--cond", type=float, default=10.0)

    grad = sub.add_parser("gradcheck",
                          help="analytic-vs-finite-difference gradient suite")
    grad.add_argument("--instances", type=int, default=100)
    grad.add_argument("--seed", type=int, default=1)
    grad.add_argument("--max-dim", type=int, default=6)
    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig(
        state_dim=args.state_dim,
        obs_dim=args.obs_dim,
        trials=args.trials,
        master_seed=args.seed,
        cond_target=args.cond,
        grad_tol=args.grad_tol,
        max_iters=args.max_iters,
        output_format=args.format,
    )
    result = run_experiment(config, workers=args.workers)
    emit_report(result, args.out)
    if args.out != "-":
        print(f"wrote {config.output_format} report for {config.trials} trials "
              f"to {args.out}", file=sys.stderr)
    return 0 if result.all_passed(DISTANCE_THRESHOLD) else 1


def _matrix_lines(a: np.ndarray) -> str:
    return np.array2string(a, precision=12, suppress_small=False)


def _gradient_errors(problems: Sequence[FilterProblem],
                     gains: Sequence[np.ndarray],
                     kinds: Sequence[ObjectiveKind]) -> tuple[np.ndarray, dict]:
    """Relative error of the analytic gradient against central differences.

    ``problems`` share one shape, and ``gains[i]`` is a gain of
    ``problems[i]``. Returns the (len(problems), len(kinds)) errors
    ``||g - g_fd|| / (1 + ||g||)`` of every problem under every kind, and
    the failures: a map from each problem for which a loop over ``kinds``,
    calling :func:`~gainlab.objectives.objective_gradient` and then
    :func:`~gainlab.objectives.finite_difference_gradient`, raises, to the
    first error that loop raises. A failing problem's errors are
    meaningless. One batch, with values then gradients, gives the analytic
    gradients of every problem and kind, and the stacked oracle their
    central differences; both equal the public functions' bit for bit.
    """
    batch = objectives._Batch.stack(
        [problem for problem in problems for _ in kinds],
        [kind for _ in problems for kind in kinds])
    stacked = np.repeat(np.stack(gains), len(kinds), axis=0)
    _, posteriors, errors = batch.values(stacked)
    rows = np.setdiff1d(np.arange(len(stacked)), list(errors))
    analytic = batch.gradients(rows, stacked, posteriors)
    numeric, numeric_errors = objectives._finite_differences(
        batch.take(rows), stacked[rows])
    # Row r is problem r // len(kinds) under its kind, in the loop's order;
    # at one row, the analytic gradient's error comes before the oracle's.
    raised = sorted([(row, 0, exc) for row, exc in errors.items()]
                    + [(rows[j], 1, exc) for j, exc in numeric_errors.items()],
                    key=lambda entry: entry[:2])
    failures = {}
    for row, _, exc in raised:
        failures.setdefault(int(row) // len(kinds), exc)
    relative = np.full(len(stacked), np.nan)
    relative[rows] = (_frobenius_norms(analytic - numeric)
                      / (1.0 + _frobenius_norms(analytic)))
    return relative.reshape(len(problems), len(kinds)), failures


def _cmd_check(args) -> int:
    problem = make_problem(args.state_dim, args.obs_dim, mix_seed(args.seed, 0),
                           args.cond)
    reference = analytic_gain(problem)
    print(f"instance: state_dim={args.state_dim} obs_dim={args.obs_dim} "
          f"seed={args.seed} cond={args.cond}")
    print("analytic gain:")
    print(_matrix_lines(reference))

    ok = True
    equivalence = optimizer.cross_objective_equivalence(problem)
    for kind in ObjectiveKind:
        report = equivalence.reports[kind]
        distance = equivalence.distance_to_analytic[kind]
        ok &= distance <= DISTANCE_THRESHOLD
        print(f"\nminimized {kind.short_name}: objective={report.final_objective!r} "
              f"iterations={report.iterations} converged={report.converged}")
        print(_matrix_lines(report.final_gain))
        print(f"distance to analytic gain: {distance:.3e}")

    errors, failures = _gradient_errors(
        [problem], [reference], [ObjectiveKind.LOG_GENERALIZED_VARIANCE])
    if failures:
        raise failures[0]
    rel_err = errors[0, 0]
    ok &= rel_err <= _GRADCHECK_TOL
    print(f"\ngradient check (logdet, analytic vs central differences): "
          f"relative error {rel_err:.3e}")

    residual = optimizer.stationarity_residual(problem, reference)
    scale = 1.0 + frobenius_norm(problem.cross)
    ok &= residual <= _RESIDUAL_TOL * scale
    print(f"stationarity residual at analytic gain: {residual:.3e} "
          f"(tolerance {_RESIDUAL_TOL * scale:.3e})")
    print(f"\nresult: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _gradcheck_errors(seed: int, indices: range, max_dim: int) -> np.ndarray:
    """Relative gradient errors of the gradcheck instances ``indices``.

    Instance ``i`` is a problem of random shape up to ``max_dim`` x
    ``max_dim`` from the seed ``mix_seed(seed, i)``, at a gain 0.1 of a
    Gaussian draw away from its analytic gain. Returns the
    (len(indices), len(ObjectiveKind)) errors. The problems are generated
    as stacks (see :func:`~gainlab.experiment._make_problems`), and the
    instances of one shape are checked as one stack (see
    :func:`_gradient_errors`). Raises the error that checking the instances
    one at a time, in order, raises first.
    """
    specs, noises = [], []
    for i in indices:
        instance_seed = mix_seed(seed, i)
        rng = np.random.default_rng(mix_seed(instance_seed, 10))
        n = int(rng.integers(1, max_dim + 1))
        m = int(rng.integers(1, max_dim + 1))
        specs.append((n, m, instance_seed,
                      _GRADCHECK_CONDS[i % len(_GRADCHECK_CONDS)]))
        noises.append(rng.standard_normal((n, m)))
    failures = {}
    shapes = defaultdict(dict)
    for j, problem in enumerate(_make_problems(specs)):
        try:
            if isinstance(problem, GainlabError):
                raise problem
            gain = analytic_gain(problem) + 0.1 * noises[j]
        except GainlabError as exc:
            failures[j] = exc
            continue
        shapes[problem.state_dim, problem.obs_dim][j] = (problem, gain)
    errors = np.empty((len(specs), len(ObjectiveKind)))
    for members in shapes.values():
        ids = list(members)
        problems, gains = zip(*members.values())
        errors[ids], group_failures = _gradient_errors(problems, gains,
                                                       tuple(ObjectiveKind))
        for k, exc in group_failures.items():
            failures[ids[k]] = exc
    if failures:
        raise failures[min(failures)]
    return errors


def _cmd_gradcheck(args) -> int:
    if args.max_dim < 1:
        raise InvalidParameter("--max-dim must be >= 1")
    if args.instances < 1:
        raise InvalidParameter("--instances must be >= 1")
    worst = np.zeros(len(ObjectiveKind))
    for start in range(0, args.instances, _GRADCHECK_CHUNK):
        indices = range(start, min(start + _GRADCHECK_CHUNK, args.instances))
        # np.maximum, unlike max(), keeps a NaN error, which then fails.
        worst = np.maximum(worst, _gradcheck_errors(args.seed, indices,
                                                    args.max_dim).max(axis=0))
    ok = True
    for kind, error in zip(ObjectiveKind, worst):
        passed = bool(error <= _GRADCHECK_TOL)
        ok &= passed
        print(f"{kind.short_name}: max relative gradient error over "
              f"{args.instances} instances = {error:.3e}  "
              f"[{'PASS' if passed else 'FAIL'}]")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_gradcheck(args)
    except (GainlabError, OSError) as exc:
        print(f"gainlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
