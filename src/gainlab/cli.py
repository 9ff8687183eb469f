"""Command-line entry points: batch runs, single-instance checks, gradient checks.

Exit codes: 0 when every check passed its threshold, 1 when at least one
failed, 2 for configuration or I/O errors.
"""

import argparse
import sys

import numpy as np

from . import objectives, optimizer
from .exceptions import GainlabError, InvalidParameter
from .experiment import (DISTANCE_THRESHOLD, ExperimentConfig, emit_report,
                         make_problem, mix_seed, run_experiment)
from .kalman_update import FilterProblem, analytic_gain
from .matrix_core import frobenius_norm
from .objectives import ObjectiveKind

_GRADCHECK_TOL = 1e-5
_RESIDUAL_TOL = 1e-8


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


def _gradient_error(problem: FilterProblem, gain: np.ndarray,
                    kind: ObjectiveKind) -> float:
    """Relative error of the analytic gradient against central differences."""
    analytic_grad = objectives.objective_gradient(problem, gain, kind)
    fd_grad = objectives.finite_difference_gradient(problem, gain, kind)
    return (frobenius_norm(analytic_grad - fd_grad)
            / (1.0 + frobenius_norm(analytic_grad)))


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

    rel_err = _gradient_error(problem, reference,
                              ObjectiveKind.LOG_GENERALIZED_VARIANCE)
    ok &= rel_err <= _GRADCHECK_TOL
    print(f"\ngradient check (logdet, analytic vs central differences): "
          f"relative error {rel_err:.3e}")

    residual = optimizer.stationarity_residual(problem, reference)
    scale = 1.0 + frobenius_norm(problem.prior @ problem.obs_op.T)
    ok &= residual <= _RESIDUAL_TOL * scale
    print(f"stationarity residual at analytic gain: {residual:.3e} "
          f"(tolerance {_RESIDUAL_TOL * scale:.3e})")
    print(f"\nresult: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_gradcheck(args) -> int:
    if args.max_dim < 1:
        raise InvalidParameter("--max-dim must be >= 1")
    if args.instances < 1:
        raise InvalidParameter("--instances must be >= 1")
    conds = (1.0, 10.0, 100.0)
    worst = {kind: 0.0 for kind in ObjectiveKind}
    for i in range(args.instances):
        seed = mix_seed(args.seed, i)
        rng = np.random.default_rng(mix_seed(seed, 10))
        n = int(rng.integers(1, args.max_dim + 1))
        m = int(rng.integers(1, args.max_dim + 1))
        problem = make_problem(n, m, seed, conds[i % len(conds)])
        gain = analytic_gain(problem) + 0.1 * rng.standard_normal((n, m))
        for kind in ObjectiveKind:
            worst[kind] = max(worst[kind], _gradient_error(problem, gain, kind))
    ok = True
    for kind in ObjectiveKind:
        status = "PASS" if worst[kind] <= _GRADCHECK_TOL else "FAIL"
        ok &= worst[kind] <= _GRADCHECK_TOL
        print(f"{kind.short_name}: max relative gradient error over "
              f"{args.instances} instances = {worst[kind]:.3e}  [{status}]")
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
