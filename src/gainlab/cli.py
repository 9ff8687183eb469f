"""Command-line entry points: batch runs, single-instance checks, gradient checks.

``check`` and ``gradcheck`` share one gradient check, ``_gradient_errors``,
at the analytic gain plus 0.1 of a seeded Gaussian draw.

Exit codes: 0 when every check passed its threshold, 1 when at least one
failed, 2 for configuration or I/O errors. A problem that fails to build,
or whose analytic gain fails, is a failed check, in ``check`` as in a
``run`` trial. ``run`` says on stderr how many minimizations stopped at
``--max-iters``; that changes neither its report nor its exit code.
"""

import argparse
import sys
from collections import defaultdict
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import objectives, optimizer
from .exceptions import GainlabError, InvalidParameter
from .experiment import (_MASK64, DISTANCE_THRESHOLD, ExperimentConfig,
                         _chunks, _make_problems, _mix_seeds, _row_bytes,
                         emit_report, make_problem, mix_seed, run_experiment)
from .kalman_update import FilterProblem, _analytic_gains, analytic_gain
from .matrix_core import _frobenius_norms, _generators, frobenius_norm
from .objectives import ObjectiveKind

_GRADCHECK_TOL = 1e-5
_RESIDUAL_TOL = 1e-8
_GRADCHECK_CONDS = (1.0, 10.0, 100.0)


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
    # A minimization that stops at max_iters does not fail its trial, which
    # compares gains only; say how many did, so that it does not pass unseen.
    flags = [converged for record in result.trials if not record.failed
             for converged in record.converged.values()]
    if not all(flags):
        print(f"gainlab: {flags.count(False)} of {len(flags)} minimizations "
              f"stopped at --max-iters {config.max_iters} before the gradient "
              f"norm reached --grad-tol {config.grad_tol:g}", file=sys.stderr)
    return 0 if result.all_passed() else 1


def _matrix_lines(a: np.ndarray) -> str:
    return np.array2string(a, precision=12, suppress_small=False)


def _gradient_errors(problems: Sequence[FilterProblem],
                     noises: Sequence[np.ndarray]) -> tuple[np.ndarray, dict]:
    """The one gradient check: analytic gradients against central differences.

    ``problems`` share one shape, and ``noises[i]`` is a draw of
    ``problems[i]``'s gain shape. Each problem is checked at its analytic
    gain ``K*`` plus 0.1 of its draw: at ``K*`` every gradient of the form
    ``A M B`` vanishes, a wrong one too. Returns the (len(problems), 3)
    errors ``||g - g_fd|| / (1 + ||g||)`` under each kind, in
    :class:`ObjectiveKind` order, and the failures: a map from each problem
    whose ``K*`` fails to that error, and from each other problem for which
    a loop over the kinds, calling
    :func:`~gainlab.objectives.objective_gradient` and then
    :func:`~gainlab.objectives.finite_difference_gradient`, raises, to the
    first error that loop raises. The error of a kind that raises is NaN,
    and a failing problem's other errors are meaningless. One batch, which
    stacks each problem once and repeats it per kind, gives ``K*`` as one
    solve and the analytic gradients; the stacked oracle takes every third
    row of its two Joseph operands, each problem once, and shares
    only the objective formulas with the gradients. Both equal the public
    functions' bit for bit.
    """
    kinds = tuple(ObjectiveKind)
    batch = objectives._Batch.stack(problems, kinds * len(problems),
                                    len(kinds))
    each = slice(None, None, len(kinds))
    gains, singular = _analytic_gains(batch.cross[each], batch.innovation[each])
    stacked = np.repeat(gains + 0.1 * np.asarray(noises), len(kinds), axis=0)
    with np.errstate(invalid="ignore"):
        _, analytic, errors = batch.evaluate(stacked)
    numeric, numeric_errors = objectives._finite_differences(
        SimpleNamespace(joint_cov=batch.joint_cov[each],
                        joint_op=batch.joint_op[each]), stacked[each])
    # Row r is problem r // len(kinds) under its kind, in the loop's order.
    # A problem's K* fails first; then, at one row, the analytic gradient's
    # errors come before the oracle's.
    raised = {**numeric_errors, **errors}
    failures = dict(singular)
    for row in sorted(raised):
        failures.setdefault(row // len(kinds), raised[row])
    relative = (_frobenius_norms(analytic - numeric)
                / (1.0 + _frobenius_norms(analytic)))
    relative[list(raised)] = np.nan
    return relative.reshape(len(problems), len(kinds)), failures


def _cmd_check(args) -> int:
    ExperimentConfig(state_dim=args.state_dim, obs_dim=args.obs_dim, trials=1,
                     master_seed=args.seed, cond_target=args.cond)  # as `run`
    seed = mix_seed(args.seed, 0)
    print(f"instance: state_dim={args.state_dim} obs_dim={args.obs_dim} "
          f"seed={args.seed} cond={args.cond}")
    try:
        problem = make_problem(args.state_dim, args.obs_dim, seed, args.cond)
        reference = analytic_gain(problem)
    except GainlabError as exc:
        # As in `run`, a problem that fails to build, or whose analytic gain
        # fails, is a failed check, not a configuration error.
        print(f"error: {exc}\n\nresult: FAIL")
        return 1
    print("analytic gain:")
    print(_matrix_lines(reference))

    ok = True
    kinds = list(ObjectiveKind)
    outcomes = optimizer.minimize_batch([problem] * len(kinds), kinds)
    for kind, report in zip(kinds, outcomes):
        if isinstance(report, GainlabError):
            ok = False
            print(f"\nminimized {kind.value}: error: {report}")
            continue
        distance = frobenius_norm(report.final_gain - reference)
        ok &= distance <= DISTANCE_THRESHOLD
        print(f"\nminimized {kind.value}: objective={report.final_objective!r} "
              f"iterations={report.iterations} converged={report.converged}")
        print(_matrix_lines(report.final_gain))
        print(f"distance to analytic gain: {distance:.3e}")

    noise = next(_generators(_mix_seeds(seed, 10))).standard_normal(
        reference.shape)
    errors, failures = _gradient_errors([problem], [noise])
    print("\ngradient check at analytic gain + 0.1 noise, vs central differences:")
    for kind, error in zip(kinds, errors[0]):
        ok &= bool(error <= _GRADCHECK_TOL)
        print(f"  {kind.value}: relative error {error:.3e}")
    if failures:
        print(f"  error: {failures[0]}")

    residual = optimizer.stationarity_residual(problem, reference)
    scale = 1.0 + frobenius_norm(problem.cross)
    ok &= residual <= _RESIDUAL_TOL * scale
    print(f"stationarity residual at analytic gain: {residual:.3e} "
          f"(tolerance {_RESIDUAL_TOL * scale:.3e})")
    print(f"\nresult: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _gradcheck_errors(seed: int, indices: range, max_dim: int) -> np.ndarray:
    """Relative gradient errors of the gradcheck instances ``indices``.

    Instance ``i`` draws from the one stream of ``mix_seed(seed, i)``, in
    order, its n and m up to ``max_dim``, an (n, m) gain noise, and the
    draws of its problem (see :func:`~gainlab.experiment._make_problems`),
    and is checked 0.1 of its noise away from its analytic gain. Returns
    the (len(indices), len(ObjectiveKind)) errors. One
    :func:`~gainlab.matrix_core._generators` call seeds every stream, one
    ``_make_problems`` call makes every problem, and one
    :func:`_gradient_errors` call checks each shape's problems. Raises the
    error that checking the instances one at a time, in order, raises
    first: an instance whose analytic gain fails raises that error. Called
    on each chunk of :func:`~gainlab.experiment._chunks`, sized for the
    ``max_dim`` x ``max_dim`` shape.
    """
    shapes, noises, draws = [], [], []
    for generator in _generators(_mix_seeds(seed & _MASK64, indices)):
        n = int(generator.integers(1, max_dim + 1))
        m = int(generator.integers(1, max_dim + 1))
        shapes.append((n, m))
        # The (n, m) noise and the (n, n), (m, m) and (m, n) draws, in order:
        # a Generator fills values in order, so one call gives four's bytes.
        k = n * m
        flat = generator.standard_normal(2 * k + n * n + m * m)
        noises.append(flat[:k].reshape(n, m))
        draws.append([flat[k:k + n * n].reshape(n, n),
                      flat[k + n * n:-k].reshape(m, m),
                      flat[-k:].reshape(m, n)])
    conds = [_GRADCHECK_CONDS[i % len(_GRADCHECK_CONDS)] for i in indices]
    problems = _make_problems(shapes, draws, conds)
    groups, failures = defaultdict(list), {}
    for j, (shape, problem) in enumerate(zip(shapes, problems)):
        if isinstance(problem, GainlabError):
            failures[j] = problem
        else:
            groups[shape].append(j)
    errors = np.empty((len(indices), len(ObjectiveKind)))
    for ids in groups.values():
        errors[ids], group_failures = _gradient_errors(
            [problems[j] for j in ids], [noises[j] for j in ids])
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
    if args.seed < 0:
        raise InvalidParameter("--seed must be a non-negative integer")
    worst = np.zeros(len(ObjectiveKind))
    # Chunks bound the memory for any --instances: a chunk's arrays, and the
    # oracle's stacks, are sized for the largest shape, --max-dim squared.
    for indices in _chunks(args.instances, 1,
                           _row_bytes(args.max_dim, args.max_dim)):
        # np.maximum, unlike max(), keeps a NaN error, which then fails.
        worst = np.maximum(worst, _gradcheck_errors(args.seed, indices,
                                                    args.max_dim).max(axis=0))
    ok = True
    for kind, error in zip(ObjectiveKind, worst):
        passed = bool(error <= _GRADCHECK_TOL)
        ok &= passed
        print(f"{kind.value}: max relative gradient error over "
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
