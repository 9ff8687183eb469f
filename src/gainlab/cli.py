"""Command-line entry points: batch runs, single-instance checks, gradient checks.

``check`` and ``gradcheck`` share one gradient check, ``_gradient_errors``,
at the analytic gain plus 0.1 of a seeded Gaussian draw.

Exit codes: 0 when every check passed its threshold, 1 when at least one
failed, 2 for configuration or I/O errors. A problem that fails to build,
or whose analytic gain fails, is a failed check, in ``check`` as in a
``run`` trial. ``run`` says on stderr how many minimizations stopped before
the gradient norm reached ``--grad-tol``, and why: at ``--max-iters``, or
stalled where an accepted step left the gain unchanged; that changes
neither its report nor its exit code.
"""

import argparse
import sys
from collections import defaultdict

import numpy as np

from . import objectives, optimizer
from .exceptions import GainlabError, InvalidParameter
from .experiment import (_MASK64, DISTANCE_THRESHOLD, ExperimentConfig,
                         _chunks, _make_problems, _row_bytes, _trial_problems,
                         emit_report, mix_seed, run_experiment)
from .kalman_update import _analytic_gains, _problem, analytic_gain
from .matrix_core import _frobenius_norms, frobenius_norm
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
    # A minimization that stops unconverged does not fail its trial, which
    # compares gains only; say how many did, and why, so that it does not
    # pass unseen. One that stopped short of max_iters stalled.
    stops = [record.iterations[kind] >= config.max_iters
             for record in result.trials if not record.failed
             for kind, converged in record.converged.items() if not converged]
    if stops:
        runs = 3 * sum(not record.failed for record in result.trials)
        print(f"gainlab: {len(stops)} of {runs} minimizations stopped before "
              f"the gradient norm reached --grad-tol {config.grad_tol:g}: "
              f"{stops.count(True)} at --max-iters {config.max_iters}, "
              f"{stops.count(False)} stalled where an accepted step left the "
              f"gain unchanged", file=sys.stderr)
    return 0 if result.all_passed() else 1


def _matrix_lines(a: np.ndarray) -> str:
    return np.array2string(a, precision=12, suppress_small=False)


def _gradient_errors(stacks, noises: np.ndarray) -> tuple[np.ndarray, dict]:
    """The one gradient check: analytic gradients against central differences.

    ``stacks`` holds problems of one shape, as a build gives them (see
    :func:`~gainlab.kalman_update._build_problems`), and ``noises[i]`` is
    a draw of problem ``i``'s gain shape. Each problem is checked at its
    analytic gain ``K*`` plus 0.1 of its draw: at ``K*`` every gradient of
    the form ``A M B`` vanishes, a wrong one too. Returns the (B, 3)
    errors ``||g - g_fd|| / (1 + ||g||)`` under each kind, in
    :class:`ObjectiveKind` order, and the failures: a map from each problem
    whose ``K*`` fails to that error, and from each other problem for which
    a loop over the kinds, calling
    :func:`~gainlab.objectives.objective_gradient` and then
    :func:`~gainlab.objectives.finite_difference_gradient`, raises, to the
    first error that loop raises. The error of a kind that raises is NaN,
    and a failing problem's other errors are meaningless. ``K*`` is one
    solve, one batch gives the analytic gradients and the stacked oracle
    the numeric ones, both the public functions' bit for bit.
    """
    kinds, count = tuple(ObjectiveKind), len(stacks.cross)
    batch = objectives._Batch.stack(stacks, kinds * count, len(kinds))
    gains, singular = _analytic_gains(stacks.cross, stacks.innovation)
    gains += 0.1 * noises
    with np.errstate(invalid="ignore"):
        _, analytic, errors = batch.evaluate(np.repeat(gains, len(kinds),
                                                       axis=0))
    numeric, numeric_errors = objectives._finite_differences(stacks, gains)
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
    return relative.reshape(count, len(kinds)), failures


def _cmd_check(args) -> int:
    ExperimentConfig(state_dim=args.state_dim, obs_dim=args.obs_dim, trials=1,
                     master_seed=args.seed, cond_target=args.cond)  # as `run`
    seed = mix_seed(args.seed, 0)
    print(f"instance: state_dim={args.state_dim} obs_dim={args.obs_dim} "
          f"seed={args.seed} cond={args.cond}")
    stacks, errors = _trial_problems((args.state_dim, args.obs_dim), [seed],
                                     args.cond)
    try:
        if errors:
            raise errors[0]
        problem = _problem(stacks, 0)
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

    noise = np.random.default_rng(mix_seed(seed, 10)).standard_normal(
        reference.shape)
    errors, failures = _gradient_errors(stacks, noise[None])
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


def _gradcheck_errors(rng: "np.random.Generator", indices: range,
                      max_dim: int) -> np.ndarray:
    """Relative gradient errors of the gradcheck instances ``indices``.

    The instances are the next ``len(indices)`` of the command's one stream
    ``rng``: each draws from it, in order, its n and m up to ``max_dim``,
    an (n, m) gain noise, and the draws of its problem (see
    :func:`~gainlab.experiment._make_problems`), and is checked 0.1 of its
    noise away from its analytic gain; instance ``i``'s condition target
    is ``_GRADCHECK_CONDS[i % len(_GRADCHECK_CONDS)]``. Returns the
    (len(indices), len(ObjectiveKind)) errors. The instances are grouped
    by shape, one ``_make_problems`` call builds every group's stacks, and
    one :func:`_gradient_errors` call checks each group. Raises the error
    that checking the instances one at a time, in order, raises first: an
    instance whose analytic gain fails raises that error. Called on each
    chunk of :func:`~gainlab.experiment._chunks`, sized for the
    ``max_dim`` x ``max_dim`` shape, in order.
    """
    rows, flats = defaultdict(list), defaultdict(list)
    for j, i in enumerate(indices):
        n = int(rng.integers(1, max_dim + 1))
        m = int(rng.integers(1, max_dim + 1))
        rows[n, m].append(j)
        # The noise, then the problem's draws: a Generator fills values in
        # order, so one call gives the bytes of the separate draws.
        flats[n, m].append(rng.standard_normal(n * m + n * n + m * m + m * n))
    groups = {shape: np.array(flat) for shape, flat in flats.items()}
    conds = [_GRADCHECK_CONDS[i % len(_GRADCHECK_CONDS)] for i in indices]
    built = _make_problems({
        (n, m): (flat[:, n * m:], [conds[j] for j in rows[n, m]])
        for (n, m), flat in groups.items()})
    errors = np.empty((len(indices), len(ObjectiveKind)))
    failures = {}
    for (n, m), (stacks, build_errors) in built.items():
        ids = rows[n, m]
        failures.update((ids[k], exc) for k, exc in build_errors.items())
        checked = [k for k in range(len(ids)) if k not in build_errors]
        if not checked:
            continue
        noises = groups[n, m][checked, :n * m].reshape(-1, n, m)
        ids = [ids[k] for k in checked]
        errors[ids], group_failures = _gradient_errors(stacks, noises)
        failures.update((ids[k], exc) for k, exc in group_failures.items())
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
    rng = np.random.default_rng(args.seed & _MASK64)
    worst = np.zeros(len(ObjectiveKind))
    # Chunks bound the memory for any --instances: a chunk's arrays, and the
    # oracle's stacks, are sized for the largest shape, --max-dim squared.
    for indices in _chunks(args.instances, 1,
                           _row_bytes(args.max_dim, args.max_dim)):
        # np.maximum, unlike max(), keeps a NaN error, which then fails.
        worst = np.maximum(worst, _gradcheck_errors(rng, indices,
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
