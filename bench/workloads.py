"""Workload definitions, timed batches and the correctness checks on their output.

A workload is a batch configuration of the public library. A run measures a
prefix of a fixed stream of batches: batch ``r`` uses master seed
``mix_seed(seed, r)``, and the run starts a batch only while, at the median
batch time so far, it would end closer to ``--seconds`` than stopping now. The end-to-end times are medians
over batches, so a faster program measuring a longer prefix of the same
stream does not shift them by more than the spread between batches, and a
burst of load from outside slows only the batches it overlaps.
"""

import contextlib
import io
import json
import re
import statistics
import resource
import time
from dataclasses import dataclass, field, replace

from gainlab import cli
from gainlab.experiment import (DISTANCE_THRESHOLD, ExperimentConfig,
                                make_problem, mix_seed, render_report,
                                run_experiment)
from gainlab.matrix_core import frobenius_norm

import machine

# Tolerance of `gainlab check` on the analytic gain's stationarity residual,
# scaled by 1 + ||P H^T|| exactly as the CLI does.
RESIDUAL_TOL = 1e-8
# Extra dimension bound passed to `gainlab gradcheck` (its default).
GRADCHECK_MAX_DIM = 6
_GRADCHECK_LINE = re.compile(r"^\w+: max relative gradient error over \d+ "
                             r"instances = \S+\s+\[(PASS|FAIL)\]$")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; see README.md for why each was chosen."""

    name: str
    state_dim: int
    obs_dim: int
    cond: float
    workers: int
    batch: int        # trials (gradcheck: instances) per timed batch
    trace_batch: int  # trials in the traced run
    gradcheck: bool = False

    def config(self, master_seed: int, trials: int) -> ExperimentConfig:
        return ExperimentConfig(state_dim=self.state_dim, obs_dim=self.obs_dim,
                                trials=trials, master_seed=master_seed,
                                cond_target=self.cond)


WORKLOADS = {w.name: w for w in (
    Workload("default_4x3", 4, 3, 10.0, workers=1, batch=50, trace_batch=20),
    Workload("heavy_8x8", 8, 8, 100.0, workers=2, batch=16, trace_batch=4),
    Workload("illcond_4x3", 4, 3, 1e4, workers=1, batch=2, trace_batch=2),
    Workload("gradcheck", GRADCHECK_MAX_DIM, GRADCHECK_MAX_DIM, 10.0,
             workers=1, batch=500, trace_batch=100,
             gradcheck=True),
)}


@dataclass
class Tally:
    """Outcome counts over every batch of a run, and the failed checks."""

    trials: int = 0
    errors: int = 0            # trials that raised (the CLI's exit code 2)
    trials_not_passed: int = 0
    checks: int = 0            # one per objective per trial (gradcheck: per batch)
    checks_passed: int = 0
    minimizations: int = 0
    converged: int = 0
    iterations: dict = field(default_factory=lambda: {
        "logdet": 0, "trace": 0, "entropy": 0})
    problems: list = field(default_factory=list)

    def add(self, workload: Workload, size: int, result, text: str) -> None:
        """Count and check one batch as returned by :func:`run_batch`."""
        if workload.gradcheck:
            self.add_gradcheck(size, result, text)
        else:
            self.add_experiment(workload, result, text)

    def add_experiment(self, workload: Workload, result, text: str) -> None:
        records = result.trials
        indices = [r.trial_index for r in records]
        if indices != list(range(result.config.trials)):
            self.problems.append(f"trials out of index order: {indices[:10]}")
        try:
            json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            self.problems.append(f"report is not strict JSON: {exc}")
        for record in records:
            self.trials += 1
            self.checks += 3
            self.minimizations += 3
            if record.failed:
                self.errors += 1
                self.trials_not_passed += 1
                continue
            self.trials_not_passed += not record.passed(DISTANCE_THRESHOLD)
            self.checks_passed += sum(d <= DISTANCE_THRESHOLD
                                      for d in record.distances)
            self.converged += sum(record.converged.values())
            for kind, count in record.iterations.items():
                self.iterations[kind] += count
            problem = make_problem(workload.state_dim, workload.obs_dim,
                                   record.seed_used, workload.cond)
            tol = RESIDUAL_TOL * (1.0 + frobenius_norm(problem.prior
                                                       @ problem.obs_op.T))
            if not record.stationarity_residual <= tol:
                self.problems.append(
                    f"trial {record.trial_index}: stationarity residual "
                    f"{record.stationarity_residual:.3e} above {tol:.3e}")

    def add_gradcheck(self, instances: int, code: int, output: str) -> None:
        self.trials += instances
        self.checks += 3
        if code == 2:
            self.errors += instances
            self.trials_not_passed += instances
            return
        statuses = [m.group(1) for m in map(_GRADCHECK_LINE.match,
                                            output.splitlines()) if m]
        if len(statuses) != 3 or code != (0 if "FAIL" not in statuses else 1):
            self.problems.append(f"unexpected gradcheck output (exit {code}): "
                                 f"{output!r}")
        self.checks_passed += statuses.count("PASS")
        # The CLI reports only the worst instance per objective, so a failed
        # batch counts every instance as not passed.
        self.trials_not_passed += instances if "FAIL" in statuses else 0

    def shares(self) -> dict:
        """Passed and converged shares; never zero unless everything fails."""
        return {
            "passed_share": self.checks_passed / self.checks,
            # gradcheck runs no minimization, so nothing can fail to converge.
            "converged_share": (self.converged / self.minimizations
                                if self.minimizations else 1.0),
            "failed_share": self.trials_not_passed / self.trials,
            "nonconverged_share": (1.0 - self.converged / self.minimizations
                                   if self.minimizations else 0.0),
        }


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def run_batch(workload: Workload, master_seed: int, size: int, workers: int):
    """Run and time one batch; returns (wall seconds, result, report text).

    For gradcheck the result is the CLI's exit code and the text its output.
    """
    if workload.gradcheck:
        argv = ["gradcheck", "--instances", str(size), "--seed",
                str(master_seed), "--max-dim", str(GRADCHECK_MAX_DIM)]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return time.perf_counter() - start, code, out.getvalue()
    config = workload.config(master_seed, size)
    start = time.perf_counter()
    result = run_experiment(config, workers=workers)
    text = render_report(result)
    return time.perf_counter() - start, result, text


def check_worker_invariance(seed: int, tally: Tally) -> None:
    """Reports of a small heavy_8x8 batch must be byte-identical for 1 and 2
    workers.

    The batch stops its minimizations early so that the report also carries
    unconverged, failing trials, at a fraction of a full batch's cost.
    """
    heavy = WORKLOADS["heavy_8x8"]
    config = replace(heavy.config(mix_seed(seed, 1 << 20), trials=4),
                     max_iters=300)
    serial = render_report(run_experiment(config, workers=1))
    parallel = render_report(run_experiment(config, workers=2))
    if serial != parallel:
        tally.problems.append("workers=1 and workers=2 reports differ")


def measure(workload: Workload, seed: int, seconds: float):
    """Timed batches of a run.

    Returns (raw batch walls, the walls at reference speed, the reference
    loop times taken before, between and after the batches, tally).
    """
    tally = Tally()
    walls, scaled = [], []
    refs = [machine.reference_seconds()]
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start
                        + statistics.median(walls) / 2 <= seconds):
        wall, result, text = run_batch(workload, mix_seed(seed, len(walls)),
                                       workload.batch, workload.workers)
        refs.append(machine.reference_seconds())
        walls.append(wall)
        scaled.append(machine.at_reference_speed(wall, refs[-2], refs[-1]))
        tally.add(workload, workload.batch, result, text)
    if not workload.gradcheck:
        check_worker_invariance(seed, tally)
    return walls, scaled, refs, tally


def end_to_end(workload: Workload, scaled: list, tally: Tally, setup_s: float,
               peak_rss_mb: float) -> dict:
    shares = tally.shares()
    wall_s = statistics.median(scaled)
    return {
        "wall_s": wall_s,
        "trials_per_s": workload.batch / wall_s,
        "passed_share": shares["passed_share"],
        "converged_share": shares["converged_share"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times its largest child's.

    Pool workers are the only children a pooled workload waits for after its
    set-up probes, and a worker forked from this process is larger than a
    probe, so the largest child is a worker. Serial workloads have no workers.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + (workers * child_kb if workers > 1 else 0)) / 1024.0
