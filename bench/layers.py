"""Per-layer measurements: a span tracer, microbenchmarks, and the traced run.

The tracer is a ``sys.setprofile`` hook restricted to the code objects of the
public gainlab functions listed in ``SPAN_FUNCTIONS``. It keeps spans in
memory while the run lasts; ``traced_run`` writes them out at the end. All
timings in spans include the hook's own cost, which ``trace.overhead_s``
reports; the ``*.us`` microbenchmarks and ``optimizer.iteration.us`` run with
tracing off.
"""

import gzip
import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from gainlab import experiment, kalman_update, matrix_core, objectives, optimizer
from gainlab.objectives import ObjectiveKind

import machine
import workloads

SPAN_FUNCTIONS = (
    experiment.run_trial, experiment.make_problem,
    optimizer.cross_objective_equivalence, optimizer.minimize_objective,
    optimizer.trace_gradient,
    objectives.total_variance, objectives.log_generalized_variance,
    objectives.differential_entropy, objectives.logdet_gradient,
    objectives.finite_difference_gradient,
    kalman_update.analytic_gain, kalman_update.joseph_update,
    matrix_core.cholesky,
)
EVALUATORS = ("objectives.total_variance", "objectives.log_generalized_variance",
              "objectives.differential_entropy")
RUN_TRIAL = "experiment.run_trial"
MAKE_PROBLEM = "experiment.make_problem"
MINIMIZE = "optimizer.minimize_objective"
EQUIVALENCE = "optimizer.cross_objective_equivalence"

MICRO_PROBLEMS = 8
MICRO_REPEATS = 9
MICRO_LOOPS = 4
MICRO_CALLS = MICRO_REPEATS * MICRO_LOOPS * MICRO_PROBLEMS


_NAMED_UNITS = {"optimizer.evals_per_iter": "evals/iter",
                "optimizer.accept_ratio": "ratio",
                "experiment.parallel_efficiency": "ratio",
                "experiment.failed_share": "ratio",
                "optimizer.nonconverged_share": "ratio"}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in _NAMED_UNITS:
        return _NAMED_UNITS[name]
    for suffix, result in ((".us", "us"), (".ms", "ms"), ("self_ms", "ms"),
                           (".self_ms_per_trial", "ms/trial"),
                           ("_per_trial", "calls/trial"), ("_s", "s")):
        if name.endswith(suffix):
            return result
    return "count"


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records (id, parent, name, start, end, trial) spans of SPAN_FUNCTIONS.

    A trial starts at each ``run_trial`` call and, outside ``run_trial``
    (the gradcheck loop), at each top-level ``make_problem`` call; every span
    carries the id of the trial span it belongs to.
    """

    def __init__(self):
        self.targets = {fn.__code__: _span_name(fn) for fn in SPAN_FUNCTIONS}
        self.spans = []
        self._open = []  # [id, parent, name, start, trial, code]
        self._trial = 0
        self._next_id = 1

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)

    def _hook(self, frame, event, arg):
        if event == "call":
            name = self.targets.get(frame.f_code)
            if name is None:
                return
            span_id = self._next_id
            self._next_id += 1
            if name == RUN_TRIAL or (name == MAKE_PROBLEM and not self._open):
                self._trial = span_id
            parent = self._open[-1][0] if self._open else 0
            self._open.append([span_id, parent, name, time.perf_counter(),
                               self._trial, frame.f_code])
        elif event == "return" and self._open and self._open[-1][5] is frame.f_code:
            span_id, parent, name, start, trial, _ = self._open.pop()
            self.spans.append((span_id, parent, name, start, time.perf_counter(),
                               trial))

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, trial in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent,
                                         "name": name, "start": start,
                                         "end": end, "trial": trial}) + "\n")


def span_metrics(spans: list, trials: int, iterations: int) -> dict:
    """Self time and call counts per span name, and the optimizer ratios."""
    duration = {s[0]: s[4] - s[3] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    child_time = defaultdict(float)
    for span_id, parent, *_ in spans:
        if parent:
            child_time[parent] += duration[span_id]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for span_id, _, name, *_ in spans:
        calls[name] += 1
        self_s[name] += duration[span_id] - child_time[span_id]

    # Evaluations a caller asked for: entropy evaluates log-det internally,
    # so an evaluator span under another evaluator is not counted again.
    evaluations = sum(1 for s in spans if s[2] in EVALUATORS
                      and name_of.get(s[1]) not in EVALUATORS)
    line_search = sum(1 for s in spans if s[2] in EVALUATORS
                      and name_of.get(s[1]) == MINIMIZE) - calls[MINIMIZE]
    equivalence_s = defaultdict(float)
    for span_id, parent, name, *_ in spans:
        if name == EQUIVALENCE and name_of.get(parent) == RUN_TRIAL:
            equivalence_s[parent] += duration[span_id]
    trial_spans = [i for i, n in name_of.items() if n == RUN_TRIAL]
    run_trial_self = sum(duration[i] - equivalence_s[i] for i in trial_spans)

    metrics = {}
    for fn in SPAN_FUNCTIONS:
        name = _span_name(fn)
        metrics[f"{name}.calls_per_trial"] = calls[name] / trials
        metrics[f"{name}.self_ms_per_trial"] = 1e3 * self_s[name] / trials
    metrics.update({
        "objectives.evaluations_per_trial": evaluations / trials,
        "optimizer.evals_per_iter": line_search / iterations if iterations else 0.0,
        "optimizer.accept_ratio": iterations / line_search if line_search else 0.0,
        "experiment.run_trial.self_ms": (1e3 * run_trial_self / len(trial_spans)
                                         if trial_spans else 0.0),
    })
    return metrics


def _median_per_call(fn, args_list: list) -> float:
    for args in args_list:
        fn(*args)
    samples = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter()
        for _ in range(MICRO_LOOPS):
            for args in args_list:
                fn(*args)
        samples.append((time.perf_counter() - start)
                       / (MICRO_LOOPS * len(args_list)))
    return statistics.median(samples)


def microbenchmarks(workload, seed: int) -> dict:
    """Median µs per call of each public layer function at the workload shape.

    Problems come from the run seed; gains are the analytic gain plus a 0.1
    Gaussian perturbation, so the posterior is a generic SPD matrix.
    """
    n, m, cond = workload.state_dim, workload.obs_dim, workload.cond
    seeds = [experiment.mix_seed(seed, 10_000 + i) for i in range(MICRO_PROBLEMS)]
    problems = [experiment.make_problem(n, m, s, cond) for s in seeds]
    rng = np.random.default_rng(experiment.mix_seed(seed, 20_000))
    pg = [(p, kalman_update.analytic_gain(p) + 0.1 * rng.standard_normal((n, m)))
          for p in problems]
    posteriors = [(kalman_update.joseph_update(p, g),) for p, g in pg]
    logdet = ObjectiveKind.LOG_GENERALIZED_VARIANCE
    cases = {
        "matrix_core.cholesky.us": (matrix_core.cholesky, posteriors),
        "matrix_core.log_det.us": (matrix_core.log_det, posteriors),
        "kalman_update.joseph_update.us": (kalman_update.joseph_update, pg),
        "kalman_update.analytic_gain.us": (kalman_update.analytic_gain,
                                           [(p,) for p in problems]),
        "objectives.log_generalized_variance.us": (
            objectives.log_generalized_variance, pg),
        "objectives.total_variance.us": (objectives.total_variance, pg),
        "objectives.logdet_gradient.us": (objectives.logdet_gradient, pg),
        "objectives.finite_difference_gradient.us": (
            objectives.finite_difference_gradient,
            [(p, g, logdet) for p, g in pg]),
        "experiment.make_problem.us": (experiment.make_problem,
                                       [(n, m, s, cond) for s in seeds]),
    }
    metrics = {name: 1e6 * _median_per_call(fn, args)
               for name, (fn, args) in cases.items()}
    metrics["microbench.calls"] = MICRO_CALLS

    # One full minimization per objective on the first problem.
    elapsed = 0.0
    iterations = 0
    for kind in ObjectiveKind:
        start = time.perf_counter()
        report = optimizer.minimize_objective(problems[0], kind)
        elapsed += time.perf_counter() - start
        iterations += report.iterations
    metrics["optimizer.iteration.us"] = 1e6 * elapsed / max(iterations, 1)
    return metrics


def traced_run(workload, seed: int, spans_path: str):
    """Untraced and traced passes over the trace batch; returns (metrics, tally).

    The serial untraced pass gives the summed trial busy time. A second
    untraced pass runs the batch on a process pool of at least 2 workers (the
    workload's own count if larger) and must render the same report; its wall
    is what the parallel efficiency divides by. The traced pass always runs
    serially, so the spans of every trial are recorded in this process.
    """
    metrics = microbenchmarks(workload, seed)
    size = workload.trace_batch
    master = experiment.mix_seed(seed, 0)
    tally = workloads.Tally()

    serial_s, result, text = workloads.run_batch(workload, master, size, 1)
    tally.add(workload, size, result, text)
    pool_workers = 1 if workload.gradcheck else max(workload.workers, 2)
    parallel_s = serial_s
    if pool_workers > 1:
        parallel_s, _, parallel_text = workloads.run_batch(
            workload, master, size, pool_workers)
        if parallel_text != text:
            tally.problems.append(f"workers=1 and workers={pool_workers} "
                                  "reports differ")
    with Tracer() as tracer:
        traced_s, _, traced_text = workloads.run_batch(workload, master, size, 1)
    if traced_text != text:
        tally.problems.append("tracing changed the report")
    tracer.write(spans_path)

    if workload.gradcheck:
        render_ms = 0.0
    else:
        render_ms = 1e3 * _median_per_call(experiment.render_report, [(result,)])
    shares = tally.shares()
    metrics.update(span_metrics(tracer.spans, size,
                                sum(tally.iterations.values())))
    metrics.update({
        "optimizer.iterations.logdet": tally.iterations["logdet"],
        "optimizer.iterations.trace": tally.iterations["trace"],
        "optimizer.iterations.entropy": tally.iterations["entropy"],
        "experiment.render_report.ms": render_ms,
        "experiment.parallel_efficiency": serial_s / (pool_workers * parallel_s),
        "experiment.failed_share": shares["failed_share"],
        "optimizer.nonconverged_share": shares["nonconverged_share"],
        "trace.overhead_s": traced_s - serial_s,
        "machine.reference_s": statistics.median(
            machine.reference_seconds() for _ in range(3)),
        "trace.spans": len(tracer.spans),
    })
    return metrics, tally
