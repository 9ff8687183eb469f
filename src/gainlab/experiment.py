"""Batch experiment harness: seeded random problems, equivalence runs, reports.

Every trial is a pure function of the experiment configuration and its own
index, so a report is reproducible byte-for-byte no matter how trials are
scheduled. Per-trial seeds come from a splitmix-style mix of the master seed
and the trial index, giving independent streams under any parallel schedule.
"""

import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from .exceptions import GainlabError, InvalidParameter
from .kalman_update import FilterProblem, _build_problems
from .matrix_core import _check_numbers, _generators, _random_spds
from .objectives import _CHUNK_BYTES, ObjectiveKind, _row_bytes
from .optimizer import EquivalenceReport, OptimizerConfig, equivalence_batch

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "SummaryRecord",
    "ExperimentResult",
    "DISTANCE_THRESHOLD",
    "mix_seed",
    "make_problem",
    "run_trial",
    "run_experiment",
    "emit_report",
    "render_report",
    "CSV_HEADER",
]

# A trial "passes" when it completes and every optimized gain lands within
# this Frobenius distance of the closed-form gain.
DISTANCE_THRESHOLD = 1e-5

CSV_HEADER = ("trial_index,seed_used,gain_distance_logdet,gain_distance_trace,"
              "gain_distance_entropy,stationarity_residual,iter_logdet,"
              "iter_trace,iter_entropy,converged_all")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_KIND_ORDER = (ObjectiveKind.LOG_GENERALIZED_VARIANCE,
               ObjectiveKind.TOTAL_VARIANCE,
               ObjectiveKind.DIFFERENTIAL_ENTROPY)


def mix_seed(seed: int, index: int) -> int:
    """Output ``index`` of a splitmix64 stream seeded with ``seed``.

    Standard splitmix64 finalizer over the golden-ratio increment; used to
    derive independent per-trial and per-matrix seeds. A batch of one of
    :func:`_mix_seeds`; both arguments are taken modulo 2**64, as Python
    ints, so numpy integers and seeds of 2**64 or more do not overflow.
    """
    return int(_mix_seeds(int(seed) & _MASK64, int(index) & _MASK64)[0])


def _mix_seeds(seeds, indices) -> np.ndarray:
    """:func:`mix_seed` of integers in [0, 2**64), broadcast, bit for bit.

    The arithmetic runs on uint64 arrays, never numpy scalars, so it wraps
    modulo 2**64, as the masks of :func:`mix_seed` do, and does not warn.
    """
    z = (np.array(seeds, dtype=np.uint64, ndmin=1)
         + (np.array(indices, dtype=np.uint64, ndmin=1) + 1) * _GOLDEN)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ (z >> shift)) * factor
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ExperimentConfig:
    """Batch settings; the report is a pure function of these fields."""

    state_dim: int = 4
    obs_dim: int = 3
    trials: int = 50
    master_seed: int = 1
    cond_target: float = 10.0
    grad_tol: float = 1e-9
    max_iters: int = 5000
    output_format: str = "json"

    def __post_init__(self):
        for name in ("state_dim", "obs_dim", "trials", "master_seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InvalidParameter(f"{name} must be an int, got {value!r}")
        if self.state_dim < 1 or self.obs_dim < 1:
            raise InvalidParameter("state_dim and obs_dim must be >= 1")
        if self.trials < 1:
            raise InvalidParameter("trials must be >= 1")
        if self.master_seed < 0:
            raise InvalidParameter("master_seed must be a non-negative integer")
        _check_numbers({"cond_target": self.cond_target})
        if not np.isfinite(self.cond_target) or self.cond_target < 1.0:
            raise InvalidParameter("cond_target must be >= 1")
        self.optimizer_config()
        if self.output_format not in ("json", "csv"):
            raise InvalidParameter(
                f"output_format must be 'json' or 'csv', got {self.output_format!r}")

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(max_iters=self.max_iters, grad_tol=self.grad_tol)


@dataclass(frozen=True)
class TrialRecord:
    """Evidence from one trial; failures are recorded, never raised."""

    trial_index: int
    seed_used: int
    failed: bool = False
    error: Optional[str] = None
    gain_distance_logdet: Optional[float] = None
    gain_distance_trace: Optional[float] = None
    gain_distance_entropy: Optional[float] = None
    stationarity_residual: Optional[float] = None
    objective_at_analytic: Optional[dict] = None
    iterations: Optional[dict] = None
    converged: Optional[dict] = None

    @property
    def distances(self) -> tuple:
        return (self.gain_distance_logdet, self.gain_distance_trace,
                self.gain_distance_entropy)

    def passed(self, threshold: float = DISTANCE_THRESHOLD) -> bool:
        if self.failed:
            return False
        return all(d <= threshold for d in self.distances)


@dataclass(frozen=True)
class SummaryRecord:
    trials: int
    failures: int
    max_gain_distance: Optional[float]
    mean_gain_distance: Optional[float]
    max_stationarity_residual: Optional[float]


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    trials: list[TrialRecord]
    summary: SummaryRecord

    def all_passed(self) -> bool:
        return all(record.passed() for record in self.trials)


def make_problem(state_dim: int, obs_dim: int, seed: int,
                 cond_target: float = 10.0) -> FilterProblem:
    """Seeded random filter problem.

    Prior and noise covariances are those of
    :func:`gainlab.matrix_core.random_spd`; the observation operator gets
    independent standard-Gaussian entries (it is rectangular, so no
    structure beyond linearity is imposed). The three matrices draw from the
    sub-streams ``mix_seed(seed, 0..2)`` in turn; ``seed`` must be at least
    0, and one of 2**64 or more is taken modulo 2**64, as :func:`mix_seed`
    takes it. A batch of one of :func:`_trial_problems`, which raises the
    errors of out-of-range arguments.
    """
    _check_numbers({"cond_target": cond_target}, state_dim=state_dim,
                   obs_dim=obs_dim, seed=seed)
    problem, = _trial_problems((state_dim, obs_dim), [int(seed) & _MASK64],
                               cond_target)
    if isinstance(problem, GainlabError):
        raise problem
    return problem


def _trial_problems(shape: tuple[int, int], seeds, cond_target: float,
                    ) -> list[Union[FilterProblem, GainlabError]]:
    """:func:`make_problem` of each of ``seeds``, integers in [0, 2**64).

    One :func:`~gainlab.matrix_core._generators` call seeds every seed's
    sub-streams ``mix_seed(seed, 0..2)``: prior, noise and operator.
    """
    n, m = (max(dim, 0) for dim in shape)  # for _make_problems to reject
    generators = _generators(_mix_seeds(
        np.asarray(seeds, dtype=np.uint64)[:, None], [0, 1, 2]).ravel())
    draws = [(prior.standard_normal((n, n)), noise.standard_normal((m, m)),
              obs.standard_normal((m, n)))
             for prior, noise, obs in zip(*[generators] * 3)]
    return _make_problems([shape] * len(draws), draws,
                          [cond_target] * len(draws))


def _make_problems(shapes: Sequence[tuple[int, int]], draws,
                   conds: Sequence[float],
                   ) -> list[Union[FilterProblem, GainlabError]]:
    """The problem of each row: its ``(n, m)`` shape, draws and target.

    ``draws[row]`` holds the row's Gaussian draws: (n, n) for its prior,
    (m, m) for its noise, and its (m, n) observation operator. Every
    covariance of one dimension, prior or noise of any row, is assembled
    as one stack (see :func:`~gainlab.matrix_core._random_spds`), which
    raises the InvalidParameter of an out-of-range dimension or target,
    that of the first row's prior first. Each shape's problems are built,
    and so validated, as one stack (see
    :func:`~gainlab.kalman_update._build_problems`). Returns one outcome per
    row, in order: its problem, bit for bit the one built alone, or the
    GainlabError that building it alone raises.
    """
    # Each dimension's covariances: (0, row) is a prior, (1, row) a noise.
    wanted, groups = defaultdict(list), defaultdict(list)
    for row, shape in enumerate(shapes):
        groups[shape].append(row)
        wanted[shape[0]].append((0, row))
        wanted[shape[1]].append((1, row))
    covariances = {}
    for dim, keys in wanted.items():
        covariances.update(zip(keys, _random_spds(
            dim, np.array([draws[row][kind] for kind, row in keys]),
            [conds[row] for _, row in keys])))
    outcomes: list = [None] * len(shapes)
    for (n, m), rows in groups.items():
        built = _build_problems(
            np.array([covariances[0, row] for row in rows]),
            np.array([draws[row][2] for row in rows]),
            np.array([covariances[1, row] for row in rows]))
        for row, outcome in zip(rows, built):
            outcomes[row] = outcome
    return outcomes


def run_trial(config: ExperimentConfig, index: int) -> TrialRecord:
    """Run one seeded trial; exceptions become a failed record with its seed."""
    return _run_chunk(config, [index])[0]


def _run_chunk(config: ExperimentConfig,
               indices: Sequence[int]) -> list[TrialRecord]:
    """Run the trials ``indices``, with all their minimizations in one batch.

    The trial seeds are mixed as one stack (see :func:`_mix_seeds`), the
    problems are drawn and built as stacks and go to one
    :func:`~gainlab.optimizer.equivalence_batch`, whose reports hold every
    record's evidence. A trial that raises becomes a failed record and
    leaves the other trials' records unchanged.
    """
    seeds = _mix_seeds(config.master_seed & _MASK64, indices)
    outcomes = dict(zip(indices, _trial_problems(
        (config.state_dim, config.obs_dim), seeds, config.cond_target)))
    problems = {index: problem for index, problem in outcomes.items()
                if isinstance(problem, FilterProblem)}
    outcomes.update(zip(problems, equivalence_batch(
        list(problems.values()), config.optimizer_config())))
    return [_trial_record(index, seed, outcomes[index])
            for index, seed in zip(indices, seeds.tolist())]


def _trial_record(index: int, seed: int,
                  outcome: Union[EquivalenceReport, GainlabError]) -> TrialRecord:
    if isinstance(outcome, GainlabError):
        return TrialRecord(trial_index=index, seed_used=seed, failed=True,
                           error=f"{type(outcome).__name__}: {outcome}")
    return TrialRecord(
        trial_index=index,
        seed_used=seed,
        **{f"gain_distance_{kind.value}": outcome.distance_to_analytic[kind]
           for kind in _KIND_ORDER},
        stationarity_residual=outcome.stationarity_residual,
        objective_at_analytic={kind.value: outcome.objective_at_analytic[kind]
                               for kind in _KIND_ORDER},
        iterations={kind.value: outcome.reports[kind].iterations
                    for kind in _KIND_ORDER},
        converged={kind.value: outcome.reports[kind].converged
                   for kind in _KIND_ORDER},
    )


def _summarize(records: list[TrialRecord]) -> SummaryRecord:
    failures = sum(1 for r in records if r.failed)
    distances = [d for r in records if not r.failed for d in r.distances]
    residuals = [r.stationarity_residual for r in records if not r.failed]
    return SummaryRecord(
        trials=len(records),
        failures=failures,
        max_gain_distance=max(distances, default=None),
        mean_gain_distance=(sum(distances) / len(distances) if distances
                            else None),
        max_stationarity_residual=max(residuals, default=None),
    )


def _trial_bytes(state_dim: int, obs_dim: int) -> int:
    """Bytes a ``run`` trial holds at most: its :func:`_row_bytes`, and four
    times its three rows' inverse Hessians of 8·(n·m)² bytes each (see
    :func:`~gainlab.optimizer.minimize_batch`), for the inverses and a
    round's products with them. By tracemalloc a chunk of as many trials
    as the budget holds peaks, less its ``_row_bytes``, at 3.8 times the
    inverses at 4x3, 2.2 at 8x8 and 2.0 at 20x20."""
    return _row_bytes(state_dim, obs_dim) + 96 * (state_dim * obs_dim) ** 2


def _chunks(rows: int, workers: int, row_bytes: int) -> list[range]:
    """Contiguous chunks of ``range(rows)``, near-equal in size.

    There are at least as many chunks as workers, up to one per row, and no
    chunk holds more than ``_CHUNK_BYTES`` at ``row_bytes`` per row, unless
    it is a single row; that bounds the memory a chunk's batch holds.
    """
    per_chunk = max(1, _CHUNK_BYTES // row_bytes)
    count = max(min(workers, rows), -(-rows // per_chunk))
    size, extra = divmod(rows, count)
    bounds = [0]
    for chunk in range(count):
        bounds.append(bounds[-1] + size + (chunk < extra))
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all trials and summarize.

    Trials run in contiguous chunks sized by a memory budget at the problem
    shape (see :func:`_chunks`), each minimized as one lockstep batch, on at
    most ``workers`` processes and never more processes than chunks.
    ``workers`` only controls scheduling: a trial's record does not depend
    on its chunk, records are ordered by index, and the result is identical
    for any worker count.
    """
    if type(workers) is not int or workers < 1:
        raise InvalidParameter(f"workers must be an int >= 1, got {workers!r}")
    chunks = _chunks(config.trials, workers,
                     _trial_bytes(config.state_dim, config.obs_dim))
    processes = min(workers, len(chunks))
    if processes == 1:
        parts = [_run_chunk(config, chunk) for chunk in chunks]
    else:
        # Imported here, so that no other run or command pays at start-up
        # for the process pool's modules.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(partial(_run_chunk, config), chunks))
    records = [record for part in parts for record in part]
    return ExperimentResult(config=config, trials=records,
                            summary=_summarize(records))


def _float_cell(value: Optional[float]) -> str:
    # repr() of a float is the shortest decimal that round-trips.
    return "nan" if value is None else repr(float(value))


def _csv_row(record: TrialRecord) -> str:
    if record.failed:
        iters = {"logdet": 0, "trace": 0, "entropy": 0}
        converged_all = False
    else:
        iters = record.iterations
        converged_all = all(record.converged.values())
    cells = [
        str(record.trial_index),
        str(record.seed_used),
        _float_cell(record.gain_distance_logdet),
        _float_cell(record.gain_distance_trace),
        _float_cell(record.gain_distance_entropy),
        _float_cell(record.stationarity_residual),
        str(iters["logdet"]),
        str(iters["trace"]),
        str(iters["entropy"]),
        "true" if converged_all else "false",
    ]
    return ",".join(cells)


def render_report(result: ExperimentResult) -> str:
    """Render a result in its configured format, ending with one newline."""
    if not result.trials:
        raise InvalidParameter("cannot render a report with no trial records")
    if result.config.output_format == "json":
        # vars() holds a record's fields in order; asdict would deep-copy.
        payload = {
            "config": vars(result.config),
            "trials": [vars(r) for r in result.trials],
            "summary": vars(result.summary),
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    lines = [CSV_HEADER]
    lines.extend(_csv_row(r) for r in result.trials)
    s = result.summary
    lines.append(f"# summary trials={s.trials} failures={s.failures} "
                 f"max_gain_distance={_float_cell(s.max_gain_distance)} "
                 f"mean_gain_distance={_float_cell(s.mean_gain_distance)} "
                 f"max_stationarity_residual={_float_cell(s.max_stationarity_residual)}")
    return "\n".join(lines) + "\n"


def emit_report(result: ExperimentResult, path: str = "-") -> None:
    """Write the rendered report to ``path`` ('-' for stdout)."""
    text = render_report(result)
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
