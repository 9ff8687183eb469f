"""Tests for the seeded experiment harness and report emission."""

import concurrent.futures
import itertools
import json
import tracemalloc
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest

import gainlab.cli as cli
import gainlab.experiment as experiment
import gainlab.objectives as objectives
from gainlab.exceptions import (GainlabError, InvalidParameter,
                                NotPositiveDefinite)
from gainlab.experiment import (CSV_HEADER, ExperimentConfig, ExperimentResult,
                                _make_problems, emit_report, make_problem,
                                mix_seed, render_report, run_experiment,
                                run_trial)
from gainlab.kalman_update import FilterProblem
from gainlab.matrix_core import _random_spds, random_spd

from conftest import spd_of_draw, starting_from


SMALL = ExperimentConfig(state_dim=3, obs_dim=2, trials=6, master_seed=9,
                         cond_target=10.0)


class TestSeedMixing:
    def test_deterministic(self):
        assert mix_seed(1, 0) == mix_seed(1, 0)

    def test_distinct_indices_distinct_seeds(self):
        seeds = {mix_seed(123, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_masters_distinct_streams(self):
        assert mix_seed(1, 0) != mix_seed(2, 0)

    def test_fits_in_64_bits(self):
        assert 0 <= mix_seed(2**64 - 1, 2**31) < 2**64

    def test_numpy_integers_equal_python_ints(self):
        assert mix_seed(np.int64(3), 0) == mix_seed(3, 0)
        assert mix_seed(1, np.int64(2)) == mix_seed(1, 2)
        assert mix_seed(np.uint64(2**64 - 1), np.int32(5)) == mix_seed(
            2**64 - 1, 5)

    def test_stacked_mixer_equals_mix_seed(self):
        # the reference is the splitmix64 finalizer on Python ints; a seed
        # of 2**64 or more is reduced modulo 2**64 before it becomes uint64
        def splitmix(seed, index):
            z = (seed + (index + 1) * 0x9E3779B97F4A7C15) % 2**64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
            return z ^ (z >> 31)
        seeds = [0, 1, 2**63, 2**64 - 1, 2**64 + 5, 2**70]
        indices = [0, 1, 10, 2**31, 2**63]
        expected = [[splitmix(seed, index) for index in indices]
                    for seed in seeds]
        assert [[mix_seed(seed, index) for index in indices]
                for seed in seeds] == expected
        reduced = np.array([seed % 2**64 for seed in seeds], dtype=np.uint64)
        stacked = experiment._mix_seeds(reduced[:, None], indices)
        assert stacked.dtype == np.uint64
        assert stacked.tolist() == expected
        # numpy integers, and one seed against many indices and back
        for seed, row in zip(reduced, expected):
            stream = experiment._mix_seeds(seed, np.array(indices))
            assert stream.tolist() == row
            assert mix_seed(seed, np.int64(10)) == row[2]
        assert experiment._mix_seeds(reduced, np.uint64(10)).tolist() == [
            row[2] for row in expected]
        assert mix_seed(np.int32(1), np.uint64(2**63)) == expected[1][4]


class TestMakeProblem:
    def test_deterministic(self):
        a = make_problem(4, 3, 77, 10.0)
        b = make_problem(4, 3, 77, 10.0)
        np.testing.assert_array_equal(a.prior, b.prior)
        np.testing.assert_array_equal(a.obs_op, b.obs_op)
        np.testing.assert_array_equal(a.obs_noise, b.obs_noise)

    def test_shapes(self):
        problem = make_problem(5, 2, 3, 10.0)
        assert problem.prior.shape == (5, 5)
        assert problem.obs_op.shape == (2, 5)
        assert problem.obs_noise.shape == (2, 2)

    @pytest.mark.parametrize("args, message", [
        ((2, 2, 1, True), "cond_target must be a real number, got True"),
        ((2, 2, 1, "10"), "cond_target must be a real number, got '10'"),
        ((2.0, 2, 1, 10.0), "state_dim must be an int, got 2.0"),
        ((2, True, 1, 10.0), "obs_dim must be an int, got True"),
        ((2, 2, 1.5, 10.0), "seed must be an int, got 1.5"),
        ((2, 2, "1", 10.0), "seed must be an int, got '1'"),
        ((2, 2, -1, 10.0), "seed must be >= 0, got -1"),
    ])
    def test_rejects_bad_types(self, args, message):
        with pytest.raises(InvalidParameter) as raised:
            make_problem(*args)
        assert str(raised.value) == message

    def test_accepts_numpy_numbers(self):
        # a numpy seed is mixed as the int it stands for
        expected = make_problem(4, 3, 77, 10.0)
        actual = make_problem(np.int64(4), np.int32(3), np.int64(77),
                              np.float64(10.0))
        assert _matrices(actual) == _matrices(expected)


def sequential_random_spd(dim, seed, cond_target):
    """random_spd of one matrix, with 2-D operations only.

    The reference the stacked generator must equal bit for bit.
    """
    gauss = np.random.default_rng(seed).standard_normal((dim, dim))
    return spd_of_draw(gauss, cond_target)


def sequential_problem(state_dim, obs_dim, seed, cond_target):
    """make_problem from sequential_random_spd: the class and text of its
    error, or its three matrices."""
    try:
        for dim in (state_dim, obs_dim):
            if dim < 1:
                raise InvalidParameter(f"dim must be >= 1, got {dim}")
            if not np.isfinite(cond_target) or cond_target < 1.0:
                raise InvalidParameter(
                    f"cond_target must be >= 1, got {cond_target}")
        rng = np.random.default_rng(mix_seed(seed, 2))
        problem = FilterProblem(
            prior=sequential_random_spd(state_dim, mix_seed(seed, 0),
                                        cond_target),
            obs_op=rng.standard_normal((obs_dim, state_dim)),
            obs_noise=sequential_random_spd(obs_dim, mix_seed(seed, 1),
                                            cond_target))
    except GainlabError as exc:
        return type(exc), str(exc)
    return _matrices(problem)


def trial_draws(state_dim, obs_dim, seed):
    """A trial's draws, from its sub-streams ``mix_seed(seed, 0..2)``; a
    dimension below 1 draws nothing."""
    n, m = max(state_dim, 0), max(obs_dim, 0)
    return tuple(np.random.default_rng(mix_seed(seed, k)).standard_normal(size)
                 for k, size in enumerate(((n, n), (m, m), (m, n))))


def _matrices(problem):
    return tuple(a.tobytes() for a in (problem.prior, problem.obs_op,
                                       problem.obs_noise))


def _outcome(problem):
    if isinstance(problem, GainlabError):
        return type(problem), str(problem)
    return _matrices(problem)


STACK_CONDS = (1.0, 10.0, 100.0, 1e4, 1e6)


class TestStackedGeneration:
    def test_random_spds_match_one_at_a_time(self):
        for dim in range(1, 9):
            seeds = [mix_seed(dim, i) for i in range(10)]
            # one target for the whole stack, then a target per row, mixed
            calls = [[cond] * len(seeds) for cond in STACK_CONDS]
            calls.append([STACK_CONDS[i % len(STACK_CONDS)]
                          for i in range(len(seeds))])
            gauss = np.array([np.random.default_rng(seed).standard_normal(
                (dim, dim)) for seed in seeds])
            for conds in calls:
                stack = _random_spds(dim, gauss, conds)
                assert stack.shape == (len(seeds), dim, dim)
                for seed, cond, matrix in zip(seeds, conds, stack):
                    expected = sequential_random_spd(dim, seed, cond).tobytes()
                    assert matrix.tobytes() == expected
                    assert random_spd(dim, seed, cond).tobytes() == expected

    @pytest.mark.parametrize("seed", [2**64, 2**70, 2**128 + 3, 2**200],
                             ids=["2**64", "2**70", "2**128+3", "2**200"])
    def test_random_spd_of_wide_seed(self, seed):
        # seeds of 3, 3, 5 and 7 32-bit words, which only random_spd takes
        for dim in (1, 3, 6):
            for cond in STACK_CONDS:
                assert (random_spd(dim, seed, cond).tobytes()
                        == sequential_random_spd(dim, seed, cond).tobytes())

    @pytest.mark.parametrize("dim, cond", [(0, 10.0), (3, 0.5), (3, 0),
                                           (3, float("nan")),
                                           (3, float("inf"))])
    def test_random_spds_reject_like_random_spd(self, dim, cond):
        # the bad target is the second row's, after a valid one
        with pytest.raises(InvalidParameter) as stacked:
            _random_spds(dim, np.zeros((2, dim, dim)), [10.0, cond])
        with pytest.raises(InvalidParameter) as single:
            random_spd(dim, 1, cond)
        assert str(stacked.value) == str(single.value)

    def test_make_problems_match_make_problem(self):
        # one call per shape, its rows at mixed targets; at 4x3, a 1e40
        # prior that FilterProblem rejects as not positive definite fails
        # alone among passing rows, and at 1x1 the same target passes
        raised = 0
        for shape, (n, m) in enumerate(itertools.product(range(1, 9),
                                                         range(1, 9))):
            conds = list(STACK_CONDS)
            seeds = [mix_seed(3, len(conds) * shape + k)
                     for k in range(len(conds))]
            if (n, m) in ((4, 3), (1, 1)):
                seeds.insert(2, 15)
                conds.insert(2, 1e40)
            outcomes = _make_problems([(n, m)] * len(seeds),
                                      [trial_draws(n, m, s) for s in seeds],
                                      conds)
            assert len(outcomes) == len(seeds)
            for seed, cond, outcome in zip(seeds, conds, outcomes):
                expected = sequential_problem(n, m, seed, cond)
                assert _outcome(outcome) == expected
                try:
                    alone = _matrices(make_problem(n, m, seed, cond))
                except GainlabError as exc:
                    alone = type(exc), str(exc)
                assert alone == expected
                raised += isinstance(outcome, GainlabError)
        assert raised == 1

    def test_mixed_shapes_in_one_call_match_make_problem(self):
        # rows of every shape up to 5x5, interleaved, in one call; at 4x3 a
        # 1e40 prior fails alone
        rows = [((n, m), mix_seed(4, 25 * k + 5 * n + m),
                 STACK_CONDS[(n + m + k) % 5])
                for k in range(2) for n, m in itertools.product(range(1, 6),
                                                                 repeat=2)]
        rows.insert(7, ((4, 3), 15, 1e40))
        shapes, seeds, conds = map(list, zip(*rows))
        outcomes = _make_problems(
            shapes, [trial_draws(n, m, s) for (n, m), s, _ in rows], conds)
        assert len(outcomes) == len(rows)
        for ((n, m), seed, cond), outcome in zip(rows, outcomes):
            assert _outcome(outcome) == sequential_problem(n, m, seed, cond)
        assert [row for row, outcome in enumerate(outcomes)
                if isinstance(outcome, GainlabError)] == [7]

    @pytest.mark.parametrize("n, m, cond", [(0, 3, 10.0), (3, 0, 10.0),
                                            (-2, 3, 10.0), (3, -1, 10.0),
                                            (3, 3, 0.5),
                                            (4, 3, float("nan"))])
    def test_make_problems_reject_like_make_problem(self, n, m, cond):
        # a bad dimension or target fails the whole call: no caller mixes
        # one with valid rows, as configs are validated and gradcheck's
        # targets are constants
        expected = sequential_problem(n, m, 11, cond)
        with pytest.raises(InvalidParameter) as stacked:
            _make_problems([(n, m)] * 2,
                           [trial_draws(n, m, s) for s in (12, 11)],
                           [10.0, cond])
        assert (type(stacked.value), str(stacked.value)) == expected
        with pytest.raises(InvalidParameter) as alone:
            make_problem(n, m, 11, cond)
        assert (type(alone.value), str(alone.value)) == expected

    def test_trial_problems_match_make_problem(self):
        # one call per shape and target; a 1e40 target fails every row but
        # those of the 1x1 call
        seeds = [mix_seed(6, k) for k in range(6)]
        for shape in ((1, 1), (4, 3), (2, 7), (8, 8)):
            for cond in (10.0, 1e4, 1e40):
                outcomes = experiment._trial_problems(
                    shape, np.array(seeds, dtype=np.uint64), cond)
                assert [_outcome(outcome) for outcome in outcomes] == [
                    sequential_problem(*shape, seed, cond) for seed in seeds]


class TestRunTrial:
    def test_success_record(self):
        record = run_trial(SMALL, 0)
        assert not record.failed
        assert record.seed_used == mix_seed(SMALL.master_seed, 0)
        assert all(d >= 0 for d in record.distances)
        assert set(record.iterations) == {"logdet", "trace", "entropy"}
        assert set(record.objective_at_analytic) == {"logdet", "trace", "entropy"}

    def test_scalar_family(self):
        config = ExperimentConfig(state_dim=1, obs_dim=1, trials=1,
                                  master_seed=4, cond_target=1.0)
        record = run_trial(config, 0)
        assert not record.failed
        assert max(record.distances) <= 1e-6

    def test_failure_becomes_data(self, monkeypatch):
        def explode(problems, config):
            return [NotPositiveDefinite("synthetic degeneracy")] * len(problems)
        monkeypatch.setattr(experiment, "equivalence_batch", explode)
        record = run_trial(SMALL, 3)
        assert record.failed
        assert "NotPositiveDefinite" in record.error
        assert record.seed_used == mix_seed(SMALL.master_seed, 3)


class TestRunExperiment:
    def test_reproducible(self):
        first = run_experiment(SMALL)
        second = run_experiment(SMALL)
        assert render_report(first) == render_report(second)

    def test_workers_do_not_change_output(self):
        sequential = run_experiment(SMALL, workers=1)
        parallel = run_experiment(SMALL, workers=3)
        assert render_report(sequential) == render_report(parallel)
        assert render_report(run_experiment(SMALL, workers=2)) == (
            render_report(sequential))

    def test_chunking_does_not_change_output(self, monkeypatch):
        expected = render_report(run_experiment(SMALL))
        row_bytes = experiment._trial_bytes(SMALL.state_dim, SMALL.obs_dim)
        for chunk in (1, 4):
            monkeypatch.setattr(experiment, "_CHUNK_BYTES", chunk * row_bytes)
            assert len(experiment._chunks(SMALL.trials, 1, row_bytes)) == (
                -(-SMALL.trials // chunk))
            assert render_report(run_experiment(SMALL)) == expected

    def test_one_chunk_where_there_were_three(self, monkeypatch):
        # gainlab run --trials 120, three chunks at 50 trials per chunk
        config = ExperimentConfig(trials=120)
        row_bytes = experiment._trial_bytes(4, 3)
        assert len(experiment._chunks(120, 1, row_bytes)) == 1
        expected = render_report(run_experiment(config))
        monkeypatch.setattr(experiment, "_CHUNK_BYTES", 50 * row_bytes)
        assert len(experiment._chunks(120, 1, row_bytes)) == 3
        assert render_report(run_experiment(config)) == expected

    def test_run_trial_matches_run_experiment(self):
        # stopped early, so that unconverged trials are compared too
        config = ExperimentConfig(state_dim=8, obs_dim=8, trials=4,
                                  master_seed=3, cond_target=100.0,
                                  max_iters=50)
        result = run_experiment(config)
        assert not all(all(r.converged.values()) for r in result.trials)
        for record in result.trials:
            alone = run_trial(config, record.trial_index)
            assert json.dumps(asdict(alone)) == json.dumps(asdict(record))

    def test_never_more_processes_than_chunks(self, monkeypatch):
        # a recorder that runs the work in this process: a real pool of this
        # size would fork every worker at the first submit
        seen = []
        class Recorder:
            def __init__(self, max_workers):
                seen.append(max_workers)
            def __enter__(self):
                return self
            def __exit__(self, *exc):
                return False
            def map(self, fn, *iterables):
                return map(fn, *iterables)
        # run_experiment imports the pool where it uses it
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        config = replace(SMALL, trials=3)
        expected = render_report(run_experiment(config))
        assert render_report(run_experiment(config, workers=64)) == expected
        assert render_report(run_experiment(config, workers=2)) == expected
        assert seen == [3, 2]
        run_experiment(replace(SMALL, trials=1), workers=64)
        assert seen == [3, 2]

    def test_records_ordered_by_index(self):
        result = run_experiment(SMALL, workers=2)
        assert [r.trial_index for r in result.trials] == list(range(SMALL.trials))

    def test_summary_matches_brute_force(self):
        result = run_experiment(SMALL)
        distances = [d for r in result.trials if not r.failed for d in r.distances]
        assert result.summary.max_gain_distance == max(distances)
        assert result.summary.mean_gain_distance == pytest.approx(
            sum(distances) / len(distances), rel=0, abs=0)
        assert result.summary.failures == 0
        assert result.summary.trials == SMALL.trials

    def test_failed_trials_counted(self, monkeypatch):
        real = experiment.equivalence_batch
        def sometimes(problems, config):
            if any(p.state_dim != SMALL.state_dim for p in problems):
                raise AssertionError("unexpected problem")
            sometimes.calls += 1
            outcomes = real(problems, config)
            if sometimes.calls == 1:
                outcomes[1] = NotPositiveDefinite("synthetic")
            return outcomes
        sometimes.calls = 0
        monkeypatch.setattr(experiment, "equivalence_batch", sometimes)
        result = run_experiment(SMALL)
        assert result.summary.failures == 1
        assert sum(r.failed for r in result.trials) == 1
        assert not result.all_passed()

    def test_poisoned_trial_fails_alone(self, monkeypatch):
        # a 1e300 prior overflows the trace gradient norm, so that trial's
        # line search fails inside the shared batch
        clean = run_experiment(SMALL)
        build = experiment._trial_problems
        def poisoned(shape, seeds, cond):
            problems = build(shape, seeds, cond)
            for i, seed in enumerate(seeds):
                if seed == mix_seed(SMALL.master_seed, 2):
                    problem = problems[i]
                    problems[i] = FilterProblem(prior=1e300 * problem.prior,
                                                obs_op=problem.obs_op,
                                                obs_noise=problem.obs_noise)
            return problems
        monkeypatch.setattr(experiment, "_trial_problems", poisoned)
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_experiment(SMALL)
        self._assert_only_trial_failed(result, clean, 2,
                                       "LineSearchFailed: no acceptable step "
                                       "above 1e-16 at iteration 0 (gradient "
                                       "norm inf)")

    def test_non_finite_start_fails_alone(self, monkeypatch):
        clean = run_experiment(SMALL)
        poisoned_seed = mix_seed(SMALL.master_seed, 4)
        target = make_problem(SMALL.state_dim, SMALL.obs_dim, poisoned_seed,
                              SMALL.cond_target)
        def start(prior, gain):
            if np.array_equal(prior, target.prior):
                gain[-1, -1] = np.inf
        starting_from(monkeypatch, start)
        result = run_experiment(SMALL)
        self._assert_only_trial_failed(
            result, clean, 4, "InvalidParameter: gain contains non-finite entries")

    @staticmethod
    def _assert_only_trial_failed(result, clean, index, error):
        for record, expected in zip(result.trials, clean.trials):
            if record.trial_index == index:
                assert record.failed
                assert record.error == error
                assert record.seed_used == expected.seed_used
            else:
                assert json.dumps(asdict(record)) == json.dumps(asdict(expected))

    def test_rejects_bad_workers(self):
        with pytest.raises(InvalidParameter):
            run_experiment(SMALL, workers=0)

    @pytest.mark.parametrize("workers", [2.5, "2", True, np.int64(2), None])
    def test_rejects_workers_of_wrong_type(self, workers):
        # rejected before any process pool starts
        with pytest.raises(InvalidParameter, match="workers must be an int"):
            run_experiment(SMALL, workers=workers)

    def test_heavy_batch(self):
        # the slowest corner the harness is expected to handle: square
        # observation operators and strongly conditioned covariances
        config = ExperimentConfig(state_dim=8, obs_dim=8, trials=100,
                                  master_seed=1, cond_target=100.0)
        result = run_experiment(config, workers=4)
        assert result.summary.failures == 0
        assert result.summary.max_gain_distance <= 1e-5


def _peak_bytes(check, rows):
    """tracemalloc peak of ``check(rows)``, after ``check(range(1))``.

    The first call warms numpy's one-time allocations.
    """
    check(range(1))
    tracemalloc.start()
    try:
        check(rows)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunks:
    def test_contiguous_near_equal_and_one_per_worker(self):
        row_bytes = experiment._row_bytes(4, 3)
        for rows, workers in ((10, 4), (7, 7), (3, 8), (1000, 2), (1, 1),
                              (5000, 1)):
            chunks = experiment._chunks(rows, workers, row_bytes)
            assert len(chunks) >= min(workers, rows)
            assert [i for chunk in chunks for i in chunk] == list(range(rows))
            sizes = [len(chunk) for chunk in chunks]
            assert max(sizes) - min(sizes) <= 1
            assert max(sizes) * row_bytes <= experiment._CHUNK_BYTES
        assert len(experiment._chunks(1000, 1, row_bytes)) == 1
        assert len(experiment._chunks(5000, 1, row_bytes)) == 4
        # a row larger than the budget is a chunk of its own
        assert len(experiment._chunks(3, 1, 2 * experiment._CHUNK_BYTES)) == 3

    def test_budget_makes_the_large_batches_one_chunk(self):
        assert len(experiment._chunks(100, 1, experiment._row_bytes(8, 8))) == 1
        assert len(experiment._chunks(500, 1, experiment._row_bytes(6, 6))) == 1

    def test_run_budget_counts_the_inverse_hessians(self):
        # gradcheck, which holds none, keeps its 500 instances at --max-dim
        # 6 in one chunk; a run trial adds its three rows' n·m x n·m
        # inverse Hessians, so the heavy 8x8 batch of 100 trials takes 4
        assert experiment._trial_bytes(4, 3) > experiment._row_bytes(4, 3)
        assert len(experiment._chunks(50, 1, experiment._trial_bytes(4, 3))) == 1
        assert len(experiment._chunks(100, 1,
                                      experiment._trial_bytes(8, 8))) == 4

    def test_run_chunk_peak_within_budget(self):
        # the largest 12x12 chunk, of 5 trials, stopped early: the peak
        # comes first; at 20x20 a trial's inverse Hessians alone fill a
        # third of the budget, and a chunk is one trial
        config = ExperimentConfig(state_dim=12, obs_dim=12, max_iters=10)
        rows = experiment._CHUNK_BYTES // experiment._trial_bytes(12, 12)
        assert rows == 5
        assert experiment._CHUNK_BYTES // experiment._trial_bytes(20, 20) == 0
        peak = _peak_bytes(partial(experiment._run_chunk, config), range(rows))
        assert peak <= experiment._CHUNK_BYTES

    def test_gradcheck_chunk_peak_within_budget(self):
        rows = experiment._CHUNK_BYTES // experiment._row_bytes(20, 20)
        peak = _peak_bytes(partial(cli._gradcheck_errors, 1, max_dim=20),
                           range(rows))
        assert peak <= experiment._CHUNK_BYTES

    def test_oracle_blocks_keep_large_chunks_within_budget(self):
        # at --max-dim 35 the oracle's stacks of perturbed gains, sized by
        # the same budget, would otherwise set the peak
        rows = experiment._CHUNK_BYTES // experiment._row_bytes(35, 35)
        peak = _peak_bytes(partial(cli._gradcheck_errors, 1, max_dim=35),
                           range(rows))
        assert peak <= experiment._CHUNK_BYTES

    def test_oracle_blocks_sized_by_budget(self, monkeypatch):
        # three whole rows of 72 perturbed gains at 6x6, as many as 256
        # hold, and as many gains as the budget holds at 35x35
        blocks = []
        evaluate = objectives._evaluate
        def recorded(stacks, gains, rows, select):
            blocks.append(gains[..., 0, 0].size)
            return evaluate(stacks, gains, rows, select)
        monkeypatch.setattr(objectives, "_evaluate", recorded)
        trace = objectives.ObjectiveKind.TOTAL_VARIANCE
        for dim in (6, 35):
            blocks.clear()
            batch = objectives._Batch.stack([make_problem(dim, dim, 3)] * 4,
                                            [trace] * 4)
            objectives._finite_differences(batch, np.zeros((4, dim, dim)))
            assert sum(blocks) == 4 * 2 * dim * dim
            if dim == 6:
                assert max(blocks) == 3 * 72
            else:
                assert max(blocks) * objectives._row_bytes(dim, dim) <= (
                    objectives._CHUNK_BYTES)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"state_dim": 0},
        {"trials": 0},
        {"cond_target": 0.9},
        {"grad_tol": 0.0},
        {"max_iters": 0},
        {"output_format": "xml"},
        {"master_seed": -1},
        {"state_dim": 2.5},
        {"obs_dim": True},
        {"trials": np.int64(2)},
        {"master_seed": 1.5},
        {"max_iters": 2.5},
        {"grad_tol": "1e-9"},
        {"cond_target": "10"},
        {"cond_target": True},
        {"grad_tol": True},
        {"grad_tol": float("inf")},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(InvalidParameter):
            ExperimentConfig(**kwargs)


@pytest.fixture(scope="module")
def result():
    return run_experiment(SMALL)


class TestReportRendering:
    def test_json_structure(self, result):
        payload = json.loads(render_report(result))
        assert set(payload) == {"config", "trials", "summary"}
        assert len(payload["trials"]) == SMALL.trials
        assert payload["config"]["master_seed"] == SMALL.master_seed
        assert payload["summary"]["failures"] == 0

    def test_json_config_leaves_out_output_path(self, result):
        payload = json.loads(render_report(result))
        assert list(payload["config"]) == [
            "state_dim", "obs_dim", "trials", "master_seed", "cond_target",
            "grad_tol", "max_iters", "output_format"]

    def test_json_floats_round_trip(self, result):
        payload = json.loads(render_report(result))
        assert payload["summary"]["max_gain_distance"] == (
            result.summary.max_gain_distance)
        first = payload["trials"][0]
        assert first["gain_distance_logdet"] == result.trials[0].gain_distance_logdet

    def test_json_ends_with_single_newline(self, result):
        text = render_report(result)
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_csv_header_and_shape(self, result):
        csv_result = ExperimentResult(
            config=ExperimentConfig(
                state_dim=SMALL.state_dim, obs_dim=SMALL.obs_dim,
                trials=SMALL.trials, master_seed=SMALL.master_seed,
                cond_target=SMALL.cond_target, output_format="csv"),
            trials=result.trials, summary=result.summary)
        lines = render_report(csv_result).splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == SMALL.trials + 2
        assert lines[-1].startswith("# summary ")
        row = lines[1].split(",")
        assert len(row) == len(CSV_HEADER.split(","))
        assert row[0] == "0"
        assert row[-1] in ("true", "false")

    def test_json_equals_asdict_rendering(self, result):
        # the payload reads each record's fields in place; its bytes are
        # those of the dataclasses.asdict rendering, None fields included
        failed = experiment.TrialRecord(trial_index=SMALL.trials,
                                        seed_used=2**64 - 1, failed=True,
                                        error="NotPositiveDefinite: synthetic")
        trials = result.trials + [failed]
        mixed = ExperimentResult(config=SMALL, trials=trials,
                                 summary=experiment._summarize(trials))
        expected = json.dumps({"config": asdict(mixed.config),
                               "trials": [asdict(r) for r in trials],
                               "summary": asdict(mixed.summary)},
                              indent=2, allow_nan=False) + "\n"
        assert render_report(mixed) == expected
        assert json.loads(expected)["trials"][-1]["iterations"] is None

    def test_empty_records_rejected(self):
        empty = ExperimentResult(config=SMALL, trials=[],
                                 summary=experiment._summarize([]))
        with pytest.raises(InvalidParameter):
            render_report(empty)

    def test_emit_to_file(self, result, tmp_path):
        target = tmp_path / "report.json"
        emit_report(result, str(target))
        assert json.loads(target.read_text()) == json.loads(render_report(result))

    def test_emit_to_stdout(self, result, capsys):
        emit_report(result, "-")
        assert capsys.readouterr().out == render_report(result)

    def test_emit_to_unwritable_path(self, result, tmp_path):
        with pytest.raises(OSError):
            emit_report(result, str(tmp_path / "missing_dir" / "report.json"))
