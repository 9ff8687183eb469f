"""Tests for the gainlab command-line interface."""

import json

import numpy as np
import pytest

from gainlab import cli, experiment, objectives
from gainlab.cli import main
from gainlab.exceptions import GainlabError, NotPositiveDefinite
from gainlab.experiment import make_problem, mix_seed
from gainlab.kalman_update import FilterProblem
from gainlab.matrix_core import frobenius_norm
from gainlab.objectives import ObjectiveKind, objective_gradient

from conftest import SINGULAR_SEED
from test_objectives import (sequential_finite_difference_gradient,
                             sequential_finite_differences)

RUN_FLAGS = ["run", "--state-dim", "3", "--obs-dim", "2", "--trials", "4",
             "--seed", "11", "--cond", "10"]


class TestRun:
    def test_writes_json_report(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(RUN_FLAGS + ["--out", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert len(payload["trials"]) == 4
        assert payload["summary"]["failures"] == 0
        # status note goes to stderr, stdout stays clean for piping
        assert capsys.readouterr().out == ""

    def test_stdout_report(self, capsys):
        code = main(RUN_FLAGS + ["--out", "-"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["state_dim"] == 3

    def test_csv_format(self, tmp_path):
        target = tmp_path / "report.csv"
        code = main(RUN_FLAGS + ["--format", "csv", "--out", str(target)])
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("trial_index,seed_used,")
        assert len(lines) == 4 + 2

    def test_repeat_runs_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(RUN_FLAGS + ["--out", str(first)]) == 0
        assert main(RUN_FLAGS + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        solo = tmp_path / "w1.json"
        multi = tmp_path / "w3.json"
        assert main(RUN_FLAGS + ["--out", str(solo), "--workers", "1"]) == 0
        assert main(RUN_FLAGS + ["--out", str(multi), "--workers", "3"]) == 0
        assert solo.read_bytes() == multi.read_bytes()

    def test_unwritable_output_is_config_error(self, tmp_path):
        code = main(RUN_FLAGS + ["--out", str(tmp_path / "no_dir" / "r.json")])
        assert code == 2

    def test_singular_innovation_is_a_failed_trial(self, capsys, monkeypatch):
        # trial 2 of master seed 1 gets the problem whose S is singular to
        # the solve; one iteration, so that its minimizations succeed
        mix = experiment.mix_seed
        monkeypatch.setattr(experiment, "mix_seed", lambda seed, index: (
            SINGULAR_SEED if (seed, index) == (1, 2) else mix(seed, index)))
        code, out = _run(["run", "--state-dim", "2", "--obs-dim", "7",
                          "--cond", "1e20", "--trials", "3", "--max-iters",
                          "1"], capsys)
        assert code == 1
        record = json.loads(out)["trials"][2]
        assert record["seed_used"] == SINGULAR_SEED
        assert record["error"] == ("NotPositiveDefinite: matrix is not "
                                   "positive definite: Singular matrix")

    def test_invalid_dimension_is_config_error(self, capsys):
        code = main(["run", "--state-dim", "0", "--trials", "1", "--out", "-"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_format_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(RUN_FLAGS + ["--format", "xml"])
        assert exc.value.code == 2


class TestCheck:
    def test_passing_instance(self, capsys):
        code = main(["check", "--seed", "3", "--state-dim", "4", "--obs-dim", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "analytic gain:" in out
        assert "gradient check" in out
        for kind in ObjectiveKind:
            assert f"\n  {kind.value}: relative error " in out
        assert "stationarity residual" in out
        assert "result: PASS" in out

    def test_scalar_instance(self, capsys):
        code = main(["check", "--seed", "1", "--state-dim", "1", "--obs-dim", "1"])
        assert code == 0
        assert "minimized entropy" in capsys.readouterr().out

    def test_failed_minimization_fails_the_check(self, capsys):
        # the log-det and entropy line searches give up at cond 1e12; that
        # is a failed check, not a configuration error
        code = main(["check", "--seed", "3", "--cond", "1e12"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        lines = captured.out.splitlines()
        for kind in ("logdet", "entropy"):
            assert any(line.startswith(f"minimized {kind}: error: no "
                                       "acceptable step above 1e-16")
                       for line in lines)
        assert any(line.startswith("minimized trace: objective=")
                   for line in lines)
        assert "stationarity residual" in captured.out
        assert lines[-1] == "result: FAIL"

    def test_gradient_check_error_fails_the_check(self, capsys, monkeypatch):
        # a kind whose gradient check raises prints nan and the error
        finite_differences = objectives._finite_differences
        def failing(batch, gains):
            grads, errors = finite_differences(batch, gains)
            return grads, {**errors, 1: NotPositiveDefinite("synthetic")}
        monkeypatch.setattr(objectives, "_finite_differences", failing)
        code = main(["check", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert "  logdet: relative error nan" in lines
        assert "  error: synthetic" in lines
        assert lines[-1] == "result: FAIL"

    def test_singular_posterior_fails_the_check_without_traceback(
            self, capsys):
        # a log-det posterior at cond 1e20 passes its Cholesky check but is
        # singular to the gradient's solve; that rejects the step
        code = main(["check", "--cond", "1e20", "--seed", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert captured.out.splitlines()[-1] == "result: FAIL"


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "-1"],
    ["check", "--seed", "-1"],
    ["gradcheck", "--seed", "-1", "--instances", "5"],
])
def test_negative_seed_is_config_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("must be a non-negative integer\n")


@pytest.mark.parametrize("flags", [["--state-dim", "0"], ["--cond", "0.5"]])
def test_check_rejects_config_as_run_does(flags, capsys):
    assert main(["check"] + flags) == 2
    checked = capsys.readouterr()
    assert main(["run"] + flags) == 2
    assert capsys.readouterr() == checked


class TestGradcheck:
    def test_default_suite_passes(self, capsys):
        code = main(["gradcheck", "--instances", "25", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 3

    def test_bad_instance_count(self):
        assert main(["gradcheck", "--instances", "0"]) == 2


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--seed", "1", "--max-dim", "6"],
    ["gradcheck", "--seed", "2", "--max-dim", "8"],
    ["check", "--seed", "1"],
    ["check", "--seed", "2", "--state-dim", "6", "--obs-dim", "5"],
    ["check", "--seed", "3", "--state-dim", "8", "--obs-dim", "8",
     "--cond", "100"],
])
def test_stacked_oracle_leaves_output_unchanged(argv, capsys, monkeypatch):
    stacked = _run(argv, capsys)
    monkeypatch.setattr(objectives, "_finite_differences",
                        sequential_finite_differences)
    assert _run(argv, capsys) == stacked


def gradcheck_instance(seed, index, max_dim):
    """Problem and gain noise of gradcheck instance ``index``, one at a time."""
    instance_seed = mix_seed(seed, index)
    rng = np.random.default_rng(mix_seed(instance_seed, 10))
    n = int(rng.integers(1, max_dim + 1))
    m = int(rng.integers(1, max_dim + 1))
    conds = cli._GRADCHECK_CONDS
    problem = make_problem(n, m, instance_seed, conds[index % len(conds)])
    return problem, rng.standard_normal((n, m))


def sequential_gradcheck_errors(seed, indices, max_dim):
    """The gradcheck instances checked one at a time, through public calls.

    The reference the stacked check must equal bit for bit, errors included:
    the instances in order, and for each the kinds in order, the analytic
    gradient before the central differences.
    """
    errors = []
    for index in indices:
        problem, noise = gradcheck_instance(seed, index, max_dim)
        gain = cli.analytic_gain(problem) + 0.1 * noise
        row = []
        for kind in ObjectiveKind:
            analytic = objective_gradient(problem, gain, kind)
            numeric = sequential_finite_difference_gradient(problem, gain, kind)
            row.append(frobenius_norm(analytic - numeric)
                       / (1.0 + frobenius_norm(analytic)))
        errors.append(row)
    return np.array(errors).reshape(len(indices), len(ObjectiveKind))


def _errors_outcome(errors, seed, indices, max_dim):
    try:
        return errors(seed, indices, max_dim).tobytes()
    except GainlabError as exc:
        return type(exc), str(exc)


def _assert_same_errors(seed, indices, max_dim):
    expected = _errors_outcome(sequential_gradcheck_errors, seed, indices,
                               max_dim)
    assert _errors_outcome(cli._gradcheck_errors, seed, indices,
                           max_dim) == expected
    return expected


class TestStackedGradcheck:
    """The stacked gradcheck against its instances checked one at a time."""

    def test_errors_bit_identical_to_sequential_loop(self):
        expected = _assert_same_errors(5, range(400), 8)
        assert isinstance(expected, bytes)

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocks_straddling_instances(self, block, monkeypatch):
        monkeypatch.setattr(objectives, "_FD_BLOCK_ROWS", block)
        _assert_same_errors(7, range(30, 70), 4)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("max_dim", [1, 6, 8])
    def test_output_matches_sequential_loop(self, seed, max_dim, capsys,
                                            monkeypatch):
        argv = ["gradcheck", "--seed", str(seed), "--max-dim", str(max_dim)]
        stacked = _run(argv, capsys)
        monkeypatch.setattr(cli, "_gradcheck_errors",
                            sequential_gradcheck_errors)
        assert _run(argv, capsys) == stacked

    @pytest.mark.parametrize("poisons, error", [
        # the trace's central differences step to an infinite gain
        ({12: np.finfo(float).max}, "gain contains non-finite entries"),
        # the log-det's analytic gradient meets an infinite posterior
        ({12: 1e200}, "matrix contains non-finite entries"),
        ({12: NotPositiveDefinite("synthetic")}, "synthetic"),
        # the first instance in order fails first, whatever its stage
        ({25: np.finfo(float).max, 12: 1e200,
          31: NotPositiveDefinite("later")},
         "matrix contains non-finite entries"),
        ({25: 1e200, 19: NotPositiveDefinite("earlier")}, "earlier"),
    ])
    @pytest.mark.parametrize("chunk", [8, 256])
    def test_poisoned_instance_raises_first_error(self, poisons, error, chunk,
                                                  capsys, monkeypatch):
        monkeypatch.setattr(experiment, "_CHUNK_BYTES",
                            chunk * experiment._row_bytes(6, 6))
        targets = {gradcheck_instance(4, index, 6)[0].cross.tobytes(): poison
                   for index, poison in poisons.items()}
        # One at a time, a poisoned instance's analytic gain raises the
        # error or gets the entry; stacked, the error fails its build and
        # the entry is put into its row of the shape group's gains.
        analytic_gain = cli.analytic_gain
        def poisoned(problem):
            gain = analytic_gain(problem)
            poison = targets.get(problem.cross.tobytes())
            if isinstance(poison, GainlabError):
                raise poison
            if poison is not None:
                gain.flat[0] = poison
            return gain
        make_problems = cli._make_problems
        def poisoned_builds(specs):
            outcomes = make_problems(specs)
            for j, problem in enumerate(outcomes):
                poison = targets.get(problem.cross.tobytes())
                if isinstance(poison, GainlabError):
                    outcomes[j] = poison
            return outcomes
        analytic_gains = cli._analytic_gains
        def poisoned_stack(cross, innovation):
            gains, failures = analytic_gains(cross, innovation)
            for gain, row in zip(gains, cross):
                poison = targets.get(row.tobytes())
                if poison is not None:
                    gain.flat[0] = poison
            return gains, failures
        monkeypatch.setattr(cli, "analytic_gain", poisoned)
        monkeypatch.setattr(cli, "_make_problems", poisoned_builds)
        monkeypatch.setattr(cli, "_analytic_gains", poisoned_stack)
        argv = ["gradcheck", "--seed", "4", "--instances", "40"]
        with np.errstate(all="ignore"):
            expected = _assert_same_errors(4, range(40), 6)
            assert expected[1] == error
            code = main(argv)
            stacked = capsys.readouterr()
            monkeypatch.setattr(cli, "_gradcheck_errors",
                                sequential_gradcheck_errors)
            assert main(argv) == code == 2
        assert capsys.readouterr() == stacked
        assert stacked.err == f"gainlab: error: {error}\n"

    @pytest.mark.parametrize("poisons, error", [
        ({}, "matrix is not positive definite: Singular matrix"),
        ({3: NotPositiveDefinite("earlier")}, "earlier"),
        ({24: NotPositiveDefinite("later")},
         "matrix is not positive definite: Singular matrix"),
    ])
    def test_singular_innovation_fails_its_instance_in_order(
            self, poisons, error, monkeypatch):
        # instances 10, 16 and 24 of seed 4 are one 2x7 group, and 16 gets
        # the problem whose S is singular to the analytic gain's solve
        singular = make_problem(2, 7, SINGULAR_SEED, 1e20)
        make_problems = cli._make_problems
        def swapped(specs):
            outcomes = make_problems(specs)
            assert {(outcomes[i].state_dim, outcomes[i].obs_dim)
                    for i in (10, 16, 24)} == {(2, 7)}
            outcomes[16] = singular
            for index, poison in poisons.items():
                outcomes[index] = poison
            return outcomes
        monkeypatch.setattr(cli, "_make_problems", swapped)
        with pytest.raises(NotPositiveDefinite) as caught:
            cli._gradcheck_errors(4, range(30), 7)
        assert str(caught.value) == error

    def test_group_whose_every_row_fails(self):
        # the posterior at the analytic gain 1e-13 has the pivot 1e-13
        problem = FilterProblem(prior=[[1.0]], obs_op=[[1e13]],
                                obs_noise=[[1.0]])
        errors, failures = cli._gradient_errors(
            [problem], [cli.analytic_gain(problem)],
            [ObjectiveKind.LOG_GENERALIZED_VARIANCE])
        assert errors.shape == (1, 1) and np.isnan(errors[0, 0])
        assert list(failures) == [0]
        assert isinstance(failures[0], NotPositiveDefinite)

    def test_failing_problem_raises_first_error(self, capsys, monkeypatch):
        # every 17th instance has a prior too ill-conditioned to factorize;
        # the 40 instances cross five chunks of 8, and the first failing
        # instance, 11, ends the run in the second
        monkeypatch.setattr(cli, "_GRADCHECK_CONDS", (10.0,) * 11 + (1e40,)
                            + (10.0,) * 5)
        monkeypatch.setattr(experiment, "_CHUNK_BYTES",
                            8 * experiment._row_bytes(6, 6))
        expected = _errors_outcome(sequential_gradcheck_errors, 6, range(40),
                                   6)
        assert expected[0] is NotPositiveDefinite
        chunked = cli._gradcheck_errors
        checked = []
        def recorded(seed, indices, max_dim):
            checked.append(indices)
            return chunked(seed, indices, max_dim)
        monkeypatch.setattr(cli, "_gradcheck_errors", recorded)
        assert main(["gradcheck", "--seed", "6", "--instances", "40"]) == 2
        assert capsys.readouterr().err == f"gainlab: error: {expected[1]}\n"
        assert checked == [range(0, 8), range(8, 16)]

    def test_nan_error_fails(self, capsys, monkeypatch):
        # max() would skip the NaN of instance 20 and report a pass
        monkeypatch.setattr(experiment, "_CHUNK_BYTES",
                            8 * experiment._row_bytes(6, 6))
        target = gradcheck_instance(1, 20, 6)[0].prior
        stacked_oracle = objectives._finite_differences
        def nan_for_target(batch, gains):
            grads, errors = stacked_oracle(batch, gains)
            for row in np.flatnonzero(~batch.factored):
                if np.array_equal(batch.prior[row], target):
                    grads[row] = np.nan
            return grads, errors
        monkeypatch.setattr(objectives, "_finite_differences", nan_for_target)
        code, out = _run(["gradcheck", "--seed", "1", "--instances", "40"],
                         capsys)
        assert code == 1
        trace, *others = out.splitlines()
        assert trace == ("trace: max relative gradient error over 40 "
                         "instances = nan  [FAIL]")
        assert len(others) == 2
        assert all(line.endswith("[PASS]") for line in others)
