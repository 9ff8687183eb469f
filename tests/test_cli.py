"""Tests for the gainlab command-line interface."""

import json

import numpy as np
import pytest

from gainlab import cli, experiment, objectives
from gainlab.cli import main
from gainlab.exceptions import GainlabError, NotPositiveDefinite
from gainlab.experiment import make_problem
from gainlab.kalman_update import FilterProblem
from gainlab.matrix_core import frobenius_norm
from gainlab.objectives import ObjectiveKind, objective_gradient

from conftest import SINGULAR_SEED, one_stream_problem
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

    def test_unconverged_minimizations_are_counted_on_stderr(self, capsys):
        # a run whose minimizations stop at --max-iters still passes, on
        # the gains, and says on stderr how many stopped there
        code = main(["run", "--trials", "5", "--grad-tol", "1e-15",
                     "--max-iters", "400"])
        captured = capsys.readouterr()
        assert code == 0
        trials = json.loads(captured.out)["trials"]
        flags = [flag for trial in trials for flag in trial["converged"].values()]
        assert len(flags) == 15 and flags.count(False) > 0
        assert captured.err == (f"gainlab: {flags.count(False)} of 15 "
                                "minimizations stopped at --max-iters 400 "
                                "before the gradient norm reached --grad-tol "
                                "1e-15\n")

    def test_default_run_keeps_stderr_empty(self, capsys):
        assert main(["run"]) == 0
        assert capsys.readouterr().err == ""

    def test_unwritable_output_is_config_error(self, tmp_path):
        code = main(RUN_FLAGS + ["--out", str(tmp_path / "no_dir" / "r.json")])
        assert code == 2

    def test_singular_innovation_is_a_failed_trial(self, capsys, monkeypatch):
        # trial 2 of master seed 1 gets the problem whose S is singular to
        # the solve; one iteration, so that its minimizations succeed. The
        # trial seeds are mixed as one stack from the master seed alone.
        mix = experiment._mix_seeds
        def injected(seeds, indices):
            mixed = mix(seeds, indices)
            if np.ndim(seeds) == 0 and seeds == 1:
                mixed[np.asarray(indices) == 2] = SINGULAR_SEED
            return mixed
        monkeypatch.setattr(experiment, "_mix_seeds", injected)
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
        # the log-det and entropy line searches give up at cond 1e20, seed
        # 141; that is a failed check, not a configuration error
        code = main(["check", "--seed", "141", "--cond", "1e20"])
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

    def test_problem_that_fails_to_build_fails_the_check(self, capsys):
        # at cond 1e40 trial 0's prior does not factorize; `run` records a
        # failed trial and exits 1, and `check` fails its check the same way
        code = main(["check", "--cond", "1e40"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        error = ("prior: matrix is not positive definite: Matrix is not "
                 "positive definite")
        assert captured.out.splitlines() == [
            "instance: state_dim=4 obs_dim=3 seed=1 cond=1e+40",
            f"error: {error}", "", "result: FAIL"]
        code, out = _run(["run", "--cond", "1e40", "--trials", "1"], capsys)
        assert code == 1
        assert json.loads(out)["trials"][0]["error"] == (
            f"NotPositiveDefinite: {error}")

    def test_singular_innovation_fails_the_check(self, capsys, monkeypatch):
        # trial 0 of master seed 1 gets the problem whose S is singular to
        # the analytic gain's solve
        mix = cli.mix_seed
        monkeypatch.setattr(cli, "mix_seed", lambda seed, index: (
            SINGULAR_SEED if (seed, index) == (1, 0) else mix(seed, index)))
        code = main(["check", "--state-dim", "2", "--obs-dim", "7", "--cond",
                     "1e20"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "instance: state_dim=2 obs_dim=7 seed=1 cond=1e+20",
            "error: matrix is not positive definite: Singular matrix", "",
            "result: FAIL"]

    def test_singular_posterior_fails_the_check_without_traceback(
            self, capsys, monkeypatch):
        # a log-det posterior at cond 1e20, seed 141, passes its Cholesky
        # check but is singular to the gradient's solve; that rejects the step
        evaluate = objectives._Batch.evaluate
        singular = []
        def recorded(batch, gains):
            values, grads, errors = evaluate(batch, gains)
            singular.extend(row for row, exc in errors.items()
                            if str(exc).endswith("Singular matrix"))
            return values, grads, errors
        monkeypatch.setattr(objectives._Batch, "evaluate", recorded)
        code = main(["check", "--cond", "1e20", "--seed", "141"])
        captured = capsys.readouterr()
        assert code == 1 and singular
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

    def test_seed_of_two_to_the_64_plus_5_is_seed_5(self, capsys):
        # the command's stream is default_rng(seed mod 2**64)
        big = _run(["gradcheck", "--seed", str(2**64 + 5), "--instances",
                    "50"], capsys)
        assert big == _run(["gradcheck", "--seed", "5", "--instances", "50"],
                           capsys)
        assert big[0] == 0 and big[1].count("[PASS]") == 3


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


def test_oracle_evaluates_one_posterior_per_perturbed_gain(monkeypatch):
    # the gradient check's oracle evaluates 2·n·m posteriors per problem,
    # one per perturbed gain for all three kinds, not 2·n·m per kind
    evaluated, inside = [], []
    joseph_form = objectives._joseph_form
    oracle = objectives._finite_differences
    def counted(problem, gains, select):
        if inside:
            evaluated.append(gains[..., 0, 0].size)
        return joseph_form(problem, gains, select)
    def spied(*args):
        inside.append(True)
        try:
            return oracle(*args)
        finally:
            inside.clear()
    monkeypatch.setattr(objectives, "_joseph_form", counted)
    monkeypatch.setattr(objectives, "_finite_differences", spied)
    problems = [make_problem(3, 2, seed) for seed in range(5)]
    errors, failures = cli._gradient_errors(problems, np.ones((5, 3, 2)))
    assert not failures and (errors <= cli._GRADCHECK_TOL).all()
    assert sum(evaluated) == len(problems) * 2 * 3 * 2


def gradcheck_instances(rng, indices, max_dim):
    """Yield the problem and gain noise of each gradcheck instance in turn.

    The instances ``indices`` are the next draws of the command's one stream
    ``rng``: each takes n, m, its gain noise, then its problem's draws.
    """
    conds = cli._GRADCHECK_CONDS
    for index in indices:
        n = int(rng.integers(1, max_dim + 1))
        m = int(rng.integers(1, max_dim + 1))
        noise = rng.standard_normal((n, m))
        yield one_stream_problem(rng, n, m, conds[index % len(conds)]), noise


def first_instances(seed, count, max_dim):
    """The problems of the first ``count`` gradcheck instances of ``seed``."""
    return [problem for problem, _ in gradcheck_instances(
        np.random.default_rng(seed), range(count), max_dim)]


def sequential_gradcheck_errors(rng, indices, max_dim):
    """The gradcheck instances checked one at a time, through public calls.

    The reference the stacked check must equal bit for bit, errors included:
    the instances in order, and for each the kinds in order, the analytic
    gradient before the central differences.
    """
    errors = []
    for problem, noise in gradcheck_instances(rng, indices, max_dim):
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
        return errors(np.random.default_rng(seed), indices, max_dim).tobytes()
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

    def test_chunks_leave_output_unchanged(self, capsys, monkeypatch):
        # the command's one stream runs on from chunk to chunk
        argv = ["gradcheck", "--seed", "3", "--instances", "40"]
        whole = _run(argv, capsys)
        monkeypatch.setattr(experiment, "_CHUNK_BYTES",
                            7 * experiment._row_bytes(6, 6))
        chunked = cli._gradcheck_errors
        checked = []
        def recorded(rng, indices, max_dim):
            checked.append(indices)
            return chunked(rng, indices, max_dim)
        monkeypatch.setattr(cli, "_gradcheck_errors", recorded)
        assert _run(argv, capsys) == whole
        assert len(checked) == 6

    def test_fewer_instances_check_the_first_ones(self, capsys, monkeypatch):
        chunked = cli._gradcheck_errors
        rows = []
        def recorded(rng, indices, max_dim):
            errors = chunked(rng, indices, max_dim)
            rows.append(errors)
            return errors
        monkeypatch.setattr(cli, "_gradcheck_errors", recorded)
        errors = {}
        for count in (100, 40):
            rows.clear()
            assert _run(["gradcheck", "--instances", str(count)],
                        capsys)[0] == 0
            errors[count] = np.concatenate(rows)
        assert errors[40].tobytes() == errors[100][:40].tobytes()

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
        instances = first_instances(4, 40, 6)
        targets = {instances[index].cross.tobytes(): poison
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
        def poisoned_builds(*args):
            outcomes = make_problems(*args)
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
        # instances 14, 19 and 21 of seed 310 are one 2x7 group, and 19 gets
        # the problem whose S is singular to the analytic gain's solve; an
        # instance is told by its observation operator
        singular = make_problem(2, 7, SINGULAR_SEED, 1e20)
        make_problems = cli._make_problems
        instances = {problem.obs_op.tobytes(): index for index, problem
                     in enumerate(first_instances(310, 30, 7))}
        def swapped(shapes, draws, conds):
            outcomes = make_problems(shapes, draws, conds)
            for row, outcome in enumerate(outcomes):
                index = instances[outcome.obs_op.tobytes()]
                if index in (14, 19, 21):
                    assert shapes[row] == (2, 7)
                if index == 19:
                    outcomes[row] = singular
                outcomes[row] = poisons.get(index, outcomes[row])
            return outcomes
        monkeypatch.setattr(cli, "_make_problems", swapped)
        with pytest.raises(NotPositiveDefinite) as caught:
            cli._gradcheck_errors(np.random.default_rng(310), range(30), 7)
        assert str(caught.value) == error

    def test_one_generation_and_one_check_per_shape_group(self,
                                                          monkeypatch):
        shapes = {}
        for index, problem in enumerate(first_instances(2, 40, 4)):
            shapes.setdefault((problem.state_dim, problem.obs_dim),
                              []).append(index)
        # each dimension's covariances, priors and noises of every shape
        dims = {}
        for (n, m), indices in shapes.items():
            for dim in (n, m):
                dims[dim] = dims.get(dim, 0) + len(indices)
        assemblies, builds, checks = [], [], []
        random_spds = experiment._random_spds
        build_problems = experiment._build_problems
        gradient_errors = cli._gradient_errors
        analytic_gains = cli._analytic_gains
        inside = []
        def spied_assemblies(dim, gauss, conds):
            assemblies.append((dim, len(gauss), len(conds)))
            return random_spds(dim, gauss, conds)
        def spied_builds(priors, obs_ops, noises):
            builds.append((priors.shape[-1], noises.shape[-1], len(priors)))
            return build_problems(priors, obs_ops, noises)
        def spied_checks(problems, noises):
            checks.append((problems[0].state_dim, problems[0].obs_dim,
                           len(problems)))
            inside.append(True)
            try:
                return gradient_errors(problems, noises)
            finally:
                inside.clear()
        def spied_solves(cross, innovation):
            checks.append(("solve", bool(inside), len(cross)))
            return analytic_gains(cross, innovation)
        monkeypatch.setattr(experiment, "_random_spds", spied_assemblies)
        monkeypatch.setattr(experiment, "_build_problems", spied_builds)
        monkeypatch.setattr(cli, "_gradient_errors", spied_checks)
        monkeypatch.setattr(cli, "_analytic_gains", spied_solves)
        cli._gradcheck_errors(np.random.default_rng(2), range(40), 4)
        assert len(shapes) > 1 and len(dims) < 2 * len(shapes)
        # one assembly per dimension, of all its covariances, and one build
        # per shape, of all its problems
        assert sorted(assemblies) == sorted((dim, count, count)
                                            for dim, count in dims.items())
        assert sorted(builds) == sorted((n, m, len(indices))
                                        for (n, m), indices in shapes.items())
        # the analytic gains of a shape group are one solve, inside its check
        assert checks == [call for (n, m), indices in shapes.items()
                          for call in ((n, m, len(indices)),
                                       ("solve", True, len(indices)))]

    def test_group_whose_every_row_fails(self):
        # the posterior at the analytic gain 1e-13 has the pivot 1e-13
        problem = FilterProblem(prior=[[1.0]], obs_op=[[1e13]],
                                obs_noise=[[1.0]])
        # a zero draw checks the analytic gain itself
        errors, failures = cli._gradient_errors([problem], np.zeros((1, 1, 1)))
        assert errors.shape == (1, 3) and np.isnan(errors[0, 1])
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
        def recorded(rng, indices, max_dim):
            checked.append(indices)
            return chunked(rng, indices, max_dim)
        monkeypatch.setattr(cli, "_gradcheck_errors", recorded)
        assert main(["gradcheck", "--seed", "6", "--instances", "40"]) == 2
        assert capsys.readouterr().err == f"gainlab: error: {expected[1]}\n"
        assert checked == [range(0, 8), range(8, 16)]

    def test_nan_error_fails(self, capsys, monkeypatch):
        # max() would skip the NaN of instance 20 and report a pass
        monkeypatch.setattr(experiment, "_CHUNK_BYTES",
                            8 * experiment._row_bytes(6, 6))
        target = first_instances(1, 40, 6)[20].prior
        stacked_oracle = objectives._finite_differences
        def nan_for_target(batch, gains):
            grads, errors = stacked_oracle(batch, gains)
            kinds = list(ObjectiveKind)
            trace = kinds.index(ObjectiveKind.TOTAL_VARIANCE)
            for row, joint_cov in enumerate(batch.joint_cov):
                if np.array_equal(joint_cov[:len(target), :len(target)],
                                  target):
                    grads[row * len(kinds) + trace] = np.nan
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
