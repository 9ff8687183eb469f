"""Tests for the gainlab command-line interface."""

import json

import pytest

from gainlab import objectives
from gainlab.cli import main

from test_objectives import sequential_finite_difference_gradient

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
        assert "stationarity residual" in out
        assert "result: PASS" in out

    def test_scalar_instance(self, capsys):
        code = main(["check", "--seed", "1", "--state-dim", "1", "--obs-dim", "1"])
        assert code == 0
        assert "minimized entropy" in capsys.readouterr().out


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
    monkeypatch.setattr(objectives, "finite_difference_gradient",
                        sequential_finite_difference_gradient)
    assert _run(argv, capsys) == stacked
