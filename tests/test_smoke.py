"""Smoke tests for the code outside the package that drives it: demos, benchmark."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_benchmark_modules_import(monkeypatch):
    # layers.py resolves every traced library function when it is imported,
    # so a renamed or moved function stops every benchmark run at start-up
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    for name in ("layers", "workloads", "machine"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    assert all(callable(fn) for fn in layers.SPAN_FUNCTIONS)
    assert "default_4x3" in workloads.WORKLOADS
    # a traced function that moves module renames its span, and with it the
    # benchmark's declared per-layer metrics
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in declared["per_layer"]}
    for fn in layers.SPAN_FUNCTIONS:
        assert f"{layers._span_name(fn)}.calls_per_trial" in names


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def _assert_benchmark_checks_pass(workload, tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    assert '"correct": true' in result.stdout.splitlines()[-1]


def test_benchmark_checks_pass(tmp_path):
    # the benchmark's own correctness checks: index order, strict JSON,
    # stationarity residual, and byte-identical 1- and 2-worker reports
    _assert_benchmark_checks_pass("default_4x3", tmp_path)


def test_gradcheck_benchmark_checks_pass(tmp_path):
    # one PASS/FAIL line per objective, and exit 0 exactly when all pass
    _assert_benchmark_checks_pass("gradcheck", tmp_path)
