"""Smoke tests for the code outside the package that drives it: demos, benchmark,
and for what importing the package loads."""

import importlib
import json
import os
import pkgutil
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


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency, the process pool is imported
    # only by a run on more than one worker, and numpy.random only by the
    # first seeding (numpy 1 imports it with numpy itself)
    code = ("import sys, numpy; "
            "random = lambda: {m for m in sys.modules "
            "if m.split('.')[:2] == ['numpy', 'random']}; "
            "before = random(); import gainlab, gainlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'multiprocessing') or m == 'concurrent.futures.process')); "
            "print(sorted(random() - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[]"]


def test_exports_resolve():
    # every exported name exists, and the names the batch made redundant
    # stay retired
    import gainlab
    retired = {"inverse", "symmetrize", "innovation_covariance", "short_name"}
    modules = [gainlab] + [importlib.import_module(f"gainlab.{info.name}")
                           for info in pkgutil.iter_modules(gainlab.__path__)]
    for module in modules:
        exported = getattr(module, "__all__", [])
        assert all(hasattr(module, name) for name in exported), module.__name__
        assert not retired & set(exported), module.__name__
    assert not [name for name in retired if hasattr(gainlab, name)]
    assert not hasattr(gainlab.ObjectiveKind, "short_name")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


WORKLOADS = [workload["name"] for workload in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_checks_pass(workload, tmp_path):
    # each declared workload's own correctness checks: for the batch runs,
    # index order, strict JSON, stationarity residual and byte-identical 1-
    # and 2-worker reports; for gradcheck, one PASS/FAIL line per objective,
    # and exit 0 exactly when all pass
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    assert '"correct": true' in result.stdout.splitlines()[-1]
