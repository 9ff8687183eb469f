"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The shared 100-problem equivalence suite (state and observation dimensions
drawn from 1..8, condition targets cycling through 1, 10, 100, run as one
lockstep batch per shape) backs the optimality criteria; the remaining
criteria draw their own seeded corpora.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import gainlab
from gainlab import matrix_core
from gainlab.exceptions import GainlabError
from gainlab.kalman_update import FilterProblem, analytic_gain, joseph_update
from gainlab.objectives import (ObjectiveKind, differential_entropy,
                                directional_logdet_differential,
                                evaluate_objective, finite_difference_gradient,
                                log_generalized_variance, logdet_gradient)
from gainlab.optimizer import (OptimizerConfig, equivalence_batch,
                               stationarity_residual)

from conftest import seeded_gain, seeded_problem

LOGDET = ObjectiveKind.LOG_GENERALIZED_VARIANCE
ENTROPY = ObjectiveKind.DIFFERENTIAL_ENTROPY
TRACE = ObjectiveKind.TOTAL_VARIANCE

SUITE_SIZE = 100
SUITE_SEED = 5


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def equivalence_suite():
    """All three objectives minimized on 100 seeded problems, plus wall time.

    Runs with a tightened gradient tolerance so the three optima are pinned
    well inside the pairwise criteria; distance criteria hold already at the
    default tolerance.
    """
    config = OptimizerConfig(grad_tol=1e-10)
    started = time.perf_counter()
    problems = [seeded_problem(trial, master_seed=SUITE_SEED)
                for trial in range(SUITE_SIZE)]
    shapes: dict[tuple[int, int], list[int]] = {}
    for trial, problem in enumerate(problems):
        shapes.setdefault((problem.state_dim, problem.obs_dim), []).append(trial)
    reports = {}
    for trials in shapes.values():
        outcomes = equivalence_batch([problems[t] for t in trials], config)
        for trial, outcome in zip(trials, outcomes):
            if isinstance(outcome, GainlabError):
                raise outcome
            reports[trial] = outcome
    elapsed = time.perf_counter() - started
    return [(problem, reports[t]) for t, problem in enumerate(problems)], elapsed


def test_criterion_01_logdet_minimizer_matches_analytic_gain(equivalence_suite):
    suite, elapsed = equivalence_suite
    worst = max(eq.distance_to_analytic[LOGDET] for _, eq in suite)
    ok = worst <= 1e-5 and elapsed < 60.0
    _verdict(1, ok, f"max ||K_logdet - K*||_F = {worst:.3e} (tol 1e-5), "
                    f"suite wall time {elapsed:.1f}s (limit 60s)")
    assert worst <= 1e-5
    assert elapsed < 60.0


def test_criterion_02_trace_and_logdet_co_minimize(equivalence_suite):
    suite, _ = equivalence_suite
    worst_trace = max(eq.distance_to_analytic[TRACE] for _, eq in suite)
    worst_pair = max(eq.pairwise_distance[(LOGDET, TRACE)] for _, eq in suite)
    ok = worst_trace <= 1e-5 and worst_pair <= 1e-5
    _verdict(2, ok, f"max ||K_trace - K*||_F = {worst_trace:.3e}, "
                    f"max ||K_trace - K_logdet||_F = {worst_pair:.3e} (tol 1e-5)")
    assert worst_trace <= 1e-5
    assert worst_pair <= 1e-5


def test_criterion_03_entropy_minimizer_and_half_logdet_coupling(equivalence_suite):
    suite, _ = equivalence_suite
    worst_pair = max(eq.pairwise_distance[(LOGDET, ENTROPY)] for _, eq in suite)

    worst_coupling = 0.0
    for trial in range(100):
        problem = seeded_problem(trial, master_seed=211)
        g1 = seeded_gain(problem, 2 * trial, master_seed=223)
        g2 = seeded_gain(problem, 2 * trial + 1, master_seed=223)
        entropy_delta = (differential_entropy(problem, g1)
                         - differential_entropy(problem, g2))
        logdet_delta = (log_generalized_variance(problem, g1)
                        - log_generalized_variance(problem, g2))
        worst_coupling = max(worst_coupling,
                             abs(entropy_delta - 0.5 * logdet_delta))

    ok = worst_pair <= 1e-8 and worst_coupling <= 1e-12
    _verdict(3, ok, f"max ||K_entropy - K_logdet||_F = {worst_pair:.3e} "
                    f"(tol 1e-8), max |dH - dlogdet/2| = {worst_coupling:.3e} "
                    f"(tol 1e-12)")
    assert worst_pair <= 1e-8
    assert worst_coupling <= 1e-12


def test_criterion_04_analytic_gradient_matches_finite_differences():
    worst = 0.0
    for trial in range(100):
        problem = seeded_problem(trial, master_seed=227, max_dim=6)
        gain = seeded_gain(problem, trial, master_seed=229)
        exact = logdet_gradient(problem, gain)
        numeric = finite_difference_gradient(problem, gain, LOGDET)
        rel = np.linalg.norm(exact - numeric) / (1.0 + np.linalg.norm(exact))
        worst = max(worst, rel)
    ok = worst <= 1e-5
    _verdict(4, ok, f"max relative gradient error = {worst:.3e} (tol 1e-5)")
    assert worst <= 1e-5


def test_criterion_05_directional_differential_matches_gradient_pairing():
    worst = 0.0
    for trial in range(100):
        problem = seeded_problem(trial, master_seed=233)
        gain = seeded_gain(problem, trial, master_seed=239)
        direction = seeded_gain(problem, trial + 5000, master_seed=239) - gain
        lhs = directional_logdet_differential(problem, gain, direction)
        rhs = float(np.sum(logdet_gradient(problem, gain) * direction))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    ok = worst <= 1e-9
    _verdict(5, ok, f"max relative trace-form vs gradient-pairing gap = "
                    f"{worst:.3e} (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_06_stationarity_residual_at_analytic_gain():
    worst = 0.0
    for trial in range(100):
        problem = seeded_problem(trial, master_seed=241)
        residual = stationarity_residual(problem, analytic_gain(problem))
        scale = 1.0 + np.linalg.norm(problem.prior @ problem.obs_op.T)
        worst = max(worst, residual / scale)
    ok = worst <= 1e-8
    _verdict(6, ok, f"max scaled stationarity residual = {worst:.3e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_07_joseph_form_valid_for_arbitrary_gains():
    worst_asym = 0.0
    for trial in range(200):
        problem = seeded_problem(trial, master_seed=251)
        gain = seeded_gain(problem, trial, scale=1.0, master_seed=257)
        updated = joseph_update(problem, gain)
        worst_asym = max(worst_asym, float(np.max(np.abs(updated - updated.T))))
        matrix_core.validate_covariance(updated)

    problem = seeded_problem(7, master_seed=251)
    zero = np.zeros((problem.state_dim, problem.obs_dim))
    zero_exact = np.array_equal(joseph_update(problem, zero), problem.prior)

    ok = worst_asym <= 1e-12 and zero_exact
    _verdict(7, ok, f"200/200 updates SPD, max asymmetry = {worst_asym:.3e} "
                    f"(tol 1e-12), zero gain reproduces prior exactly: {zero_exact}")
    assert worst_asym <= 1e-12
    assert zero_exact


def test_criterion_08_hadamard_bound_on_every_covariance(equivalence_suite):
    suite, _ = equivalence_suite
    checked = 0
    rng = np.random.default_rng(263)
    for problem, equivalence in suite:
        covariances = [problem.prior, problem.obs_noise,
                       joseph_update(problem, equivalence.analytic)]
        covariances.extend(joseph_update(problem, r.final_gain)
                           for r in equivalence.reports.values())
        bump = rng.standard_normal(equivalence.analytic.shape)
        covariances.append(joseph_update(problem, equivalence.analytic + bump))
        for cov in covariances:
            assert matrix_core.det(cov) <= np.prod(np.diag(cov)) * (1 + 1e-12)
            checked += 1

    worst_eq = 0.0
    for diag in ([1.0], [2.0, 0.5], [4.0, 9.0, 0.25], [1.0, 2.0, 3.0, 4.0]):
        cov = np.diag(diag)
        product = float(np.prod(diag))
        worst_eq = max(worst_eq, abs(matrix_core.det(cov) - product) / product)

    ok = worst_eq <= 1e-12
    _verdict(8, ok, f"det <= diagonal product on {checked} covariances; "
                    f"diagonal-case equality gap = {worst_eq:.3e} (tol 1e-12)")
    assert worst_eq <= 1e-12


def test_criterion_09_perturbations_never_improve_converged_gains(equivalence_suite):
    suite, _ = equivalence_suite
    rng = np.random.default_rng(269)
    checked = skipped = 0
    for problem, equivalence in suite:
        for kind, report in equivalence.reports.items():
            if not report.converged:
                skipped += 1
                continue
            base = report.final_objective
            checked += 1
            for _ in range(50):
                bump = rng.standard_normal(report.final_gain.shape)
                bump *= 1e-3 / np.linalg.norm(bump)
                value = evaluate_objective(problem, report.final_gain + bump, kind)
                assert value >= base - 1e-12
    ok = checked > 0
    _verdict(9, ok, f"50 perturbations x {checked} converged gains, "
                    f"none decreased its objective (slack 1e-12); skipped "
                    f"{skipped} unconverged gains")
    assert checked > 0


def test_criterion_10_cli_reports_are_byte_identical(tmp_path):
    exe = shutil.which("gainlab")
    base_cmd = [exe] if exe else [sys.executable, "-m", "gainlab.cli"]
    # The subprocess imports the gainlab that this test imported.
    src = os.path.dirname(os.path.dirname(gainlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = ["run", "--state-dim", "3", "--obs-dim", "2", "--trials", "10",
             "--seed", "41", "--cond", "10"]

    outputs = {}
    for name, extra in (("first", []), ("second", []),
                        ("workers2", ["--workers", "2"]),
                        ("workers4", ["--workers", "4"])):
        target = tmp_path / f"{name}.json"
        proc = subprocess.run(base_cmd + flags + ["--out", str(target)] + extra,
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs[name] = target.read_bytes()

    identical = (outputs["first"] == outputs["second"]
                 == outputs["workers2"] == outputs["workers4"])
    _verdict(10, identical, "reports byte-identical across two invocations "
                            "and worker counts 1, 2, 4")
    assert identical


def _uniform_error_entropy(k, sigma_x, sigma_v):
    """Exact entropy, in nats, of ``e = (1 - k) x - k v`` with H = 1.

    ``x`` and ``v`` are independent zero-mean uniforms of standard
    deviations ``sigma_x`` and ``sigma_v``. A uniform of standard deviation
    s has width s sqrt(12), and the sum of two independent uniforms of
    widths w1 >= w2 has the trapezoidal density whose entropy is
    ``log w1 + w2 / (2 w1)``.
    """
    widths = np.sqrt(12.0) * np.array([np.abs(1.0 - k) * sigma_x,
                                       np.abs(k) * sigma_v])
    w1, w2 = widths.max(axis=0), widths.min(axis=0)
    return np.log(w1) + w2 / (2.0 * w1)


def _trapezoid_entropy(w1, w2, points=200_001):
    """The same entropy by integrating ``-f log f`` over the trapezoidal
    density of the sum: 1/w1 on the plateau, falling linearly to 0."""
    t = np.linspace(-(w1 + w2) / 2.0, (w1 + w2) / 2.0, points)
    density = np.minimum(1.0 / w1, ((w1 + w2) / 2.0 - np.abs(t)) / (w1 * w2))
    terms = -density * np.log(np.where(density > 0.0, density, 1.0))
    return float(np.sum((terms[1:] + terms[:-1]) / 2.0) * (t[1] - t[0]))


@pytest.mark.parametrize("sigma_x, sigma_v, apart", [(2.0, 1.0, True),
                                                     (1.5, 1.0, True),
                                                     (1.0, 1.0, False)])
def test_criterion_11_entropy_fact_needs_gaussian_errors(sigma_x, sigma_v,
                                                         apart):
    """A negative control: the entropy part of the fact is Gaussian.

    With uniform prior and noise errors, the linear posterior error has the
    covariance of the Gaussian case but another entropy, whose minimizer
    leaves K* unless the two widths are equal. The covariance measures,
    trace and log-det, and gainlab's Gaussian entropy stay minimized at K*.
    """
    problem = FilterProblem(prior=[[sigma_x ** 2]], obs_op=[[1.0]],
                            obs_noise=[[sigma_v ** 2]])
    k_star = float(analytic_gain(problem)[0, 0])
    ks = np.linspace(-0.5, 1.5, 2001)
    step = ks[1] - ks[0]
    uniform = _uniform_error_entropy(ks, sigma_x, sigma_v)
    k_uniform = float(ks[np.argmin(uniform)])
    for k in (k_star, 0.3, 0.9):
        widths = sorted(np.sqrt(12.0) * np.array([abs(1.0 - k) * sigma_x,
                                                  abs(k) * sigma_v]))
        assert _trapezoid_entropy(widths[1], widths[0]) == pytest.approx(
            float(_uniform_error_entropy(k, sigma_x, sigma_v)), abs=1e-8)
    covariance_minimizers = {}
    for kind in ObjectiveKind:
        values = [evaluate_objective(problem, np.array([[k]]), kind)
                  for k in ks]
        covariance_minimizers[kind] = float(ks[np.argmin(values)])
        if kind is ENTROPY:
            # a Gaussian has the largest entropy of its variance
            assert (uniform < np.array(values)).all()
    gap = abs(k_uniform - k_star)
    ok = (gap >= 0.05 if apart else gap <= 1e-12) and all(
        abs(k - k_star) <= step / 2 for k in covariance_minimizers.values())
    _verdict(11, ok, f"sigma_x {sigma_x:g}, sigma_v {sigma_v:g}: uniform "
                     f"errors' entropy minimized at k = {k_uniform:.4f}, "
                     f"K* = {k_star:.4f}; trace, log-det and Gaussian "
                     f"entropy minimized at "
                     f"{sorted(set(covariance_minimizers.values()))}")
    if apart:
        assert gap >= 0.05
    else:
        assert gap <= 1e-12
    for k in covariance_minimizers.values():
        assert abs(k - k_star) <= step / 2
