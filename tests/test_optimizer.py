"""Tests for the gain-matrix minimizer and cross-objective equivalence."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainlab import experiment, matrix_core, optimizer
from gainlab.exceptions import (DimensionMismatch, InvalidParameter, LineSearchFailed,
                                NotPositiveDefinite)
from gainlab.kalman_update import (FilterProblem, _joseph_form, analytic_gain,
                                   joseph_update)
from gainlab.objectives import (ObjectiveKind, _Batch,
                                directional_logdet_differential,
                                evaluate_objective, finite_difference_gradient,
                                objective_gradient)
from gainlab.optimizer import (OptimizerConfig, cross_objective_equivalence,
                               equivalence_batch, minimize_batch, minimize_objective,
                               stationarity_residual, trace_gradient)
from gainlab.experiment import ExperimentConfig, make_problem, mix_seed

from conftest import (seeded_gain, seeded_problem, singular_innovation_stack,
                      starting_from)

LOGDET = ObjectiveKind.LOG_GENERALIZED_VARIANCE
ENTROPY = ObjectiveKind.DIFFERENTIAL_ENTROPY
TRACE = ObjectiveKind.TOTAL_VARIANCE

EPS = float(np.finfo(float).eps)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_iters": 0},
        {"grad_tol": 0.0},
        {"max_iters": -1},
        {"grad_tol": -1.0},
        {"grad_tol": float("nan")},
        {"max_iters": 2.5},
        {"max_iters": np.int64(5)},
        {"grad_tol": "1e-9"},
        {"grad_tol": True},
        {"grad_tol": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidParameter):
            OptimizerConfig(**kwargs)


class TestMinimizeObjective:
    def test_scalar_logdet_recovers_half(self, scalar_problem):
        report = minimize_objective(scalar_problem, LOGDET)
        assert abs(report.final_gain[0, 0] - 0.5) <= 1e-6
        assert report.converged

    def test_analytic_start_converges_immediately(self, monkeypatch):
        def analytic_start(prior, gain):
            gain[:] = analytic_gain(problem)
        starting_from(monkeypatch, analytic_start)
        for trial in range(10):
            problem = seeded_problem(trial, master_seed=103)
            for kind in ObjectiveKind:
                report = minimize_objective(problem, kind)
                assert report.converged
                assert report.iterations == 0
                scale = 1.0 + np.linalg.norm(problem.prior @ problem.obs_op.T)
                residual = stationarity_residual(problem, report.final_gain)
                assert residual <= 1e-9 * scale

    def test_seeded_instance_matches_analytic_gain(self):
        problem = make_problem(3, 2, 7, 10.0)
        report = minimize_objective(problem, LOGDET)
        distance = np.linalg.norm(report.final_gain - analytic_gain(problem))
        assert distance <= 1e-6

    def test_reduced_oracle_equivalence(self):
        # the acceptance suite runs the full 100-problem version
        for trial in range(25):
            problem = seeded_problem(trial, master_seed=107)
            reference = analytic_gain(problem)
            for kind in ObjectiveKind:
                report = minimize_objective(problem, kind)
                assert np.linalg.norm(report.final_gain - reference) <= 1e-5

    def test_trajectory_and_convergence_flags(self):
        # converged is exactly the stop rule on the final gradient norm,
        # which the stacked gradient computes bit for bit
        problem = seeded_problem(1, master_seed=109)
        for config in (OptimizerConfig(), OptimizerConfig(max_iters=5)):
            for kind in ObjectiveKind:
                report = minimize_objective(problem, kind, config)
                g = objective_gradient(problem, report.final_gain, kind)
                assert report.converged == (
                    np.sqrt((g * g).sum()) <= config.grad_tol)
                if config.max_iters == 5:
                    assert report.iterations == 5
                    assert not report.converged

    def test_descent_window_condition(self):
        # rebuild the iterate sequence by truncating max_iters (runs are
        # deterministic) and check the watchdog descent rule as implemented:
        # each accepted objective never resolvably exceeds the maximum over
        # the previous ten accepted values, so nothing exceeds the start
        problem = make_problem(4, 3, 21, 10.0)
        full = minimize_objective(problem, LOGDET)
        start = evaluate_objective(
            problem, np.zeros((problem.state_dim, problem.obs_dim)), LOGDET)
        values = [start]
        for budget in range(1, full.iterations + 1):
            report = minimize_objective(problem, LOGDET,
                                        OptimizerConfig(max_iters=budget))
            values.append(report.final_objective)
        for i, after in enumerate(values[1:], start=1):
            reference = max(values[max(0, i - 10):i])
            assert after <= reference + 8.0 * EPS * (1.0 + abs(reference))
        assert all(v <= start + 8.0 * EPS * (1.0 + abs(start)) for v in values)
        assert values[-1] < start

    def test_armijo_term_rejects_too_small_a_decrease(self):
        # From K = 0 the gradient is -2, so the first trial step reaches
        # K = 1 and lowers the trace from 1 to R, by 5e-5: less than the
        # sufficient decrease 1e-4 * 0.5 * 4 = 2e-4 that the Armijo term
        # asks. The step is rejected and halved, and K = 0.5 is accepted.
        problem = FilterProblem(prior=[[1.0]], obs_op=[[1.0]],
                                obs_noise=[[0.99995]])
        report = minimize_objective(problem, TRACE,
                                    OptimizerConfig(max_iters=1))
        assert report.iterations == 1
        assert report.final_gain.tolist() == [[0.5]]

    def test_local_minimality_at_converged_gain(self):
        problem = make_problem(4, 3, 33, 10.0)
        rng = np.random.default_rng(404)
        for kind in ObjectiveKind:
            report = minimize_objective(problem, kind)
            assert report.converged
            base = report.final_objective
            for _ in range(50):
                bump = rng.standard_normal(report.final_gain.shape)
                bump *= 1e-3 / np.linalg.norm(bump)
                assert evaluate_objective(problem, report.final_gain + bump,
                                          kind) >= base - 1e-12

    def test_deterministic_reports(self):
        problem = make_problem(5, 4, 55, 100.0)
        first = minimize_objective(problem, LOGDET)
        second = minimize_objective(problem, LOGDET)
        np.testing.assert_array_equal(first.final_gain, second.final_gain)
        assert first.final_objective == second.final_objective
        assert first.iterations == second.iterations
        assert first.converged == second.converged

    def test_line_search_failure_is_reported(self, scalar_problem, monkeypatch):
        # the start evaluates normally; every later factorization fails, so
        # every trial step is rejected
        calls = {"n": 0}
        factorize = matrix_core._cholesky_factors
        def poisoned(a, *args):
            calls["n"] += 1
            factors, failures = factorize(a, *args)
            if calls["n"] > 1:
                failures = {row: NotPositiveDefinite("poisoned evaluation")
                            for row in range(len(a))}
            return factors, failures
        monkeypatch.setattr(matrix_core, "_cholesky_factors", poisoned)
        with pytest.raises(LineSearchFailed):
            minimize_objective(scalar_problem, LOGDET)


def _stacked(problem, kinds):
    """The batch of ``problem`` under each of ``kinds``."""
    return _Batch.stack([problem] * len(kinds), kinds)


def _assert_same_report(batched, alone):
    np.testing.assert_array_equal(batched.final_gain, alone.final_gain)
    assert batched.final_objective == alone.final_objective
    assert batched.iterations == alone.iterations
    assert batched.converged == alone.converged


class TestKernel:
    """The stacked batch's values and gradients against the public functions."""

    def test_stack_keeps_callers_order(self):
        problems = [make_problem(3, 2, 80 + i, 10.0) for i in range(6)]
        kinds = [LOGDET, TRACE, ENTROPY, TRACE, LOGDET, TRACE]
        batch = _Batch.stack(problems, kinds)
        assert batch.factored.tolist() == [True, False, True, False, True,
                                           False]
        assert batch.entropy.tolist() == [False, False, True, False, False,
                                          False]
        gains = np.stack([seeded_gain(problem, row, master_seed=83)
                          for row, problem in enumerate(problems)])
        values, _, errors = batch.evaluate(gains)
        assert errors == {}
        for row, (problem, kind) in enumerate(zip(problems, kinds)):
            for name in ("joint_cov", "joint_op", "cross", "innovation"):
                np.testing.assert_array_equal(getattr(batch, name)[row],
                                              getattr(problem, name))
            assert values[row] == evaluate_objective(problem, gains[row], kind)

    def test_repeated_stack_equals_stack_of_repeated_problems(self):
        # each problem stacked once and repeated per kind is the batch of
        # every problem listed once per kind
        problems = [make_problem(3, 2, 70 + i, 10.0) for i in range(4)]
        kinds = list(ObjectiveKind) * len(problems)
        repeated = _Batch.stack(problems, kinds, len(ObjectiveKind))
        listed = _Batch.stack([problem for problem in problems
                               for _ in ObjectiveKind], kinds)
        for name in ("joint_cov", "joint_op", "cross", "innovation",
                     "entropy", "factored"):
            assert getattr(repeated, name).tobytes() == (
                getattr(listed, name).tobytes())

    def test_take_equals_a_fresh_stack_of_its_rows(self):
        problems = [make_problem(3, 2, 95 + i, 10.0) for i in range(6)]
        kinds = [LOGDET, TRACE, ENTROPY, TRACE, ENTROPY, LOGDET]
        batch = _Batch.stack(problems, kinds)
        for rows in (np.array([True, False, True, True, False, True]),
                     np.array([4, 2, 0]), slice(1, 5), np.array([3, 1])):
            taken = batch.take(rows)
            ids = np.arange(len(problems))[rows]
            fresh = _Batch.stack([problems[i] for i in ids],
                                 [kinds[i] for i in ids])
            for name in ("select", "_slab", "_flags", "_offset", "_scale",
                         "_factor_ids"):
                assert getattr(taken, name).tobytes() == (
                    getattr(fresh, name).tobytes())

    def test_take_by_indices_equals_take_by_mask(self):
        problems = [make_problem(3, 2, 90 + i, 10.0) for i in range(6)]
        batch = _Batch.stack(problems, [LOGDET, TRACE, ENTROPY, TRACE, LOGDET,
                                        TRACE])
        keep = np.array([True, False, True, True, False, False])
        by_mask, by_index = batch.take(keep), batch.take(np.flatnonzero(keep))
        for name in ("joint_cov", "joint_op", "cross", "innovation",
                     "entropy", "factored"):
            np.testing.assert_array_equal(getattr(by_index, name),
                                          getattr(by_mask, name))
        gains = np.stack([seeded_gain(problems[row], row, master_seed=89)
                          for row in (0, 2, 3)])
        expected, _, _ = by_mask.evaluate(gains)
        assert by_index.evaluate(gains)[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_bit_identical_to_public_functions(self, kind):
        # the optimizer's iterates and reports depend on this equality. A
        # batch of one kind factorizes every row or none; the mixed batch
        # factorizes some rows, and so may a batch taken from it.
        for trial in range(30):
            max_dim = 1 if trial < 3 else 8
            problem = seeded_problem(trial, master_seed=139, max_dim=max_dim)
            for kinds in ([kind] * 5, [ENTROPY, kind, LOGDET, kind, TRACE]):
                batch = _stacked(problem, kinds)
                gains = np.stack([seeded_gain(problem, 10 * trial + row,
                                              master_seed=149)
                                  for row in range(len(kinds))])
                values, _, errors = batch.evaluate(gains)
                assert errors == {}
                for row, row_kind in enumerate(kinds):
                    assert values[row] == evaluate_objective(
                        problem, gains[row], row_kind)
                for rows in (np.arange(len(kinds)), np.array([1, 2, 4])):
                    _, grads, failures = batch.take(rows).evaluate(
                        gains[rows])
                    assert failures == {}
                    for grad, row in zip(grads, rows):
                        np.testing.assert_array_equal(
                            grad, objective_gradient(problem, gains[row],
                                                     kinds[row]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_gain(self, bad):
        # every kind at a finite gain, at a gain with one non-finite entry,
        # and at a finite gain whose posterior overflows: the trace never
        # factorizes, so only the log-det and entropy rows fail on that one.
        # Each row fails alike in the batch and in a batch of its own.
        problem = seeded_problem(2, master_seed=151)
        kinds = list(ObjectiveKind) * 3
        batch = _stacked(problem, kinds)
        gains = np.zeros((len(kinds), problem.state_dim, problem.obs_dim))
        gains[3:6, -1, 0] = bad
        gains[6:] = 1e200
        with np.errstate(invalid="ignore", over="ignore"):
            _, _, errors = batch.evaluate(gains)
            for row, kind in enumerate(kinds):
                _, _, alone = _stacked(problem, [kind]).evaluate(
                    gains[row:row + 1])
                try:
                    evaluate_objective(problem, gains[row], kind)
                except InvalidParameter as exc:
                    assert str(errors.pop(row)) == str(alone.pop(0)) == (
                        str(exc))
                assert alone == {}
        assert errors == {}
        for kind in ObjectiveKind:
            with pytest.raises(InvalidParameter,
                               match="^gain contains non-finite entries$"):
                evaluate_objective(problem, gains[3], kind)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                InvalidParameter, match="^matrix contains non-finite entries$"):
            evaluate_objective(problem, gains[6], LOGDET)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(1, 1), (2, 5), (5, 2), (4, 3), (8, 8)]),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([np.inf, -np.inf, np.nan]),
           st.sampled_from([0.0, 1e-3, 1.0, 1e3]), st.data())
    def test_non_finite_gain_entry_reaches_posterior_diagonal(
            self, shape, seed, bad, scale, data):
        # _evaluate checks the gains only when a posterior is not finite,
        # so every non-finite gain must make its row's posterior so, in a
        # stack with a per-row E = [I, 0] and alone with a broadcast one
        n, m = shape
        problem = make_problem(n, m, seed, 10.0)
        batch = _stacked(problem, [TRACE] * 3)
        gains = scale * np.random.default_rng(seed).standard_normal((3, n, m))
        gains[1, data.draw(st.integers(0, n - 1)),
              data.draw(st.integers(0, m - 1))] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            stacked = _joseph_form(batch, gains, batch.select)
            alone = _joseph_form(problem, gains[1], np.eye(n, n + m))
        assert not np.isfinite(stacked[1].diagonal()).all()
        assert not np.isfinite(alone.diagonal()).all()
        assert np.isfinite(stacked[[0, 2]]).all()

    def test_rejects_posterior_that_is_not_spd(self):
        # 1e18 + 1.01 rounds to 1e18, so the posterior's Schur complement
        # cancels to zero although it is SPD in exact arithmetic
        problem = FilterProblem(prior=np.eye(2), obs_op=[[1.0, 0.0]],
                                obs_noise=[[1e-20]])
        gain = np.array([[0.0], [1e9]])
        kinds = [ENTROPY, TRACE, LOGDET]
        batch = _stacked(problem, kinds)
        with np.errstate(invalid="ignore"):
            _, _, errors = batch.evaluate(np.stack([gain] * len(kinds)))
        for row, kind in enumerate(kinds):
            if kind is TRACE:
                # the total variance never factorizes
                assert row not in errors
                continue
            assert isinstance(errors[row], NotPositiveDefinite)
            with pytest.raises(NotPositiveDefinite) as raised:
                evaluate_objective(problem, gain, kind)
            assert str(errors[row]) == str(raised.value)

    def test_gradients_pass_over_a_singular_posterior(self):
        # at the gain (0, 2^30) the posterior rounds to
        # [[1, -2^30], [-2^30, 2^60]], which is exactly singular: the row
        # fails its Cholesky check, which its singular solve does not
        # override, and the other rows' gradients are the public ones
        singular = FilterProblem(prior=np.eye(2), obs_op=[[1.0, 0.0]],
                                 obs_noise=[[1e-20]])
        problems = [make_problem(2, 1, 170 + i, 10.0) for i in range(4)]
        problems.insert(2, singular)
        kinds = [LOGDET, TRACE, ENTROPY, ENTROPY, LOGDET]
        gains = np.stack([seeded_gain(problem, row, master_seed=173)
                          for row, problem in enumerate(problems)])
        gains[2] = [[0.0], [2.0 ** 30]]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(joseph_update(singular, gains[2]), np.eye(2))
        batch = _Batch.stack(problems, kinds)
        with np.errstate(invalid="ignore"):
            _, grads, errors = batch.evaluate(gains)
        assert list(errors) == [2]
        assert isinstance(errors[2], NotPositiveDefinite)
        with pytest.raises(NotPositiveDefinite) as raised:
            evaluate_objective(singular, gains[2], ENTROPY)
        assert str(errors[2]) == str(raised.value)
        for row, (problem, kind) in enumerate(zip(problems, kinds)):
            if row != 2:
                np.testing.assert_array_equal(
                    grads[row], objective_gradient(problem, gains[row], kind))


class TestMinimizeBatch:
    def test_mixed_kinds_match_runs_alone(self):
        problems = [make_problem(4, 3, 300 + i, 10.0 ** (i % 3)) for i in range(5)]
        kinds = [list(ObjectiveKind)[(2 * i + 1) % 3] for i in range(5)]
        problems += problems[:3]
        kinds += [LOGDET, TRACE, ENTROPY]
        for batched, problem, kind in zip(minimize_batch(problems, kinds),
                                          problems, kinds):
            _assert_same_report(batched, minimize_objective(problem, kind))

    def test_equivalence_batch_matches_single_problems(self, monkeypatch):
        for n, m in ((3, 2), (1, 1), (4, 3), (8, 8)):
            problems = [make_problem(n, m, 700 + i, 10.0) for i in range(4)]
            for batched, problem in zip(equivalence_batch(problems), problems):
                alone = cross_objective_equivalence(problem)
                np.testing.assert_array_equal(batched.analytic, alone.analytic)
                assert batched.distance_to_analytic == alone.distance_to_analytic
                assert batched.pairwise_distance == alone.pairwise_distance
                for kind in ObjectiveKind:
                    _assert_same_report(batched.reports[kind],
                                        alone.reports[kind])
                _assert_public_evidence(batched, problem)
        # a chunk of trials stacks its rows once, for the runs and for the
        # evidence at the analytic gains: each problem once, repeated for
        # the three kinds
        stack = _Batch.stack
        calls = []
        def counted(problems, kinds, repeats=1):
            batch = stack(problems, kinds, repeats)
            calls.append((len(problems), repeats, len(batch.cross)))
            return batch
        monkeypatch.setattr(_Batch, "stack", staticmethod(counted))
        experiment._run_chunk(ExperimentConfig(trials=5), range(5))
        assert calls == [(5, 3, 15)]

    def test_failing_row_leaves_others_unchanged(self):
        # a 1e300 prior makes the trace gradient norm overflow, so no step
        # can pass the Armijo test
        clean = make_problem(4, 3, 5, 10.0)
        poisoned = FilterProblem(prior=1e300 * clean.prior, obs_op=clean.obs_op,
                                 obs_noise=clean.obs_noise)
        problems = [clean, poisoned, make_problem(4, 3, 6, 10.0)]
        kinds = [LOGDET, TRACE, TRACE]
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = minimize_batch(problems, kinds)
            with pytest.raises(LineSearchFailed) as raised:
                minimize_objective(poisoned, TRACE)
        assert isinstance(outcomes[1], LineSearchFailed)
        assert str(outcomes[1]) == str(raised.value)
        assert str(outcomes[1]).startswith(
            "no acceptable step above 1e-16 at iteration 0")
        for i in (0, 2):
            _assert_same_report(outcomes[i], minimize_objective(problems[i],
                                                                kinds[i]))

    def test_row_rejected_as_not_spd_leaves_others_unchanged(self,
                                                             monkeypatch):
        # rounds 1 to 6 reject every trial step of row 0, the first row
        # that factorizes, as not SPD, while the other rows move on
        problems = [make_problem(4, 3, 180 + i, 10.0) for i in range(4)]
        kinds = [LOGDET, TRACE, ENTROPY, LOGDET]
        alone = [minimize_objective(p, k) for p, k in zip(problems, kinds)]
        calls = {"values": 0, "moved": 0}
        factorize = matrix_core._cholesky_factors
        def poisoned(a):
            factors, failures = factorize(a)
            calls["values"] += 1
            if 2 <= calls["values"] <= 7:
                failures = {**failures, 0: NotPositiveDefinite("poisoned")}
            return factors, failures
        evaluate = _Batch.evaluate
        def counted(batch, gains):
            result = evaluate(batch, gains)
            calls["moved"] += 2 <= calls["values"] <= 7
            return result
        monkeypatch.setattr(matrix_core, "_cholesky_factors", poisoned)
        monkeypatch.setattr(_Batch, "evaluate", counted)
        outcomes = minimize_batch(problems, kinds)
        assert calls["moved"] == 6
        assert outcomes[0].converged
        for batched, solo in zip(outcomes[1:], alone[1:]):
            _assert_same_report(batched, solo)

    def test_final_objective_is_the_value_at_the_final_gain(self):
        # no report byte carries final_objective, so check it against the
        # public evaluator, on rows that converged and rows that stopped at
        # max_iters: at cond 1e4, 50 iterations are enough for some rows of
        # every shape but 1x1, and not for others
        config = OptimizerConfig(max_iters=50)
        stops = set()
        for shape in ((4, 3), (8, 8), (1, 1), (2, 5)):
            problems = [make_problem(*shape, 190 + i, 1e4) for i in range(4)]
            rows = [(problem, kind) for problem in problems
                    for kind in ObjectiveKind]
            outcomes = minimize_batch([problem for problem, _ in rows],
                                      [kind for _, kind in rows], config)
            for (problem, kind), report in zip(rows, outcomes):
                assert report.final_objective == evaluate_objective(
                    problem, report.final_gain, kind)
                assert report.converged or report.iterations == 50
                stops.add(report.converged)
        assert stops == {True, False}

    def test_start_that_is_not_spd_fails_alone(self, monkeypatch):
        # the stacked factorization breaks down on one row only
        problems = [make_problem(2, 1, 40 + i, 10.0) for i in range(3)]
        problems[1] = FilterProblem(prior=np.eye(2), obs_op=[[1.0, 0.0]],
                                    obs_noise=[[1e-20]])
        kinds = [LOGDET, ENTROPY, TRACE, LOGDET]
        problems.append(problems[0])
        expected = [minimize_objective(p, k) for p, k in zip(problems, kinds)
                    if p is not problems[1]]
        def start(prior, gain):
            if np.array_equal(prior, problems[1].prior):
                gain[:] = [[0.0], [1e9]]
        starting_from(monkeypatch, start)
        outcomes = minimize_batch(problems, kinds)
        assert isinstance(outcomes[1], NotPositiveDefinite)
        with pytest.raises(NotPositiveDefinite) as raised:
            minimize_objective(problems[1], ENTROPY)
        assert str(outcomes[1]) == str(raised.value)
        for batched, alone in zip(outcomes[:1] + outcomes[2:], expected):
            _assert_same_report(batched, alone)

    def test_non_finite_start_fails_alone(self, monkeypatch):
        problems = [make_problem(3, 3, 60 + i, 10.0) for i in range(3)]
        kinds = [TRACE, LOGDET, ENTROPY]
        expected = [minimize_objective(p, k) for p, k in zip(problems, kinds)]
        def start(prior, gain):
            if np.array_equal(prior, problems[2].prior):
                gain[0, 0] = np.nan
        starting_from(monkeypatch, start)
        outcomes = minimize_batch(problems, kinds)
        assert isinstance(outcomes[2], InvalidParameter)
        assert str(outcomes[2]) == "gain contains non-finite entries"
        for batched, alone in zip(outcomes[:2], expected[:2]):
            _assert_same_report(batched, alone)

    def test_rejects_mixed_shapes(self):
        problems = [make_problem(2, 1, 1), make_problem(1, 2, 1)]
        with pytest.raises(DimensionMismatch):
            minimize_batch(problems, [TRACE, TRACE])
        with pytest.raises(DimensionMismatch):
            equivalence_batch(problems)

    def test_empty_batch(self):
        assert minimize_batch([], []) == []


def _assert_public_evidence(equivalence, problem):
    """The evidence at the analytic gain is the public functions', bit for bit."""
    gain = analytic_gain(problem)
    for kind in ObjectiveKind:
        assert equivalence.objective_at_analytic[kind] == evaluate_objective(
            problem, gain, kind)
    assert equivalence.stationarity_residual == stationarity_residual(problem,
                                                                      gain)


def reference_minimization(problem, kind, config):
    """The rule of ``minimize_objective``'s docstring, one problem at a time.

    Every value and gradient comes from the public ``evaluate_objective``
    and ``objective_gradient``, and the rule's arithmetic is written out on
    one ``(n·m, n·m)`` inverse Hessian, in the lockstep round's order of
    operations, so this pins the round's arithmetic without sharing any of
    its code: the move ``t H g`` and the slope ``<g, t H g>``, after every
    trial the Gram product of ``s``, ``y`` and the new gradient (``s`` and
    ``y`` zero for a rejected trial), whose square roots give the curvature
    test and the gradient norm, and the BFGS update ``V C V.T`` with
    ``V = [s, H y]`` and ``y.T H y`` one product. Returns the report's four
    fields, or the error the minimization ends with.
    """
    size = problem.state_dim * problem.obs_dim
    corner = np.array([[1.0, 0.0], [0.0, 0.0]])
    exchange = np.array([[0.0, 1.0], [1.0, 0.0]])
    gain = np.zeros((problem.state_dim, problem.obs_dim))
    window = [evaluate_objective(problem, gain, kind)] + [-np.inf] * 9
    grad = objective_gradient(problem, gain, kind)
    gnorm = np.sqrt(float((grad * grad).sum()))
    step = 1.0 / max(gnorm, 1e-16)
    inverse, paired = np.eye(size), False
    iterations = 0
    while not (gnorm <= config.grad_tol or iterations >= config.max_iters):
        if not step >= 1e-16:
            return LineSearchFailed(
                f"no acceptable step above 1e-16 at iteration {iterations} "
                f"(gradient norm {gnorm:.3e})")
        flat = grad.reshape(-1)
        move = step * (inverse @ flat[:, None])[:, 0]
        slope = flat @ move
        trial = gain - move.reshape(gain.shape)
        reference = max(window)
        try:
            value = evaluate_objective(problem, trial, kind)
            accepted = value <= (reference - 1e-4 * slope
                                 + 8.0 * EPS * (1.0 + abs(reference)))
            if accepted:
                trial_grad = objective_gradient(problem, trial, kind)
        except InvalidParameter as exc:
            return exc
        except NotPositiveDefinite:
            accepted = False
        if not accepted:
            trial, trial_grad = gain, grad
        pairs = np.stack([(trial - gain).reshape(-1),
                          (trial_grad - grad).reshape(-1),
                          trial_grad.reshape(-1)])
        gram = pairs @ pairs.T
        sy, yy = gram[0, 1], gram[1, 1]
        norms = np.sqrt(gram.diagonal())
        if sy > 1e-10 * norms[0] * norms[1]:
            if not paired:
                inverse, paired = (sy / yy) * np.eye(size), True
            s, y = pairs[0, :, None], pairs[1, :, None]
            hy = inverse @ y
            r = 1.0 / sy
            c = r * (corner * (1.0 + r * (y.T @ hy)) - exchange)
            v = np.concatenate((s, hy), axis=1)
            inverse = inverse + (v @ c) @ v.T
        gnorm = norms[2]
        if not accepted:
            step *= 0.5
            continue
        gain, grad = trial, trial_grad
        step = 1.0 if paired else 1.0 / max(gnorm, 1e-16)
        iterations += 1
        window[iterations % 10] = value
    return (gain.tobytes(), window[iterations % 10], iterations,
            bool(gnorm <= config.grad_tol))


def _assert_batch_equals_reference(problems, config):
    """Every problem under every kind, as one batch, against the loop."""
    rows = [(problem, kind) for problem in problems for kind in ObjectiveKind]
    outcomes = minimize_batch([problem for problem, _ in rows],
                              [kind for _, kind in rows], config)
    for (problem, kind), outcome in zip(rows, outcomes):
        expected = reference_minimization(problem, kind, config)
        if isinstance(expected, Exception):
            assert type(outcome) is type(expected)
            assert str(outcome) == str(expected)
            continue
        assert (outcome.final_gain.tobytes(), outcome.final_objective,
                outcome.iterations, outcome.converged) == expected


class TestReferenceLoop:
    @pytest.mark.parametrize("shape, cond", [
        ((4, 3), 10.0), ((4, 3), 1e4), ((2, 5), 1e4), ((1, 1), 10.0),
        ((8, 8), 100.0), ((4, 3), 1e6)])
    def test_batch_equals_one_row_loop_of_public_functions(self, shape,
                                                           cond):
        # at max_iters 1 and 2, the cap, which the lockstep first tests
        # after max_iters rounds, stops the rows that accepted every round
        problems = [make_problem(*shape, seed, cond) for seed in range(4)]
        for max_iters in (1, 2, 300):
            _assert_batch_equals_reference(problems,
                                           OptimizerConfig(max_iters=max_iters))

    def test_large_batch_equals_one_row_loop(self, monkeypatch):
        # 60 rows, whose rounds store pairs on part of a stack of at least
        # 50 rows, which the update then takes whole
        update, partial = optimizer._bfgs_update, []
        def spy(inverses, paired, rows, *args):
            if len(rows) >= 50 and not rows.all():
                partial.append(len(rows))
            return update(inverses, paired, rows, *args)
        monkeypatch.setattr(optimizer, "_bfgs_update", spy)
        _assert_batch_equals_reference(
            [make_problem(4, 3, seed, 10.0) for seed in range(20)],
            OptimizerConfig(max_iters=300))
        assert partial


def _run_with_trial(monkeypatch, problems, kinds, edit=None,
                    singular=False):
    """minimize_batch with the second round's trial evaluation, in which
    every row still works, edited: if ``singular``, the posterior of row 0,
    which factorizes, is zero to its gradient's solve, and then
    ``edit(values, errors)`` is applied to the evaluation's results."""
    evaluate, solves = _Batch.evaluate, matrix_core._solves
    calls = []
    def zeroed(posteriors, grads):
        posteriors = posteriors.copy()
        posteriors[0] = 0.0
        return solves(posteriors, grads)
    def edited(batch, gains):
        calls.append(len(gains))
        if len(calls) != 3:
            return evaluate(batch, gains)
        assert calls == [len(problems)] * 3
        if singular:
            monkeypatch.setattr(matrix_core, "_solves", zeroed)
        values, grads, errors = evaluate(batch, gains)
        monkeypatch.setattr(matrix_core, "_solves", solves)
        if edit:
            edit(values, errors)
        return values, grads, errors
    monkeypatch.setattr(_Batch, "evaluate", edited)
    outcomes = minimize_batch(problems, kinds)
    monkeypatch.undo()
    return outcomes


class TestSingularInnovation:
    def test_equivalence_batch_fails_that_problem_alone(self):
        # one iteration, so that every minimization ends with a report and
        # the singular row fails at its analytic gain
        problems = singular_innovation_stack()
        config = OptimizerConfig(max_iters=1)
        outcomes = equivalence_batch(problems, config)
        assert isinstance(outcomes[2], NotPositiveDefinite)
        assert str(outcomes[2]) == (
            "matrix is not positive definite: Singular matrix")
        with pytest.raises(NotPositiveDefinite):
            cross_objective_equivalence(problems[2], config)
        for row in (0, 1, 3):
            alone = cross_objective_equivalence(problems[row], config)
            assert outcomes[row].analytic.tobytes() == alone.analytic.tobytes()
            assert outcomes[row].distance_to_analytic == (
                alone.distance_to_analytic)
            for kind, report in alone.reports.items():
                assert outcomes[row].reports[kind].final_gain.tobytes() == (
                    report.final_gain.tobytes())
            _assert_public_evidence(outcomes[row], problems[row])


class TestSingularPosterior:
    """A posterior that passes its Cholesky check but is singular to the
    log-det gradient's LU solve never ends a minimization in a traceback."""

    def test_public_gradients_raise_not_positive_definite(self, monkeypatch):
        # at cond 1e18 the log-det's trial steps meet such posteriors,
        # thirteen in its first 20 iterations, and it rejects each
        problem = make_problem(4, 3, mix_seed(272, 0), 1e18)
        evaluate = _Batch.evaluate
        singular = []
        def recorded(batch, gains):
            values, grads, errors = evaluate(batch, gains)
            singular.extend(gains[row].copy() for row, exc in errors.items()
                            if str(exc).endswith("Singular matrix"))
            return values, grads, errors
        monkeypatch.setattr(_Batch, "evaluate", recorded)
        report = minimize_objective(problem, LOGDET,
                                    OptimizerConfig(max_iters=20))
        assert report.iterations == 20
        assert len(singular) == 13
        for gain in singular:
            matrix_core.cholesky(joseph_update(problem, gain))
            for call in (lambda: objective_gradient(problem, gain, ENTROPY),
                         lambda: directional_logdet_differential(
                             problem, gain, gain)):
                with pytest.raises(NotPositiveDefinite,
                                   match="Singular matrix"):
                    call()

    def test_gradients_fail_the_singular_row_alone(self, monkeypatch):
        problems = [make_problem(3, 2, 200 + i, 10.0) for i in range(4)]
        kinds = [LOGDET, ENTROPY, TRACE, LOGDET]
        batch = _Batch.stack(problems, kinds)
        gains = np.stack([seeded_gain(p, i) for i, p in enumerate(problems)])
        _, expected, failures = batch.evaluate(gains)
        assert failures == {}
        solves = matrix_core._solves
        def singular(posteriors, grads):
            # row 1 is the solve's row 1, as only row 2 does not factorize
            posteriors = posteriors.copy()
            posteriors[1] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            return solves(posteriors, grads)
        monkeypatch.setattr(matrix_core, "_solves", singular)
        with np.errstate(invalid="ignore"):
            _, grads, failures = batch.evaluate(gains)
        assert list(failures) == [1]
        assert isinstance(failures[1], NotPositiveDefinite)
        for row in (0, 2, 3):
            assert grads[row].tobytes() == expected[row].tobytes()

    def test_accepted_step_is_rejected_like_a_failed_factorization(
            self, monkeypatch):
        problems = [make_problem(4, 3, 210 + i, 10.0) for i in range(4)]
        kinds = [LOGDET, TRACE, ENTROPY, LOGDET]
        plain = _run_with_trial(monkeypatch, problems, kinds)
        def not_spd(values, errors):
            errors[0] = NotPositiveDefinite("poisoned")
        solved = _run_with_trial(monkeypatch, problems, kinds, singular=True)
        factored = _run_with_trial(monkeypatch, problems, kinds, not_spd)
        assert solved[0].iterations != plain[0].iterations
        for a, b in zip(solved, factored):
            _assert_same_report(a, b)
        for a, b in zip(solved[1:], plain[1:]):
            _assert_same_report(a, b)

    def test_rejected_rows_discarded_trial_never_fails_it(self, monkeypatch):
        problems = [make_problem(4, 3, 220 + i, 10.0) for i in range(3)]
        kinds = [LOGDET, TRACE, ENTROPY]
        def rejected(values, errors):
            values[0] = np.inf
        for a, b in zip(
                _run_with_trial(monkeypatch, problems, kinds, rejected),
                _run_with_trial(monkeypatch, problems, kinds, rejected,
                                singular=True)):
            _assert_same_report(a, b)


class TestTraceGradient:
    def test_matches_finite_differences(self):
        # shares its root with the log-det gradient but lacks the inverse
        # prefactor, so it needs its own numerical check
        for trial in range(50):
            problem = seeded_problem(trial, master_seed=113, max_dim=6)
            gain = seeded_gain(problem, trial, master_seed=127)
            exact = trace_gradient(problem, gain)
            numeric = finite_difference_gradient(problem, gain, TRACE)
            assert np.linalg.norm(exact - numeric) <= 1e-5 * (
                1.0 + np.linalg.norm(exact))

    def test_zero_at_analytic_gain(self):
        problem = seeded_problem(8, master_seed=131)
        grad = trace_gradient(problem, analytic_gain(problem))
        scale = 1.0 + np.linalg.norm(problem.prior @ problem.obs_op.T)
        assert np.linalg.norm(grad) <= 1e-10 * scale


class TestStationarityResidual:
    def test_tiny_at_analytic_gain(self):
        for trial in range(100):
            problem = seeded_problem(trial, master_seed=137)
            residual = stationarity_residual(problem, analytic_gain(problem))
            scale = 1.0 + np.linalg.norm(problem.prior @ problem.obs_op.T)
            assert residual <= 1e-10 * scale

    def test_half_the_trace_gradient_norm(self):
        # both are the bracket K S - P H^T, once and twice
        for trial in range(50):
            problem = seeded_problem(trial, master_seed=139)
            for gain in (analytic_gain(problem),
                         seeded_gain(problem, trial, master_seed=141)):
                assert stationarity_residual(problem, gain) == (
                    0.5 * matrix_core.frobenius_norm(trace_gradient(problem,
                                                                    gain)))

    def test_scalar_hand_values(self, scalar_problem):
        # |K (H P H^T + R) - P H^T| = |2K - 1|
        assert stationarity_residual(scalar_problem, [[0.0]]) == pytest.approx(1.0)
        assert stationarity_residual(scalar_problem, [[1.0]]) == pytest.approx(1.0)


class TestCrossObjectiveEquivalence:
    def test_scalar_all_half(self, scalar_problem):
        equivalence = cross_objective_equivalence(scalar_problem)
        for report in equivalence.reports.values():
            assert abs(report.final_gain[0, 0] - 0.5) <= 1e-6
        assert equivalence.max_distance_to_analytic <= 1e-6

    def test_well_conditioned_distances(self):
        problem = make_problem(4, 3, 800, 10.0)
        equivalence = cross_objective_equivalence(problem)
        assert equivalence.max_distance_to_analytic <= 1e-5
        assert all(d <= 1e-5 for d in equivalence.pairwise_distance.values())

    def test_entropy_and_logdet_agree_closely(self):
        # affinely related objectives follow essentially the same descent path
        for trial in range(10):
            problem = make_problem(3 + trial % 3, 2 + trial % 2, 900 + trial, 10.0)
            equivalence = cross_objective_equivalence(problem)
            assert equivalence.pairwise_distance[(LOGDET, ENTROPY)] <= 1e-9


class TestHardProblems:
    """Problems on which the Barzilai-Borwein step that BFGS replaced fell
    short."""

    def test_cond_10_problem_passes_at_the_default_config(self):
        # trial 3 of batch 147 of the default_4x3 benchmark at seed 1;
        # Barzilai-Borwein stopped the log-det and entropy at max_iters
        # 5000, 0.313 from the analytic gain
        problem = make_problem(4, 3, 11344339322003725509, 10.0)
        equivalence, = equivalence_batch([problem], OptimizerConfig())
        assert all(report.converged
                   for report in equivalence.reports.values())
        assert all(distance <= experiment.DISTANCE_THRESHOLD
                   for distance in equivalence.distance_to_analytic.values())

    def test_logdet_and_entropy_minimizers_meet_at_tight_tolerance(self):
        # trial 20 of the acceptance suite (SUITE_SEED 5); criterion 3's
        # bound, which Barzilai-Borwein missed at max_iters 5000, 5.6e-7
        # apart
        problem = make_problem(8, 7, 2118876895552091609, 100.0)
        equivalence, = equivalence_batch([problem],
                                         OptimizerConfig(grad_tol=1e-10))
        assert all(report.converged
                   for report in equivalence.reports.values())
        assert equivalence.pairwise_distance[(LOGDET, ENTROPY)] <= 1e-8


class TestConditioningSweep:
    """Every trial of every shape and condition target the sweep covers
    reaches the analytic gain, and every minimization stops at grad_tol."""

    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (5, 2), (4, 3), (8, 8)])
    def test_every_trial_passes_and_converges(self, shape, cond):
        result = experiment.run_experiment(ExperimentConfig(
            state_dim=shape[0], obs_dim=shape[1], trials=8, cond_target=cond))
        for record in result.trials:
            assert not record.failed
            assert record.passed()
            assert all(record.converged.values())


def _textbook_bfgs(inverse, s, y):
    """``(I - r s y.T) H (I - r y s.T) + r s s.T``, with ``r = 1 / s.T y``."""
    r = 1.0 / (s @ y)
    left = np.eye(len(s)) - r * np.outer(s, y)
    return left @ inverse @ left.T + r * np.outer(s, s)


class TestBfgsUpdate:
    def test_rank_two_form_equals_the_textbook_update(self):
        # rows 2 and 4 store no pair and keep their bytes; rows 0 and 3
        # store their first, which first scales the identity by sy / yy
        rng = np.random.default_rng(61)
        size, rows = 12, 6
        inverses = np.stack([matrix_core.random_spd(size, seed, 100.0)
                             for seed in range(rows)])
        inverses[[0, 3]] = np.eye(size)
        s = rng.standard_normal((rows, size))
        y = s + 0.1 * rng.standard_normal((rows, size))
        sy, yy = (s * y).sum(axis=-1), (y * y).sum(axis=-1)
        assert (sy > 0).all()
        selected = np.array([True, True, False, True, False, True])
        paired = np.array([False, True, True, False, False, True])
        updated = inverses.copy()
        optimizer._bfgs_update(updated, paired, selected, np.stack((s, y), 1),
                               sy, yy)
        assert paired.tolist() == [True, True, True, True, False, True]
        for row in range(rows):
            if not selected[row]:
                assert updated[row].tobytes() == inverses[row].tobytes()
                continue
            start = (sy[row] / yy[row] * np.eye(size) if row in (0, 3)
                     else inverses[row])
            expected = _textbook_bfgs(start, s[row], y[row])
            assert np.linalg.norm(updated[row] - expected) <= 1e-15 * (
                np.linalg.norm(expected))
            # the secant equation H+ y = s
            np.testing.assert_allclose(updated[row] @ y[row], s[row],
                                       rtol=1e-12, atol=1e-12)

    def test_partial_mask_is_the_gathered_update_bit_for_bit(self):
        # rows 1 and 4 were rejected (s = y = 0, so sy = 0) and rows 2 and 5
        # accepted a pair that is not curved; the whole-stack update must
        # divide by no zero, keep those rows' bytes, and give the others
        # the update of the selected rows gathered, with row 3's first pair
        rng = np.random.default_rng(67)
        size, count = 12, 8
        inverses = np.stack([matrix_core.random_spd(size, seed, 100.0)
                             for seed in range(count)])
        inverses[3] = np.eye(size)
        s = rng.standard_normal((count, size))
        y = s + 0.1 * rng.standard_normal((count, size))
        s[[1, 4]], y[[1, 4]] = 0.0, 0.0
        # row 5's <s, y> is positive but below the margin
        y[2], y[5] = -y[2], y[5] - (s[5] @ y[5]) / (s[5] @ s[5]) * s[5]
        y[5] += 1e-12 * s[5]
        sy = np.add.reduce(s * y, axis=-1)
        yy = np.add.reduce(y * y, axis=-1)
        selected = sy > (1e-10 * np.sqrt(np.add.reduce(s * s, axis=-1))
                         * np.sqrt(yy))
        assert selected.tolist() == [True, False, False, True, False, False,
                                     True, True]
        paired = np.array([True, False, True, False, False, True, True, True])
        updated = inverses.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                optimizer._bfgs_update(updated, paired, selected,
                                       np.stack((s, y), 1), sy, yy)
        assert paired.tolist() == [True, False, True, True, False, True,
                                   True, True]
        expected = inverses.copy()
        expected[3] = sy[3] / yy[3] * np.eye(size)
        rows = np.flatnonzero(selected)
        s, y, sy = s[rows, :, None], y[rows, :, None], sy[rows]
        hy = np.matmul(expected[rows], y)
        r = (1.0 / sy)[:, None, None]
        c = r * (np.array([[1.0, 0.0], [0.0, 0.0]])
                 * (1.0 + r * np.matmul(y.swapaxes(-1, -2), hy))
                 - np.array([[0.0, 1.0], [1.0, 0.0]]))
        v = np.concatenate((s, hy), -1)
        expected[rows] += np.matmul(np.matmul(v, c), v.swapaxes(-1, -2))
        for row in range(count):
            assert updated[row].tobytes() == expected[row].tobytes()
            if not selected[row]:
                assert updated[row].tobytes() == inverses[row].tobytes()
