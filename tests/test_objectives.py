"""Tests for the dispersion objectives, differentials, and gradients."""

import math

import numpy as np
import pytest

import gainlab
from gainlab import matrix_core, objectives
from gainlab.exceptions import (GainlabError, InvalidParameter,
                                NotPositiveDefinite)
from gainlab.kalman_update import FilterProblem, analytic_gain, joseph_update
from gainlab.objectives import (ObjectiveKind, analysis_cov_differential,
                                differential_entropy,
                                directional_logdet_differential,
                                evaluate_objective, finite_difference_gradient,
                                log_generalized_variance, logdet_gradient,
                                objective_gradient, total_variance)

from conftest import seeded_gain, seeded_problem

LOGDET = ObjectiveKind.LOG_GENERALIZED_VARIANCE
ENTROPY = ObjectiveKind.DIFFERENTIAL_ENTROPY
TRACE = ObjectiveKind.TOTAL_VARIANCE


def sequential_finite_difference_gradient(problem, gain, kind):
    """The oracle as one public evaluation per perturbed gain.

    The reference the stacked oracle must equal bit for bit: same steps,
    same order (entry-major, upward step first), same errors.
    """
    k = problem.check_gain(gain)
    grad = np.zeros_like(k)
    for i in range(k.shape[0]):
        for j in range(k.shape[1]):
            step = 1e-6 * (1.0 + abs(k[i, j]))
            bumped = k.copy()
            bumped[i, j] = k[i, j] + step
            plus = evaluate_objective(problem, bumped, kind)
            bumped[i, j] = k[i, j] - step
            minus = evaluate_objective(problem, bumped, kind)
            grad[i, j] = (plus - minus) / (2.0 * step)
    return grad


def sequential_finite_differences(batch, gains):
    """The stacked oracle as one sequential oracle call per row and kind.

    Returns the gradients, row ``i * 3 + j`` for batch row ``i`` under
    ``ObjectiveKind``'s ``j``-th kind, and a map from each failing one of
    those rows to its error, as ``objectives._finite_differences`` does.
    """
    kinds = tuple(ObjectiveKind)
    grads = np.empty((len(gains) * len(kinds),) + gains.shape[1:])
    errors = {}
    for row, gain in enumerate(gains):
        problem = FilterProblem(prior=batch.prior[row], obs_op=batch.obs_op[row],
                                obs_noise=batch.obs_noise[row])
        for j, kind in enumerate(kinds):
            try:
                grads[row * len(kinds) + j] = (
                    sequential_finite_difference_gradient(problem, gain, kind))
            except GainlabError as exc:
                errors[row * len(kinds) + j] = exc
    return grads, errors


class TestScalarObjectives:
    def test_total_variance_scalar(self, scalar_problem):
        assert total_variance(scalar_problem, [[0.5]]) == pytest.approx(0.5)

    def test_total_variance_zero_gain(self):
        problem = seeded_problem(2)
        zero = np.zeros((problem.state_dim, problem.obs_dim))
        assert total_variance(problem, zero) == pytest.approx(
            matrix_core.trace(problem.prior), rel=1e-14)

    def test_total_variance_two_coordinates(self):
        problem = FilterProblem(prior=np.eye(2), obs_op=np.eye(2),
                                obs_noise=np.eye(2))
        # two independent copies of the scalar case at K = 0.5
        assert total_variance(problem, 0.5 * np.eye(2)) == pytest.approx(1.0)

    def test_log_generalized_variance_scalar(self, scalar_problem):
        assert log_generalized_variance(scalar_problem, [[0.5]]) == pytest.approx(
            math.log(0.5), rel=1e-12)

    def test_log_generalized_variance_zero_gain(self):
        problem = seeded_problem(3)
        zero = np.zeros((problem.state_dim, problem.obs_dim))
        assert log_generalized_variance(problem, zero) == pytest.approx(
            matrix_core.log_det(problem.prior), rel=1e-12)

    def test_log_generalized_variance_product_case(self):
        problem = FilterProblem(prior=np.eye(2), obs_op=np.eye(2),
                                obs_noise=np.eye(2))
        assert log_generalized_variance(problem, 0.5 * np.eye(2)) == pytest.approx(
            2.0 * math.log(0.5), rel=1e-12)


class TestDifferentialEntropy:
    def test_unit_scalar_value(self, scalar_problem):
        # N = 1 and unit posterior determinant leave only the constant term
        expected = 0.5 * math.log(2.0 * math.pi * math.e)
        assert differential_entropy(scalar_problem, [[0.0]]) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(1.418939, abs=5e-7)

    def test_two_dimensional_identity(self):
        problem = FilterProblem(prior=np.eye(2), obs_op=np.eye(2),
                                obs_noise=np.eye(2))
        zero = np.zeros((2, 2))
        expected = math.log(2.0 * math.pi * math.e)
        assert differential_entropy(problem, zero) == pytest.approx(expected,
                                                                    rel=1e-12)
        assert expected == pytest.approx(2.837877, abs=5e-7)

    def test_difference_is_half_logdet_difference(self):
        # the constant term cancels exactly in differences
        for trial in range(100):
            problem = seeded_problem(trial, master_seed=31)
            g1 = seeded_gain(problem, 2 * trial, master_seed=33)
            g2 = seeded_gain(problem, 2 * trial + 1, master_seed=33)
            entropy_delta = (differential_entropy(problem, g1)
                             - differential_entropy(problem, g2))
            logdet_delta = (log_generalized_variance(problem, g1)
                            - log_generalized_variance(problem, g2))
            assert entropy_delta == pytest.approx(0.5 * logdet_delta, abs=1e-12)


class TestCovarianceDifferential:
    def test_zero_direction_is_zero(self):
        problem = seeded_problem(5)
        gain = seeded_gain(problem, 5)
        zero = np.zeros_like(gain)
        np.testing.assert_array_equal(
            analysis_cov_differential(problem, gain, zero), zero @ zero.T)

    def test_scalar_at_zero_gain(self, scalar_problem):
        # term-by-term: -1 - 1 + 0 + 0 + 0 + 0 = -2
        np.testing.assert_allclose(
            analysis_cov_differential(scalar_problem, [[0.0]], [[1.0]]), [[-2.0]])

    def test_scalar_at_half_gain(self, scalar_problem):
        # -1 - 1 + 0.5 + 0.5 + 0.5 + 0.5 = 0
        np.testing.assert_allclose(
            analysis_cov_differential(scalar_problem, [[0.5]], [[1.0]]), [[0.0]],
            rtol=0, atol=1e-15)

    def test_matches_central_difference_of_update(self):
        # oracle: [joseph(k + h dk) - joseph(k - h dk)] / (2h)
        h = 1e-6
        for trial in range(25):
            problem = seeded_problem(trial, master_seed=41)
            gain = seeded_gain(problem, trial, master_seed=43)
            direction = seeded_gain(problem, trial + 1000, scale=1.0,
                                    master_seed=43) - analytic_gain(problem)
            numeric = (joseph_update(problem, gain + h * direction)
                       - joseph_update(problem, gain - h * direction)) / (2 * h)
            exact = analysis_cov_differential(problem, gain, direction)
            scale = max(1.0, np.linalg.norm(exact))
            assert np.linalg.norm(numeric - exact) / scale <= 1e-7

    def test_matches_six_term_expansion(self):
        # the expansion the bracket form dK M.T + M dK.T replaced
        for trial in range(50):
            problem = seeded_problem(trial, master_seed=191)
            k = seeded_gain(problem, trial, scale=1.0, master_seed=193)
            dk = seeded_gain(problem, trial + 700, master_seed=193) - k
            p, h, r = problem.prior, problem.obs_op, problem.obs_noise
            ph_t = p @ h.T
            khph_t = k @ h @ ph_t
            kr = k @ r
            expected = (-ph_t @ dk.T - dk @ ph_t.T
                        + dk @ khph_t.T + khph_t @ dk.T
                        + dk @ kr.T + kr @ dk.T)
            actual = analysis_cov_differential(problem, k, dk)
            assert np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(
                expected)

    def test_linear_in_direction(self):
        for trial in range(25):
            problem = seeded_problem(trial, master_seed=47)
            gain = seeded_gain(problem, trial, master_seed=49)
            d1 = seeded_gain(problem, trial + 500, master_seed=49) - gain
            d2 = seeded_gain(problem, trial + 900, master_seed=49) - gain
            combo = analysis_cov_differential(problem, gain, 2.0 * d1 - 3.0 * d2)
            parts = (2.0 * analysis_cov_differential(problem, gain, d1)
                     - 3.0 * analysis_cov_differential(problem, gain, d2))
            assert np.max(np.abs(combo - parts)) <= 1e-12 * max(
                1.0, np.max(np.abs(parts)))


class TestDirectionalDifferential:
    def test_zero_direction(self):
        problem = seeded_problem(6)
        gain = seeded_gain(problem, 6)
        assert directional_logdet_differential(
            problem, gain, np.zeros_like(gain)) == 0.0

    def test_scalar_hand_derivative(self, scalar_problem):
        # d/dK log((1-K)^2 + K^2) at K = 0 is -2
        assert directional_logdet_differential(
            scalar_problem, [[0.0]], [[1.0]]) == pytest.approx(-2.0, rel=1e-12)

    def test_vanishes_at_analytic_gain(self):
        for trial in range(25):
            problem = seeded_problem(trial, master_seed=53)
            k = analytic_gain(problem)
            dk = seeded_gain(problem, trial, scale=1.0, master_seed=59) - k
            assert abs(directional_logdet_differential(problem, k, dk)) <= 1e-9 * (
                1.0 + np.linalg.norm(dk))

    def test_equals_gradient_inner_product(self):
        # trace-form directional derivative vs Frobenius pairing with the gradient
        for trial in range(100):
            problem = seeded_problem(trial, master_seed=61)
            gain = seeded_gain(problem, trial, master_seed=67)
            dk = seeded_gain(problem, trial + 3000, master_seed=67) - gain
            lhs = directional_logdet_differential(problem, gain, dk)
            rhs = float(np.sum(logdet_gradient(problem, gain) * dk))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_rejects_non_spd_posterior(self):
        # the posterior at this gain is not SPD in floating point
        problem = FilterProblem(prior=np.eye(2), obs_op=[[1.0, 0.0]],
                                obs_noise=[[1e-20]])
        with pytest.raises(NotPositiveDefinite):
            directional_logdet_differential(problem, [[0.0], [1e9]],
                                            [[1.0], [0.0]])


class TestLogdetGradient:
    def test_zero_at_analytic_gain(self):
        for trial in range(100):
            problem = seeded_problem(trial, master_seed=71)
            grad = logdet_gradient(problem, analytic_gain(problem))
            scale = 1.0 + np.linalg.norm(problem.prior @ problem.obs_op.T)
            assert np.linalg.norm(grad) <= 1e-8 * scale

    def test_scalar_hand_values(self, scalar_problem):
        # (-2 + 4K) / ((1-K)^2 + K^2) at K = 0 and K = 1
        np.testing.assert_allclose(logdet_gradient(scalar_problem, [[0.0]]),
                                   [[-2.0]])
        np.testing.assert_allclose(logdet_gradient(scalar_problem, [[1.0]]),
                                   [[2.0]])

    def test_matches_finite_differences(self):
        for trial in range(100):
            problem = seeded_problem(trial, master_seed=73, max_dim=6)
            gain = seeded_gain(problem, trial, master_seed=79)
            exact = logdet_gradient(problem, gain)
            numeric = finite_difference_gradient(problem, gain, LOGDET)
            err = np.linalg.norm(exact - numeric)
            assert err <= 1e-5 * (1.0 + np.linalg.norm(exact))


class TestObjectiveGradient:
    def test_exported_from_package(self):
        assert gainlab.objective_gradient is objectives.objective_gradient
        assert "objective_gradient" in gainlab.__all__

    def test_kinds_share_one_bracket(self):
        # the log-det gradient is the trace gradient solved against the
        # posterior, and the entropy gradient exactly half of it
        for trial in range(20):
            problem = seeded_problem(trial, master_seed=83)
            gain = seeded_gain(problem, trial, master_seed=89)
            bracket = objective_gradient(problem, gain, TRACE)
            logdet = objective_gradient(problem, gain, LOGDET)
            np.testing.assert_array_equal(
                logdet, np.linalg.solve(joseph_update(problem, gain), bracket))
            np.testing.assert_array_equal(
                objective_gradient(problem, gain, ENTROPY), 0.5 * logdet)

    def test_only_logdet_kinds_factorize_the_posterior(self):
        # the posterior at this gain is not SPD in floating point
        problem = FilterProblem(prior=np.eye(2), obs_op=[[1.0, 0.0]],
                                obs_noise=[[1e-20]])
        gain = np.array([[0.0], [1e9]])
        assert np.isfinite(objective_gradient(problem, gain, TRACE)).all()
        for kind in (LOGDET, ENTROPY):
            with pytest.raises(NotPositiveDefinite):
                objective_gradient(problem, gain, kind)


class TestFiniteDifferenceGradient:
    def test_scalar_logdet(self, scalar_problem):
        grad = finite_difference_gradient(scalar_problem, [[0.0]], LOGDET)
        assert grad[0, 0] == pytest.approx(-2.0, abs=1e-6)

    def test_entropy_is_half_logdet(self):
        for trial in range(20):
            problem = seeded_problem(trial, master_seed=83, max_dim=5)
            gain = seeded_gain(problem, trial, master_seed=89)
            logdet_fd = finite_difference_gradient(problem, gain, LOGDET)
            entropy_fd = finite_difference_gradient(problem, gain, ENTROPY)
            np.testing.assert_allclose(entropy_fd, 0.5 * logdet_fd, rtol=0,
                                       atol=1e-9)


def _oracle_outcome(oracle, problem, gain, kind):
    """The gradient an oracle returns, or the class and text of its error."""
    try:
        return oracle(problem, gain, kind)
    except GainlabError as exc:
        return type(exc), str(exc)


def _assert_same_oracle(problem, gain, kind):
    expected = _oracle_outcome(sequential_finite_difference_gradient,
                               problem, gain, kind)
    actual = _oracle_outcome(finite_difference_gradient, problem, gain, kind)
    if isinstance(expected, tuple):
        assert actual == expected
    else:
        assert actual.shape == expected.shape
        # bytes, so that -0.0 against 0.0 and NaN payloads count too
        assert actual.tobytes() == expected.tobytes()
    return actual


def _failing_cases():
    """Gains whose perturbations fail the public evaluators in several ways."""
    # 1e18 + 1.01 rounds to 1e18: posteriors that are not SPD in floats
    cancelling = FilterProblem(prior=np.eye(2), obs_op=[[1.0, 0.0]],
                               obs_noise=[[1e-20]])
    yield cancelling, np.array([[0.0], [1e9]])
    yield cancelling, np.array([[0.5], [1e9]])
    # posterior variance 1e-26 at this gain, below the pivot floor; moving
    # the first entry lifts it, so only the rows of the second entry fail
    floored = FilterProblem(prior=np.eye(2), obs_op=[[1e3, 0.0]],
                            obs_noise=[[1e-20]])
    yield floored, np.array([[1e-3], [0.5]])
    huge = np.finfo(float).max
    for trial, (entry, value) in enumerate([(0, huge), (-1, huge),
                                            (-1, -huge), (1, 1e200)]):
        problem = seeded_problem(trial + 2, master_seed=173, max_dim=4)
        gain = seeded_gain(problem, trial, master_seed=179)
        gain.flat[entry] = value
        yield problem, gain


class TestStackedOracle:
    """The stacked oracle against the per-entry loop of public evaluations."""

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_bit_identical_to_sequential_loop(self, kind):
        for trial in range(600):
            problem = seeded_problem(trial, master_seed=163,
                                     conditions=(1.0, 10.0, 100.0, 1e4, 1e6))
            gain = seeded_gain(problem, trial, scale=(0.1, 3.0)[trial % 2],
                               master_seed=167)
            _assert_same_oracle(problem, gain, kind)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_failures_match_sequential_loop(self, kind):
        raised = set()
        for problem, gain in _failing_cases():
            outcome = _assert_same_oracle(problem, gain, kind)
            if isinstance(outcome, tuple):
                raised.add(outcome[0])
        # the total variance never factorizes
        assert (NotPositiveDefinite in raised) == (kind is not TRACE)
        assert InvalidParameter in raised

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_step_overflow_is_invalid_parameter(self):
        problem = seeded_problem(1, master_seed=181, max_dim=3)
        gain = seeded_gain(problem, 1, master_seed=181)
        gain.flat[0] = np.finfo(float).max
        with pytest.raises(InvalidParameter,
                           match="gain contains non-finite entries"):
            finite_difference_gradient(problem, gain, TRACE)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_does_not_change_results(self, block, monkeypatch):
        monkeypatch.setattr(objectives, "_FD_BLOCK_ROWS", block)
        cases = [(problem, seeded_gain(problem, trial, scale=3.0,
                                       master_seed=191))
                 for trial in range(60)
                 for problem in [seeded_problem(trial, master_seed=193)]]
        for problem, gain in cases + list(_failing_cases()):
            for kind in ObjectiveKind:
                _assert_same_oracle(problem, gain, kind)


    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_batch_of_many_rows_matches_sequential_loop(self, block,
                                                        monkeypatch):
        # rows failing and passing, under every kind, whose perturbations
        # share blocks
        monkeypatch.setattr(objectives, "_FD_BLOCK_ROWS", block)
        shapes = {}
        cases = [(problem, seeded_gain(problem, trial, master_seed=199))
                 for trial in range(40)
                 for problem in [seeded_problem(trial, master_seed=197,
                                                max_dim=3)]]
        for problem, gain in cases + list(_failing_cases()):
            shapes.setdefault(gain.shape, []).append((problem, gain))
        raised = 0
        for members in shapes.values():
            batch = objectives._Batch.stack([p for p, _ in members],
                                            [TRACE] * len(members))
            gains = np.stack([gain for _, gain in members])
            expected, expected_errors = sequential_finite_differences(
                batch, gains)
            actual, errors = objectives._finite_differences(batch, gains)
            assert ({row: (type(exc), str(exc)) for row, exc in errors.items()}
                    == {row: (type(exc), str(exc))
                        for row, exc in expected_errors.items()})
            for row in range(len(actual)):
                if row not in errors:
                    assert actual[row].tobytes() == expected[row].tobytes()
            raised += len(errors)
        assert raised

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_errors_are_attributed_per_kind(self):
        # one posterior serves every kind, and each kind keeps the errors
        # of its own evaluator: a perturbed posterior that is not SPD fails
        # the log-det and the entropy, while the trace gets its difference;
        # a non-finite perturbed gain fails all three
        cancelling = FilterProblem(prior=np.eye(2), obs_op=[[1.0, 0.0]],
                                   obs_noise=[[1e-20]])
        overflowing = seeded_problem(1, master_seed=181, max_dim=3)
        huge = seeded_gain(overflowing, 1, master_seed=181)
        huge.flat[0] = np.finfo(float).max
        kinds = tuple(ObjectiveKind)
        for problem, gain, failing in [
                (cancelling, np.array([[0.0], [1e9]]), (LOGDET, ENTROPY)),
                (overflowing, huge, kinds)]:
            batch = objectives._Batch.stack([problem], [TRACE])
            grads, errors = objectives._finite_differences(batch, gain[None])
            assert sorted(errors) == [kinds.index(kind) for kind in failing]
            for j, kind in enumerate(kinds):
                expected = _oracle_outcome(sequential_finite_difference_gradient,
                                           problem, gain, kind)
                if kind in failing:
                    assert (type(errors[j]), str(errors[j])) == expected
                else:
                    assert grads[j].tobytes() == expected.tobytes()
                    assert np.isfinite(grads[j]).all()

    def test_trace_never_inherits_a_log_det_failure(self):
        # at this gain one perturbed posterior is not SPD in floats, which
        # fails only the log-det and the entropy
        problem = FilterProblem(prior=np.eye(2), obs_op=[[1.0, 0.0]],
                                obs_noise=[[1e-20]])
        gain = np.array([[0.0], [1e9]])
        grad = finite_difference_gradient(problem, gain, TRACE)
        assert grad.tobytes() == sequential_finite_difference_gradient(
            problem, gain, TRACE).tobytes()
        np.testing.assert_allclose(grad, [[0.0], [2e9]], rtol=1e-9, atol=0)
        for kind in (LOGDET, ENTROPY):
            with pytest.raises(NotPositiveDefinite):
                finite_difference_gradient(problem, gain, kind)


    def test_trace_oracle_factorizes_nothing(self, monkeypatch):
        # a trace call reads only the posteriors' traces, which are those
        # of the stacked oracle of all three kinds, bit for bit
        problem = seeded_problem(3, master_seed=211, max_dim=4)
        gain = seeded_gain(problem, 3, master_seed=211)
        batch = objectives._Batch.stack([problem], [TRACE])
        expected = objectives._finite_differences(batch, gain[None])[0][0]
        factorize, calls = matrix_core._cholesky_factors, []
        def spy(a):
            calls.append(len(a))
            return factorize(a)
        monkeypatch.setattr(matrix_core, "_cholesky_factors", spy)
        grad = finite_difference_gradient(problem, gain, TRACE)
        assert calls == []
        assert grad.tobytes() == expected.tobytes()
        finite_difference_gradient(problem, gain, LOGDET)
        assert calls == [2 * gain.size]


class TestHadamardOrdering:
    def test_generalized_variance_below_marginal_product(self):
        # nonzero cross-covariances only shrink the determinant
        for trial in range(50):
            problem = seeded_problem(trial, master_seed=97)
            gain = seeded_gain(problem, trial, scale=0.5, master_seed=101)
            posterior = joseph_update(problem, gain)
            assert matrix_core.det(posterior) <= np.prod(
                np.diag(posterior)) * (1 + 1e-12)
