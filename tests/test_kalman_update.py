"""Tests for the analysis step: gain formula and Joseph-form update."""

import numpy as np
import pytest

from gainlab import matrix_core
from gainlab.exceptions import (DimensionMismatch, InvalidParameter,
                                NotPositiveDefinite)
from gainlab.kalman_update import (FilterProblem, analytic_gain,
                                   innovation_covariance, joseph_update)

from conftest import make_scalar, seeded_gain, seeded_problem


class TestFilterProblem:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(DimensionMismatch):
            FilterProblem(prior=np.eye(3), obs_op=np.ones((2, 4)),
                          obs_noise=np.eye(2))
        with pytest.raises(DimensionMismatch):
            FilterProblem(prior=np.eye(3), obs_op=np.ones((2, 3)),
                          obs_noise=np.eye(5))

    def test_prior_must_be_spd(self):
        with pytest.raises(NotPositiveDefinite):
            FilterProblem(prior=-np.eye(2), obs_op=np.ones((1, 2)),
                          obs_noise=np.eye(1))

    def test_noise_must_be_spd(self):
        with pytest.raises(NotPositiveDefinite):
            FilterProblem(prior=np.eye(2), obs_op=np.ones((1, 2)),
                          obs_noise=np.zeros((1, 1)))

    def test_stored_matrices_are_frozen(self):
        problem = seeded_problem(0)
        with pytest.raises(ValueError):
            problem.prior[0, 0] = 99.0

    def test_gain_free_terms_are_stored_read_only(self):
        for trial in range(20):
            problem = seeded_problem(trial, master_seed=7)
            p, h, r = problem.prior, problem.obs_op, problem.obs_noise
            assert problem.cross.tobytes() == (p @ h.T).tobytes()
            assert problem.innovation.tobytes() == (h @ (p @ h.T) + r).tobytes()
            assert innovation_covariance(problem) is problem.innovation
            for name in ("cross", "innovation"):
                with pytest.raises(ValueError):
                    getattr(problem, name)[0, 0] = 99.0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_innovation_rejected_at_construction(self):
        with pytest.raises(InvalidParameter,
                           match="matrix contains non-finite entries"):
            FilterProblem(prior=[[1.0]], obs_op=[[1e200]], obs_noise=[[1.0]])

    def test_gain_shape_checked(self):
        problem = seeded_problem(1)
        bad = np.zeros((problem.state_dim + 1, problem.obs_dim))
        with pytest.raises(DimensionMismatch):
            joseph_update(problem, bad)


class TestInnovationCovariance:
    def test_scalar_sum(self, scalar_problem):
        np.testing.assert_allclose(innovation_covariance(scalar_problem), [[2.0]])

    def test_hand_multiplication(self):
        # H P H^T + R with P = I2, H = [1 0]: 1*1*1 + 1 = 2
        problem = FilterProblem(prior=np.eye(2), obs_op=[[1.0, 0.0]],
                                obs_noise=[[1.0]])
        np.testing.assert_allclose(innovation_covariance(problem), [[2.0]])

    def test_zero_operator_returns_noise(self):
        noise = matrix_core.random_spd(3, 8, 10.0)
        problem = FilterProblem(prior=np.eye(4), obs_op=np.zeros((3, 4)),
                                obs_noise=noise)
        np.testing.assert_array_equal(innovation_covariance(problem), noise)


class TestAnalyticGain:
    def test_scalar_half(self, scalar_problem):
        np.testing.assert_allclose(analytic_gain(scalar_problem), [[0.5]])

    def test_hand_evaluation(self):
        problem = FilterProblem(prior=np.eye(2), obs_op=[[1.0, 0.0]],
                                obs_noise=[[1.0]])
        np.testing.assert_allclose(analytic_gain(problem), [[0.5], [0.0]],
                                   rtol=0, atol=1e-15)

    def test_scalar_formula_oracle(self):
        # oracle: scalar gain = P / (P + R)
        problem = make_scalar(2.0, 1.0, 2.0)
        np.testing.assert_allclose(analytic_gain(problem), [[2.0 / (2.0 + 2.0)]])

    def test_matches_explicit_inverse(self):
        for trial in range(20):
            problem = seeded_problem(trial)
            explicit = (problem.prior @ problem.obs_op.T
                        @ matrix_core.inverse(innovation_covariance(problem)))
            np.testing.assert_allclose(analytic_gain(problem), explicit,
                                       rtol=0, atol=1e-10)


class TestJosephUpdate:
    def test_zero_gain_returns_prior(self):
        problem = seeded_problem(3)
        zero = np.zeros((problem.state_dim, problem.obs_dim))
        np.testing.assert_array_equal(joseph_update(problem, zero), problem.prior)

    def test_scalar_oracle_unit(self, scalar_problem):
        # (1 - 0.5)^2 * 1 + 0.5^2 * 1 = 0.5
        np.testing.assert_allclose(joseph_update(scalar_problem, [[0.5]]), [[0.5]])

    def test_scalar_oracle_scaled(self):
        # (1 - 0.5)^2 * 2 + 0.5^2 * 2 = 1.0
        problem = make_scalar(2.0, 1.0, 2.0)
        np.testing.assert_allclose(joseph_update(problem, [[0.5]]), [[1.0]])

    def test_symmetric_and_spd_for_arbitrary_gains(self):
        # valid for any finite gain, not just the optimal one
        for trial in range(200):
            problem = seeded_problem(trial, master_seed=11)
            gain = seeded_gain(problem, trial, scale=1.0)
            updated = joseph_update(problem, gain)
            assert np.max(np.abs(updated - updated.T)) <= 1e-12
            matrix_core.validate_covariance(updated)

    def test_short_form_identity_at_optimum(self):
        # (I - K*H) P equals the Joseph form only at the analytic gain
        for trial in range(25):
            problem = seeded_problem(trial, master_seed=13)
            k = analytic_gain(problem)
            joseph = joseph_update(problem, k)
            short = (np.eye(problem.state_dim) - k @ problem.obs_op) @ problem.prior
            err = np.linalg.norm(joseph - short) / np.linalg.norm(joseph)
            assert err <= 1e-9

    def test_optimal_gain_beats_perturbations(self):
        # trace and determinant both rise for gains near but off the optimum
        problem = seeded_problem(4, master_seed=17)
        best = analytic_gain(problem)
        base = joseph_update(problem, best)
        base_trace = matrix_core.trace(base)
        base_det = matrix_core.det(base)
        rng = np.random.default_rng(99)
        for _ in range(50):
            bump = rng.standard_normal(best.shape)
            bump *= 0.1 / max(np.linalg.norm(bump), 1e-12)
            perturbed = joseph_update(problem, best + bump)
            assert matrix_core.trace(perturbed) >= base_trace - 1e-10
            assert matrix_core.det(perturbed) >= base_det - 1e-10

    def test_gain_scale_equivariance(self):
        # scaling prior and noise together leaves the analytic gain unchanged
        for trial in range(10):
            problem = seeded_problem(trial, master_seed=23)
            scaled = FilterProblem(prior=4.5 * problem.prior,
                                   obs_op=problem.obs_op,
                                   obs_noise=4.5 * problem.obs_noise)
            delta = np.max(np.abs(analytic_gain(problem) - analytic_gain(scaled)))
            assert delta <= 1e-12
