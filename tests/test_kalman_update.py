"""Tests for the analysis step: gain formula and Joseph-form update."""

import warnings

import numpy as np
import pytest

from gainlab import matrix_core, objectives
from gainlab.exceptions import (DimensionMismatch, GainlabError,
                                InvalidParameter, NotPositiveDefinite)
from gainlab.experiment import make_problem
from gainlab.kalman_update import (FilterProblem, _analytic_gains,
                                   _build_problems, _joseph_form, _stacks,
                                   analytic_gain, joseph_update)

from conftest import (SINGULAR_SEED, make_scalar, seeded_gain, seeded_problem,
                      singular_innovation_stack)


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


FIELDS = ("prior", "obs_op", "obs_noise", "cross", "innovation", "joint_cov",
          "joint_op")
# The problem arrays that a batch's slab holds.
BATCH_FIELDS = ("joint_cov", "joint_op", "cross", "innovation")


def _good_rows(count, seed=0):
    """Matrices of ``count`` passing 2x2 problems."""
    return [tuple(getattr(make_problem(2, 2, seed + i, 10.0), name).copy()
                  for name in FIELDS[:3]) for i in range(count)]


def _bad_rows():
    """Rows that fail each check, the first failure named by its error."""
    prior, obs_op, noise = _good_rows(1, seed=90)[0]
    return [
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), obs_op, noise),
        (prior + [[0.0, 1e-3], [0.0, 0.0]], obs_op, noise),      # asymmetric
        (np.array([[1.0, 2.0], [2.0, 1.0]]), obs_op, noise),     # not PD
        (np.diag([1.0, 1e-24]), obs_op, noise),                  # pivot 1e-12
        (prior, obs_op, np.array([[1.0, np.inf], [np.inf, 1.0]])),
        (prior, obs_op, -np.eye(2)),
        (prior, np.array([[np.nan, 0.0], [0.0, 1.0]]), noise),
        # H P H' rounds to rank one, so S is not PD
        (np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]]), 1e-20 * np.eye(2)),
        # two failures: the prior's comes first
        (prior + [[0.0, 1e-3], [0.0, 0.0]], obs_op * np.nan, -np.eye(2)),
    ]


def _lone(row):
    try:
        return FilterProblem(*row)
    except GainlabError as exc:
        return exc


def _stacked(rows):
    return _build_problems(*(np.array(stack) for stack in zip(*rows)))


def _assert_same_outcome(outcome, expected):
    assert type(outcome) is type(expected)
    if isinstance(expected, GainlabError):
        assert str(outcome) == str(expected)
        return
    assert (outcome.state_dim, outcome.obs_dim) == (expected.state_dim,
                                                    expected.obs_dim)
    for name in FIELDS:
        got, want = getattr(outcome, name), getattr(expected, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable and not want.flags.writeable


class TestStackedBuild:
    def test_mixed_stack_matches_lone_construction(self):
        good, bad = _good_rows(12), _bad_rows()
        # asymmetric, but within SYMMETRY_TOL: passes, and is kept as given
        prior, obs_op, noise = good[0]
        good.append((prior + [[0.0, 5e-10], [0.0, 0.0]], obs_op, noise))
        rows = good[:3] + bad + good[3:]
        outcomes = _stacked(rows)
        assert len(outcomes) == len(rows)
        for outcome, row in zip(outcomes, rows):
            _assert_same_outcome(outcome, _lone(row))
        assert sum(isinstance(o, GainlabError) for o in outcomes) == len(bad)
        assert outcomes[-1].prior.tobytes() == rows[-1][0].tobytes()

    def test_bad_row_leaves_neighbours_bit_identical(self):
        good = _good_rows(6)
        clean = _stacked(good)
        for bad in _bad_rows():
            mixed = _stacked(good[:2] + [bad] + good[2:])
            assert isinstance(mixed[2], GainlabError)
            for outcome, expected in zip(mixed[:2] + mixed[3:], clean):
                _assert_same_outcome(outcome, expected)

    def test_every_check_fails_a_lone_row(self):
        expected = [InvalidParameter, InvalidParameter, NotPositiveDefinite,
                    NotPositiveDefinite, InvalidParameter, NotPositiveDefinite,
                    InvalidParameter, NotPositiveDefinite, InvalidParameter]
        assert [type(_lone(row)) for row in _bad_rows()] == expected
        assert "at or below floor" in str(_lone(_bad_rows()[3]))

    @pytest.mark.parametrize("bad", [slice(None), slice(-2, -1)])
    def test_stacked_build_warns_only_where_lone_build_does(self, bad):
        # S overflows, which warns on its own too; with only rows whose S
        # fails, the stacked products take every row
        overflow = (np.eye(2), np.array([[1e200, 0.0], [0.0, 1.0]]),
                    np.eye(2))
        rows = (_good_rows(4) + _bad_rows()[bad] + [overflow]
                + _good_rows(3, 40))
        def caught(build):
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                outcomes = build()
            return outcomes, {(w.category, str(w.message)) for w in records}
        lone, lone_warnings = caught(lambda: [_lone(row) for row in rows])
        stacked, stacked_warnings = caught(lambda: _stacked(rows))
        assert stacked_warnings <= lone_warnings
        assert str(lone[-4]) == "matrix contains non-finite entries"
        assert lone_warnings
        for outcome, expected in zip(stacked, lone):
            _assert_same_outcome(outcome, expected)

    def test_batch_of_one_build_holds_its_stacks(self):
        problems = _stacked(_good_rows(5))
        kinds = [objectives.ObjectiveKind.TOTAL_VARIANCE] * 5
        stacks = _stacks(problems)
        batch = objectives._Batch.stack(problems, kinds)
        for name in BATCH_FIELDS:
            assert getattr(batch, name).tobytes() == stacks[name].tobytes()
        # any other list is copied from its problems: part of a build, its
        # rows reordered or repeated, rows of two builds, or a problem built
        # alone
        others = [problems[:4], problems[::-1], problems[:1] * 5,
                  problems[:3] + _stacked(_good_rows(2, 40)),
                  problems[:4] + [FilterProblem(*_good_rows(1)[0])]]
        for listed in others:
            assert _stacks(listed) is None
            batch = objectives._Batch.stack(listed, kinds[:len(listed)])
            for name in BATCH_FIELDS:
                assert getattr(batch, name).tobytes() == np.array(
                    [getattr(problem, name) for problem in listed]).tobytes()

    def test_stacked_analytic_gains_match_one_at_a_time(self):
        for n, m in ((1, 1), (4, 3), (2, 5), (8, 8)):
            problems = [make_problem(n, m, 50 + i, 100.0) for i in range(7)]
            gains, failures = _analytic_gains(
                np.array([p.cross for p in problems]),
                np.array([p.innovation for p in problems]))
            assert not failures
            for gain, problem in zip(gains, problems):
                assert gain.tobytes() == analytic_gain(problem).tobytes()


class TestSingularInnovation:
    """An S that passes its Cholesky check but is singular to the solve."""

    def test_analytic_gain_raises_not_positive_definite(self):
        problem = make_problem(2, 7, SINGULAR_SEED, 1e20)
        with pytest.raises(NotPositiveDefinite) as caught:
            analytic_gain(problem)
        assert str(caught.value) == (
            "matrix is not positive definite: Singular matrix")

    def test_only_the_singular_row_of_a_stack_fails(self):
        problems = singular_innovation_stack()
        gains, failures = _analytic_gains(
            np.array([p.cross for p in problems]),
            np.array([p.innovation for p in problems]))
        assert list(failures) == [2]
        assert str(failures[2]) == (
            "matrix is not positive definite: Singular matrix")
        assert np.isnan(gains[2]).all()
        for row in (0, 1, 3):
            assert gains[row].tobytes() == (
                analytic_gain(problems[row]).tobytes())


class TestInnovationCovariance:
    def test_scalar_sum(self, scalar_problem):
        np.testing.assert_allclose(scalar_problem.innovation, [[2.0]])

    def test_hand_multiplication(self):
        # H P H^T + R with P = I2, H = [1 0]: 1*1*1 + 1 = 2
        problem = FilterProblem(prior=np.eye(2), obs_op=[[1.0, 0.0]],
                                obs_noise=[[1.0]])
        np.testing.assert_allclose(problem.innovation, [[2.0]])

    def test_zero_operator_returns_noise(self):
        noise = matrix_core.random_spd(3, 8, 10.0)
        problem = FilterProblem(prior=np.eye(4), obs_op=np.zeros((3, 4)),
                                obs_noise=noise)
        np.testing.assert_array_equal(problem.innovation, noise)


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
                        @ np.linalg.inv(problem.innovation))
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


def _two_term_joseph(problem, gain):
    """The Joseph update written out as its two terms, symmetrized."""
    ikh = np.eye(problem.state_dim) - gain @ problem.obs_op
    return matrix_core._symmetrize(ikh @ problem.prior @ ikh.T
                                   + gain @ problem.obs_noise @ gain.T)


class TestBlockJosephForm:
    """``A W A.T`` with ``A = [I - K H, K]`` and ``W = blockdiag(P, R)``
    against the two terms ``(I - K H) P (I - K H).T + K R K.T``."""

    # The difference is measured against the scale at which the products
    # round, (||I - K H||² + ||K||²)(||P|| + ||R||) in Frobenius norms: over
    # these cells with 40 seeds each, the worst was 1.08e-16, at 1x1. The
    # bound is one float64 epsilon, about twice that. Relative to the
    # posterior itself the forms differ by up to 6e-10 at 1x20, cond 1e8,
    # where K R K.T cancels.
    BOUND = float(np.finfo(float).eps)

    @pytest.mark.parametrize("cond", [10.0, 1e4, 1e8])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 20), (20, 1), (2, 5),
                                       (5, 2), (4, 3), (8, 8), (12, 7),
                                       (20, 20)])
    def test_block_product_equals_the_two_terms(self, shape, cond):
        for seed in range(10):
            problem = make_problem(*shape, seed, cond)
            rng = np.random.default_rng(seed)
            best = analytic_gain(problem)
            for scale in (0.0, 1e-3, 1.0, 10.0):
                gain = best + scale * rng.standard_normal(best.shape)
                expected = _two_term_joseph(problem, gain)
                ikh = np.eye(problem.state_dim) - gain @ problem.obs_op
                rounding = ((np.linalg.norm(ikh) ** 2 + np.linalg.norm(gain) ** 2)
                            * (np.linalg.norm(problem.prior)
                               + np.linalg.norm(problem.obs_noise)))
                error = np.linalg.norm(joseph_update(problem, gain) - expected)
                assert error <= self.BOUND * rounding

    def test_zero_gain_gives_the_prior_exactly(self):
        # E - 0 F is E = [I, 0] exactly, so E W E.T is P bit for bit, alone
        # and in a stacked batch, where every minimization starts
        for shape in ((1, 1), (4, 3), (2, 5), (8, 8), (20, 20)):
            problems = [make_problem(*shape, seed, 1e4) for seed in range(3)]
            zero = np.zeros(shape)
            batch = objectives._Batch.stack(
                problems, [objectives.ObjectiveKind.TOTAL_VARIANCE] * 3)
            stacked = _joseph_form(batch, np.zeros((3,) + shape), batch.select)
            for problem, posterior in zip(problems, stacked):
                assert joseph_update(problem, zero).tobytes() == (
                    problem.prior.tobytes())
                assert posterior.tobytes() == problem.prior.tobytes()
