"""Tests for the dense SPD utilities."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainlab import matrix_core
from gainlab.exceptions import DimensionMismatch, InvalidParameter, NotPositiveDefinite


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(matrix_core.cholesky(np.eye(2)), np.eye(2))

    def test_diagonal_square_roots(self):
        factor = matrix_core.cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(factor, np.diag([2.0, 3.0]), rtol=0, atol=1e-15)

    def test_reconstruction(self):
        # oracle: multiplying the factor by its transpose must reproduce the input
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        factor = matrix_core.cholesky(a)
        np.testing.assert_allclose(factor @ factor.T, a, rtol=1e-12)
        assert np.all(np.diag(factor) > 0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            matrix_core.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_negative_definite(self):
        with pytest.raises(NotPositiveDefinite):
            matrix_core.cholesky(-np.eye(3))

    def test_rejects_tiny_pivot(self):
        with pytest.raises(NotPositiveDefinite):
            matrix_core.cholesky(np.diag([1.0, 1e-30]))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidParameter):
            matrix_core.cholesky(np.array([[1.0, 0.5], [0.3, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            matrix_core.cholesky(np.ones((2, 3)))


def _kernel_stack(dim):
    """Good SPD rows around a breakdown row (1), a row whose smallest
    Cholesky pivot is 1e-15 (3) and a row singular to the LU solve (5)."""
    good = [matrix_core.random_spd(dim, seed, 100.0) for seed in range(4)]
    ones = [1.0] * (dim - 1)
    singular = np.ones((dim, dim)) if dim > 1 else np.zeros((1, 1))
    return np.array([good[0], np.diag(ones + [-1.0]), good[1],
                     np.diag(ones + [1e-30]), good[2], singular, good[3]])


def _linalg_error(call):
    """The message gainlab gives the LinAlgError of ``call``, or None."""
    try:
        call()
    except np.linalg.LinAlgError as exc:
        return f"matrix is not positive definite: {exc}"
    return None


class TestRowKernels:
    """One LAPACK call per stack: each row is numpy's linalg result for
    that row alone, bit for bit, and each failing row fails alone."""

    @pytest.mark.parametrize("dim", [1, 4, 8])
    def test_cholesky_rows_match_numpy_alone(self, dim):
        stack = _kernel_stack(dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                factors, failures = matrix_core._cholesky_factors(stack)
        assert sorted(failures) == [1, 3, 5]
        assert str(failures[1]) == ("matrix is not positive definite: "
                                    "Matrix is not positive definite")
        assert str(failures[3]) == ("Cholesky pivot 1.000e-15 at or below "
                                    "floor 1e-12")
        for row, a in enumerate(stack):
            if row in failures:
                assert isinstance(failures[row], NotPositiveDefinite)
                expected = _linalg_error(lambda: np.linalg.cholesky(a))
                if expected is None:
                    pivot = np.linalg.cholesky(a).diagonal().min()
                    assert pivot <= matrix_core.PD_TOL
                    expected = (f"Cholesky pivot {pivot:.3e} at or below "
                                f"floor {matrix_core.PD_TOL:g}")
                assert str(failures[row]) == expected
                with pytest.raises(NotPositiveDefinite,
                                   match=re.escape(expected)):
                    matrix_core._cholesky_factor(a)
            else:
                assert factors[row].tobytes() == (
                    np.linalg.cholesky(a).tobytes())
                assert matrix_core._cholesky_factor(a).tobytes() == (
                    factors[row].tobytes())

    @pytest.mark.parametrize("dim", [1, 4, 8])
    def test_solve_rows_match_numpy_alone(self, dim):
        stack = _kernel_stack(dim)
        b = np.random.default_rng(dim).standard_normal((len(stack), dim, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                solutions, failures = matrix_core._solves(stack, b)
        assert list(failures) == [5]
        message = "matrix is not positive definite: Singular matrix"
        assert str(failures[5]) == message
        assert _linalg_error(lambda: np.linalg.solve(stack[5], b[5])) == (
            message)
        assert np.isnan(solutions[5]).all()
        with pytest.raises(NotPositiveDefinite, match=re.escape(message)):
            matrix_core._solve(stack[5], b[5])
        for row in (0, 1, 2, 3, 4, 6):
            assert solutions[row].tobytes() == (
                np.linalg.solve(stack[row], b[row]).tobytes())
            assert matrix_core._solve(stack[row], b[row]).tobytes() == (
                solutions[row].tobytes())

    def test_raising_forms_leak_no_warning(self):
        # _cholesky_factor and _solve hold their own errstate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite):
                matrix_core._cholesky_factor(-np.eye(3))
            with pytest.raises(NotPositiveDefinite):
                matrix_core._solve(np.ones((3, 3)), np.eye(3))


class TestLogDet:
    def test_identity_is_zero(self):
        assert matrix_core.log_det(np.eye(4)) == pytest.approx(0.0, abs=1e-14)

    def test_two_by_two_cofactor_oracle(self):
        # oracle: det [[2,1],[1,2]] = 2*2 - 1*1 = 3
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert matrix_core.log_det(a) == pytest.approx(math.log(3.0), rel=1e-12)

    def test_diagonal_product(self):
        assert matrix_core.log_det(np.diag([2.0, 3.0])) == pytest.approx(
            math.log(6.0), rel=1e-12)


class TestDet:
    def test_identity(self):
        assert matrix_core.det(np.eye(3)) == pytest.approx(1.0, rel=1e-12)

    def test_cofactor_oracle(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert matrix_core.det(a) == pytest.approx(2.0 * 2.0 - 1.0 * 1.0, rel=1e-12)

    def test_diagonal(self):
        assert matrix_core.det(np.diag([4.0, 9.0])) == pytest.approx(36.0, rel=1e-12)


class TestTraceSymmetrize:
    def test_trace_identity(self):
        assert matrix_core.trace(np.eye(4)) == 4.0

    def test_trace_examples(self):
        assert matrix_core.trace(np.array([[2.0, 1.0], [1.0, 2.0]])) == 4.0
        assert matrix_core.trace(np.diag([1.0, 2.0, 3.0])) == 6.0

    def test_trace_non_square(self):
        with pytest.raises(DimensionMismatch):
            matrix_core.trace(np.ones((2, 3)))

    def test_symmetrize_fixed_point(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_array_equal(matrix_core._symmetrize(a), a)

    def test_symmetrize_mean(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_array_equal(matrix_core._symmetrize(a),
                                      np.array([[1.0, 1.0], [1.0, 1.0]]))
        # a (B, n, n) stack is symmetrized one matrix at a time
        stack = np.stack([a, a.T, np.array([[3.0, -1.0], [5.0, 0.5]])])
        np.testing.assert_array_equal(
            matrix_core._symmetrize(stack),
            [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]],
             [[3.0, 2.0], [2.0, 0.5]]])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=8))
    def test_symmetrize_idempotent(self, seed, dim):
        a = np.random.default_rng(seed).standard_normal((dim, dim))
        once = matrix_core._symmetrize(a)
        np.testing.assert_array_equal(matrix_core._symmetrize(once), once)


class TestRandomSpd:
    def test_dim_one_is_unit(self):
        for seed in (0, 42, 987654321):
            np.testing.assert_allclose(matrix_core.random_spd(1, seed, 1.0),
                                       [[1.0]], rtol=0, atol=1e-15)

    def test_condition_target(self):
        # oracle: eigenvalue computation on the constructed matrix
        a = matrix_core.random_spd(5, 42, cond_target=100.0)
        eigs = np.linalg.eigvalsh(a)
        assert eigs.max() / eigs.min() == pytest.approx(100.0, abs=1e-8)

    def test_deterministic(self):
        first = matrix_core.random_spd(6, 12345, 30.0)
        second = matrix_core.random_spd(6, 12345, 30.0)
        np.testing.assert_array_equal(first, second)

    def test_distinct_seeds_differ(self):
        a = matrix_core.random_spd(4, 1, 10.0)
        b = matrix_core.random_spd(4, 2, 10.0)
        assert not np.array_equal(a, b)

    def test_rejects_bad_cond(self):
        with pytest.raises(InvalidParameter):
            matrix_core.random_spd(3, 0, cond_target=0.5)

    def test_rejects_bad_dim(self):
        with pytest.raises(InvalidParameter):
            matrix_core.random_spd(0, 0, cond_target=2.0)

    @pytest.mark.parametrize("args, message", [
        ((3, 1, "10"), "cond_target must be a real number, got '10'"),
        ((3, 1, True), "cond_target must be a real number, got True"),
        ((3, 1, None), "cond_target must be a real number, got None"),
        ((2.5, 1, 10.0), "dim must be an int, got 2.5"),
        ((True, 1, 10.0), "dim must be an int, got True"),
        ((3, 1.0, 10.0), "seed must be an int, got 1.0"),
        ((3, "1", 10.0), "seed must be an int, got '1'"),
        ((3, False, 10.0), "seed must be an int, got False"),
        ((3, -1, 10.0), "seed must be >= 0, got -1"),
    ])
    def test_rejects_bad_types(self, args, message):
        with pytest.raises(InvalidParameter) as raised:
            matrix_core.random_spd(*args)
        assert str(raised.value) == message

    def test_accepts_numpy_numbers(self):
        expected = matrix_core.random_spd(3, 7, 10.0)
        actual = matrix_core.random_spd(np.int64(3), np.uint32(7),
                                        np.float32(10.0))
        assert actual.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**63 - 1),
           st.integers(min_value=1, max_value=8))
    def test_output_is_valid_covariance(self, seed, dim):
        a = matrix_core.random_spd(dim, seed, cond_target=100.0)
        matrix_core.validate_covariance(a)


class TestFrobeniusNorms:
    @pytest.mark.parametrize("count", [0, 5])
    def test_rows_match_frobenius_norm(self, count):
        stack = np.random.default_rng(3).standard_normal((count, 4, 3))
        norms = matrix_core._frobenius_norms(stack)
        assert norms.tolist() == [matrix_core.frobenius_norm(a) for a in stack]


class TestInvariants:
    def test_hadamard_inequality(self):
        # determinant of an SPD matrix never exceeds the product of its diagonal
        for seed in range(100):
            dim = 1 + seed % 8
            a = matrix_core.random_spd(dim, seed, cond_target=50.0)
            assert matrix_core.det(a) <= np.prod(np.diag(a)) * (1 + 1e-12)

    def test_hadamard_equality_for_diagonal(self):
        a = np.diag([0.5, 2.0, 7.0])
        assert matrix_core.det(a) == pytest.approx(np.prod(np.diag(a)), rel=1e-12)

    def test_exp_log_det_matches_det(self):
        for seed in range(20):
            dim = 1 + seed % 8
            a = matrix_core.random_spd(dim, seed, cond_target=20.0)
            # independent determinant oracle
            assert matrix_core.det(a) == pytest.approx(np.linalg.det(a), rel=1e-10)

    def test_cholesky_reconstruction_random(self):
        for seed in range(20):
            a = matrix_core.random_spd(7, seed, cond_target=100.0)
            factor = matrix_core.cholesky(a)
            err = np.linalg.norm(factor @ factor.T - a) / np.linalg.norm(a)
            assert err <= 1e-12
