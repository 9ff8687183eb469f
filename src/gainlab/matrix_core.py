"""Dense SPD matrix utilities: validation, Cholesky, determinants, inverses.

Determinant, log-determinant, inverse, and positive-definiteness checks all
route through a single Cholesky factorization, the one source of truth for
what counts as a valid covariance matrix; the inverse is then an LU solve.
"""

import numbers

import numpy as np

from .exceptions import DimensionMismatch, InvalidParameter, NotPositiveDefinite

__all__ = [
    "SYMMETRY_TOL",
    "PD_TOL",
    "check_square",
    "check_symmetric",
    "validate_covariance",
    "cholesky",
    "log_det",
    "det",
    "inverse",
    "trace",
    "symmetrize",
    "frobenius_norm",
    "random_spd",
]

# Relative symmetry tolerance and absolute Cholesky pivot floor. Both sit
# comfortably above double-precision noise for the dimensions this package
# targets (up to a few dozen).
SYMMETRY_TOL = 1e-9
PD_TOL = 1e-12


def check_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a float ndarray, raising DimensionMismatch if not square."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def check_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate entrywise symmetry of a square matrix.

    An entry pair (i, j), (j, i) is accepted when their difference is within
    ``SYMMETRY_TOL * max(1, |a[i, j]|)``.
    """
    a = check_square(a, name)
    if not np.all(np.isfinite(a)):
        raise InvalidParameter(f"{name} contains non-finite entries")
    bound = SYMMETRY_TOL * np.maximum(1.0, np.abs(a))
    if not np.all(np.abs(a - a.T) <= bound):
        worst = float(np.max(np.abs(a - a.T)))
        raise InvalidParameter(
            f"{name} is not symmetric to tolerance {SYMMETRY_TOL:g} "
            f"(max asymmetry {worst:.3e})")
    return a


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive-definite matrix.

    Parameters
    ----------
    a : ndarray, shape (n, n)
        Symmetric matrix to factor.

    Returns
    -------
    ndarray, shape (n, n)
        Lower factor L with ``L @ L.T`` reconstructing ``a``.

    Raises
    ------
    NotPositiveDefinite
        If factorization breaks down or any pivot is at or below ``PD_TOL``,
        signalling that the input is not a valid covariance.
    """
    return _cholesky_factor(check_symmetric(a))


def _cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of a matrix already known to be finite and symmetric.

    The trusted core of :func:`cholesky`: no input checks, the same
    breakdown handling and the same pivot floor.
    """
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    pivots = factor.diagonal()
    if (pivots <= PD_TOL).any():
        raise NotPositiveDefinite(
            f"Cholesky pivot {float(pivots.min()):.3e} at or below floor {PD_TOL:g}")
    return factor


def _cholesky_factors(a: np.ndarray,
                      ) -> tuple[np.ndarray, dict[int, NotPositiveDefinite]]:
    """:func:`_cholesky_factor` of each matrix in a (B, n, n) stack.

    Returns the stacked factors and the failures: a map from each row that
    breaks down or has a pivot at or below ``PD_TOL`` to the
    NotPositiveDefinite that :func:`_cholesky_factor` raises for it; such a
    row's factor is NaN. A stacked factorization raises for the whole stack
    when any one row breaks down, so on that rare path, and when a pivot is
    too low, the rows are factored one at a time. Every factor equals the
    one its row gets on its own, bit for bit.
    """
    try:
        factors = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        factors = None
    if factors is not None and (factors.diagonal(0, -2, -1) > PD_TOL).all():
        return factors, {}
    factors = np.full_like(a, np.nan)
    failures = {}
    for row, matrix in enumerate(a):
        try:
            factors[row] = _cholesky_factor(matrix)
        except NotPositiveDefinite as exc:
            failures[row] = exc
    return factors, failures


def validate_covariance(a: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Check the covariance-matrix invariants (symmetry, positive definiteness).

    Returns the validated array unchanged so the call can be used inline.
    """
    a = check_symmetric(a, name=name)
    try:
        _cholesky_factor(a)
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(f"{name}: {exc}") from exc
    return a


def log_det(a: np.ndarray) -> float:
    """Log-determinant of an SPD matrix, computed from its Cholesky pivots.

    Summing logs of the pivots avoids the overflow/underflow a det-then-log
    evaluation would hit on ill-conditioned inputs.
    """
    return float(_log_det_of_factor(cholesky(a)))


def _log_det_of_factor(factor: np.ndarray):
    """Log-determinant of ``L @ L.T`` from the pivots of its Cholesky factor L.

    ``factor`` may be one factor or a stack of them; a stack gives one
    log-determinant per row.
    """
    return 2.0 * np.log(factor.diagonal(0, -2, -1)).sum(axis=-1)


def det(a: np.ndarray) -> float:
    """Determinant of an SPD matrix; strictly positive."""
    return float(np.exp(log_det(a)))


def inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix: a Cholesky check, then an LU solve of ``I``.

    The result is symmetrized before return and is itself SPD.
    """
    cholesky(a)
    return symmetrize(np.linalg.solve(a, np.eye(len(a))))


def trace(a: np.ndarray) -> float:
    """Sum of the diagonal entries of a square matrix."""
    return float(_trace(check_square(a)))


def _trace(a: np.ndarray):
    """Trace of a square matrix, or of each matrix in a stack."""
    return a.diagonal(0, -2, -1).sum(axis=-1)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Arithmetic mean of a square matrix and its transpose; idempotent."""
    return _symmetrize(check_square(a))


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """:func:`symmetrize` of a square matrix, or of each matrix in a stack."""
    return (a + a.swapaxes(-1, -2)) / 2.0


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def _frobenius_norms(a: np.ndarray) -> np.ndarray:
    """:func:`frobenius_norm` of each matrix in a stack, bit for bit.

    Each row is reduced by the same inner product that :func:`frobenius_norm`
    takes of its flattened matrix. An empty stack gives an empty array.
    """
    flat = a.reshape(len(a), 1, a.shape[-2] * a.shape[-1])
    return np.sqrt((flat @ flat.swapaxes(-1, -2))[:, 0, 0])


def random_spd(dim: int, seed: int, cond_target: float = 10.0) -> np.ndarray:
    """Seeded random SPD matrix with a controlled condition number.

    Draws a standard-Gaussian matrix, takes the orthogonal factor Q of its QR
    decomposition (sign-fixed for uniqueness), and assembles ``Q @ diag(w) @ Q.T``
    where the eigenvalues ``w`` are log-uniformly spaced on
    ``[1/sqrt(cond_target), sqrt(cond_target)]``. The spectrum has geometric
    mean 1, so outputs are unit-scale regardless of conditioning.

    Parameters
    ----------
    dim : int
        Matrix dimension, at least 1.
    seed : int
        Seed, at least 0; identical arguments give bit-identical output.
    cond_target : float, optional
        Ratio of the extreme eigenvalues; must be >= 1.

    Returns
    -------
    ndarray, shape (dim, dim)
        A matrix passing ``validate_covariance``. This is a batch of one of
        :func:`_random_spds`.
    """
    _check_numbers({"cond_target": cond_target}, dim=dim, seed=seed)
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    return _random_spds(dim, [seed], cond_target)[0]


def _check_numbers(reals: dict, **integers) -> None:
    """Raise InvalidParameter for an argument of the wrong type.

    Each of ``integers`` must be an int, numpy integers included, and each
    of ``reals`` a real number; a bool is neither.
    """
    for name, value in integers.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidParameter(f"{name} must be an int, got {value!r}")
    for name, value in reals.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidParameter(f"{name} must be a real number, got {value!r}")


def _random_spds(dim: int, seeds, cond_target: float) -> np.ndarray:
    """:func:`random_spd` of every seed, as one (len(seeds), dim, dim) stack.

    Only the Gaussian draws are made one seed at a time. The QR
    decompositions, sign fixes and assemblies run on the whole stack, and a
    stacked QR or product equals the per-matrix one bit for bit, so every
    row is the matrix :func:`random_spd` gives for its seed.
    """
    if dim < 1:
        raise InvalidParameter(f"dim must be >= 1, got {dim}")
    if not np.isfinite(cond_target) or cond_target < 1.0:
        raise InvalidParameter(f"cond_target must be >= 1, got {cond_target}")
    gauss = np.array([np.random.default_rng(seed).standard_normal((dim, dim))
                      for seed in seeds])
    q, r = np.linalg.qr(gauss)
    q = q * np.where(r.diagonal(0, -2, -1) >= 0.0, 1.0, -1.0)[:, None, :]
    # Exponents symmetric around 0 make the eigenvalue geometric mean exactly 1;
    # dim == 1 degenerates to a single unit eigenvalue.
    exponents = (np.arange(dim) - (dim - 1) / 2.0) / max(dim - 1, 1)
    eigenvalues = cond_target ** exponents
    return _symmetrize((q * eigenvalues) @ q.swapaxes(-1, -2))
