"""Dense SPD matrix utilities: validation, Cholesky, determinants.

Determinant, log-determinant and positive-definiteness checks all route
through a single Cholesky factorization, the one source of truth for what
counts as a valid covariance matrix. Every Cholesky factorization and
linear solve of the package goes through one of two row kernels here,
``_cholesky_factors`` and ``_solves``: one LAPACK call per stack, each row
failing alone.
"""

import numbers

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import DimensionMismatch, InvalidParameter, NotPositiveDefinite

__all__ = [
    "SYMMETRY_TOL",
    "PD_TOL",
    "validate_covariance",
    "cholesky",
    "log_det",
    "det",
    "trace",
    "frobenius_norm",
    "random_spd",
]

# Relative symmetry tolerance and absolute Cholesky pivot floor. Both sit
# comfortably above double-precision noise for the dimensions this package
# targets (up to a few dozen).
SYMMETRY_TOL = 1e-9
PD_TOL = 1e-12


def _check_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a float ndarray, raising DimensionMismatch if not square."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _check_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate the entries and entrywise symmetry of a square float matrix.

    An entry pair (i, j), (j, i) is accepted when their difference is within
    ``SYMMETRY_TOL * max(1, |a[i, j]|)``. ``a`` may be a stack of matrices,
    which fails as a whole when any one of them does.
    """
    if not np.isfinite(a).all():
        raise InvalidParameter(f"{name} contains non-finite entries")
    gap = np.abs(a - a.swapaxes(-1, -2))
    if not (gap <= SYMMETRY_TOL * np.maximum(1.0, np.abs(a))).all():
        raise InvalidParameter(
            f"{name} is not symmetric to tolerance {SYMMETRY_TOL:g} "
            f"(max asymmetry {float(gap.max()):.3e})")
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
    return _cholesky_factor(_check_symmetric(_check_square(a)))


def _cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of a matrix already known to be finite and symmetric.

    The trusted core of :func:`cholesky`: no input checks, the same
    breakdown handling and the same pivot floor. ``a`` may be a stack, which
    fails as a whole, with the error of its first failing matrix.
    """
    with np.errstate(invalid="ignore"):
        factors, failures = _cholesky_factors(a.reshape(-1, *a.shape[-2:]))
    if failures:
        raise failures[min(failures)]
    return factors.reshape(a.shape)


# The two row kernels call numpy's own LAPACK gufuncs, those that its linalg
# Cholesky and solve call, without their wrappers: one call per stack, in
# which LAPACK fills a failed row with NaN. A failure raises numpy's
# ``invalid`` flag, which callers hide with np.errstate(invalid="ignore"),
# once per batch.
_BREAKDOWN = "matrix is not positive definite: Matrix is not positive definite"
_SINGULAR = "matrix is not positive definite: Singular matrix"


def _cholesky_factors(a: np.ndarray,
                      ) -> tuple[np.ndarray, dict[int, NotPositiveDefinite]]:
    """:func:`_cholesky_factor` of each matrix of a (B, n, n) stack.

    Returns the factors, each that of numpy's linalg Cholesky bit for bit,
    and the failures: a map from each row that breaks down (its factor is
    NaN) or whose smallest pivot is at or below ``PD_TOL`` to its error. A
    failed row's factor is meaningless.
    """
    factors = _umath_linalg.cholesky_lo(a, signature="d->d")
    pivots = factors.diagonal(0, -2, -1)
    failures = {}
    # A NaN pivot fails the comparison, so one minimum finds any failure.
    if not pivots.min(initial=np.inf) > PD_TOL:
        lowest = pivots.min(axis=-1)
        for row in (~(lowest > PD_TOL)).nonzero()[0]:
            pivot = float(lowest[row])
            failures[int(row)] = NotPositiveDefinite(
                f"Cholesky pivot {pivot:.3e} at or below floor {PD_TOL:g}"
                if pivot <= PD_TOL else _BREAKDOWN)
    return factors, failures


def _solves(a: np.ndarray, b: np.ndarray,
            ) -> tuple[np.ndarray, dict[int, NotPositiveDefinite]]:
    """The solve of ``a @ x = b`` by row, for (B, n, n) and (B, n, k) stacks.

    Returns the solutions, each row's bit for bit that of numpy's linalg
    solve of that row alone, and the failures. Near condition 1e17, an
    ``a`` can pass its Cholesky check and still be singular to the LU
    solve: that row's solution is NaN, and it fails alone with
    NotPositiveDefinite.
    """
    solutions = _umath_linalg.solve(a, b, signature="dd->d")
    return solutions, {
        int(row): NotPositiveDefinite(_SINGULAR)
        for row in np.isnan(solutions[:, 0, 0]).nonzero()[0]}


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solve of ``a @ x = b`` for an ``a`` that passed its Cholesky check.

    A batch of one of :func:`_solves`, which raises its failure.
    """
    with np.errstate(invalid="ignore"):
        solutions, failures = _solves(a[None], b[None])
    if failures:
        raise failures[0]
    return solutions[0]


def validate_covariance(a: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Check the covariance-matrix invariants (symmetry, positive definiteness).

    Returns the validated array unchanged so the call can be used inline.
    """
    return _check_covariance(_check_square(a, name), name)


def _check_covariance(a: np.ndarray, name: str) -> np.ndarray:
    """:func:`validate_covariance` of a float matrix, or of a whole stack."""
    _check_symmetric(a, name)
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


def trace(a: np.ndarray) -> float:
    """Sum of the diagonal entries of a square matrix."""
    return float(_trace(_check_square(a)))


def _trace(a: np.ndarray):
    """Trace of a square matrix, or of each matrix in a stack."""
    return a.diagonal(0, -2, -1).sum(axis=-1)


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Mean of a square matrix and its transpose, or of each in a stack."""
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
        :func:`_random_spds`, with the one target ``cond_target``, which
        raises the errors of out-of-range arguments.
    """
    _check_numbers({"cond_target": cond_target}, dim=dim, seed=seed)
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    return _random_spds(dim, [seed], [cond_target])[0]


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


def _random_spds(dim: int, seeds, conds) -> np.ndarray:
    """:func:`random_spd` of every seed, as one (len(seeds), dim, dim) stack.

    ``conds`` holds one condition target per seed, and is checked as one
    array: the first target out of range raises the InvalidParameter that
    :func:`random_spd` raises for it. Only the Gaussian draws are made one
    seed at a time. The QR decompositions, sign fixes, eigenvalue powers and
    assemblies run on the whole stack, and each equals its per-matrix
    operation bit for bit, so every row is the matrix :func:`random_spd`
    gives for its seed and target.
    """
    if dim < 1:
        raise InvalidParameter(f"dim must be >= 1, got {dim}")
    targets = np.asarray(conds, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(targets) & (targets >= 1.0)))
    if bad.size:
        raise InvalidParameter(f"cond_target must be >= 1, got {conds[bad[0]]}")
    gauss = np.array([np.random.default_rng(seed).standard_normal((dim, dim))
                      for seed in seeds])
    q, r = np.linalg.qr(gauss)
    q = q * np.where(r.diagonal(0, -2, -1) >= 0.0, 1.0, -1.0)[:, None, :]
    # Exponents symmetric around 0 make the eigenvalue geometric mean exactly 1;
    # dim == 1 degenerates to a single unit eigenvalue.
    exponents = (np.arange(dim) - (dim - 1) / 2.0) / max(dim - 1, 1)
    eigenvalues = targets[:, None, None] ** exponents
    return _symmetrize((q * eigenvalues) @ q.swapaxes(-1, -2))
