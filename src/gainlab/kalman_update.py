"""Kalman analysis step: the analytic gain and the Joseph-form covariance update.

The Joseph form is the only covariance update exposed here because it stays
valid (symmetric, positive definite) for *any* finite gain matrix, optimal or
not, which is exactly what the gain optimizers in this package need.
"""

from dataclasses import dataclass, field

import numpy as np

from . import matrix_core
from .exceptions import DimensionMismatch, InvalidParameter

__all__ = [
    "FilterProblem",
    "innovation_covariance",
    "analytic_gain",
    "joseph_update",
]


@dataclass(frozen=True)
class FilterProblem:
    """Bundle of prior covariance, observation operator, and noise covariance.

    Attributes
    ----------
    prior : ndarray, shape (n, n)
        SPD error covariance of the state estimate before assimilation.
    obs_op : ndarray, shape (m, n)
        Linear(ized) observation operator mapping state to observation space.
        Any finite real matrix is accepted; full rank is not required.
    obs_noise : ndarray, shape (m, m)
        SPD observation error covariance.
    cross, innovation : ndarray, shapes (n, m) and (m, m)
        The gain-free terms ``P @ H.T`` and ``S = H @ (P @ H.T) + R``,
        computed once and read-only, like the three matrices above. ``S`` is
        symmetric only to rounding; it is checked here, once, for finite
        entries and by a Cholesky factorization with the pivot floor ``PD_TOL``.
    """

    prior: np.ndarray
    obs_op: np.ndarray
    obs_noise: np.ndarray
    state_dim: int = field(init=False)
    obs_dim: int = field(init=False)
    cross: np.ndarray = field(init=False, repr=False)
    innovation: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        prior = matrix_core.validate_covariance(self.prior, name="prior")
        obs_noise = matrix_core.validate_covariance(self.obs_noise, name="obs_noise")
        obs_op = np.asarray(self.obs_op, dtype=float)
        if obs_op.ndim != 2:
            raise DimensionMismatch(f"obs_op must be 2-D, got shape {obs_op.shape}")
        if not np.all(np.isfinite(obs_op)):
            raise InvalidParameter("obs_op contains non-finite entries")
        if obs_op.shape[1] != prior.shape[0]:
            raise DimensionMismatch(
                f"obs_op has {obs_op.shape[1]} columns but prior is "
                f"{prior.shape[0]}x{prior.shape[0]}")
        if obs_op.shape[0] != obs_noise.shape[0]:
            raise DimensionMismatch(
                f"obs_op has {obs_op.shape[0]} rows but obs_noise is "
                f"{obs_noise.shape[0]}x{obs_noise.shape[0]}")
        cross = prior @ obs_op.T
        innovation = obs_op @ cross + obs_noise
        if not np.all(np.isfinite(innovation)):
            raise InvalidParameter("matrix contains non-finite entries")
        matrix_core._cholesky_factor(innovation)
        for name, value in (("prior", prior.copy()), ("obs_op", obs_op.copy()),
                            ("obs_noise", obs_noise.copy()), ("cross", cross),
                            ("innovation", innovation)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "state_dim", prior.shape[0])
        object.__setattr__(self, "obs_dim", obs_noise.shape[0])

    def check_gain(self, gain: np.ndarray, name: str = "gain") -> np.ndarray:
        """Validate a gain matrix against this problem's (n, m) shape."""
        gain = np.asarray(gain, dtype=float)
        if gain.shape != (self.state_dim, self.obs_dim):
            raise DimensionMismatch(
                f"{name} must have shape ({self.state_dim}, {self.obs_dim}), "
                f"got {gain.shape}")
        if not np.all(np.isfinite(gain)):
            raise InvalidParameter(f"{name} contains non-finite entries")
        return gain


def innovation_covariance(problem: FilterProblem) -> np.ndarray:
    """The innovation covariance ``H @ (P @ H.T) + R`` that the problem stores.

    Computed and checked once, when the problem is built, and symmetric only
    to rounding. SPD because the noise covariance is SPD and the projected
    prior term is positive semidefinite.
    """
    return problem.innovation


def analytic_gain(problem: FilterProblem) -> np.ndarray:
    """Optimal gain ``P @ H.T @ inv(H @ P @ H.T + R)``, shape (n, m).

    The innovation covariance ``S``, checked when the problem was built, is
    never inverted explicitly: the gain is the solve of ``S @ X = (P @ H.T).T``,
    transposed, which is more accurate than forming the inverse.
    """
    return np.linalg.solve(problem.innovation, problem.cross.T).T


def joseph_update(problem: FilterProblem, gain: np.ndarray) -> np.ndarray:
    """Posterior covariance ``(I - KH) P (I - KH).T + K R K.T``, symmetrized.

    Valid for any finite gain; the result stays SPD whenever the prior and
    noise covariances are SPD. No SPD validation is performed here; consumers
    that factorize the output (log-determinant, inverse) surface degeneracy
    as NotPositiveDefinite at that point.

    The gain is validated against the problem on every call. The optimizer
    skips that check: it evaluates the same formula on its stacked iterates,
    which it validates only for finiteness.
    """
    gain = problem.check_gain(gain)
    return _joseph_form(problem, gain, np.eye(problem.state_dim))


def _joseph_form(problem: FilterProblem, gain: np.ndarray,
                 identity: np.ndarray) -> np.ndarray:
    """The Joseph update of a gain already checked against ``problem``.

    ``problem`` may also be a stack of problems: any object whose ``prior``,
    ``obs_op`` and ``obs_noise`` are (B, n, n), (B, m, n) and (B, m, m)
    arrays, with ``gain`` a (B, n, m) stack. Each row of the result equals
    the update of that row on its own, bit for bit. ``identity`` is the
    (n, n) identity, passed in so that callers evaluating many gains build it
    once.
    """
    ikh = identity - gain @ problem.obs_op
    updated = (ikh @ problem.prior @ ikh.swapaxes(-1, -2)
               + gain @ problem.obs_noise @ gain.swapaxes(-1, -2))
    return matrix_core._symmetrize(updated)
