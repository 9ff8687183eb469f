"""Kalman analysis step: the analytic gain and the Joseph-form covariance update.

The Joseph form is the only covariance update exposed here because it stays
valid (symmetric, positive definite) for *any* finite gain matrix, optimal or
not, which is exactly what the gain optimizers in this package need. Problems
are built and checked as stacks (``_build_problems``); a lone
:class:`FilterProblem` checks its shapes and is a batch of one.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import matrix_core
from .exceptions import DimensionMismatch, GainlabError, InvalidParameter

__all__ = [
    "FilterProblem",
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
        prior = matrix_core._check_square(self.prior, "prior")
        obs_noise = matrix_core._check_square(self.obs_noise, "obs_noise")
        obs_op = np.asarray(self.obs_op, dtype=float)
        if obs_op.ndim != 2:
            raise DimensionMismatch(f"obs_op must be 2-D, got shape {obs_op.shape}")
        if obs_op.shape[1] != prior.shape[0]:
            raise DimensionMismatch(
                f"obs_op has {obs_op.shape[1]} columns but prior is "
                f"{prior.shape[0]}x{prior.shape[0]}")
        if obs_op.shape[0] != obs_noise.shape[0]:
            raise DimensionMismatch(
                f"obs_op has {obs_op.shape[0]} rows but obs_noise is "
                f"{obs_noise.shape[0]}x{obs_noise.shape[0]}")
        built, = _build_problems(prior[None].copy(), obs_op[None].copy(),
                                 obs_noise[None].copy())
        if isinstance(built, GainlabError):
            raise built
        vars(self).update(vars(built))

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


def _build_problems(priors: np.ndarray, obs_ops: np.ndarray,
                    noises: np.ndarray) -> list:
    """The problems of (B, n, n) priors, (B, m, n) operators, (B, m, m) noises.

    The checks of :class:`FilterProblem` but the shape checks run on the
    whole stacks, or, should a row fail, on each row alone. Returns each
    row's problem, bit for bit the one built alone, or the GainlabError that
    building it alone raises. The stacks, which the caller hands over,
    become the problems' read-only arrays, and each problem records them
    and its row, so that :func:`_stacks` hands them on whole.
    """
    try:
        matrix_core._check_covariance(priors, "prior")
        matrix_core._check_covariance(noises, "obs_noise")
        if not np.isfinite(obs_ops).all():
            raise InvalidParameter("obs_op contains non-finite entries")
        cross = priors @ obs_ops.swapaxes(-1, -2)
        innovation = obs_ops @ cross + noises
        if not np.isfinite(innovation).all():
            raise InvalidParameter("matrix contains non-finite entries")
        matrix_core._cholesky_factor(innovation)
    except GainlabError as exc:
        if len(priors) == 1:
            return [exc]
        return [_build_problems(priors[[row]], obs_ops[[row]], noises[[row]])[0]
                for row in range(len(priors))]
    fields = dict(prior=priors, obs_op=obs_ops, obs_noise=noises, cross=cross,
                  innovation=innovation)
    for stack in fields.values():
        stack.flags.writeable = False
    problems = [FilterProblem.__new__(FilterProblem) for _ in priors]
    for row, problem in enumerate(problems):
        vars(problem).update({name: stack[row] for name, stack in fields.items()},
                             state_dim=priors.shape[-1], obs_dim=noises.shape[-1],
                             _built=(fields, row))
    return problems


def _stacks(problems) -> Optional[dict]:
    """The stacks of the one build whose rows, in order, are ``problems``.

    Returns the read-only ``prior``, ``obs_op``, ``obs_noise``, ``cross``
    and ``innovation`` stacks of the :func:`_build_problems` call that made
    every one of the problems, in the order of its rows and no other, or
    None when no call did.
    """
    stacks = problems[0]._built[0]
    if len(stacks["prior"]) != len(problems):
        return None
    for row, problem in enumerate(problems):
        built, at = problem._built
        if built is not stacks or at != row:
            return None
    return stacks


def analytic_gain(problem: FilterProblem) -> np.ndarray:
    """Optimal gain ``P @ H.T @ inv(H @ P @ H.T + R)``, shape (n, m).

    A batch of one of :func:`_analytic_gains`, which raises that row's
    failure, so this and the stacked gains of ``run`` and ``gradcheck``
    share one solve.
    """
    gains, failures = _analytic_gains(problem.cross[None],
                                      problem.innovation[None])
    if failures:
        raise failures[0]
    return gains[0]


def _analytic_gains(cross: np.ndarray, innovation: np.ndarray,
                    ) -> tuple[np.ndarray, dict]:
    """The analytic gain of each row of stacks of ``P H.T`` and ``S``.

    The innovation covariance ``S``, checked when the problem was built, is
    never inverted explicitly: each gain is the solve of
    ``S @ X = (P @ H.T).T``, transposed, which is more accurate than forming
    the inverse. Returns (gains, failures) by one
    :func:`~gainlab.matrix_core._solves`: a row whose ``S`` passed its
    Cholesky check but is singular to the solve, as one can be near
    condition 1e17, fails alone with NotPositiveDefinite and a NaN gain.
    """
    with np.errstate(invalid="ignore"):
        gains, failures = matrix_core._solves(innovation,
                                              cross.swapaxes(-1, -2))
    return gains.swapaxes(-1, -2), failures


def joseph_update(problem: FilterProblem, gain: np.ndarray) -> np.ndarray:
    """Posterior covariance ``(I - KH) P (I - KH).T + K R K.T``, symmetrized.

    Valid for any finite gain; the result stays SPD whenever the prior and
    noise covariances are SPD. No SPD validation is performed here; consumers
    that factorize the output (log-determinant, log-det gradient) surface
    degeneracy as NotPositiveDefinite at that point.

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
    (n, n) identity, or a stack of one per row, which the subtraction need
    not broadcast; callers evaluating many gains build it once.
    """
    ikh = identity - gain @ problem.obs_op
    updated = (ikh @ problem.prior @ ikh.swapaxes(-1, -2)
               + gain @ problem.obs_noise @ gain.swapaxes(-1, -2))
    return matrix_core._symmetrize(updated)
