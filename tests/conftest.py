"""Shared generators for seeded random problems and gains, and start injection."""

import numpy as np
import pytest

import gainlab.optimizer as optimizer
from gainlab.experiment import make_problem, mix_seed
from gainlab.kalman_update import FilterProblem, analytic_gain

CONDITIONS = (1.0, 10.0, 100.0)
# make_problem(2, 7, SINGULAR_SEED, 1e20) builds: its innovation covariance S
# passes the Cholesky check, but the LU solve of the analytic gain finds it
# singular.
SINGULAR_SEED = 4072691067807443344


def seeded_problem(trial: int, master_seed: int = 5, max_dim: int = 8,
                   conditions=CONDITIONS):
    """Random filter problem for test trial ``trial``: seeded dims and matrices."""
    seed = mix_seed(master_seed, trial)
    rng = np.random.default_rng(mix_seed(seed, 10))
    n = int(rng.integers(1, max_dim + 1))
    m = int(rng.integers(1, max_dim + 1))
    cond = conditions[trial % len(conditions)]
    return make_problem(n, m, seed, cond)


def spd_of_draw(gauss, cond_target):
    """random_spd's matrix from its Gaussian draw, with 2-D operations only."""
    dim = len(gauss)
    q, r = np.linalg.qr(gauss)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    exponents = (np.arange(dim) - (dim - 1) / 2.0) / max(dim - 1, 1)
    spd = (q * cond_target ** exponents) @ q.T
    return (spd + spd.T) / 2.0


def one_stream_problem(rng, state_dim, obs_dim, cond_target):
    """The problem of the next draws of ``rng``, as a gradcheck instance
    takes them: the prior's Gaussian, the noise's Gaussian, then the
    observation operator."""
    prior = spd_of_draw(rng.standard_normal((state_dim, state_dim)),
                        cond_target)
    noise = spd_of_draw(rng.standard_normal((obs_dim, obs_dim)), cond_target)
    return FilterProblem(prior=prior,
                         obs_op=rng.standard_normal((obs_dim, state_dim)),
                         obs_noise=noise)


def singular_innovation_stack():
    """2x7 problems at cond 10 to 1e20 with the singular-S problem as row 2."""
    return [make_problem(2, 7, seed, cond) for seed, cond in
            ((1, 10.0), (2, 1e4), (SINGULAR_SEED, 1e20), (3, 100.0))]


def seeded_gain(problem, trial: int, scale: float = 0.1,
                master_seed: int = 77) -> np.ndarray:
    """Random gain near the optimum: analytic gain plus a Gaussian perturbation."""
    rng = np.random.default_rng(mix_seed(master_seed, trial))
    noise = rng.standard_normal((problem.state_dim, problem.obs_dim))
    return analytic_gain(problem) + scale * noise


@pytest.fixture(scope="session")
def scalar_problem():
    """The unit scalar instance: prior 1, operator 1, noise 1."""
    return make_scalar(1.0, 1.0, 1.0)


def make_scalar(prior: float, obs: float, noise: float):
    return FilterProblem(prior=[[prior]], obs_op=[[obs]], obs_noise=[[noise]])


def starting_from(monkeypatch, start):
    """Make every lockstep batch call ``start(prior, gain)`` on each row.

    ``start`` may edit the row's starting ``gain`` in place; ``prior`` is
    the row's prior covariance, which tells the problems apart.
    """
    lockstep = optimizer._lockstep
    def patched(batch, gains, config, outcomes):
        n = gains.shape[-2]
        for joint_cov, gain in zip(batch.joint_cov, gains):
            start(joint_cov[:n, :n], gain)
        return lockstep(batch, gains, config, outcomes)
    monkeypatch.setattr(optimizer, "_lockstep", patched)
