"""Shared generators for seeded random problems and gains, and start injection."""

import numpy as np
import pytest

import gainlab.optimizer as optimizer
from gainlab.experiment import make_problem, mix_seed
from gainlab.kalman_update import analytic_gain

CONDITIONS = (1.0, 10.0, 100.0)


def seeded_problem(trial: int, master_seed: int = 5, max_dim: int = 8,
                   conditions=CONDITIONS):
    """Random filter problem for test trial ``trial``: seeded dims and matrices."""
    seed = mix_seed(master_seed, trial)
    rng = np.random.default_rng(mix_seed(seed, 10))
    n = int(rng.integers(1, max_dim + 1))
    m = int(rng.integers(1, max_dim + 1))
    cond = conditions[trial % len(conditions)]
    return make_problem(n, m, seed, cond)


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
    from gainlab.kalman_update import FilterProblem
    return FilterProblem(prior=[[prior]], obs_op=[[obs]], obs_noise=[[noise]])


def starting_from(monkeypatch, start):
    """Make every lockstep batch call ``start(prior, gain)`` on each row.

    ``start`` may edit the row's starting ``gain`` in place; ``prior`` is
    the row's prior covariance, which tells the problems apart.
    """
    lockstep = optimizer._lockstep
    def patched(batch, ids, gains, config, outcomes):
        for prior, gain in zip(batch.prior, gains):
            start(prior, gain)
        return lockstep(batch, ids, gains, config, outcomes)
    monkeypatch.setattr(optimizer, "_lockstep", patched)
