"""Mutation adequacy of the command-line gates.

Each mutant replaces one private function or constant with a plausible
wrong version, in every module that holds it, and the table names the
gates that must kill it: run through ``main``, the gate exits nonzero. A
mutant that a gate does not kill is a strict ``xfail`` under that gate,
with the reason, so that a gate that starts killing it fails here until
the table says so.
"""

import numpy as np
import pytest

from gainlab import cli, kalman_update, matrix_core, objectives, optimizer
from gainlab.cli import main

GATES = {
    "run": ["run", "--trials", "20"],
    "check": ["check", "--seed", "1"],
    "gradcheck": ["gradcheck", "--instances", "100"],
}

_EVALUATE = objectives._Batch.evaluate
_ANALYTIC_GAINS = kalman_update._analytic_gains
_BRACKET = objectives._bracket


def _without_posterior(batch, gains):
    """The log-det gradient as ``2 M``, with ``inv(P_posterior)`` dropped."""
    values, grads, errors = _EVALUATE(batch, gains)
    rows = batch.factored
    scale = np.where(batch.entropy, 0.5, 1.0)[rows, None, None]
    grads[rows] = scale * (2.0 * _BRACKET(gains, batch.cross,
                                          batch.innovation))[rows]
    return values, grads, errors


def _entropy_not_halved(batch, gains):
    values, grads, errors = _EVALUATE(batch, gains)
    grads[batch.entropy] *= 2.0
    return values, grads, errors


def _innovation_on_the_right(batch, gains):
    """The log-det gradient as ``2 M inv(S)`` in place of ``inv(P_posterior) 2 M``."""
    values, grads, errors = _without_posterior(batch, gains)
    rows = batch.factored
    grads[rows] = np.linalg.solve(batch.innovation[rows],
                                  grads[rows].swapaxes(-1, -2)).swapaxes(-1, -2)
    return values, grads, errors


def _log_det_unscaled(factor):
    """The log-determinant without its factor 2: the log-det of ``L``."""
    return np.log(factor.diagonal(0, -2, -1)).sum(axis=-1)


def _joseph_without_noise(problem, gain, identity):
    """The Joseph update without its ``K R K.T`` term."""
    ikh = identity - gain @ problem.obs_op
    return matrix_core._symmetrize(ikh @ problem.prior @ ikh.swapaxes(-1, -2))


def _gains_against_half_innovation(cross, innovation):
    """The analytic gains solved against ``0.5 S`` in place of ``S``."""
    return _ANALYTIC_GAINS(cross, 0.5 * innovation)


def _bracket_against_half_innovation(gain, cross, innovation):
    """The bracket ``M = K S - P H.T`` with ``0.5 S`` in place of ``S``."""
    return _BRACKET(gain, cross, 0.5 * innovation)


# name: (the modules or classes that hold it, name patched, replacement)
MUTANTS = {
    "logdet_gradient_without_posterior":
        (objectives._Batch, "evaluate", _without_posterior),
    "entropy_gradient_not_halved":
        (objectives._Batch, "evaluate", _entropy_not_halved),
    "logdet_gradient_innovation_on_the_right":
        (objectives._Batch, "evaluate", _innovation_on_the_right),
    "log_det_of_factor_without_factor_2":
        (matrix_core, "_log_det_of_factor", _log_det_unscaled),
    # patched where objectives imports it, so that the stacked values change
    "joseph_form_without_noise_term":
        (objectives, "_joseph_form", _joseph_without_noise),
    "analytic_gains_against_half_innovation":
        (kalman_update, optimizer, cli, "_analytic_gains",
         _gains_against_half_innovation),
    "bracket_against_half_innovation":
        (objectives, optimizer, "_bracket", _bracket_against_half_innovation),
    "armijo_condition_sign_flipped":
        (optimizer, "_ARMIJO_C", -optimizer._ARMIJO_C),
}

# Every descent field that vanishes where the bracket M does carries the
# optimizer to the analytic gain, its BFGS curvature built from that field,
# and `run` compares only gains, not objective values.
_RUN_BLIND = pytest.mark.xfail(
    strict=True, reason="run checks only where the gradient vanishes")
# The nonmonotone reference is the largest of the last 10 values, so a
# trial's value lies far outside the band of +-1e-4 t |<g, d>| around it,
# and the term's sign decides no step the gates take.
_SEARCH_BLIND = pytest.mark.xfail(
    strict=True, reason="the Armijo term's sign decides no step taken")

TABLE = [
    ("logdet_gradient_without_posterior", "check"),
    ("logdet_gradient_without_posterior", "gradcheck"),
    pytest.param("logdet_gradient_without_posterior", "run", marks=_RUN_BLIND),
    ("entropy_gradient_not_halved", "check"),
    ("entropy_gradient_not_halved", "gradcheck"),
    pytest.param("entropy_gradient_not_halved", "run", marks=_RUN_BLIND),
    ("logdet_gradient_innovation_on_the_right", "check"),
    ("logdet_gradient_innovation_on_the_right", "gradcheck"),
    pytest.param("logdet_gradient_innovation_on_the_right", "run",
                 marks=_RUN_BLIND),
    ("log_det_of_factor_without_factor_2", "check"),
    ("log_det_of_factor_without_factor_2", "gradcheck"),
    pytest.param("log_det_of_factor_without_factor_2", "run", marks=_RUN_BLIND),
    ("joseph_form_without_noise_term", "check"),
    ("joseph_form_without_noise_term", "gradcheck"),
    # `run` kills this mutant too, but only after about 22 s of minimizations
    # that run to max_iters, so it is left out of the table.
    ("analytic_gains_against_half_innovation", "run"),
    ("analytic_gains_against_half_innovation", "check"),
    pytest.param("analytic_gains_against_half_innovation", "gradcheck",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "gradcheck compares gradients at any gain, and the "
                     "analytic gain is only where it draws them"))),
    ("bracket_against_half_innovation", "gradcheck"),
    # `run` and `check` kill this mutant too, but only after about 40 s and
    # 17 s of minimizations, so they are left out of the table.
    pytest.param("armijo_condition_sign_flipped", "run", marks=_SEARCH_BLIND),
    pytest.param("armijo_condition_sign_flipped", "check", marks=_SEARCH_BLIND),
    pytest.param("armijo_condition_sign_flipped", "gradcheck",
                 marks=_SEARCH_BLIND),
]


@pytest.mark.parametrize("gate", GATES)
def test_gates_pass_unmutated(gate, capsys):
    assert main(GATES[gate]) == 0


@pytest.mark.parametrize("mutant, gate", TABLE)
def test_gate_kills_mutant(mutant, gate, capsys, monkeypatch):
    *owners, name, replacement = MUTANTS[mutant]
    for owner in owners:
        monkeypatch.setattr(owner, name, replacement)
    with np.errstate(all="ignore"):
        assert main(GATES[gate]) != 0
