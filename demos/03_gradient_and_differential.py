"""
Matrix-calculus machinery: differentials, gradients, stationarity
=================================================================

Shows the three layers of derivative information the minimizers rely on and
how they validate one another:

1. the first-order expansion of the posterior covariance in the gain,
2. the trace-form directional derivative of the log-determinant,
3. the closed-form matrix gradient, cross-checked by central differences.

At the analytic gain all of them vanish: that is the stationarity condition
whose unique solution is the closed-form gain.
"""

import numpy as np

import gainlab as gl
from gainlab.objectives import ObjectiveKind

problem = gl.make_problem(state_dim=4, obs_dim=3, seed=99, cond_target=10.0)
rng = np.random.default_rng(0)
gain = gl.analytic_gain(problem) + 0.2 * rng.standard_normal((4, 3))
direction = rng.standard_normal((4, 3))

# 1. covariance differential vs a central difference of the update itself
h = 1e-6
exact = gl.analysis_cov_differential(problem, gain, direction)
numeric = (gl.joseph_update(problem, gain + h * direction)
           - gl.joseph_update(problem, gain - h * direction)) / (2 * h)
print("covariance differential vs central difference of the update:")
print(f"  relative gap: {np.linalg.norm(exact - numeric) / np.linalg.norm(exact):.2e}")

# 2. trace-form directional derivative vs gradient inner product
directional = gl.directional_logdet_differential(problem, gain, direction)
grad = gl.logdet_gradient(problem, gain)
paired = float(np.sum(grad * direction))
print("\ndirectional derivative of log det posterior:")
print(f"  trace form:       {directional:.12f}")
print(f"  <gradient, dK>_F: {paired:.12f}")

# 3. analytic gradient vs entrywise central differences, all three objectives
print("\nanalytic gradient vs finite differences:")
for kind in ObjectiveKind:
    analytic = gl.objective_gradient(problem, gain, kind)
    fd = gl.finite_difference_gradient(problem, gain, kind)
    rel = np.linalg.norm(analytic - fd) / (1 + np.linalg.norm(analytic))
    print(f"  {kind.value:7s}: relative error {rel:.2e}")

# stationarity: the gradient and the residual vanish at the analytic gain
best = gl.analytic_gain(problem)
print("\nat the analytic gain:")
print(f"  ||logdet gradient||_F      = {np.linalg.norm(gl.logdet_gradient(problem, best)):.2e}")
print(f"  stationarity residual      = {gl.stationarity_residual(problem, best):.2e}")
print(f"  ...and away from it        = {gl.stationarity_residual(problem, gain):.2e}")
