"""
The analysis step: analytic gain and Joseph-form covariance update
==================================================================

Builds a small assimilation problem, computes the closed-form gain, and
applies the Joseph-form update. The posterior covariance is smaller than the
prior in every dispersion measure: trace, determinant, and entropy.
"""

import numpy as np

import gainlab as gl

np.set_printoptions(precision=4, suppress=True)

# A 4-dimensional state observed through 2 noisy linear measurements.
problem = gl.make_problem(state_dim=4, obs_dim=2, seed=20260324, cond_target=10.0)

print("prior covariance:")
print(problem.prior)
print("\nobservation operator:")
print(problem.obs_op)
print("\nobservation noise covariance:")
print(problem.obs_noise)

# The innovation covariance weighs projected prior uncertainty against noise.
print("\ninnovation covariance H P H' + R:")
print(problem.innovation)

gain = gl.analytic_gain(problem)
print("\nanalytic gain:")
print(gain)

# The Joseph form stays symmetric positive definite for any gain; here we use
# the optimal one.
posterior = gl.joseph_update(problem, gain)
print("\nposterior covariance:")
print(posterior)

print("\ndispersion before -> after assimilation")
print(f"  trace:       {gl.trace(problem.prior):10.4f} -> {gl.trace(posterior):10.4f}")
print(f"  determinant: {gl.det(problem.prior):10.4f} -> {gl.det(posterior):10.4f}")
zero = np.zeros_like(gain)
print(f"  entropy:     {gl.differential_entropy(problem, zero):10.4f} -> "
      f"{gl.differential_entropy(problem, gain):10.4f}")

# A closed-form identity worth knowing: at the optimal gain (and only there)
# the Joseph form collapses to (I - KH) P.
short_form = (np.eye(problem.state_dim) - gain @ problem.obs_op) @ problem.prior
gap = np.linalg.norm(posterior - short_form) / np.linalg.norm(posterior)
print(f"\nrelative gap to the short form (I - KH) P at the optimum: {gap:.2e}")
