#!/usr/bin/env python3
# Walk through the building blocks: convex generators, the ratio objective
# (clipped and plain), and the exact divergence on a small discrete distribution.

import numpy as np

from pushift import (
    DiscreteDistributionPair,
    exp_generator,
    lsif_generator,
    population_divergence,
    ratio_objective,
    scaled_quadratic_generator,
)

lsif = lsif_generator()
print("Quadratic generator:", lsif.name)
print("  f(2) =", lsif.f(2.0), " f'(2) =", lsif.f_prime(2.0), " f*(2) =", lsif.f_conj(2.0))
print("  strong convexity mu =", lsif.mu)

# The corrected objective clips the part whose population value cannot be
# negative.  With alpha = 0 the clip can never engage; with a large alpha and
# scores that overshoot on the positives it does.
r_pos = np.array([2.0, 1.8, 2.2])
r_unl = np.array([0.1, 0.3, 0.2, 0.1])
for alpha in (0.0, 0.5, 0.9):
    objective = ratio_objective(lsif, alpha)
    _, _, branch = objective.weights(r_pos, r_unl)
    print(f"alpha={alpha}: corrected={objective.value(r_pos, r_unl):+.4f} "
          f"plain={objective.plain(r_pos, r_unl):+.4f} "
          f"bracket={objective.bracket_value(r_pos, r_unl):+.4f} branch={branch.value}")

# Exact divergences on a three-point distribution.  The curvature-matched
# quadratic generator always gives the smallest divergence.
dist = DiscreteDistributionPair(
    p_plus_mass=[0.1, 0.3, 0.6],
    p_minus_mass=[0.6, 0.3, 0.1],
    prior=0.4,
)
print("\ntrue ratio on the support:", np.round(dist.true_ratio, 4))
r_model = np.array([0.2, 1.0, 1.6])
for gen in (lsif, exp_generator(), scaled_quadratic_generator(0.5)):
    br = population_divergence(gen, dist, r_model)
    print(f"  divergence under {gen.name:14s} = {br:.6f}")
print("  divergence at the true ratio  =",
      population_divergence(lsif, dist, dist.true_ratio))
