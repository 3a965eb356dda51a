#!/usr/bin/env python3
# Walk through the building blocks: a convex generator and the ratio
# objective it induces (clipped and plain).

import numpy as np

from pushift import lsif_generator, ratio_objective

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
