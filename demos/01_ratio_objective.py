#!/usr/bin/env python3
# Walk through the building block of training: the LSIF ratio objective,
# clipped and plain.

import numpy as np

from pushift import ratio_objective

# The corrected objective clips the part whose population value cannot be
# negative.  With alpha = 0 the clip can never engage; with a large alpha and
# scores that overshoot on the positives it does.
r_pos = np.array([2.0, 1.8, 2.2])
r_unl = np.array([0.1, 0.3, 0.2, 0.1])
for alpha in (0.0, 0.5, 0.9):
    objective = ratio_objective(alpha)
    _, _, branch = objective.weights(r_pos, r_unl)
    print(f"alpha={alpha}: corrected={objective.value(r_pos, r_unl):+.4f} "
          f"plain={objective.plain(r_pos, r_unl):+.4f} "
          f"bracket={objective.bracket_value(r_pos, r_unl):+.4f} branch={branch.value}")
