"""Cost-sensitive classification on top of a ratio model.

A shift between the training and test class-priors is equivalent to moving
the false-positive cost: the matched cost c0 makes the training-distribution
risk proportional to the test-distribution risk, so the classifier is simply
a threshold on the ratio at theta = c0 / train_prior.  Ties resolve to the
positive label, the same convention the prior-estimation sweep uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["ShiftSpec", "cost_threshold", "threshold_decisions"]


@dataclass(frozen=True)
class ShiftSpec:
    train_prior: float
    test_prior: float
    cost: float = 0.5

    def __post_init__(self):
        for name in ("train_prior", "test_prior", "cost"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ConfigError(f"{name} must lie strictly inside (0, 1), got {v}")


def cost_threshold(spec: ShiftSpec):
    """Matched cost c0 and ratio threshold theta = c0 / train_prior.

    With no shift (test_prior == train_prior) c0 collapses to the plain
    cost, and at the fully symmetric point the threshold sits at ratio 1.
    """
    pi, pi_p, c = spec.train_prior, spec.test_prior, spec.cost
    num = c * pi * (1.0 - pi_p)
    den = (1.0 - c) * (1.0 - pi) * pi_p + num
    c0 = num / den
    return c0, c0 / pi


def threshold_decisions(r_values, theta: float) -> np.ndarray:
    """The classifier: +1 where the score is >= theta (ties positive), else -1."""
    r = np.asarray(r_values, dtype=float)
    return np.where(r >= theta, 1, -1)
