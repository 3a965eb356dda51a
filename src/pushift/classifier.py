"""Cost-sensitive classification on top of a ratio model.

A shift between the training and test class-priors is equivalent to moving
the false-positive cost: the matched cost c0 makes the training-distribution
risk proportional to the test-distribution risk, so the classifier is simply
a threshold on the ratio at theta = c0 / train_prior.  Ties resolve to the
positive label, the same convention the prior-estimation sweep uses.

The exact finite-support risk calculators back the numerical checks of the
excess-risk bounds: on a discrete distribution both the risk of a threshold
rule and the Bayes risk are exhaustive sums, so the bounds can be verified
to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import DiscreteDistributionPair, population_divergence
from .errors import ConfigError
from .generators import BregmanGenerator

__all__ = [
    "ShiftSpec",
    "cost_threshold",
    "threshold_decisions",
    "finite_support_risk",
    "finite_support_bayes_risk",
    "excess_risk_bound_check",
    "squared_loss_decomposition",
]


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


def finite_support_risk(dist: DiscreteDistributionPair, decisions, prior: float, cost: float) -> float:
    """Exact cost-weighted risk of fixed per-point decisions."""
    d = np.asarray(decisions, dtype=int)
    miss_pos = (1.0 - cost) * prior * dist.p_plus_mass
    miss_neg = cost * (1.0 - prior) * dist.p_minus_mass
    return float(np.sum(np.where(d == 1, miss_neg, miss_pos)))


def finite_support_bayes_risk(dist: DiscreteDistributionPair, prior: float, cost: float) -> float:
    """Exact Bayes risk: pick the cheaper label at every support point."""
    miss_pos = (1.0 - cost) * prior * dist.p_plus_mass
    miss_neg = cost * (1.0 - prior) * dist.p_minus_mass
    return float(np.sum(np.minimum(miss_pos, miss_neg)))


def bound_constant(spec: ShiftSpec) -> float:
    """Leading constant of the shifted excess-risk bound."""
    pi, pi_p, c = spec.train_prior, spec.test_prior, spec.cost
    c0, _ = cost_threshold(spec)
    return pi * (c + pi_p - 2.0 * c * pi_p) / (c0 + pi - 2.0 * c0 * pi)


def excess_risk_bound_check(
    dist: DiscreteDistributionPair,
    r_values,
    spec: ShiftSpec,
    gen: BregmanGenerator,
    tol: float = 1e-10,
):
    """Exact excess risk of the matched-cost threshold rule vs its bound.

    Returns (lhs, rhs); raises if the bound fails by more than ``tol``.
    The distribution's own mixing prior is the training prior, so ``spec``
    must carry the same value.
    """
    if not gen.strongly_convex:
        raise ConfigError(f"generator {gen.name} is not strongly convex (mu={gen.mu})")
    if abs(spec.train_prior - dist.prior) > 1e-12:
        raise ConfigError("spec.train_prior must match the distribution prior")
    c0, theta = cost_threshold(spec)
    decisions = threshold_decisions(r_values, theta)
    risk = finite_support_risk(dist, decisions, spec.test_prior, spec.cost)
    bayes = finite_support_bayes_risk(dist, spec.test_prior, spec.cost)
    lhs = risk - bayes
    br = population_divergence(gen, dist, r_values)
    rhs = bound_constant(spec) * np.sqrt(max(0.0, 2.0 * br / gen.mu))
    if lhs > rhs + tol:
        raise AssertionError(f"excess-risk bound violated: lhs={lhs!r} > rhs={rhs!r}")
    return lhs, rhs


def squared_loss_decomposition(dist: DiscreteDistributionPair, r_values, mu: float = 1.0):
    """Two independent evaluations of the squared-loss identity.

    lhs = (2 pi^2 / mu) * BR(r*, r) for the quadratic generator of curvature
    mu.  rhs = squared-loss excess risk of g_r = 2 min(pi r, 1) - 1 plus the
    overshoot term collected on the event pi r > 1.  Both are exhaustive
    sums over the support and must agree to machine precision.
    """
    from .generators import scaled_quadratic_generator

    gen = scaled_quadratic_generator(mu)
    r = np.asarray(r_values, dtype=float)
    pi = dist.prior
    p = dist.marginal_mass
    eta = dist.posterior

    lhs = (2.0 * pi**2 / gen.mu) * population_divergence(gen, dist, r)

    g = 2.0 * np.minimum(pi * r, 1.0) - 1.0
    g_star = 2.0 * eta - 1.0

    def sq_risk(gv):
        cond = eta * (gv - 1.0) ** 2 / 4.0 + (1.0 - eta) * (gv + 1.0) ** 2 / 4.0
        return float(np.sum(p * cond))

    excess_sq = sq_risk(g) - sq_risk(g_star)
    over = pi * r > 1.0
    overshoot = float(np.sum(p[over] * (pi * r[over] - 1.0) * (pi * r[over] + 1.0 - 2.0 * eta[over])))
    return lhs, excess_sq + overshoot
