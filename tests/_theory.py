"""Test oracle: convex generators and the Bregman objectives they induce,
exact finite-support population quantities, and the randomized checks of
the package's guiding inequalities.

A generator bundles a convex function ``f`` on [0, inf) with its first two
derivatives and the induced quantities of the divergence objectives:

    f_conj(t) = t * f'(t) - f(t)        (the "tilted" conjugate along the ray)
    big_f(t)  = f_conj(t) - f_conj(0)   (nonnegative, vanishes at 0)

``mu`` is the strong-convexity constant inf_{t>=0} f''(t), declared by each
constructor because every generator here is closed form.  The package fits
with one of them, LSIF (f(t) = t^2 / 2), written out in
``divergence.ratio_objective``; ``generator_objective`` builds the objective
of any generator and is that function's reference.

On a ``DiscreteDistributionPair`` every population quantity is an
exhaustive sum over the support: the Bregman divergence from the true ratio
(``population_divergence``), the excess cost-weighted risk of fixed
decisions over the Bayes risk (``finite_support_excess_risk``), and the AUC
risk of a score (``population_auc_risk``).  The bound checks pair a
left-hand side with its bound from these sums, so the bounds are verified
to machine precision and a failure is a genuine counterexample rather than
sampling noise.

Every trial draws a distribution pair, candidate ratio values, and the
suite's cost/prior settings, and ``run_suite`` judges the (lhs, rhs) records:

* ``classification_bound``        threshold rule at the matched cost, no shift
* ``shifted_classification_bound`` same with independent test prior and cost
* ``auc_bound``                   ranking regret against the divergence
* ``quadratic_tightness``         the curvature-matched quadratic generator
                                  never exceeds the exponential generator
* ``squared_loss_identity``       exact decomposition of the quadratic
                                  divergence into squared-loss excess risk
* ``threshold_perturbation``      excess risk of a perturbed threshold stays
                                  within the worst-case slope bound
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from pushift.classifier import ShiftSpec, cost_threshold, threshold_decisions
from pushift.divergence import Objective
from pushift.errors import ConfigError

__all__ = [
    "BregmanGenerator",
    "lsif_generator",
    "scaled_quadratic_generator",
    "exp_generator",
    "generator_by_name",
    "generator_objective",
    "DiscreteDistributionPair",
    "population_divergence",
    "finite_support_excess_risk",
    "bound_constant",
    "excess_risk_bound_check",
    "squared_loss_decomposition",
    "population_auc_risk",
    "auc_excess_bound_check",
    "SuiteResult",
    "random_distribution",
    "random_ratio_values",
    "run_suite",
    "run_all",
    "SUITES",
]

IDENTITY_TOL = 1e-10
INEQUALITY_TOL = 1e-10
MAX_SUPPORT = 20


@dataclass(frozen=True)
class BregmanGenerator:
    name: str
    f: Callable
    f_prime: Callable
    f_prime2: Callable
    f_conj: Callable
    mu: float
    f_conj_at_zero: float = field(init=False)
    big_f: Callable = field(init=False)

    def __post_init__(self):
        c0 = float(self.f_conj(0.0))
        conj = self.f_conj
        object.__setattr__(self, "f_conj_at_zero", c0)
        object.__setattr__(self, "big_f", lambda t: conj(t) - c0)


def lsif_generator() -> BregmanGenerator:
    """Quadratic generator f(t) = t^2 / 2 (least-squares importance fitting)."""
    return replace(scaled_quadratic_generator(1.0), name="lsif")


def scaled_quadratic_generator(mu: float) -> BregmanGenerator:
    """Generator f(t) = mu * t^2 / 2 for a given finite curvature mu > 0."""
    if not (0 < mu < np.inf):
        raise ConfigError(f"scaled quadratic generator needs a finite mu > 0, got {mu}")
    mu = float(mu)
    return BregmanGenerator(
        name=f"quadratic:{mu:g}",
        f=lambda t: 0.5 * mu * np.square(t),
        f_prime=lambda t: mu * np.asarray(t, dtype=float),
        f_prime2=lambda t: np.full_like(np.asarray(t, dtype=float), mu),
        f_conj=lambda t: 0.5 * mu * np.square(t),
        mu=mu,
    )


def exp_generator() -> BregmanGenerator:
    """Exponential generator f(t) = e^t, with f_conj(t) = (t - 1) e^t.

    inf_{t>=0} f''(t) = 1, so this is strongly convex on the ratio domain and
    a non-quadratic stress case for the divergence identities.
    """
    return BregmanGenerator(
        name="exp",
        f=lambda t: np.exp(t),
        f_prime=lambda t: np.exp(t),
        f_prime2=lambda t: np.exp(t),
        f_conj=lambda t: (np.asarray(t, dtype=float) - 1.0) * np.exp(t),
        mu=1.0,
    )


def generator_by_name(name: str) -> BregmanGenerator:
    """Resolve a generator from its name: ``"lsif"``, ``"exp"`` or ``"quadratic:<mu>"``."""
    key = name.strip().lower()
    if key == "lsif":
        return lsif_generator()
    if key == "exp":
        return exp_generator()
    if key.startswith("quadratic:"):
        try:
            mu = float(key.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad quadratic generator spec {name!r}") from exc
        return scaled_quadratic_generator(mu)
    raise ConfigError(f"unknown generator {name!r} (expected lsif, exp, or quadratic:<mu>)")


def generator_objective(gen: BregmanGenerator, alpha: float) -> Objective:
    """Bregman-divergence objective (nnBD) of a ratio model under ``gen``; ``alpha`` lower-bounds the positive prior.

    pos = f_conj(0) - f'(r) and bracket = F(r), with slopes -f''(r) and r f''(r).  The constant f_conj(0), which
    is 0 for the quadratic generators and -1 for ``exp``, rides on the positive term, so ``plain`` is the empirical
    divergence up to a term free of r.
    """
    if not (0.0 <= alpha < 1.0):
        raise ConfigError(f"alpha must be in [0, 1), got {alpha}")

    def ratios(r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("ratio values must be nonnegative")
        return r

    c0 = gen.f_conj_at_zero
    return Objective(
        pos=lambda r: c0 - gen.f_prime(ratios(r)),
        d_pos=lambda r: -gen.f_prime2(r),
        bracket=lambda r: gen.big_f(ratios(r)),
        d_bracket=lambda r: r * gen.f_prime2(r),
        kappa=alpha,
    )


@dataclass(frozen=True)
class DiscreteDistributionPair:
    """Class-conditional masses on the support points 0..m-1, with a mixing prior.

    The marginal is prior * p_plus + (1 - prior) * p_minus.  Used as an
    exactly computable stand-in for the population quantities in the
    numerical bound and identity checks.
    """

    p_plus_mass: np.ndarray
    p_minus_mass: np.ndarray
    prior: float

    def __post_init__(self):
        object.__setattr__(self, "p_plus_mass", np.asarray(self.p_plus_mass, dtype=float))
        object.__setattr__(self, "p_minus_mass", np.asarray(self.p_minus_mass, dtype=float))
        if self.p_plus_mass.ndim != 1 or self.p_minus_mass.shape != self.p_plus_mass.shape:
            raise ValueError("mass vectors must be one-dimensional and of equal length")
        for name, mass in (("p_plus_mass", self.p_plus_mass), ("p_minus_mass", self.p_minus_mass)):
            if np.any(mass < 0):
                raise ValueError(f"{name} has negative entries")
            if abs(mass.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} sums to {mass.sum()}, not 1")
        if not (0.0 < self.prior < 1.0):
            raise ValueError(f"prior must be in (0, 1), got {self.prior}")

    @property
    def marginal_mass(self) -> np.ndarray:
        return self.prior * self.p_plus_mass + (1.0 - self.prior) * self.p_minus_mass

    @property
    def true_ratio(self) -> np.ndarray:
        """p_plus / marginal on each support point carrying mass."""
        p = self.marginal_mass
        out = np.zeros_like(p)
        np.divide(self.p_plus_mass, p, out=out, where=p > 0)
        return out

    @property
    def posterior(self) -> np.ndarray:
        """Probability of the positive class on each support point."""
        return self.prior * self.true_ratio


def population_divergence(gen: BregmanGenerator, dist: DiscreteDistributionPair, r_values) -> float:
    """Exact Bregman divergence from the true ratio to ``r_values``.

    Weighted sum over the discrete support of
    f(r*) - f(r) - f'(r) * (r* - r) against the marginal mass.
    """
    r = np.asarray(r_values, dtype=float)
    if r.shape != dist.p_plus_mass.shape:
        raise ValueError(
            f"r_values has length {r.shape}, support has {dist.p_plus_mass.shape[0]} points"
        )
    if np.any(r < 0):
        raise ValueError("r_values contains negative entries")
    p = dist.marginal_mass
    r_star = dist.true_ratio
    integrand = gen.f(r_star) - gen.f(r) - gen.f_prime(r) * (r_star - r)
    return float(np.sum(p * integrand))


def _divergence_term(gen: BregmanGenerator, dist: DiscreteDistributionPair, r_values) -> float:
    """sqrt(2 BR / mu), the divergence factor of every bound; needs mu > 0."""
    if not gen.mu > 0.0:
        raise ConfigError(f"generator {gen.name} is not strongly convex (mu={gen.mu})")
    br = population_divergence(gen, dist, r_values)
    return float(np.sqrt(max(0.0, 2.0 * br / gen.mu)))


def finite_support_excess_risk(dist: DiscreteDistributionPair, decisions, prior: float, cost: float) -> float:
    """Exact cost-weighted risk of fixed per-point decisions minus the Bayes risk (the cheaper label everywhere)."""
    d = np.asarray(decisions, dtype=int)
    miss_pos = (1.0 - cost) * prior * dist.p_plus_mass
    miss_neg = cost * (1.0 - prior) * dist.p_minus_mass
    risk = np.sum(np.where(d == 1, miss_neg, miss_pos))
    bayes = np.sum(np.minimum(miss_pos, miss_neg))
    return float(risk) - float(bayes)


def bound_constant(spec: ShiftSpec) -> float:
    """Leading constant of the shifted excess-risk bound."""
    pi, pi_p, c = spec.train_prior, spec.test_prior, spec.cost
    c0, _ = cost_threshold(spec)
    return pi * (c + pi_p - 2.0 * c * pi_p) / (c0 + pi - 2.0 * c0 * pi)


def excess_risk_bound_check(dist: DiscreteDistributionPair, r_values, spec: ShiftSpec, gen: BregmanGenerator):
    """Exact excess risk of the matched-cost threshold rule vs its bound.

    Returns (lhs, rhs).  The distribution's own mixing prior is the
    training prior, so ``spec`` must carry the same value.
    """
    if abs(spec.train_prior - dist.prior) > 1e-12:
        raise ConfigError("spec.train_prior must match the distribution prior")
    _, theta = cost_threshold(spec)
    lhs = finite_support_excess_risk(dist, threshold_decisions(r_values, theta), spec.test_prior, spec.cost)
    return lhs, bound_constant(spec) * _divergence_term(gen, dist, r_values)


def squared_loss_decomposition(dist: DiscreteDistributionPair, r_values, mu: float = 1.0):
    """Two independent evaluations of the squared-loss identity.

    lhs = (2 pi^2 / mu) * BR(r*, r) for the quadratic generator of curvature
    mu.  rhs = squared-loss excess risk of g_r = 2 min(pi r, 1) - 1 plus the
    overshoot term collected on the event pi r > 1.  Both are exhaustive
    sums over the support and must agree to machine precision.
    """
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


def population_auc_risk(dist: DiscreteDistributionPair, score_values) -> float:
    """Exact 1 - AUC of a score over a finite-support distribution."""
    s = np.asarray(score_values, dtype=float)
    if s.shape != dist.p_plus_mass.shape:
        raise ValueError("score values must align with the support")
    pp = dist.p_plus_mass
    pm = dist.p_minus_mass
    gt = (s[:, None] > s[None, :]).astype(float) + 0.5 * (s[:, None] == s[None, :])
    return 1.0 - float(pp @ gt @ pm)


def auc_excess_bound_check(dist: DiscreteDistributionPair, r_values, gen: BregmanGenerator):
    """Exact AUC regret of r against its divergence bound.

    The optimal score is the true ratio itself, so the regret is computed
    against it.  Returns (lhs, rhs).
    """
    rhs = _divergence_term(gen, dist, r_values) / (1.0 - dist.prior)
    lhs = population_auc_risk(dist, r_values) - population_auc_risk(dist, dist.true_ratio)
    return lhs, rhs


@dataclass
class SuiteResult:
    name: str
    kind: str  # "inequality" or "identity"
    trials: int
    passed: bool
    worst_margin: float  # min(rhs - lhs) for inequalities, -max|lhs-rhs| for identities
    max_slack: float  # max(rhs - lhs) observed


def random_distribution(rng) -> DiscreteDistributionPair:
    m = int(rng.integers(2, MAX_SUPPORT + 1))
    p_plus = rng.uniform(0.05, 1.0, m)
    p_minus = rng.uniform(0.05, 1.0, m)
    return DiscreteDistributionPair(
        p_plus_mass=p_plus / p_plus.sum(),
        p_minus_mass=p_minus / p_minus.sum(),
        prior=float(rng.uniform(0.1, 0.9)),
    )


def random_ratio_values(rng, dist: DiscreteDistributionPair) -> np.ndarray:
    """Candidate model outputs spanning exact, noisy, and adversarial regimes."""
    r_star = dist.true_ratio
    regime = rng.integers(0, 5)
    if regime == 0:
        return r_star.copy()
    if regime == 1:
        return np.zeros_like(r_star)
    if regime == 2:
        return rng.uniform(0.0, 4.0, r_star.shape)
    if regime == 3:
        return np.maximum(0.0, r_star + rng.normal(0.0, rng.uniform(1e-3, 0.5), r_star.shape))
    # order-reversing transform of the true ratio
    return float(np.max(r_star)) - r_star + 0.5


def _random_generator(rng):
    pick = rng.integers(0, 3)
    if pick == 0:
        return lsif_generator()
    if pick == 1:
        return scaled_quadratic_generator(float(rng.uniform(0.2, 5.0)))
    return exp_generator()


def _random_setting(rng, dist, shift: bool):
    """A generator and a cost/prior setting; without ``shift`` the test prior is the training prior."""
    gen = _random_generator(rng)
    test_prior = float(rng.uniform(0.1, 0.9)) if shift else dist.prior
    return gen, ShiftSpec(train_prior=dist.prior, test_prior=test_prior, cost=float(rng.uniform(0.1, 0.9)))


def _classification_trial(rng, dist, r, shift: bool):
    gen, spec = _random_setting(rng, dist, shift)
    return excess_risk_bound_check(dist, r, spec, gen)


def _auc_trial(rng, dist, r):
    return auc_excess_bound_check(dist, r, _random_generator(rng))


def _quadratic_tightness_trial(rng, dist, r):
    gen_exp = exp_generator()
    gen_quad = scaled_quadratic_generator(gen_exp.mu)
    r = np.minimum(r, 8.0)
    return population_divergence(gen_quad, dist, r), population_divergence(gen_exp, dist, r)


def _squared_loss_trial(rng, dist, r):
    return squared_loss_decomposition(dist, r, mu=float(rng.uniform(0.2, 5.0)))


def _threshold_perturbation_trial(rng, dist, r):
    gen, spec = _random_setting(rng, dist, shift=True)
    _, theta = cost_threshold(spec)
    delta = float(rng.uniform(-0.9, 1.0)) * theta
    lhs = finite_support_excess_risk(dist, threshold_decisions(r, theta + delta), spec.test_prior, spec.cost)
    rhs = bound_constant(spec) * (2.0 * _divergence_term(gen, dist, r) + abs(delta))
    return lhs, rhs


# name -> (kind, trial).  Per trial ``run_suite`` draws ``dist = random_distribution(rng)`` and
# ``r = random_ratio_values(rng, dist)``, then ``trial(rng, dist, r)`` draws the rest and returns (lhs, rhs).
SUITES = {
    "classification_bound": ("inequality", partial(_classification_trial, shift=False)),
    "shifted_classification_bound": ("inequality", partial(_classification_trial, shift=True)),
    "auc_bound": ("inequality", _auc_trial),
    "quadratic_tightness": ("inequality", _quadratic_tightness_trial),
    "squared_loss_identity": ("identity", _squared_loss_trial),
    "threshold_perturbation": ("inequality", _threshold_perturbation_trial),
}


def run_suite(name: str, seed: int = 0, trials: int = 100) -> SuiteResult:
    if trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {trials}")
    kind, trial = SUITES[name]
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(trials):
        dist = random_distribution(rng)
        records.append(trial(rng, dist, random_ratio_values(rng, dist)))
    margins = np.array([rhs - lhs for lhs, rhs in records])
    if kind == "identity":
        worst = -float(np.max(np.abs(margins)))
        passed = -worst <= IDENTITY_TOL
    else:
        worst = float(np.min(margins))
        passed = worst >= -INEQUALITY_TOL
    return SuiteResult(
        name=name,
        kind=kind,
        trials=trials,
        passed=bool(passed),
        worst_margin=worst,
        max_slack=float(np.max(margins)),
    )


def run_all(seed: int = 0, trials: int = 100):
    return [run_suite(name, seed=seed + i, trials=trials) for i, name in enumerate(SUITES)]
