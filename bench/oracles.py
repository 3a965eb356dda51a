"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports pushift: each quantity is derived again from its
definition, so a fault in the package cannot hide behind the same fault in
its check.

* Bayes accuracy in closed form for the univariate scenarios.  Every class
  density is a mixture of unit-variance Gaussians centred at +1 and -1, so
  the likelihood ratio is monotone in x and the Bayes rule is one threshold.
  The 10-d pair projects onto its mean direction as N(+1, 1) against
  N(-1, 1), which is the first scenario.
* The class-prior sweep by brute force: count acceptances at every candidate
  threshold directly, with no sorting or binary search.
* The finite-sample admissibility floor and the matched-cost threshold.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# Per class, (mean, weight) pairs of unit-variance Gaussian components.
SCENARIOS = {
    "case1": {"pos": ((1.0, 1.0),), "neg": ((-1.0, 1.0),)},
    "case2": {"pos": ((1.0, 0.8), (-1.0, 0.2)), "neg": ((1.0, 0.2), (-1.0, 0.8))},
}
SCENARIOS["pair10d"] = SCENARIOS["case1"]

_PHI = NormalDist().cdf


def _weights(components):
    """Weights of the +1 and -1 components."""
    w = dict((m, wt) for m, wt in components)
    return w.get(1.0, 0.0), w.get(-1.0, 0.0)


def bayes_threshold(scenario: str, prior: float) -> float:
    """x at which prior * p_pos(x) = (1 - prior) * p_neg(x).

    With u = exp(2x) the likelihood ratio is (a u + b) / (c u + d), which
    increases in u.  Returns -inf when every point is positive under the
    Bayes rule and +inf when none is.
    """
    a, b = _weights(SCENARIOS[scenario]["pos"])
    c, d = _weights(SCENARIOS[scenario]["neg"])
    k = (1.0 - prior) / prior
    num, den = k * d - b, a - k * c
    if num <= 0.0:
        return -math.inf
    if den <= 0.0:
        return math.inf
    return 0.5 * math.log(num / den)


def _mass_above(components, t: float) -> float:
    if t == -math.inf:
        return 1.0
    if t == math.inf:
        return 0.0
    return sum(w * (1.0 - _PHI(t - m)) for m, w in components)


def bayes_accuracy(scenario: str, prior: float) -> float:
    """Accuracy of the Bayes rule x >= t at the given class-prior."""
    spec = SCENARIOS[scenario]
    t = bayes_threshold(scenario, prior)
    return prior * _mass_above(spec["pos"], t) + (1.0 - prior) * (1.0 - _mass_above(spec["neg"], t))


def accuracy_bounds(scenario: str, prior: float, n: int, margin: float):
    """Admissible range of an empirical accuracy on n labeled test points.

    No classifier beats the Bayes rule in expectation, so the upper end only
    allows four standard errors of sampling noise; the lower end allows the
    workload's stated ``margin`` of estimation loss on top of that noise.
    """
    b = bayes_accuracy(scenario, prior)
    noise = 4.0 * math.sqrt(b * (1.0 - b) / n)
    return b - margin - noise, b + noise


def epsilon(n: int, delta: float) -> float:
    return math.sqrt(4.0 * math.log(math.e * n / 2.0) / n) + math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def admissibility_floor(n_pos: int, n_unl: int, gamma: float) -> float:
    return max(epsilon(n_pos, 1.0 / n_pos), epsilon(n_unl, 1.0 / n_unl)) / gamma


def brute_force_sweep(r_pos, r_unl, floor: float, chunk: int = 512):
    """Smallest unlabeled-to-positive acceptance ratio over admissible thresholds.

    Candidates are every attained score plus -inf and +inf, in ascending
    order; the first minimum wins.  Returns (ratio, threshold).
    """
    rp = np.asarray(r_pos, dtype=float).ravel()
    ru = np.asarray(r_unl, dtype=float).ravel()
    candidates = np.concatenate(([-np.inf], np.unique(np.concatenate((rp, ru))), [np.inf]))
    best, arg = math.inf, None
    for start in range(0, candidates.size, chunk):
        t = candidates[start : start + chunk, None]
        p_plus = np.count_nonzero(rp[None, :] >= t, axis=1) / rp.size
        p_unl = np.count_nonzero(ru[None, :] >= t, axis=1) / ru.size
        for j in np.flatnonzero(p_plus > floor):
            ratio = p_unl[j] / p_plus[j]
            if ratio < best:
                best, arg = float(ratio), float(t[j, 0])
    return best, arg


def matched_cost(train_prior: float, test_prior: float, cost: float):
    """Matched cost c0 for a shifted test prior and the ratio threshold c0 / train_prior."""
    pi, pi_t, c = train_prior, test_prior, cost
    c0 = c * pi * (1.0 - pi_t) / ((1.0 - c) * (1.0 - pi) * pi_t + c * pi * (1.0 - pi_t))
    return c0, c0 / pi
