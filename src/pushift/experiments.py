"""End-to-end recipes for the univariate Gaussian scenarios.

These functions wire the full pipeline together: generate data, fit the
ratio model, estimate the training prior, summarize the positive scores
into threshold intervals, estimate the test prior from test-time unlabeled
data alone, and place the decision threshold.  A parallel path trains the
unbiased-PU baseline on the same draws so the two decision boundaries can
be compared seed by seed.

The default sizes and optimizer settings are the ones used throughout the
demos: 200/1000 train, 100/500 validation, 1000 test points, a Gaussian
basis model centered on the unlabeled training points, and Adam at a small
constant learning rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baselines import logistic_loss, sigmoid_loss, train_baseline
from .classifier import ShiftSpec, cost_threshold, threshold_decisions
from .data import (
    SplitDataset,
    case1_mixture,
    case2_mixture,
    synth_from_mixture,
    synth_gaussian_pair,
)
from .errors import DegeneratePriorError
from .generators import lsif_generator
from .metrics import auc
from .models import GaussianBasisLinear, gaussian_basis_linear, mlp
from .prior import PriorEstimate, ThresholdIntervals, build_intervals, estimate_test_prior, gamma_bar
from .trainer import TrainConfig, TrainReport, train

__all__ = [
    "DrpuFit",
    "AdaptResult",
    "fit_drpu",
    "adapt_threshold",
    "decision_boundary_1d",
    "gaussian_case_experiment",
    "shift_robustness_experiment",
    "CASE_DEFAULTS",
]


CASE_DEFAULTS = {
    1: {"train_prior": 0.4, "test_prior": 0.6, "mixture": case1_mixture},
    2: {"train_prior": 0.6, "test_prior": 0.4, "mixture": case2_mixture},
}


@dataclass
class DrpuFit:
    model: object
    report: TrainReport
    pi_hat: PriorEstimate
    intervals: ThresholdIntervals


@dataclass
class AdaptResult:
    pi_prime: PriorEstimate
    c0: float
    theta: float
    cost: float

    def to_dict(self) -> dict:
        return {
            "pi_prime": self.pi_prime.to_dict(),
            "c0": self.c0,
            "theta": self.theta,
            "cost": self.cost,
        }


def fit_drpu(
    split: SplitDataset,
    cfg: TrainConfig,
    gen=None,
    gamma: float = 0.5,
    model=None,
    max_centers: Optional[int] = None,
    bandwidth: float = 1.0,
) -> DrpuFit:
    """Train the ratio model and derive the prior estimate and intervals.

    The validation split drives both model selection and the prior sweep;
    the interval summary is built from the same validation positive scores,
    so a later test-time sweep sees exactly the quantities used here.
    Defaults to a Gaussian basis model centered on the unlabeled training
    points when no model is supplied; ``max_centers`` subsamples the centers
    for large unlabeled pools.
    """
    # gamma_bar depends only on the validation sizes: fail before training
    # when no threshold can be admissible, not after it.
    gbar = gamma_bar(split.val.n_pos, split.val.n_unl, gamma)
    if gbar >= 1.0:
        raise DegeneratePriorError(gbar, split.val.n_pos, split.val.n_unl)
    gen = gen or lsif_generator()
    if model is None:
        centers = split.train.unlabeled
        if max_centers is not None and centers.shape[0] > max_centers:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
            centers = centers[rng.choice(centers.shape[0], size=max_centers, replace=False)]
        model = gaussian_basis_linear(centers, bandwidth=bandwidth)
    model, report = train(model, split, gen, cfg)
    intervals = build_intervals(model.predict(split.val.positives), gamma=gamma)
    pi_hat = estimate_test_prior(intervals, model.predict(split.val.unlabeled))
    return DrpuFit(model=model, report=report, pi_hat=pi_hat, intervals=intervals)


def adapt_threshold(
    model,
    intervals: ThresholdIntervals,
    test_unlabeled,
    pi_hat: float,
    cost: float = 0.5,
    gamma: Optional[float] = None,
) -> AdaptResult:
    """Test-time adaptation from unlabeled data and the saved summary only."""
    r_test = model.predict(np.atleast_2d(np.asarray(test_unlabeled, dtype=float)))
    pi_prime = estimate_test_prior(intervals, r_test, gamma=gamma)
    spec = ShiftSpec(
        train_prior=_interior(pi_hat),
        test_prior=_interior(pi_prime.value),
        cost=cost,
    )
    c0, theta = cost_threshold(spec)
    return AdaptResult(pi_prime=pi_prime, c0=c0, theta=theta, cost=cost)


def _interior(p: float, floor: float = 1e-6) -> float:
    """Nudge a clamped estimate off the boundary so the cost formula is defined."""
    return min(1.0 - floor, max(floor, float(p)))


def decision_boundary_1d(score_fn, level: float, lo: float = -6.0, hi: float = 6.0, num: int = 4001) -> float:
    """Leftmost upward crossing of score_fn(x) = level on a fine 1-d grid.

    The kernel models decay back below the level far outside the data, so
    the decision region is a band; its left edge is the boundary that
    separates the two classes where the data actually lives.  Falls back to
    the leftmost crossing of any direction, and nan if there is none.
    """
    x = np.linspace(lo, hi, num)
    s = np.asarray(score_fn(x[:, None]), dtype=float) - level
    crossing_idx = np.flatnonzero(s[:-1] * s[1:] < 0)
    upward = [i for i in crossing_idx if s[i] < 0 < s[i + 1]]
    pick = upward[0] if upward else (crossing_idx[0] if crossing_idx.size else None)
    if pick is None:
        exact = np.flatnonzero(s == 0)
        return float(x[exact[0]]) if exact.size else float("nan")
    t = s[pick] / (s[pick] - s[pick + 1])
    return float(x[pick] + t * (x[pick + 1] - x[pick]))


def gaussian_case_experiment(
    case: int = 1,
    seed: int = 0,
    n_train=(200, 1000),
    n_val=(100, 500),
    n_test: int = 1000,
    cost: float = 0.5,
    gamma: float = 0.9,
    alpha: float = 0.0,
    cfg: Optional[TrainConfig] = None,
    with_upu: bool = True,
    max_centers: Optional[int] = None,
    bandwidth: float = 1.0,
) -> dict:
    """One full run of a synthetic scenario, including the uPU comparison.

    The uPU baseline receives this package's own prior estimate (it has no
    prior-free training path), which the output records as
    ``upu_prior_source``.
    """
    defaults = CASE_DEFAULTS[case]
    mixture = defaults["mixture"]()
    train_prior, test_prior = defaults["train_prior"], defaults["test_prior"]

    ss = np.random.SeedSequence(seed)
    s_train, s_val, s_test = ss.spawn(3)
    split = SplitDataset(
        train=synth_from_mixture(mixture, n_train[0], n_train[1], train_prior, s_train),
        val=synth_from_mixture(mixture, n_val[0], n_val[1], train_prior, s_val),
    )
    test = synth_from_mixture(mixture, 1, n_test, test_prior, s_test)

    cfg = cfg or TrainConfig(alpha=alpha, seed=seed)
    fit = fit_drpu(split, cfg, gamma=gamma, max_centers=max_centers, bandwidth=bandwidth)
    adapted = adapt_threshold(fit.model, fit.intervals, test.unlabeled, fit.pi_hat.value, cost=cost)

    boundary_drpu = decision_boundary_1d(fit.model.predict, adapted.theta)
    r_test = fit.model.predict(test.unlabeled)
    labels = test.hidden_labels
    auc_drpu = auc(r_test[labels == 1], r_test[labels == -1])

    out = {
        "case": case,
        "seed": seed,
        "train_prior": train_prior,
        "test_prior": test_prior,
        "pi_hat": fit.pi_hat.value,
        "pi_prime_hat": adapted.pi_prime.value,
        "c0": adapted.c0,
        "theta": adapted.theta,
        "boundary_drpu": boundary_drpu,
        "auc_drpu": auc_drpu,
        "best_epoch": fit.report.best_epoch,
        "gamma": gamma,
        "alpha": cfg.alpha,
    }

    if with_upu:
        upu_model = GaussianBasisLinear(split.train.unlabeled, bandwidth=bandwidth, clamp=False)
        upu_model, _ = train_baseline("upu", logistic_loss(), fit.pi_hat.value, upu_model, split, cfg)
        out["boundary_upu"] = decision_boundary_1d(upu_model.predict, 0.0)
        out["upu_prior_source"] = "pushift.prior.estimate_prior"
    return out


def shift_robustness_experiment(
    seed: int = 0,
    dim: int = 10,
    train_prior: float = 0.4,
    test_priors=(0.2, 0.4, 0.6, 0.8),
    n_train=(500, 2500),
    n_val=(300, 1500),
    n_test: int = 3000,
    hidden=(32, 32),
    alpha: float = 0.35,
    gamma: float = 0.9,
    prior_error: float = 0.15,
    epochs: int = 60,
    batch_size: int = 250,
    learning_rate: float = 2e-3,
) -> dict:
    """Accuracy under class-prior shift: adapted ratio model vs fixed baselines.

    Trains one ratio MLP, then adapts its threshold per test prior using
    only that prior's unlabeled sample.  Two nnPU references train once and
    never adapt: one with the true training prior, one with an injected
    prior error.  Returns per-prior and averaged accuracies.
    """
    ss = np.random.SeedSequence((seed, 9001))
    s_tr, s_va, *s_tests = ss.spawn(2 + len(test_priors))
    split = SplitDataset(
        train=synth_gaussian_pair(dim, n_train[0], n_train[1], train_prior, s_tr),
        val=synth_gaussian_pair(dim, n_val[0], n_val[1], train_prior, s_va),
    )
    tests = [synth_gaussian_pair(dim, 1, n_test, p, s) for p, s in zip(test_priors, s_tests)]

    cfg = TrainConfig(
        alpha=alpha,
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=learning_rate,
        adam_beta1=0.9,
        adam_beta2=0.999,
        l2_reg=1e-4,
        seed=seed,
    )
    layers = [dim, *hidden, 1]
    ratio_model = mlp(layers, seed=seed, output="softplus")
    fit = fit_drpu(split, cfg, gamma=gamma, model=ratio_model)

    references = {}
    for name, prior in (("nnpu_true", train_prior), ("nnpu_misestimated", train_prior + prior_error)):
        dm = mlp(layers, seed=seed + 1000, output="linear")
        dm, _ = train_baseline("nnpu", sigmoid_loss(), prior, dm, split, cfg)
        references[name] = dm

    acc = {"drpu": [], "nnpu_true": [], "nnpu_misestimated": []}
    pi_primes = []
    for test in tests:
        X, y = test.unlabeled, test.hidden_labels
        adapted = adapt_threshold(fit.model, fit.intervals, X, fit.pi_hat.value, cost=0.5)
        pi_primes.append(adapted.pi_prime.value)
        acc["drpu"].append(float(np.mean(threshold_decisions(fit.model.predict(X), adapted.theta) == y)))
        for name, dm in references.items():
            acc[name].append(float(np.mean(threshold_decisions(dm.predict(X), 0.0) == y)))

    return {
        "seed": seed,
        "test_priors": list(test_priors),
        "pi_hat": fit.pi_hat.value,
        "pi_prime_hat": pi_primes,
        "accuracy": acc,
        "average": {k: float(np.mean(v)) for k, v in acc.items()},
        "baseline_prior_injected_error": prior_error,
    }
