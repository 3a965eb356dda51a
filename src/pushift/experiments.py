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
    philox_rng,
    synth_from_mixture,
    synth_gaussian_pair,
)
from .divergence import ratio_objective
from .errors import ConfigError
from .generators import lsif_generator
from .metrics import auc
from .models import GaussianBasisLinear, mlp
from .prior import GAMMA, PriorEstimate, ThresholdIntervals, build_intervals, estimate_test_prior
from .trainer import TrainConfig, TrainReport, check_split, train

__all__ = [
    "DrpuFit",
    "AdaptResult",
    "case_data",
    "kernel_centers",
    "fit_drpu",
    "adapt_threshold",
    "adapt_to_scores",
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


def case_data(case: int, seed: int, n_train, n_val, n_test: int, train_prior: float, test_prior: float):
    """Train and validation splits and a test draw of one univariate case.

    ``SeedSequence(seed)`` spawns one stream each for the train, validation
    and test draws, so a case seed always maps to the same three draws.
    ``n_train`` and ``n_val`` are (positive, unlabeled) counts; the test draw
    is ``n_test`` unlabeled points with hidden labels.  Returns
    ``(split, test)``.
    """
    mixture = CASE_DEFAULTS[case]["mixture"]()
    s_train, s_val, s_test = np.random.SeedSequence(seed).spawn(3)
    split = SplitDataset(
        train=synth_from_mixture(mixture, n_train[0], n_train[1], train_prior, s_train),
        val=synth_from_mixture(mixture, n_val[0], n_val[1], train_prior, s_val),
    )
    return split, synth_from_mixture(mixture, 1, n_test, test_prior, s_test)


def kernel_centers(split: SplitDataset, seed: int, max_centers: Optional[int] = None) -> np.ndarray:
    """Gaussian-basis centers: the unlabeled training points.

    Beyond ``max_centers`` points, ``max_centers`` of them are drawn without
    replacement by ``philox_rng(seed)``, so the ratio model and a baseline
    trained with the same seed share their centers.
    """
    if max_centers is not None and max_centers < 1:
        raise ConfigError(f"max_centers must be a positive integer, got {max_centers}")
    centers = split.train.unlabeled
    if max_centers is not None and centers.shape[0] > max_centers:
        centers = centers[philox_rng(seed).choice(centers.shape[0], size=max_centers, replace=False)]
    return centers


def fit_drpu(
    split: SplitDataset,
    cfg: TrainConfig,
    gen=None,
    gamma: float = GAMMA,
    model=None,
    max_centers: Optional[int] = None,
    bandwidth: float = 1.0,
) -> DrpuFit:
    """Train the ratio model and derive the prior estimate and intervals.

    The validation split drives both model selection and the prior sweep;
    the interval summary is built from the same validation positive scores,
    so a later test-time sweep sees exactly the quantities used here.
    Defaults to a Gaussian basis model on ``kernel_centers`` when no model is
    supplied; ``max_centers`` subsamples the centers for large unlabeled
    pools.
    """
    # The checks read only the split sizes: fail before training, not after it.
    check_split(split, cfg, gamma)
    gen = gen or lsif_generator()
    if model is None:
        model = GaussianBasisLinear(kernel_centers(split, cfg.seed, max_centers), bandwidth=bandwidth)
    model, report = train(model, split, ratio_objective(gen, cfg.alpha), cfg)
    intervals = build_intervals(model.predict(split.val.positives), gamma=gamma)
    pi_hat = estimate_test_prior(intervals, model.predict(split.val.unlabeled))
    return DrpuFit(model=model, report=report, pi_hat=pi_hat, intervals=intervals)


def adapt_threshold(model, intervals: ThresholdIntervals, test_unlabeled, pi_hat: float, cost: float = 0.5) -> AdaptResult:
    """Test-time adaptation from unlabeled data and the saved summary only."""
    return adapt_to_scores(intervals, model.predict(test_unlabeled), pi_hat, cost)


def adapt_to_scores(intervals: ThresholdIntervals, r_test, pi_hat: float, cost: float = 0.5) -> AdaptResult:
    """``adapt_threshold`` on the model's scores ``r_test`` of the test-time unlabeled rows."""
    pi_prime = estimate_test_prior(intervals, r_test)
    spec = ShiftSpec(
        train_prior=_interior(pi_hat),
        test_prior=_interior(pi_prime.value),
        cost=cost,
    )
    c0, theta = cost_threshold(spec)
    return AdaptResult(pi_prime=pi_prime, c0=c0, theta=theta)


def _interior(p: float) -> float:
    """Nudge a clamped estimate 1e-6 off the boundary so the cost formula is defined."""
    return min(1.0 - 1e-6, max(1e-6, float(p)))


def decision_boundary_1d(score_fn, level: float) -> float:
    """Leftmost upward crossing of score_fn(x) = level on a 4001-point grid over [-6, 6].

    The kernel models decay back below the level far outside the data, so
    the decision region is a band; its left edge is the boundary that
    separates the two classes where the data actually lives.  Falls back to
    the leftmost crossing of any direction, and nan if there is none.
    """
    x = np.linspace(-6.0, 6.0, 4001)
    s = np.asarray(score_fn(x[:, None]), dtype=float) - level
    neg, pos = s < 0, s > 0  # signs, not products of neighbours, which overflow or underflow
    up = neg[:-1] & pos[1:]
    upward = np.flatnonzero(up)
    crossing_idx = np.flatnonzero(up | (pos[:-1] & neg[1:]))
    pick = upward[0] if upward.size else (crossing_idx[0] if crossing_idx.size else None)
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
    cfg: Optional[TrainConfig] = None,
    with_upu: bool = True,
    max_centers: Optional[int] = None,
    bandwidth: float = 1.0,
) -> dict:
    """One full run of a synthetic scenario, including the uPU comparison.

    The threshold is placed at cost 0.5.  The uPU baseline shares the ratio
    model's centers and receives the ratio model's prior estimate
    ``pi_hat``, since it has no prior-free training path.  The record holds
    what the run computed, not the arguments it was given.
    """
    train_prior, test_prior = CASE_DEFAULTS[case]["train_prior"], CASE_DEFAULTS[case]["test_prior"]
    split, test = case_data(case, seed, n_train, n_val, n_test, train_prior, test_prior)
    cfg = cfg or TrainConfig(seed=seed)
    fit = fit_drpu(split, cfg, max_centers=max_centers, bandwidth=bandwidth)
    adapted = adapt_threshold(fit.model, fit.intervals, test.unlabeled, fit.pi_hat.value)

    boundary_drpu = decision_boundary_1d(fit.model.predict, adapted.theta)
    r_test = fit.model.predict(test.unlabeled)
    labels = test.hidden_labels
    auc_drpu = auc(r_test[labels == 1], r_test[labels == -1])

    out = {
        "pi_hat": fit.pi_hat.value,
        "pi_prime_hat": adapted.pi_prime.value,
        "c0": adapted.c0,
        "theta": adapted.theta,
        "boundary_drpu": boundary_drpu,
        "auc_drpu": auc_drpu,
        "best_epoch": fit.report.best_epoch,
    }

    if with_upu:
        upu_model = GaussianBasisLinear(fit.model.centers, bandwidth=bandwidth, clamp=False)
        upu_model, _ = train_baseline("upu", logistic_loss(), fit.pi_hat.value, upu_model, split, cfg)
        out["boundary_upu"] = decision_boundary_1d(upu_model.predict, 0.0)
    return out


def shift_robustness_experiment(seed: int = 0) -> dict:
    """Accuracy under class-prior shift: adapted ratio model vs fixed baselines.

    The data are the 10-dimensional Gaussian pair at training prior 0.4:
    500/2500 train and 300/1500 validation points, and 3000 test points at
    each test prior 0.2, 0.4, 0.6 and 0.8.  One 10-32-32-1 ratio MLP trains
    with alpha 0.35 for 60 epochs (batch 250, Adam at 2e-3, gamma ``GAMMA``), then
    adapts its threshold per test prior using only that prior's unlabeled
    sample.  Two nnPU references train once and never adapt: one with the
    true training prior, one with a prior 0.15 too high.  Returns per-prior
    and averaged accuracies.
    """
    dim, train_prior, test_priors, prior_error = 10, 0.4, (0.2, 0.4, 0.6, 0.8), 0.15
    ss = np.random.SeedSequence((seed, 9001))
    s_tr, s_va, *s_tests = ss.spawn(2 + len(test_priors))
    split = SplitDataset(
        train=synth_gaussian_pair(dim, 500, 2500, train_prior, s_tr),
        val=synth_gaussian_pair(dim, 300, 1500, train_prior, s_va),
    )
    tests = [synth_gaussian_pair(dim, 1, 3000, p, s) for p, s in zip(test_priors, s_tests)]

    cfg = TrainConfig(
        alpha=0.35,
        epochs=60,
        batch_size=250,
        learning_rate=2e-3,
        adam_beta1=0.9,
        l2_reg=1e-4,
        seed=seed,
    )
    layers = [dim, 32, 32, 1]
    fit = fit_drpu(split, cfg, model=mlp(layers, seed=seed, output="softplus"))

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
        "test_priors": list(test_priors),
        "pi_hat": fit.pi_hat.value,
        "pi_prime_hat": pi_primes,
        "accuracy": acc,
        "average": {k: float(np.mean(v)) for k, v in acc.items()},
    }
