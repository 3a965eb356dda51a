import math
from dataclasses import fields

import numpy as np
import pytest

from pushift.baselines import logistic_loss, train_baseline
from pushift.data import PUDataset, SplitDataset, synth_case1
from pushift.errors import ConfigError
from pushift.experiments import (
    CASE_DEFAULTS,
    AdaptResult,
    adapt_threshold,
    case_data,
    decision_boundary_1d,
    fit_drpu,
    gaussian_case_experiment,
    kernel_centers,
)
from pushift.models import GaussianBasisLinear
from pushift.prior import GAMMA, gamma_bar
from pushift.trainer import TrainConfig


class TestDecisionBoundary:
    def test_monotone_score_crossing(self):
        boundary = decision_boundary_1d(lambda X: 1.0 / (1 + np.exp(-X[:, 0])), 0.5)
        assert abs(boundary) < 1e-3

    def test_band_takes_left_edge(self):
        # bump crosses the level on the way up and on the way down
        boundary = decision_boundary_1d(lambda X: np.exp(-((X[:, 0] - 1) ** 2)), 0.5)
        assert boundary == pytest.approx(1 - math.sqrt(math.log(2)), abs=1e-3)

    def test_no_crossing_gives_nan(self):
        assert math.isnan(decision_boundary_1d(lambda X: np.zeros(X.shape[0]), 0.5))

    def test_matches_the_product_rule(self):
        """Where no product of neighbours overflows or underflows, the sign test picks what
        the rule ``s[i] * s[i + 1] < 0`` picked, so every boundary keeps its bits."""
        rng = np.random.default_rng(0)
        x = np.linspace(-6.0, 6.0, 4001)
        for _ in range(50):
            freq, phase, level = rng.uniform(0.1, 3.0), rng.uniform(0, 6.3), rng.uniform(-1.2, 1.2)
            fn = lambda X: np.sin(freq * X[:, 0] + phase) * np.exp(-0.05 * X[:, 0] ** 2)
            s = fn(x[:, None]) - level
            crossing = np.flatnonzero(s[:-1] * s[1:] < 0)
            upward = [i for i in crossing if s[i] < 0 < s[i + 1]]
            boundary = decision_boundary_1d(fn, level)
            if not crossing.size:
                assert math.isnan(boundary)
                continue
            i = upward[0] if upward else crossing[0]
            assert boundary == float(x[i] + s[i] / (s[i] - s[i + 1]) * (x[i + 1] - x[i]))

    def test_tiny_and_huge_scores_raise_no_warning(self):
        """A crossing between grid points whose product of neighbours underflows is still
        found; a level of 1e308 overflows nothing."""
        with np.errstate(all="raise"):
            boundary = decision_boundary_1d(lambda X: 1e-200 * (X[:, 0] - 1e-3), 0.0)
            assert abs(boundary - 1e-3) < 1e-12
            assert math.isnan(decision_boundary_1d(lambda X: np.exp(-X[:, 0] ** 2), 1e308))


class TestFitAndAdapt:
    def test_small_pipeline_round_trip(self):
        split = SplitDataset(
            train=synth_case1(100, 500, 0.4, 0),
            val=synth_case1(100, 500, 0.4, 1),
        )
        cfg = TrainConfig(epochs=30, batch_size=100, learning_rate=5e-4, seed=0)
        fit = fit_drpu(split, cfg, gamma=0.9)
        assert 0.0 <= fit.pi_hat.value <= 1.0
        assert fit.intervals.n_pos == split.val.n_pos

        test = synth_case1(1, 500, 0.6, 2)
        adapted = adapt_threshold(fit.model, fit.intervals, test.unlabeled, fit.pi_hat.value)
        assert adapted.theta > 0
        assert adapted.c0 == pytest.approx(adapted.theta * max(1e-6, min(1 - 1e-6, fit.pi_hat.value)))

    def test_no_shift_collapses_to_cost_over_prior(self):
        """Feeding the validation unlabeled data back reproduces pi_hat exactly."""
        split = SplitDataset(
            train=synth_case1(100, 500, 0.4, 3),
            val=synth_case1(100, 500, 0.4, 4),
        )
        cfg = TrainConfig(epochs=20, batch_size=100, learning_rate=5e-4, seed=3)
        fit = fit_drpu(split, cfg, gamma=0.9)
        adapted = adapt_threshold(
            fit.model, fit.intervals, split.val.unlabeled, fit.pi_hat.value, cost=0.5
        )
        assert adapted.pi_prime.value == pytest.approx(fit.pi_hat.value, abs=1e-12)
        assert adapted.theta == pytest.approx(0.5 / fit.pi_hat.value, abs=1e-10)

    def test_max_centers_subsampling(self):
        split = SplitDataset(
            train=synth_case1(50, 400, 0.4, 5),
            val=synth_case1(50, 200, 0.4, 6),
        )
        cfg = TrainConfig(epochs=2, batch_size=100, learning_rate=1e-4, seed=5)
        fit = fit_drpu(split, cfg, gamma=0.9, max_centers=64)
        assert fit.model.n_params == 64

    def test_default_gamma_fits_the_quick_start_sizes(self):
        """README's quick start: 100 validation positives and 500 unlabeled admit a threshold at the default gamma."""
        split = SplitDataset(train=synth_case1(200, 1000, 0.4, 0), val=synth_case1(100, 500, 0.4, 1))
        fit = fit_drpu(split, TrainConfig(seed=0, epochs=2))
        assert fit.intervals.gamma == GAMMA
        assert fit.pi_hat.gamma_bar == gamma_bar(100, 500, GAMMA) < 1.0

    def test_empty_validation_split_is_config_error(self):
        """The empty-split check runs before the validation sizes reach ``gamma_bar``, which needs n >= 1."""
        val = synth_case1(50, 200, 0.4, 6)
        split = SplitDataset(train=synth_case1(50, 400, 0.4, 5), val=PUDataset(val.positives[:0], val.unlabeled))
        with pytest.raises(ConfigError, match="validation split needs at least one positive"):
            fit_drpu(split, TrainConfig(epochs=1, batch_size=100))


class TestCaseExperiment:
    KW = dict(n_train=(60, 300), n_val=(80, 400), n_test=300)

    def test_record_fields_and_determinism(self):
        """The record holds what the run computed; the arguments it was given stay with the caller."""
        kw = dict(self.KW, cfg=TrainConfig(epochs=10, batch_size=60, learning_rate=5e-4, seed=9), with_upu=False)
        a = gaussian_case_experiment(case=1, seed=9, **kw)
        b = gaussian_case_experiment(case=1, seed=9, **kw)
        assert a == b
        assert set(a) == {"pi_hat", "pi_prime_hat", "c0", "theta", "boundary_drpu", "auc_drpu", "best_epoch"}

    def test_upu_shares_the_subsampled_centers(self):
        """With ``max_centers`` the uPU model takes the ratio model's subsampled centres: its boundary equals
        that of a uPU model built on ``kernel_centers`` with the same seed, bit for bit."""
        cfg = TrainConfig(epochs=5, batch_size=60, learning_rate=5e-4, seed=10)
        rec = gaussian_case_experiment(case=1, seed=10, cfg=cfg, max_centers=50, **self.KW)
        assert set(rec) == {
            "pi_hat", "pi_prime_hat", "c0", "theta", "boundary_drpu", "auc_drpu", "best_epoch", "boundary_upu"
        }
        priors = {k: CASE_DEFAULTS[1][k] for k in ("train_prior", "test_prior")}
        split, _ = case_data(1, 10, **self.KW, **priors)
        centers = kernel_centers(split, cfg.seed, 50)
        assert len(centers) == 50 < split.train.n_unl
        upu = GaussianBasisLinear(centers, clamp=False)
        upu, _ = train_baseline("upu", logistic_loss(), rec["pi_hat"], upu, split, cfg)
        assert rec["boundary_upu"] == decision_boundary_1d(upu.predict, 0.0)


def test_adapt_result_fields():
    """``adapt_threshold`` returns what it computed; its inputs, the cost among them, stay with the caller."""
    assert [f.name for f in fields(AdaptResult)] == ["pi_prime", "c0", "theta"]
