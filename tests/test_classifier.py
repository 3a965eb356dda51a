import dataclasses

import numpy as np
import pytest

from pushift.classifier import ShiftSpec, cost_threshold, threshold_decisions
from pushift.errors import ConfigError
from pushift.models import GaussianBasisLinear

from _theory import (
    DiscreteDistributionPair,
    bound_constant,
    excess_risk_bound_check,
    finite_support_excess_risk,
    lsif_generator,
    population_divergence,
    random_distribution,
    random_ratio_values,
    squared_loss_decomposition,
)

LSIF = lsif_generator()


class TestCostThreshold:
    def test_no_shift_collapses_to_cost(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            pi = rng.uniform(0.05, 0.95)
            c = rng.uniform(0.05, 0.95)
            c0, theta = cost_threshold(ShiftSpec(pi, pi, c))
            assert abs(c0 - c) < 1e-12
            assert abs(theta - c / pi) < 1e-12

    def test_hand_value(self):
        c0, theta = cost_threshold(ShiftSpec(0.4, 0.6, 0.5))
        assert abs(c0 - 0.08 / 0.26) < 1e-12
        assert abs(theta - (0.08 / 0.26) / 0.4) < 1e-12

    def test_symmetric_point(self):
        c0, theta = cost_threshold(ShiftSpec(0.5, 0.5, 0.5))
        assert c0 == 0.5 and theta == 1.0

    def test_monotone_in_cost_and_test_prior(self):
        grid = np.linspace(0.1, 0.9, 9)
        for pi in (0.3, 0.5, 0.7):
            c0_by_cost = [cost_threshold(ShiftSpec(pi, 0.5, c))[0] for c in grid]
            assert all(a < b for a, b in zip(c0_by_cost, c0_by_cost[1:]))
            c0_by_prior = [cost_threshold(ShiftSpec(pi, p, 0.5))[0] for p in grid]
            assert all(a > b for a, b in zip(c0_by_prior, c0_by_prior[1:]))

    def test_spec_boundary_rejected(self):
        for bad in ((0.0, 0.5, 0.5), (0.5, 1.0, 0.5), (0.5, 0.5, 0.0)):
            with pytest.raises(ConfigError):
                ShiftSpec(*bad)


class TestClassify:
    """``threshold_decisions`` is the one score -> label rule."""

    def test_zero_score_yields_negative(self):
        model = GaussianBasisLinear(np.zeros((3, 1)))
        _, theta = cost_threshold(ShiftSpec(0.4, 0.6, 0.5))
        score = model.predict(np.array([[0.5]]))
        assert score[0] == 0.0 and theta > 0
        np.testing.assert_array_equal(threshold_decisions(score, theta), [-1])

    def test_tie_resolves_positive(self):
        _, theta = cost_threshold(ShiftSpec(0.5, 0.5, 0.5))
        assert theta == 1.0
        model = GaussianBasisLinear(np.array([[0.0]]), bandwidth=1.0)
        model.params = np.array([1.0])  # predict(0) == 1.0 exactly
        score = model.predict(np.array([[0.0]]))
        assert score[0] == theta
        np.testing.assert_array_equal(threshold_decisions(score, theta), [1])
        np.testing.assert_array_equal(threshold_decisions([np.nextafter(theta, 0.0)], theta), [-1])

    def test_batch_agrees_with_threshold(self):
        rng = np.random.default_rng(1)
        model = GaussianBasisLinear(rng.normal(size=(5, 2)))
        model.params = rng.normal(size=5)
        _, theta = cost_threshold(ShiftSpec(0.4, 0.6, 0.5))
        scores = model.predict(rng.normal(size=(50, 2)))
        labels = threshold_decisions(scores, theta)
        assert labels.dtype.kind == "i"
        assert labels.tolist() == [1 if s >= theta else -1 for s in scores]


class TestExcessRiskBound:
    def test_exact_ratio_zero_gap(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dist = random_distribution(rng)
            spec = ShiftSpec(dist.prior, float(rng.uniform(0.1, 0.9)), 0.5)
            lhs, rhs = excess_risk_bound_check(dist, dist.true_ratio, spec, LSIF)
            assert lhs <= 1e-12 and rhs <= 1e-12

    def test_holds_on_random_trials(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            dist = random_distribution(rng)
            r = random_ratio_values(rng, dist)
            spec = ShiftSpec(
                dist.prior, float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))
            )
            lhs, rhs = excess_risk_bound_check(dist, r, spec, LSIF)
            assert lhs <= rhs + 1e-10

    def test_constant_specializes_without_shift(self):
        """With matching priors and cost 1/2 the constant reduces to the prior."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            pi = float(rng.uniform(0.1, 0.9))
            assert abs(bound_constant(ShiftSpec(pi, pi, 0.5)) - pi) < 1e-12

    def test_requires_strong_convexity(self):
        dist = random_distribution(np.random.default_rng(6))
        spec = ShiftSpec(dist.prior, 0.5, 0.5)
        with pytest.raises(ConfigError):
            excess_risk_bound_check(dist, dist.true_ratio, spec, dataclasses.replace(LSIF, mu=0.0))

    def test_prior_mismatch_rejected(self):
        dist = random_distribution(np.random.default_rng(7))
        spec = ShiftSpec(min(0.9, dist.prior + 0.05), 0.5, 0.5)
        with pytest.raises(ConfigError):
            excess_risk_bound_check(dist, dist.true_ratio, spec, LSIF)


class TestSquaredLossIdentity:
    def test_single_point_hand_value(self):
        dist = DiscreteDistributionPair([1.0], [1.0], 0.5)
        # pi r = 2 > 1 regime: overshoot term is (pi r - 1)(pi r + 1 - 2 eta)
        lhs, rhs = squared_loss_decomposition(dist, np.array([4.0]), mu=1.0)
        assert lhs == pytest.approx(2.25, abs=1e-14)
        assert rhs == pytest.approx(2.25, abs=1e-14)

    def test_identity_random(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            dist = random_distribution(rng)
            r = random_ratio_values(rng, dist)
            lhs, rhs = squared_loss_decomposition(dist, r, mu=float(rng.uniform(0.2, 4)))
            assert abs(lhs - rhs) < 1e-10


class TestThresholdErrorScaling:
    def test_log_log_slope_near_one(self):
        """Threshold error shrinks linearly with injected prior errors."""
        spec = ShiftSpec(0.4, 0.6, 0.5)
        _, theta = cost_threshold(spec)
        deltas = 0.08 * 0.5 ** np.arange(6)
        errors = []
        for d in deltas:
            _, theta_hat = cost_threshold(ShiftSpec(0.4 + d, 0.6 - d, 0.5))
            errors.append(abs(theta_hat - theta))
        slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_perturbed_threshold_risk_bound(self):
        """Excess risk of a perturbed threshold obeys the worst-case bound."""
        rng = np.random.default_rng(9)
        for _ in range(100):
            dist = random_distribution(rng)
            r = random_ratio_values(rng, dist)
            spec = ShiftSpec(dist.prior, float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9)))
            _, theta = cost_threshold(spec)
            delta = float(rng.uniform(-0.9, 1.0)) * theta
            decisions = threshold_decisions(r, theta + delta)
            lhs = finite_support_excess_risk(dist, decisions, spec.test_prior, spec.cost)
            br = population_divergence(LSIF, dist, r)
            rhs = bound_constant(spec) * (2.0 * np.sqrt(2.0 * br / LSIF.mu) + abs(delta))
            assert lhs <= rhs + 1e-10
