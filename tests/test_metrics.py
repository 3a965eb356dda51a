import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from pushift.errors import ConfigError
from pushift.generators import exp_generator, lsif_generator
from pushift.metrics import _average_ranks, accuracy, auc

from _theory import auc_excess_bound_check, population_auc_risk, random_distribution, random_ratio_values
from _helpers import auc_brute_force

LSIF = lsif_generator()


class TestEmpiricalAuc:
    def test_perfect_ranking(self):
        assert auc([3, 4, 5], [0, 1, 2]) == 1.0

    def test_constant_scores(self):
        assert auc(np.ones(10), np.ones(7)) == 0.5

    def test_reversal_complement(self):
        rng = np.random.default_rng(0)
        sp, sn = rng.normal(1, 1, 40), rng.normal(0, 1, 60)  # continuous, tie-free
        assert auc(sp, sn) + auc(sn, sp) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_sum_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n_pos = int(rng.integers(2, 500))
        n_neg = int(rng.integers(2, 500))
        # coarse grid of score values forces plenty of ties
        sp = rng.integers(0, 20, n_pos).astype(float)
        sn = rng.integers(0, 20, n_neg).astype(float)
        assert auc(sp, sn) == pytest.approx(auc_brute_force(sp, sn), abs=1e-12)

    def test_average_ranks_match_scipy_rankdata(self):
        """The numpy tie-averaged ranks replace scipy.stats.rankdata bit for bit."""
        from scipy.stats import rankdata

        rng = np.random.default_rng(5)
        for trial in range(250):
            n = int(rng.integers(1, 300))
            x = rng.integers(0, max(1, n // 4), n).astype(float) if trial % 2 else rng.normal(size=n)
            np.testing.assert_array_equal(_average_ranks(x), rankdata(x, method="average"))
        x = np.array([0.0, -0.0, 1.0, np.nan])
        np.testing.assert_array_equal(_average_ranks(x), rankdata(x, method="average"))

    def test_tied_scores_equal_brute_force(self):
        sp = np.array([0.0, 1.0, 1.0, 2.0, 2.0, 2.0, -0.0])
        sn = np.array([1.0, 2.0, 0.0, 0.0, 3.0])
        assert auc(sp, sn) == auc_brute_force(sp, sn)

    def test_import_leaves_scipy_stats_out(self):
        code = "import sys, pushift; sys.exit('scipy.stats' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        sp, sn = rng.uniform(0, 5, 100), rng.uniform(0, 5, 100)
        base = auc(sp, sn)
        for t in (np.exp, lambda v: v**3, lambda v: np.arctan(v)):
            assert auc(t(sp), t(sn)) == pytest.approx(base, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auc([], [1.0])


class TestAucBound:
    def test_exact_ratio_zero_gap(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            dist = random_distribution(rng)
            lhs, rhs = auc_excess_bound_check(dist, dist.true_ratio, LSIF)
            assert abs(lhs) <= 1e-12 and rhs <= 1e-12

    def test_holds_on_random_trials(self):
        rng = np.random.default_rng(3)
        for gen in (LSIF, exp_generator()):
            for _ in range(50):
                dist = random_distribution(rng)
                r = random_ratio_values(rng, dist)
                lhs, rhs = auc_excess_bound_check(dist, r, gen)
                assert lhs <= rhs + 1e-10

    def test_reversed_ranking_still_dominated(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dist = random_distribution(rng)
            r = float(np.max(dist.true_ratio)) - dist.true_ratio + 0.1
            lhs, rhs = auc_excess_bound_check(dist, r, LSIF)
            ranks_regret = population_auc_risk(dist, r) - population_auc_risk(dist, dist.true_ratio)
            assert lhs == pytest.approx(ranks_regret)
            assert lhs >= 0 and lhs <= rhs + 1e-10

    def test_weak_convexity_rejected(self):
        dist = random_distribution(np.random.default_rng(5))
        with pytest.raises(ConfigError):
            auc_excess_bound_check(dist, dist.true_ratio, dataclasses.replace(LSIF, mu=0.0))

    def test_alignment_error(self):
        dist = random_distribution(np.random.default_rng(6))
        with pytest.raises(ValueError):
            population_auc_risk(dist, np.zeros(dist.p_plus_mass.size + 1))


class TestErrorRates:
    def test_perfect_predictions(self):
        y = np.array([1, -1, 1])
        assert accuracy(y, y) == 1.0
        assert accuracy(y, -y) == 0.0
