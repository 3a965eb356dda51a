import time
from dataclasses import asdict

import numpy as np
import pytest

from _helpers import reference_finite_support_bayes_risk, reference_finite_support_risk, reference_run_suite
from _theory import SUITES, finite_support_excess_risk, random_distribution, run_all, run_suite


class TestSuites:
    def test_all_pass_at_hundred_trials(self):
        t0 = time.time()
        results = run_all(seed=0, trials=100)
        elapsed = time.time() - t0
        assert len(results) == len(SUITES)
        for r in results:
            assert r.passed, f"{r.name} failed with worst margin {r.worst_margin}"
            assert r.trials == 100
        assert elapsed < 30.0

    def test_identity_tolerance_tight(self):
        res = run_suite("squared_loss_identity", seed=1, trials=100)
        assert res.kind == "identity"
        assert res.passed
        assert -res.worst_margin < 1e-10

    def test_violations_reported(self, monkeypatch):
        """A violated inequality and a mismatched identity must be caught, not absorbed."""
        monkeypatch.setitem(SUITES, "violated", ("inequality", lambda rng, dist, r: (1e-9, 0.0)))
        monkeypatch.setitem(SUITES, "mismatched", ("identity", lambda rng, dist, r: (1.0, 1.0 + 1e-9)))
        results = {r.name: r for r in run_all(seed=0, trials=5)}
        assert not results["violated"].passed and not results["mismatched"].passed
        assert all(results[name].passed for name in results if name not in ("violated", "mismatched"))

    def test_reproducible(self):
        a = run_suite("shifted_classification_bound", seed=3, trials=50)
        b = run_suite("shifted_classification_bound", seed=3, trials=50)
        assert a.worst_margin == b.worst_margin
        assert a.max_slack == b.max_slack

    def test_result_fields_serializable(self):
        res = run_suite("auc_bound", seed=2, trials=20)
        doc = asdict(res)
        assert set(doc) == {"name", "kind", "trials", "passed", "worst_margin", "max_slack"}


class TestAgainstTheFormerLoops:
    @pytest.mark.parametrize("name", list(SUITES))
    def test_run_suite_matches_the_reference_loop(self, name):
        for seed in range(5):
            for trials in (1, 7, 100):
                res = run_suite(name, seed=seed, trials=trials)
                passed, worst, slack = reference_run_suite(name, seed, trials)
                assert (res.passed, res.worst_margin.hex(), res.max_slack.hex()) == (passed, worst.hex(), slack.hex())

    def test_excess_risk_is_the_reference_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dist = random_distribution(rng)
            decisions = rng.choice([-1, 1], size=dist.p_plus_mass.size)
            prior, cost = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))
            want = reference_finite_support_risk(dist, decisions, prior, cost)
            want -= reference_finite_support_bayes_risk(dist, prior, cost)
            assert finite_support_excess_risk(dist, decisions, prior, cost).hex() == want.hex()
