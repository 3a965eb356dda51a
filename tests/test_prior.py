import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pushift.data import case1_mixture, synth_from_mixture
from pushift.errors import DataError, DegeneratePriorError
from pushift.prior import (
    ThresholdIntervals,
    build_intervals,
    epsilon,
    estimate_prior,
    estimate_test_prior,
    gamma_bar,
)

from _helpers import brute_force_prior_sweep, mixture_true_ratio


class TestEpsilon:
    def test_frozen_value(self):
        # sqrt(4 log(50 e) / 100) + sqrt(log(200) / 200), evaluated independently
        assert abs(epsilon(100, 0.01) - 0.6060240467499525) < 1e-14

    def test_monotone_decreasing_in_n(self):
        ns = np.unique(np.logspace(1, 6, 200).astype(int))
        vals = [epsilon(int(n), 0.01) for n in ns]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_delta(self):
        for n in (10, 1000, 100000):
            assert epsilon(n, 0.5) < epsilon(n, 0.01)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            epsilon(0, 0.1)
        with pytest.raises(ValueError):
            epsilon(10, 0.0)
        with pytest.raises(ValueError):
            epsilon(10, 1.5)


class TestGammaBar:
    def test_symmetric_sizes(self):
        assert gamma_bar(500, 500, 0.5) == epsilon(500, 1 / 500) / 0.5

    def test_inverse_gamma_scaling(self):
        a = gamma_bar(1000, 5000, 0.25)
        b = gamma_bar(1000, 5000, 0.5)
        assert abs(a - 2 * b) < 1e-12

    def test_frozen_value(self):
        assert abs(gamma_bar(10000, 10000, 0.5) - 0.16790482170924745) < 1e-14

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            gamma_bar(100, 100, 0.0)
        with pytest.raises(ValueError):
            gamma_bar(100, 100, 1.0)


class TestEstimatePrior:
    def test_separated_composition_recovered(self):
        """Known 40/60 composition with cleanly separated score clusters."""
        rng = np.random.default_rng(0)
        n_pos, n_unl = 4000, 20000
        r_pos = rng.uniform(2.0, 3.0, n_pos)
        hidden = rng.random(n_unl) < 0.4
        r_unl = np.where(hidden, rng.uniform(2.0, 3.0, n_unl), rng.uniform(0.0, 1.0, n_unl))
        est = estimate_prior(r_pos, r_unl, gamma=0.5)
        # the realized composition is what the sweep can recover at best
        assert abs(est.value - hidden.mean()) < 0.02
        assert abs(est.value - 0.4) < 0.03

    def test_constant_scores_uninformative(self):
        est = estimate_prior(np.full(500, 1.3), np.full(2000, 1.3), gamma=0.5)
        assert est.value == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        r_pos = rng.uniform(0, 5, 300)
        r_unl = rng.uniform(0, 5, 900)
        base = estimate_prior(r_pos, r_unl, gamma=0.5)
        for transform in (np.exp, lambda t: t**3 + 2 * t, lambda t: 1 - np.exp(-t)):
            est = estimate_prior(transform(r_pos), transform(r_unl), gamma=0.5)
            assert est.value == base.value

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_sweep(self, seed):
        rng = np.random.default_rng(seed)
        n_pos = int(rng.integers(50, 200))
        n_unl = int(rng.integers(50, 200))
        # duplicate values on purpose so ties get exercised
        r_pos = np.round(rng.uniform(0, 3, n_pos), 1)
        r_unl = np.round(rng.uniform(0, 3, n_unl), 1)
        gamma = 0.9
        try:
            est = estimate_prior(r_pos, r_unl, gamma=gamma)
        except DegeneratePriorError:
            return
        oracle, arg = brute_force_prior_sweep(r_pos, r_unl, gamma_bar(n_pos, n_unl, gamma))
        assert abs(est.raw_value - oracle) < 1e-14

    def test_degenerate_sizes_raise(self):
        with pytest.raises(DegeneratePriorError) as exc:
            estimate_prior(np.arange(10.0), np.arange(10.0), gamma=0.5)
        assert exc.value.gamma_bar >= 1.0

    def test_samples_of_one_to_three_points_are_degenerate(self):
        """At n = 1 the radius alone exceeds 1, so a one-point sample is degenerate, not an error."""
        assert epsilon(1, 1.0) > 1.0
        for n_pos in (1, 2, 3):
            for n_unl in (1, 2, 3):
                with pytest.raises(DegeneratePriorError) as exc:
                    estimate_prior(np.linspace(0.1, 0.3, n_pos), np.linspace(0.2, 0.4, n_unl), gamma=0.9)
                assert (exc.value.n_pos, exc.value.n_unl) == (n_pos, n_unl)
                assert exc.value.gamma_bar == gamma_bar(n_pos, n_unl, 0.9) >= 1.0

    def test_estimate_fields(self):
        rng = np.random.default_rng(2)
        est = estimate_prior(rng.uniform(1, 2, 400), rng.uniform(0, 2, 1200), gamma=0.5)
        assert 0.0 <= est.value <= 1.0
        assert est.n_unl_used == 1200
        assert est.value == min(1.0, max(0.0, est.raw_value))


class TestThresholdIntervals:
    def test_small_example(self):
        iv = build_intervals([0.2, 0.5, 0.9])
        assert iv.boundaries.tolist() == [0.2, 0.5, 0.9]
        assert iv.accept_counts.tolist() == [3, 2, 1] and iv.n_pos == 3

    def test_accept_counts_match_direct_counts(self):
        rng = np.random.default_rng(3)
        r_pos = np.round(rng.uniform(0, 4, 500), 2)
        iv = build_intervals(r_pos)
        np.testing.assert_array_equal(iv.boundaries, np.unique(r_pos))
        direct = np.array([(r_pos >= b).sum() for b in iv.boundaries])
        np.testing.assert_array_equal(iv.accept_counts, direct)

    def test_nonincreasing_and_spans_all_levels(self):
        """With distinct scores the counts fall by one per boundary, so every k/n level is hit (0 above the last)."""
        rng = np.random.default_rng(8)
        r_pos = rng.uniform(0, 5, 60)  # continuous draw: distinct w.p. 1
        iv = build_intervals(r_pos)
        assert np.all(np.diff(iv.accept_counts) < 0)
        assert iv.accept_counts.tolist() == list(range(60, 0, -1))

    def test_round_trip(self, tmp_path):
        iv = build_intervals(np.random.default_rng(4).uniform(0, 1, 100), gamma=0.8)
        path = tmp_path / "iv.json"
        iv.save(path)
        back = ThresholdIntervals.load(path)
        np.testing.assert_array_equal(back.boundaries, iv.boundaries)
        np.testing.assert_array_equal(back.accept_counts, iv.accept_counts)
        assert back.n_pos == iv.n_pos and back.gamma == iv.gamma

    def test_corrupted_documents_rejected(self, tmp_path):
        good = build_intervals([0.1, 0.4, 0.4, 0.9]).to_dict()
        for mutate in (
            lambda d: d.update(boundaries=d["boundaries"][::-1]),
            lambda d: d.update(accept_counts=[1, 2, 3][: len(d["accept_counts"])]),
            lambda d: d["accept_counts"].__setitem__(-1, 0),  # strictly decreasing, but no positive accepted
            lambda d: d.pop("boundaries"),
            lambda d: d.pop("gamma"),  # every field to_dict writes is required
            # NaN compares false, so the ordering checks alone let it through
            lambda d: d["boundaries"].__setitem__(-1, float("nan")),
            lambda d: d["boundaries"].__setitem__(-1, float("inf")),
            lambda d: d["boundaries"].__setitem__(0, -float("inf")),
            # a JSON integer beyond int64 overflows the count array
            lambda d: d["accept_counts"].__setitem__(0, 10**30),
        ):
            doc = json.loads(json.dumps(good))
            mutate(doc)
            with pytest.raises(DataError):
                ThresholdIntervals.from_dict(doc)
        bad_file = tmp_path / "garbage.json"
        bad_file.write_text("{not json")
        with pytest.raises(DataError):
            ThresholdIntervals.load(bad_file)


class TestEstimateTestPrior:
    def test_lossless_summary_equality(self):
        """Interval-based sweep equals the brute-force raw-score sweep exactly."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            r_pos = np.round(rng.uniform(0, 3, 300), 2)
            r_unl = np.round(rng.uniform(0, 3, 900), 2)
            via_intervals = estimate_test_prior(build_intervals(r_pos, gamma=0.7), r_unl)
            oracle, arg = brute_force_prior_sweep(r_pos, r_unl, gamma_bar(300, 900, 0.7))
            assert via_intervals.raw_value == oracle
            assert via_intervals.argmin_threshold == arg

    def test_same_distribution_agreement(self):
        """Fresh same-distribution test data lands near the training estimate."""
        mix = case1_mixture()
        diffs = []
        for seed in range(10):
            ss = np.random.SeedSequence(seed)
            s_va, s_te = ss.spawn(2)
            val = synth_from_mixture(mix, 400, 2000, 0.4, s_va)
            test = synth_from_mixture(mix, 1, 2000, 0.4, s_te)
            r_pos = mixture_true_ratio(mix, val.positives.ravel(), 0.4)
            r_unl = mixture_true_ratio(mix, val.unlabeled.ravel(), 0.4)
            r_test = mixture_true_ratio(mix, test.unlabeled.ravel(), 0.4)
            direct = estimate_prior(r_pos, r_unl, gamma=0.9)
            shifted = estimate_test_prior(build_intervals(r_pos, gamma=0.9), r_test)
            diffs.append(abs(direct.value - shifted.value))
        assert np.median(diffs) < 0.05

    def test_shifted_prior_recovered_with_true_ratio(self):
        """Test-time estimate tracks the shifted prior when the score is exact."""
        mix = case1_mixture()
        errors = []
        for seed in range(10):
            ss = np.random.SeedSequence(seed)
            s_va, s_te = ss.spawn(2)
            val = synth_from_mixture(mix, 100, 500, 0.4, s_va)
            test = synth_from_mixture(mix, 1, 1000, 0.6, s_te)
            r_pos = mixture_true_ratio(mix, val.positives.ravel(), 0.4)
            r_test = mixture_true_ratio(mix, test.unlabeled.ravel(), 0.4)
            est = estimate_test_prior(build_intervals(r_pos, gamma=0.9), r_test)
            errors.append(abs(est.value - 0.6))
        assert np.median(errors) <= 0.05

    def test_disjoint_supports_give_zero(self):
        iv = build_intervals(np.linspace(5.0, 6.0, 50), gamma=0.9)
        est = estimate_test_prior(iv, np.linspace(0.0, 1.0, 400))
        assert est.value == 0.0

    def test_degenerate_raises(self):
        iv = build_intervals(np.arange(5.0))
        with pytest.raises(DegeneratePriorError):
            estimate_test_prior(iv, np.arange(100.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_raises(self, bad):
        """A NaN score would otherwise sort last and count as accepted at every threshold."""
        scores = np.linspace(0.0, 1.0, 400)
        scores[7] = bad
        with pytest.raises(DataError, match="finite"):
            estimate_test_prior(build_intervals(np.linspace(0.0, 1.0, 50), gamma=0.9), scores)


class TestConsistencyTrend:
    def test_error_shrinks_with_sample_size(self):
        """Median error decreases when both sample sizes scale tenfold."""
        mix = case1_mixture()

        def median_error(n_pos, n_unl, n_seeds=20):
            errs = []
            for seed in range(n_seeds):
                ds = synth_from_mixture(mix, n_pos, n_unl, 0.4, (seed, n_pos))
                r_pos = mixture_true_ratio(mix, ds.positives.ravel(), 0.4)
                r_unl = mixture_true_ratio(mix, ds.unlabeled.ravel(), 0.4)
                est = estimate_prior(r_pos, r_unl, gamma=0.75)
                errs.append(abs(est.value - 0.4))
            return float(np.median(errs))

        small = median_error(100, 500)
        large = median_error(1000, 5000)
        assert large < small


# Tie-heavy scores on a coarse grid, or arbitrary finite ones, with enough
# points that gamma = 0.9 leaves admissible thresholds.
grid_scores = st.integers(0, 30).map(lambda k: k / 10.0)
any_scores = st.one_of(grid_scores, st.floats(-1e3, 1e3, allow_nan=False))
score_arrays = arrays(np.float64, st.integers(60, 150), elements=any_scores)
grid_arrays = arrays(np.float64, st.integers(60, 150), elements=grid_scores)
SWEEP_SETTINGS = settings(max_examples=40, deadline=None)


class TestSweepProperties:
    @SWEEP_SETTINGS
    @given(r_pos=score_arrays, r_unl=score_arrays)
    def test_sweep_equals_brute_force(self, r_pos, r_unl):
        est = estimate_prior(r_pos, r_unl, gamma=0.9)
        oracle, arg = brute_force_prior_sweep(r_pos, r_unl, gamma_bar(r_pos.size, r_unl.size, 0.9))
        assert est.raw_value == oracle
        assert est.argmin_threshold == arg

    @SWEEP_SETTINGS
    @given(r_pos=grid_arrays, r_unl=grid_arrays, which=st.sampled_from(["exp", "cubic", "affine"]))
    def test_invariant_under_increasing_transform(self, r_pos, r_unl, which):
        transform = {"exp": np.exp, "cubic": lambda t: t**3 + 2 * t, "affine": lambda t: 5 * t - 7}[which]
        base = estimate_prior(r_pos, r_unl, gamma=0.9)
        moved = estimate_prior(transform(r_pos), transform(r_unl), gamma=0.9)
        assert moved.raw_value == base.raw_value
        assert moved.value == base.value

    @SWEEP_SETTINGS
    @given(r=arrays(np.float64, st.integers(1, 80), elements=any_scores))
    def test_accept_counts_equal_acceptance_rate(self, r):
        iv = build_intervals(r)
        direct = (r[:, None] >= iv.boundaries[None, :]).sum(axis=0)
        np.testing.assert_array_equal(iv.accept_counts, direct)
        assert iv.accept_counts[0] == r.size and np.all(np.diff(iv.accept_counts) < 0)

    @SWEEP_SETTINGS
    @given(r_pos=st.one_of(score_arrays, grid_arrays), r_unl=st.one_of(score_arrays, grid_arrays))
    def test_argmin_is_sentinel_or_boundary(self, r_pos, r_unl):
        """The exhaustive oracle's first argmin, over every attained value, is one the sweep tries."""
        iv = build_intervals(r_pos)
        est = estimate_test_prior(iv, r_unl)
        _, arg = brute_force_prior_sweep(r_pos, r_unl, est.gamma_bar)
        for threshold in (est.argmin_threshold, arg):
            assert threshold == -np.inf or threshold in iv.boundaries

    @SWEEP_SETTINGS
    @given(r=arrays(np.float64, st.integers(1, 80), elements=any_scores),
           gamma=st.floats(0.01, 0.99))
    def test_dict_round_trip(self, r, gamma):
        iv = build_intervals(r, gamma=gamma)
        back = ThresholdIntervals.from_dict(json.loads(json.dumps(iv.to_dict())))
        np.testing.assert_array_equal(back.boundaries, iv.boundaries)
        np.testing.assert_array_equal(back.accept_counts, iv.accept_counts)
        assert back.n_pos == iv.n_pos and back.gamma == iv.gamma
        assert back.to_dict() == iv.to_dict()
