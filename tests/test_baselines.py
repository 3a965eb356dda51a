import numpy as np
import pytest
from scipy import integrate

from pushift.baselines import logistic_loss, risk_objective, sigmoid_loss, train_baseline
from pushift.data import SplitDataset, case1_mixture, synth_case1, synth_from_mixture
from pushift.divergence import Branch
from pushift.errors import ConfigError
from pushift.models import GaussianBasisLinear, mlp
from pushift.trainer import AdamState, TrainConfig, _epoch_batches, adam_step


class TestSurrogateLosses:
    def test_values_at_zero(self):
        sig, log = sigmoid_loss(), logistic_loss()
        assert sig.loss(1, 0.0) == 0.5 and sig.loss(-1, 0.0) == 0.5
        assert log.loss(1, 0.0) == pytest.approx(np.log(2))

    def test_sigmoid_bounded(self):
        v = np.linspace(-50, 50, 1001)
        sig = sigmoid_loss()
        for y in (1, -1):
            vals = sig.loss(y, v)
            assert np.all((vals >= 0) & (vals <= 1))

    def test_logistic_convex_in_v(self):
        log = logistic_loss()
        v = np.linspace(-10, 10, 2001)
        for y in (1, -1):
            second = np.diff(log.loss(y, v), 2)
            assert np.all(second >= -1e-12)

    def test_derivatives_match_finite_differences(self):
        v = np.linspace(-5, 5, 101)
        h = 1e-6
        for loss in (sigmoid_loss(), logistic_loss()):
            for y in (1, -1):
                fd = (loss.loss(y, v + h) - loss.loss(y, v - h)) / (2 * h)
                np.testing.assert_allclose(loss.dloss_dv(y, v), fd, atol=1e-8)


class TestRiskEstimators:
    def test_upu_sigmoid_at_zero(self):
        upu = risk_objective("upu", sigmoid_loss(), 0.3)
        assert upu.value(np.zeros(5), np.zeros(7)) == pytest.approx(0.5)

    def test_prior_zero_collapse(self):
        rng = np.random.default_rng(0)
        g_pos, g_unl = rng.normal(size=10), rng.normal(size=20)
        loss = sigmoid_loss()
        assert risk_objective("upu", loss, 0.0).value(g_pos, g_unl) == pytest.approx(
            float(np.mean(loss.loss(-1, g_unl)))
        )

    def test_nnpu_sigmoid_at_zero(self):
        nnpu = risk_objective("nnpu", sigmoid_loss(), 0.3)
        assert nnpu.value(np.zeros(5), np.zeros(7)) == pytest.approx(0.5)
        assert nnpu.weights(np.zeros(5), np.zeros(7))[2] is Branch.NORMAL

    def test_adversarial_bracket_goes_negative(self):
        """Overconfident fits push the unbiased risk negative, nnPU clips it."""
        g_pos = np.full(20, 10.0)
        g_unl = np.full(40, -10.0)
        upu = risk_objective("upu", sigmoid_loss(), 0.8)
        nnpu = risk_objective("nnpu", sigmoid_loss(), 0.8)
        assert upu.value(g_pos, g_unl) < 0
        assert nnpu.weights(g_pos, g_unl)[2] is Branch.CORRECTED
        assert nnpu.value(g_pos, g_unl) >= 0

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            risk_objective("upu", sigmoid_loss(), 0.5).value([], [0.0])

    def test_upu_unbiasedness_monte_carlo(self):
        """Mean of PU estimates matches the supervised risk by quadrature."""
        mix = case1_mixture()
        loss = sigmoid_loss()
        upu = risk_objective("upu", loss, 0.4)

        def g(x):
            return x - 0.2

        risk_pos = integrate.quad(lambda x: loss.loss(1, g(x)) * mix.pdf_pos(x), -12, 12)[0]
        risk_neg = integrate.quad(lambda x: loss.loss(-1, g(x)) * mix.pdf_neg(x), -12, 12)[0]
        population = 0.4 * risk_pos + 0.6 * risk_neg

        estimates = []
        for seed in range(1000):
            ds = synth_from_mixture(mix, 50, 250, 0.4, (seed, 123))
            estimates.append(upu.value(g(ds.positives.ravel()), g(ds.unlabeled.ravel())))
        estimates = np.asarray(estimates)
        stderr = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - population) < 3 * stderr


def overfit_split(seed=0):
    """Tiny positive set, flexible model: the classic negative-risk setup."""
    return SplitDataset(
        train=synth_case1(20, 100, 0.4, seed),
        val=synth_case1(20, 100, 0.4, seed + 1),
    )


class TestTrainBaseline:
    def test_upu_risk_goes_negative_when_overparameterized(self):
        split = overfit_split()
        model = GaussianBasisLinear(split.train.unlabeled, bandwidth=0.3, clamp=False)
        cfg = TrainConfig(epochs=150, batch_size=100, learning_rate=5e-2, l2_reg=0.0, seed=0)
        model, report = train_baseline("upu", logistic_loss(), 0.4, model, split, cfg)
        assert min(report.train_objective) < 0

    def test_nnpu_risk_stays_nonnegative(self):
        split = overfit_split()
        model = GaussianBasisLinear(split.train.unlabeled, bandwidth=0.3, clamp=False)
        cfg = TrainConfig(epochs=150, batch_size=100, learning_rate=5e-2, l2_reg=0.0, seed=0)
        model, report = train_baseline("nnpu", sigmoid_loss(), 0.4, model, split, cfg)
        assert min(report.train_objective) >= 0
        assert max(report.corrected_fraction) > 0  # the defensive branch fired

    def test_method_and_prior_validation(self):
        split = overfit_split()
        model = GaussianBasisLinear(split.train.unlabeled, clamp=False)
        with pytest.raises(ConfigError):
            train_baseline("vpu", sigmoid_loss(), 0.4, model, split, TrainConfig(epochs=1))
        with pytest.raises(ConfigError):
            train_baseline("upu", sigmoid_loss(), 1.2, model, split, TrainConfig(epochs=1))

    def test_zero_epochs_noop(self):
        split = overfit_split()
        model = GaussianBasisLinear(split.train.unlabeled, clamp=False)
        before = model.params.copy()
        model, report = train_baseline(
            "nnpu", sigmoid_loss(), 0.4, model, split, TrainConfig(epochs=0, batch_size=50)
        )
        np.testing.assert_array_equal(model.params, before)

    def test_deterministic(self):
        split = overfit_split()
        cfg = TrainConfig(epochs=10, batch_size=50, learning_rate=1e-2, seed=4)
        m1 = GaussianBasisLinear(split.train.unlabeled, clamp=False)
        m2 = GaussianBasisLinear(split.train.unlabeled, clamp=False)
        train_baseline("nnpu", sigmoid_loss(), 0.4, m1, split, cfg)
        train_baseline("nnpu", sigmoid_loss(), 0.4, m2, split, cfg)
        np.testing.assert_array_equal(m1.params, m2.params)

    @pytest.mark.parametrize(
        "make_model",
        [
            pytest.param(lambda X: GaussianBasisLinear(X, bandwidth=0.3, clamp=False), id="kernel"),
            pytest.param(lambda X: mlp([1, 16, 1], seed=2, output="linear"), id="mlp"),
        ],
    )
    def test_nnpu_matches_reference_loop(self, make_model):
        """Same batches, nnPU branch rule and best-validation snapshot, written out by hand."""
        split = overfit_split()
        tr, va = split.train, split.val
        loss, prior = sigmoid_loss(), 0.4
        cfg = TrainConfig(epochs=40, batch_size=50, learning_rate=5e-2, l2_reg=1e-3, seed=6)
        model, report = train_baseline("nnpu", loss, prior, make_model(tr.unlabeled), split, cfg)
        assert max(report.corrected_fraction) > 0  # both branches are exercised

        ref = make_model(tr.unlabeled)
        rng = np.random.default_rng(cfg.seed)
        state = AdamState.zeros(ref.n_params, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
        snapshots = []
        for _ in range(cfg.epochs):
            for pos_idx, unl_idx in _epoch_batches(rng, tr.n_pos, tr.n_unl, cfg.batch_size):
                # steps read the rows training gathers from: the encoding in the model's TRAIN_DTYPE
                (gp, back_pos), (gu, back_unl) = (
                    ref.forward(ref.encode(x).astype(ref.TRAIN_DTYPE))
                    for x in (tr.positives[pos_idx], tr.unlabeled[unl_idx])
                )
                bracket = np.mean(loss.loss(-1, gu)) - prior * np.mean(loss.loss(-1, gp))
                if bracket >= 0:
                    w_pos = prior * (loss.dloss_dv(1, gp) - loss.dloss_dv(-1, gp)) / gp.size
                    w_unl = loss.dloss_dv(-1, gu) / gu.size
                else:
                    w_pos = prior * loss.dloss_dv(-1, gp) / gp.size
                    w_unl = -loss.dloss_dv(-1, gu) / gu.size
                grad = back_pos(w_pos) + back_unl(w_unl)
                grad = grad + cfg.l2_reg * ref.params
                ref.params = ref.params + adam_step(state, grad, cfg.learning_rate)
            snapshots.append(ref.params.copy())
        # The trainer scores each block of the model's SCORE_BLOCK epochs with one call per split.
        va_pos, va_unl = ref.encode(va.positives), ref.encode(va.unlabeled)
        upu = risk_objective("upu", loss, prior)
        best_val, best_params = np.inf, None
        for start in range(0, cfg.epochs, ref.SCORE_BLOCK):
            thetas = np.column_stack(snapshots[start : start + ref.SCORE_BLOCK])
            out_pos, out_unl = ref.outputs(va_pos, thetas), ref.outputs(va_unl, thetas)
            for j in range(thetas.shape[1]):
                val = upu.value(out_pos[:, j], out_unl[:, j])
                if val < best_val:
                    best_val, best_params = val, snapshots[start + j]
        np.testing.assert_array_equal(model.params, best_params)
        assert min(report.val_objective) == best_val
