import dataclasses
import tracemalloc

import numpy as np
import pytest

from _helpers import reference_adam_step

from pushift.baselines import risk_objective, sigmoid_loss
from pushift.data import SplitDataset, synth_case1
from pushift.divergence import Branch, Objective, ratio_objective
from pushift.errors import ConfigError, TrainingDiverged
from pushift.experiments import case_data, kernel_centers
from pushift.generators import lsif_generator
from pushift.models import GaussianBasisLinear, RatioModel, gaussian_basis_linear, mlp
from pushift.trainer import (
    SCORE_BLOCK,
    AdamState,
    TrainConfig,
    TrainReport,
    _epoch_batches,
    adam_step,
    train,
)

LSIF = lsif_generator()


def small_split(seed=0, n=(40, 200), v=(20, 100)):
    return SplitDataset(
        train=synth_case1(n[0], n[1], 0.4, seed),
        val=synth_case1(v[0], v[1], 0.4, seed + 1),
    )


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        state = AdamState.zeros(5)
        delta = adam_step(state, np.zeros(5), lr=0.1)
        np.testing.assert_array_equal(delta, np.zeros(5))

    def test_constant_gradient_step_approaches_lr(self):
        """With a constant gradient the normalized step tends to lr * sign(g)."""
        state = AdamState.zeros(3, beta1=0.9, beta2=0.999)
        g = np.array([2.5, -0.3, 1e-3])
        lr = 0.01
        for _ in range(5000):
            delta = adam_step(state, g, lr)
        np.testing.assert_allclose(np.abs(delta), lr, rtol=1e-3)
        np.testing.assert_array_equal(np.sign(delta), -np.sign(g))

    @pytest.mark.parametrize("beta1, beta2, lr", [(0.9, 0.999, 1e-3), (0.5, 0.999, 2e-5), (0.3, 0.7, 1.5)])
    def test_bits_match_reference(self, beta1, beta2, lr):
        """Moments and deltas equal the reference step's, including an overflowed second moment."""
        rng = np.random.default_rng(int(beta2 * 1000))
        state = AdamState.zeros(40, beta1=beta1, beta2=beta2)
        ref = AdamState.zeros(40, beta1=beta1, beta2=beta2)
        with np.errstate(invalid="ignore"):
            for step in range(30):
                grad = rng.normal(scale=10.0 ** rng.integers(-8, 8), size=40)
                grad[step % 40] = 0.0
                if step == 25:
                    grad[:3] = 1e300
                np.testing.assert_array_equal(adam_step(state, grad, lr), reference_adam_step(ref, grad, lr))
                np.testing.assert_array_equal(state.m, ref.m)
                np.testing.assert_array_equal(state.v, ref.v)
                assert state.t == ref.t
        assert np.isinf(state.v[:3]).all()

    def test_dimension_mismatch(self):
        state = AdamState.zeros(3)
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(4), lr=0.1)


class TestBatching:
    def test_epoch_covers_unlabeled_once(self):
        rng = np.random.default_rng(0)
        batches = _epoch_batches(rng, n_pos=40, n_unl=200, batch_size=50)
        unl = np.concatenate([u for _, u in batches])
        assert sorted(unl.tolist()) == list(range(200))
        for pos_idx, unl_idx in batches:
            assert pos_idx.size == round(unl_idx.size * 40 / 200)

    def test_positive_pool_smaller_than_draw(self):
        rng = np.random.default_rng(1)
        batches = _epoch_batches(rng, n_pos=3, n_unl=100, batch_size=100)
        (pos_idx, unl_idx), = batches
        assert pos_idx.size == 3 and unl_idx.size == 100


class TestTrain:
    def test_zero_epochs_noop(self):
        split = small_split()
        model = gaussian_basis_linear(split.train.unlabeled)
        before = model.params.copy()
        model, report = train(model, split, ratio_objective(LSIF, 0.0), TrainConfig(epochs=0))
        np.testing.assert_array_equal(model.params, before)
        assert report.train_objective == [] and report.best_epoch == -1

    def test_validation_selection_is_argmin(self):
        split = small_split()
        model = gaussian_basis_linear(split.train.unlabeled)
        cfg = TrainConfig(epochs=30, batch_size=40, learning_rate=1e-3, seed=3)
        model, report = train(model, split, ratio_objective(LSIF, cfg.alpha), cfg)
        assert report.best_epoch == int(np.argmin(report.val_objective))
        # the returned snapshot actually attains the reported minimum
        returned_val = ratio_objective(LSIF, 0.0).plain(
            model.predict(split.val.positives), model.predict(split.val.unlabeled)
        )
        assert returned_val == pytest.approx(min(report.val_objective), abs=1e-12)

    def test_reproducible_reports(self):
        split = small_split()
        cfg = TrainConfig(epochs=10, batch_size=40, learning_rate=1e-3, seed=7)
        m1 = gaussian_basis_linear(split.train.unlabeled)
        m2 = gaussian_basis_linear(split.train.unlabeled)
        _, r1 = train(m1, split, ratio_objective(LSIF, cfg.alpha), cfg)
        _, r2 = train(m2, split, ratio_objective(LSIF, cfg.alpha), cfg)
        assert r1.val_objective == r2.val_objective
        assert r1.train_objective == r2.train_objective
        np.testing.assert_array_equal(m1.params, m2.params)

    def test_alpha_zero_never_corrects(self):
        split = small_split()
        model = gaussian_basis_linear(split.train.unlabeled)
        cfg = TrainConfig(alpha=0.0, epochs=20, batch_size=40, learning_rate=1e-3, seed=0)
        _, report = train(model, split, ratio_objective(LSIF, cfg.alpha), cfg)
        assert report.corrected_fraction == [0.0] * 20

    def test_alpha_zero_matches_plain_descent(self):
        """With the corrected branch unreachable the loop is plain descent."""
        split = small_split()
        cfg = TrainConfig(alpha=0.0, epochs=8, batch_size=40, learning_rate=1e-3, seed=5)
        model = gaussian_basis_linear(split.train.unlabeled)
        model, report = train(model, split, ratio_objective(LSIF, cfg.alpha), cfg)
        assert report.best_epoch == cfg.epochs - 1  # monotone improvement here

        # reference loop: same batches, always the plain-objective gradient
        ref = gaussian_basis_linear(split.train.unlabeled)
        rng = np.random.default_rng(cfg.seed)
        state = AdamState.zeros(ref.n_params, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
        tr = split.train
        for _ in range(cfg.epochs):
            for pos_idx, unl_idx in _epoch_batches(rng, tr.n_pos, tr.n_unl, cfg.batch_size):
                xp, xu = tr.positives[pos_idx], tr.unlabeled[unl_idx]
                rp, back_pos = ref.forward(ref.encode(xp))
                ru, back_unl = ref.forward(ref.encode(xu))
                grad = back_pos(-LSIF.f_prime2(rp) / rp.size) + back_unl(ru * LSIF.f_prime2(ru) / ru.size)
                grad = grad + cfg.l2_reg * ref.params
                ref.params = ref.params + adam_step(state, grad, cfg.learning_rate)
        # trainer returns the best-validation snapshot; with monotone improvement
        # on this easy problem that is the final epoch, same as the reference
        np.testing.assert_allclose(model.params, ref.params, atol=1e-12)

    def test_case1_objective_improves(self):
        """Reference configuration: validation objective drops during training."""
        split = SplitDataset(
            train=synth_case1(200, 1000, 0.4, 11),
            val=synth_case1(100, 500, 0.4, 12),
        )
        model = gaussian_basis_linear(split.train.unlabeled, bandwidth=1.0)
        cfg = TrainConfig(
            alpha=0.0, epochs=200, batch_size=200, learning_rate=2e-5,
            adam_beta1=0.5, adam_beta2=0.999, l2_reg=0.1, seed=11,
        )
        model, report = train(model, split, ratio_objective(LSIF, cfg.alpha), cfg)
        assert report.val_objective[-1] < report.val_objective[0]
        assert min(report.val_objective) == report.val_objective[report.best_epoch]

    def test_batch_size_exceeds_pool(self):
        split = small_split()
        model = gaussian_basis_linear(split.train.unlabeled)
        with pytest.raises(ConfigError):
            train(model, split, ratio_objective(LSIF, 0.0), TrainConfig(batch_size=10_000))

    def test_empty_split_rejected(self):
        split = small_split()
        bad = SplitDataset(
            train=split.train,
            val=type(split.val)(split.val.positives[:0], split.val.unlabeled),
        )
        model = gaussian_basis_linear(split.train.unlabeled)
        with pytest.raises(ConfigError):
            train(model, bad, ratio_objective(LSIF, 0.0), TrainConfig(epochs=1, batch_size=10))

    def test_divergence_detected(self):
        split = small_split()
        model = gaussian_basis_linear(split.train.unlabeled)
        cfg = TrainConfig(epochs=3, batch_size=40, learning_rate=1e200, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                train(model, split, ratio_objective(LSIF, cfg.alpha), cfg)

    def test_config_validation(self):
        for bad in (
            dict(alpha=1.0),
            dict(epochs=-1),
            dict(batch_size=0),
            dict(learning_rate=0),
            dict(adam_beta1=1.0),
            dict(l2_reg=-0.1),
            dict(learning_rate=np.nan),
            dict(learning_rate=np.inf),
            dict(l2_reg=np.nan),
            dict(l2_reg=np.inf),
        ):
            with pytest.raises(ConfigError):
                TrainConfig(**bad).validate()


def reference_train(model, data, objective, cfg):
    """Score every epoch with ``forward`` right after its steps, as one loop."""
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.zeros(model.n_params, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
    report, best_val, best_params = TrainReport(), np.inf, model.params.copy()
    tr, va = data.train, data.val
    tr_pos, tr_unl, va_pos, va_unl = (
        model.encode(X) for X in (tr.positives, tr.unlabeled, va.positives, va.unlabeled)
    )
    for epoch in range(cfg.epochs):
        n_corrected = 0
        batches = _epoch_batches(rng, tr.n_pos, tr.n_unl, cfg.batch_size)
        for pos_idx, unl_idx in batches:
            out_pos, back_pos = model.forward(tr_pos[pos_idx])
            out_unl, back_unl = model.forward(tr_unl[unl_idx])
            w_pos, w_unl, branch = objective.weights(out_pos, out_unl)
            n_corrected += branch is Branch.CORRECTED
            grad = back_pos(w_pos) + back_unl(w_unl) + cfg.l2_reg * model.params
            model.params = model.params + adam_step(state, grad, cfg.learning_rate)
        train_obj = objective.value(model.forward(tr_pos)[0], model.forward(tr_unl)[0])
        val_obj = objective.plain(model.forward(va_pos)[0], model.forward(va_unl)[0])
        if not (np.isfinite(train_obj) and np.isfinite(val_obj)):
            raise TrainingDiverged(f"non-finite objective at epoch {epoch}")
        report.train_objective.append(float(train_obj))
        report.val_objective.append(float(val_obj))
        report.corrected_fraction.append(n_corrected / len(batches))
        if val_obj < best_val:
            best_val, best_params, report.best_epoch = val_obj, model.params.copy(), epoch
    model.params = best_params
    return model, report


NNPU = risk_objective("nnpu", sigmoid_loss(), 0.4)

# (model factory, objective, whether the block scoring must be bit-equal)
SCORED_MODELS = {
    "kernel-clamp": (lambda s: gaussian_basis_linear(s.train.unlabeled), ratio_objective(LSIF, 0.3), False),
    "kernel-linear": (
        lambda s: GaussianBasisLinear(s.train.unlabeled, clamp=False), NNPU, False,
    ),
    "mlp-softplus": (lambda s: mlp([1, 8, 8, 1], seed=2), ratio_objective(LSIF, 0.3), True),
    "mlp-linear": (lambda s: mlp([1, 8, 8, 1], seed=2, output="linear"), NNPU, True),
}


class TestBlockScoring:
    """Scoring epochs a block at a time changes no training step and no selection."""

    @pytest.mark.parametrize("epochs", [1, SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1, 35])
    @pytest.mark.parametrize("name", sorted(SCORED_MODELS))
    def test_matches_per_epoch_reference(self, name, epochs):
        make, objective, bit_equal = SCORED_MODELS[name]
        split = small_split(seed=4)
        cfg = TrainConfig(alpha=0.3, epochs=epochs, batch_size=40, learning_rate=1e-2, seed=9)
        model, report = train(make(split), split, objective, cfg)
        ref, ref_report = reference_train(make(split), split, objective, cfg)
        assert report.best_epoch == ref_report.best_epoch
        np.testing.assert_array_equal(model.params, ref.params)
        assert report.corrected_fraction == ref_report.corrected_fraction
        for key in ("train_objective", "val_objective"):
            got, want = getattr(report, key), getattr(ref_report, key)
            assert len(got) == epochs
            if bit_equal:
                assert got == want
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("clamp", [True, False])
    def test_reported_objectives_do_not_depend_on_the_run_length(self, clamp):
        """A short final block scores its epochs as bits of a full block would."""
        split, _ = case_data(2, 0, (200, 1000), (100, 500), 1, 0.6, 0.4)
        centers = kernel_centers(split, 0, 100)
        objective = ratio_objective(LSIF, 0.3) if clamp else NNPU

        def run(epochs):
            cfg = TrainConfig(alpha=0.3, epochs=epochs, batch_size=200, learning_rate=1e-3, seed=0)
            return train(GaussianBasisLinear(centers, clamp=clamp), split, objective, cfg)[1]

        full = run(2 * SCORE_BLOCK)
        for epochs in (SCORE_BLOCK + 1, SCORE_BLOCK + 2):
            short = run(epochs)
            for key in ("train_objective", "val_objective", "corrected_fraction"):
                assert getattr(short, key) == getattr(full, key)[:epochs], key

    @pytest.mark.parametrize("clamp", [True, False])
    def test_kernel_outputs_match_forward_per_column(self, clamp):
        rng = np.random.default_rng(3)
        model = GaussianBasisLinear(rng.normal(size=(120, 2)), bandwidth=0.8, clamp=clamp)
        Z = model.encode(rng.normal(size=(300, 2)))
        thetas = rng.normal(size=(model.n_params, 7))
        out = model.outputs(Z, thetas)
        assert out.shape == (300, 7)
        for j in range(7):
            model.params = thetas[:, j]
            want = model.forward(Z)[0]
            np.testing.assert_allclose(out[:, j], want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_mlp_outputs_never_assign_params_and_match_forward(self, monkeypatch):
        """Each column equals ``forward`` at that column's parameters, bit for bit."""
        rng = np.random.default_rng(4)
        model = mlp([2, 5, 1], seed=1)
        Z = model.encode(rng.normal(size=(40, 2)))
        thetas = model.params[:, None] + rng.normal(scale=0.3, size=(model.n_params, 3))
        want = []
        for j in range(3):
            model.params = thetas[:, j]
            want.append(model.forward(Z)[0])

        def refuse(self, value):
            raise AssertionError("outputs assigned params")

        monkeypatch.setattr(RatioModel, "params", property(RatioModel.params.fget, refuse))
        out = model.outputs(Z, thetas)
        np.testing.assert_array_equal(out, np.column_stack(want))

    def test_divergence_names_the_parent_epoch(self):
        """The learning_rate=1e200 case still stops at epoch 0, even with a long block ahead."""
        split = small_split()
        cfg = TrainConfig(epochs=20, batch_size=40, learning_rate=1e200, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match=r"at epoch 0: "):
                train(gaussian_basis_linear(split.train.unlabeled), split, ratio_objective(LSIF, 0.0), cfg)
            with pytest.raises(TrainingDiverged, match=r"at epoch 0$"):
                reference_train(
                    gaussian_basis_linear(split.train.unlabeled), split, ratio_objective(LSIF, 0.0), cfg
                )

    def test_divergence_inside_a_block_names_its_epoch(self):
        """Finite parameters, non-finite objective at epoch 5: raised at the block's end."""
        calls = []

        class NanAtSixthScore(Objective):
            def plain(self, out_pos, out_unl):
                calls.append(None)
                return np.nan if len(calls) == 6 else super().plain(out_pos, out_unl)

        base = ratio_objective(LSIF, 0.0)
        objective = NanAtSixthScore(**{f.name: getattr(base, f.name) for f in dataclasses.fields(base)})
        split = small_split()
        cfg = TrainConfig(epochs=20, batch_size=40, learning_rate=1e-3, seed=0)
        with pytest.raises(TrainingDiverged, match=r"at epoch 5: train=[-0-9.e]+, val=nan"):
            train(gaussian_basis_linear(split.train.unlabeled), split, objective, cfg)
        calls.clear()
        with pytest.raises(TrainingDiverged, match=r"at epoch 5$"):
            reference_train(gaussian_basis_linear(split.train.unlabeled), split, objective, cfg)

    def test_scoring_memory_is_bounded(self):
        """Extra traced memory of a long run over a one-epoch run stays under one block."""
        split = SplitDataset(
            train=synth_case1(200, 2000, 0.4, 0), val=synth_case1(100, 1000, 0.4, 1)
        )
        rows = 200 + 2000 + 100 + 1000
        centers = split.train.unlabeled[:5]  # few features, so the scoring outputs dominate

        def peak(epochs):
            model = gaussian_basis_linear(centers)
            cfg = TrainConfig(epochs=epochs, batch_size=500, learning_rate=1e-3, seed=0)
            tracemalloc.start()
            try:
                train(model, split, ratio_objective(LSIF, cfg.alpha), cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        extra = peak(2 * SCORE_BLOCK + 3) - peak(1)
        # one block of output columns per row, whatever the epochs, plus a
        # quarter for the objectives' temporaries; keeping every epoch's
        # outputs until the end would need (2 * SCORE_BLOCK + 2) columns
        assert extra <= 1.25 * SCORE_BLOCK * rows * 8
