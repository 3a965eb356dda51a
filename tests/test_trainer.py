import dataclasses
import tracemalloc

import numpy as np
import pytest

from _helpers import reference_adam_step, run_at_one_blas_thread

from pushift.baselines import risk_objective, sigmoid_loss
from pushift.data import SplitDataset, synth_case1, synth_gaussian_pair
from pushift.divergence import Branch, Objective, ratio_objective
from pushift.errors import ConfigError, TrainingDiverged
from pushift.experiments import case_data, kernel_centers
from pushift.generators import lsif_generator
from pushift.models import SCORE_ROWS, GaussianBasisLinear, RatioModel, mlp
from pushift.trainer import (
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
        state = AdamState.zeros(5, beta1=0.9, beta2=0.999)
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
        state = AdamState.zeros(3, beta1=0.9, beta2=0.999)
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
        model = GaussianBasisLinear(split.train.unlabeled)
        before = model.params.copy()
        model, report = train(model, split, ratio_objective(LSIF, 0.0), TrainConfig(epochs=0))
        np.testing.assert_array_equal(model.params, before)
        assert report.train_objective == [] and report.best_epoch == -1

    def test_validation_selection_is_argmin(self):
        split = small_split()
        model = GaussianBasisLinear(split.train.unlabeled)
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
        m1 = GaussianBasisLinear(split.train.unlabeled)
        m2 = GaussianBasisLinear(split.train.unlabeled)
        _, r1 = train(m1, split, ratio_objective(LSIF, cfg.alpha), cfg)
        _, r2 = train(m2, split, ratio_objective(LSIF, cfg.alpha), cfg)
        assert r1.val_objective == r2.val_objective
        assert r1.train_objective == r2.train_objective
        np.testing.assert_array_equal(m1.params, m2.params)

    def test_alpha_zero_never_corrects(self):
        split = small_split()
        model = GaussianBasisLinear(split.train.unlabeled)
        cfg = TrainConfig(alpha=0.0, epochs=20, batch_size=40, learning_rate=1e-3, seed=0)
        _, report = train(model, split, ratio_objective(LSIF, cfg.alpha), cfg)
        assert report.corrected_fraction == [0.0] * 20

    def test_alpha_zero_matches_plain_descent(self):
        """With the corrected branch unreachable the loop is plain descent."""
        split = small_split()
        cfg = TrainConfig(alpha=0.0, epochs=8, batch_size=40, learning_rate=1e-3, seed=5)
        model = GaussianBasisLinear(split.train.unlabeled)
        model, report = train(model, split, ratio_objective(LSIF, cfg.alpha), cfg)
        assert report.best_epoch == cfg.epochs - 1  # monotone improvement here

        # reference loop: same batches, always the plain-objective gradient
        ref = GaussianBasisLinear(split.train.unlabeled)
        rng = np.random.default_rng(cfg.seed)
        state = AdamState.zeros(ref.n_params, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
        tr = split.train
        for _ in range(cfg.epochs):
            for pos_idx, unl_idx in _epoch_batches(rng, tr.n_pos, tr.n_unl, cfg.batch_size):
                xp, xu = tr.positives[pos_idx], tr.unlabeled[unl_idx]
                rp, back_pos = ref.forward(ref.encode(xp).astype(ref.TRAIN_DTYPE))
                ru, back_unl = ref.forward(ref.encode(xu).astype(ref.TRAIN_DTYPE))
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
        model = GaussianBasisLinear(split.train.unlabeled, bandwidth=1.0)
        cfg = TrainConfig(
            alpha=0.0, epochs=200, batch_size=200, learning_rate=2e-5,
            adam_beta1=0.5, adam_beta2=0.999, l2_reg=0.1, seed=11,
        )
        model, report = train(model, split, ratio_objective(LSIF, cfg.alpha), cfg)
        assert report.val_objective[-1] < report.val_objective[0]
        assert min(report.val_objective) == report.val_objective[report.best_epoch]

    def test_batch_size_exceeds_pool(self):
        split = small_split()
        model = GaussianBasisLinear(split.train.unlabeled)
        with pytest.raises(ConfigError):
            train(model, split, ratio_objective(LSIF, 0.0), TrainConfig(batch_size=10_000))

    def test_empty_split_rejected(self):
        split = small_split()
        bad = SplitDataset(
            train=split.train,
            val=type(split.val)(split.val.positives[:0], split.val.unlabeled),
        )
        model = GaussianBasisLinear(split.train.unlabeled)
        with pytest.raises(ConfigError):
            train(model, bad, ratio_objective(LSIF, 0.0), TrainConfig(epochs=1, batch_size=10))

    def test_divergence_detected(self):
        split = small_split()
        model = GaussianBasisLinear(split.train.unlabeled)
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


def reference_train(model, data, objective, cfg, block=1):
    """One loop that holds every encoded split and scores every ``block`` epochs on the whole splits.

    Steps gather from ``encode(X).astype(model.TRAIN_DTYPE)`` of each training
    split, and the training objective is scored on the float64 upcast of that
    copy.  With ``block`` 1 each epoch is scored with ``forward`` right after
    its steps; otherwise each block of epochs (and the remainder at the end)
    with one ``outputs`` call per encoded split.
    """
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.zeros(model.n_params, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
    report, best_val, best_params = TrainReport(), np.inf, model.params.copy()
    tr, va = data.train, data.val
    tr_pos, tr_unl = (model.encode(X).astype(model.TRAIN_DTYPE) for X in (tr.positives, tr.unlabeled))
    splits = [tr_pos.astype(float), tr_unl.astype(float), model.encode(va.positives), model.encode(va.unlabeled)]
    snapshots = []
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
        report.corrected_fraction.append(n_corrected / len(batches))
        snapshots.append(model.params.copy())
        if len(snapshots) < block and epoch < cfg.epochs - 1:
            continue
        if block == 1:
            tp, tu, vp, vu = (model.forward(Z)[0][:, None] for Z in splits)
        else:
            tp, tu, vp, vu = (model.outputs(Z, np.column_stack(snapshots)) for Z in splits)
        for j, params in enumerate(snapshots):
            scored = epoch + 1 - len(snapshots) + j
            train_obj, val_obj = objective.value(tp[:, j], tu[:, j]), objective.plain(vp[:, j], vu[:, j])
            if not (np.isfinite(train_obj) and np.isfinite(val_obj)):
                raise TrainingDiverged(f"non-finite objective at epoch {scored}")
            report.train_objective.append(float(train_obj))
            report.val_objective.append(float(val_obj))
            if val_obj < best_val:
                best_val, best_params, report.best_epoch = val_obj, params, scored
        snapshots = []
    model.params = best_params
    return model, report


NNPU = risk_objective("nnpu", sigmoid_loss(), 0.4)

# (model factory, objective, whether the block scoring must be bit-equal)
SCORED_MODELS = {
    "kernel-clamp": (lambda s: GaussianBasisLinear(s.train.unlabeled), ratio_objective(LSIF, 0.3), False),
    "kernel-linear": (
        lambda s: GaussianBasisLinear(s.train.unlabeled, clamp=False), NNPU, False,
    ),
    "mlp-softplus": (lambda s: mlp([1, 8, 8, 1], seed=2), ratio_objective(LSIF, 0.3), True),
    "mlp-linear": (lambda s: mlp([1, 8, 8, 1], seed=2, output="linear"), NNPU, True),
}


# Around each model family's block width, plus one epoch and a run of several MLP blocks.
WIDTHS = (RatioModel.SCORE_BLOCK, GaussianBasisLinear.SCORE_BLOCK)
BLOCK_EPOCHS = sorted({1, 35} | {w + k for w in WIDTHS for k in (-1, 0, 1)})


class TestBlockScoring:
    """Scoring epochs a block at a time changes no training step and no selection."""

    @pytest.mark.parametrize("epochs", BLOCK_EPOCHS)
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

        width = GaussianBasisLinear.SCORE_BLOCK
        full = run(2 * width)
        for epochs in (width + 1, width + 2):
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
                train(GaussianBasisLinear(split.train.unlabeled), split, ratio_objective(LSIF, 0.0), cfg)
            with pytest.raises(TrainingDiverged, match=r"at epoch 0$"):
                reference_train(
                    GaussianBasisLinear(split.train.unlabeled), split, ratio_objective(LSIF, 0.0), cfg
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
            train(GaussianBasisLinear(split.train.unlabeled), split, objective, cfg)
        calls.clear()
        with pytest.raises(TrainingDiverged, match=r"at epoch 5$"):
            reference_train(GaussianBasisLinear(split.train.unlabeled), split, objective, cfg)

    def test_scoring_memory_is_bounded(self):
        """Extra traced memory of a long run over a one-epoch run stays under one block."""
        split = SplitDataset(
            train=synth_case1(200, 2000, 0.4, 0), val=synth_case1(100, 1000, 0.4, 1)
        )
        rows = 200 + 2000 + 100 + 1000
        centers = split.train.unlabeled[:5]  # few features, so the scoring outputs dominate

        width = GaussianBasisLinear.SCORE_BLOCK

        def peak(epochs):
            model = GaussianBasisLinear(centers)
            cfg = TrainConfig(epochs=epochs, batch_size=500, learning_rate=1e-3, seed=0)
            tracemalloc.start()
            try:
                train(model, split, ratio_objective(LSIF, cfg.alpha), cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        extra = peak(2 * width + 3) - peak(1)
        # one block of output columns per row, whatever the epochs, plus a
        # quarter for the objectives' temporaries; keeping every epoch's
        # outputs until the end would need (2 * width + 2) columns
        assert extra <= 1.25 * width * rows * 8

    def test_validation_features_are_never_held(self):
        """Validation rows x centers span five ``SCORE_ROWS`` blocks; ``train`` holds at most two of them."""
        split = SplitDataset(
            train=synth_case1(50, 450, 0.4, 0), val=synth_case1(120, 5000, 0.4, 1)
        )
        centers = np.random.default_rng(5).normal(size=(500, 1))
        cell = 8 * len(centers)  # bytes per encoded row
        train_features = (50 + 450) * cell
        block_outputs = 2 * (50 + 450 + 120 + 5000) * GaussianBasisLinear.SCORE_BLOCK * 8  # result and stack
        cfg = TrainConfig(epochs=2, batch_size=450, learning_rate=1e-3, seed=0)
        tracemalloc.start()
        try:
            train(GaussianBasisLinear(centers), split, ratio_objective(LSIF, cfg.alpha), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # holding the encoded validation split alone would take 5120 * cell
        assert peak < train_features + 2 * SCORE_ROWS * cell + block_outputs


class TestTrainingCopy:
    """Training steps gather from ``train_rows``: the encoded training splits in the model's ``TRAIN_DTYPE``."""

    @pytest.mark.parametrize("n", [1, SCORE_ROWS - 1, SCORE_ROWS, SCORE_ROWS + 1, 2 * SCORE_ROWS + 1])
    @pytest.mark.parametrize("kind", ["kernel", "mlp"])
    def test_train_rows_equal_the_cast_encoding(self, kind, n):
        rng = np.random.default_rng(n)
        model = GaussianBasisLinear(rng.normal(size=(50, 3)), 1.3) if kind == "kernel" else mlp([3, 4, 1])
        X = rng.normal(size=(n, 3))
        rows, want = model.train_rows(X), model.encode(X).astype(model.TRAIN_DTYPE)
        assert rows.dtype == want.dtype == (np.float32 if kind == "kernel" else np.float64)
        np.testing.assert_array_equal(rows, want)

    @pytest.mark.parametrize("kind", ["kernel", "mlp"])
    def test_steps_read_the_train_dtype(self, kind, monkeypatch):
        """Kernel steps read float32 rows, MLP steps float64."""
        split = small_split()
        model = GaussianBasisLinear(split.train.unlabeled) if kind == "kernel" else mlp([1, 8, 1], seed=2)
        seen, forward = set(), RatioModel.forward
        monkeypatch.setattr(RatioModel, "forward", lambda self, Z: seen.add(Z.dtype) or forward(self, Z))
        cfg = TrainConfig(epochs=3, batch_size=40, learning_rate=1e-3, seed=0)
        train(model, split, ratio_objective(LSIF, cfg.alpha), cfg)
        assert seen == {np.dtype(model.TRAIN_DTYPE)} == {np.dtype(np.float32 if kind == "kernel" else np.float64)}

    def test_unlabeled_features_are_never_held_in_float64(self):
        """6000 unlabeled training rows x 1000 centers would take 48 MB in float64; ``train`` peaks below that."""
        split = SplitDataset(train=synth_case1(200, 6000, 0.4, 0), val=synth_case1(50, 200, 0.4, 1))
        centers = split.train.unlabeled[:1000]
        cfg = TrainConfig(epochs=1, batch_size=500, learning_rate=1e-3, seed=0)
        tracemalloc.start()
        try:
            train(GaussianBasisLinear(centers), split, ratio_objective(LSIF, cfg.alpha), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6000 * len(centers) * 8


def _held_validation_runs(dim):
    """(case, (model, report) of ``train``, the same of ``reference_train`` holding the encoded
    validation split and scoring it whole at the model's block width) for kernel models, clamp on
    and off, and MLPs on ``dim``-d inputs, over validation sizes on, past and between ``SCORE_ROWS`` edges."""
    centers = np.random.default_rng(41).normal(size=(300, dim))
    cases = {
        "kernel-clamp": (lambda: GaussianBasisLinear(centers, 1.2), ratio_objective(LSIF, 0.3)),
        "kernel-linear": (lambda: GaussianBasisLinear(centers, 1.2, clamp=False), NNPU),
        "mlp-softplus": (lambda: mlp([dim, 8, 8, 1], seed=2), ratio_objective(LSIF, 0.3)),
        "mlp-linear": (lambda: mlp([dim, 8, 8, 1], seed=2, output="linear"), NNPU),
    }
    for name, (make, objective) in cases.items():
        for k, n_val in enumerate(((1, 1023), (1025, 2049), (2048, 5000), (1024, 2047))):
            split = SplitDataset(
                train=synth_gaussian_pair(dim, 60, 300, 0.4, 2), val=synth_gaussian_pair(dim, *n_val, 0.4, 3 + k)
            )
            block = make().SCORE_BLOCK
            cfg = TrainConfig(alpha=0.3, epochs=block + 3, batch_size=100, learning_rate=1e-2, seed=3)
            got = train(make(), split, objective, cfg)
            yield f"{name} d={dim} val={n_val}", got, reference_train(make(), split, objective, cfg, block=block)


def held_validation_mismatches():
    """The 1-d and 3-d cases whose ``train`` parameters or report differ in any bit from the held-split reference."""
    return [
        case for dim in (1, 3) for case, (model, report), (ref, ref_report) in _held_validation_runs(dim)
        if report != ref_report or not np.array_equal(model.params, ref.params)
    ]


class TestBlockwiseValidation:
    """``train`` scores the validation split ``SCORE_ROWS`` rows at a time, never holding its encoding."""

    def test_bits_match_the_held_split_at_one_blas_thread(self):
        """Kernel models and MLPs on 1-d and 3-d inputs.  With more threads OpenBLAS may split a
        product's rows at points that depend on the row count, so there the bits may differ."""
        proc = run_at_one_blas_thread("test_trainer.held_validation_mismatches()")
        assert proc.returncode == 0, proc.stderr
