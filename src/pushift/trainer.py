"""Mini-batch training on positive/unlabeled data, for every objective.

One loop serves the ratio models and the PU baselines; a
``divergence.Objective`` supplies what differs.  Each optimization step
evaluates the branch rule on its own mini-batch: while the clipped part of
the objective is nonnegative the step descends on the plain objective,
otherwise it descends on the negated bracket.  Batches take ``batch_size``
unlabeled points and a proportional draw of positives so both empirical
means are estimated every step; one epoch is one pass over the unlabeled set.

Model selection keeps the parameter snapshot from the epoch with the lowest
plain objective on validation.  For the ratio objective that value contains
neither the class-prior nor the correction strength, so it needs no labels
and no prior knowledge.

Steps gather rows from each training split encoded once in the model's
``TRAIN_DTYPE`` (``train_rows``: float32 for the kernel model, float64 for
MLPs); parameters, the Adam state and every objective stay float64.

Each epoch's train and validation objectives are scored on the whole
splits.  The loop keeps every epoch's parameter vector and scores a block of
``model.SCORE_BLOCK`` epochs (and the remainder at the end) with one call
per split; for the kernel model that is one matrix product of
``SCORE_BLOCK`` columns, zero-padded for a shorter block, per block of
``models.block_rows`` rows (the largest power of two from 64 to 1024 whose
float64 features fit in 1 MiB), not one matrix-vector product per epoch.
The validation split is encoded again at each block, ``model.score_rows``
rows at a time (``block_outputs``), so its kernel features are never held,
and only after the training split's outputs have become objectives, so
one split's outputs are held at a time, and no step's gathered rows.
Training steps, the selected epoch, its parameters and every reported
objective do not depend on the block, so a run's first epochs report the
same values as a longer run's; a non-finite objective still names its
epoch and is raised at the latest at the end of its block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .divergence import Branch
from .errors import ConfigError, DegeneratePriorError, TrainingDiverged
from .prior import gamma_bar

__all__ = ["TrainConfig", "TrainReport", "AdamState", "adam_step", "check_split", "train"]

ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.0
    epochs: int = 200
    batch_size: int = 200
    learning_rate: float = 2e-5
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    l2_reg: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ConfigError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if not (0.0 < self.learning_rate < np.inf):
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        for name in ("adam_beta1", "adam_beta2"):
            b = getattr(self, name)
            if not (0.0 < b < 1.0):
                raise ConfigError(f"{name} must be in (0, 1), got {b}")
        if not (0.0 <= self.l2_reg < np.inf):
            raise ConfigError(f"l2_reg must be finite and nonnegative, got {self.l2_reg}")


@dataclass
class TrainReport:
    train_objective: list = field(default_factory=list)
    val_objective: list = field(default_factory=list)
    corrected_fraction: list = field(default_factory=list)
    best_epoch: int = -1


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    beta1: float
    beta2: float
    t: int = 0

    @classmethod
    def zeros(cls, n, beta1, beta2):
        return cls(m=np.zeros(n), v=np.zeros(n), beta1=beta1, beta2=beta2)


def adam_step(state: AdamState, grad: np.ndarray, lr: float) -> np.ndarray:
    """Advance the Adam state by one step, updating its moments in place, and return the parameter delta."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.m.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match state {state.m.shape}")
    state.t += 1
    with np.errstate(over="ignore"):  # an overflowed moment is caught by train's finiteness check
        state.m *= state.beta1
        state.m += (1.0 - state.beta1) * grad
        state.v *= state.beta2
        state.v += (1.0 - state.beta2) * grad * grad
    # -lr * m_hat / (sqrt(v_hat) + ADAM_EPS), built in m_hat with the same rounding steps.
    m_hat = state.m / (1.0 - state.beta1**state.t)
    v_hat = state.v / (1.0 - state.beta2**state.t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    m_hat *= -lr
    m_hat /= v_hat
    return m_hat


def check_split(data, cfg: TrainConfig, gamma=None) -> None:
    """Refuse a split that ``cfg`` cannot train on: an empty split or a ``batch_size`` above the unlabeled
    training pool (ConfigError).  Given the prior sweep's ``gamma``, also refuse a ``gamma`` outside (0, 1)
    (ConfigError) and validation sizes at which no threshold is admissible (DegeneratePriorError).  Every
    check reads only the split sizes, so it runs before any work."""
    tr, va = data.train, data.val
    for name, ds in (("train", tr), ("validation", va)):
        if ds.n_pos == 0 or ds.n_unl == 0:
            raise ConfigError(f"{name} split needs at least one positive and one unlabeled point")
    if gamma is not None:
        gbar = gamma_bar(va.n_pos, va.n_unl, gamma)
        if gbar >= 1.0:
            raise DegeneratePriorError(gbar, va.n_pos, va.n_unl)
    if cfg.batch_size > tr.n_unl:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds the unlabeled training pool ({tr.n_unl})"
        )


def _epoch_batches(rng, n_pos, n_unl, batch_size):
    """Index pairs covering the unlabeled set once, with paired positives.

    Unlabeled indices are a reshuffled partition into slices of
    ``batch_size``; each slice is paired with a proportional draw of
    positives (with replacement if the pool is smaller), so both empirical
    means in the bracket are estimated on every step.
    """
    order = rng.permutation(n_unl)
    batches = []
    for start in range(0, n_unl, batch_size):
        unl_idx = order[start : start + batch_size]
        n_draw = max(1, round(unl_idx.size * n_pos / n_unl))
        pos_idx = rng.choice(n_pos, size=n_draw, replace=n_draw > n_pos)
        batches.append((pos_idx, unl_idx))
    return batches


def _block_objectives(model, objective, tr_pos, tr_unl, val, snapshots):
    """(train, validation) objective per parameter snapshot, one call per split.  The training outputs become
    objectives before the validation split is encoded, so one split's outputs are held at a time."""
    thetas = np.column_stack(snapshots)
    tp, tu = model.outputs(tr_pos, thetas), model.outputs(tr_unl, thetas)
    train_obj = [objective.value(tp[:, j], tu[:, j]) for j in range(thetas.shape[1])]
    del tp, tu
    vp, vu = model.block_outputs(val.positives, thetas), model.block_outputs(val.unlabeled, thetas)
    return [(t, objective.plain(vp[:, j], vu[:, j])) for j, t in enumerate(train_obj)]


def train(model, data, objective, cfg: TrainConfig):
    """Train ``model`` on a train/validation split of PU data.

    ``data`` is a ``SplitDataset`` and ``objective`` a ``divergence.Objective``
    (``ratio_objective(gen, cfg.alpha)`` for a ratio model).  The model is
    mutated in place and also returned with the best-validation parameters
    restored, together with the per-epoch ``TrainReport``.
    """
    check_split(data, cfg)
    tr, va = data.train, data.val
    report = TrainReport()
    if not cfg.epochs:  # no step gathers rows, so no training copy is encoded
        return model, report
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.zeros(model.n_params, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
    best_val = np.inf
    best_params = model.params.copy()

    # Every step gathers rows of the training splits, so they are encoded once, into the model's TRAIN_DTYPE.
    tr_pos, tr_unl = model.train_rows(tr.positives), model.train_rows(tr.unlabeled)
    snapshots = []  # parameters of the epochs not scored yet

    for epoch in range(cfg.epochs):
        n_corrected = 0
        batches = _epoch_batches(rng, tr.n_pos, tr.n_unl, cfg.batch_size)
        for pos_idx, unl_idx in batches:
            out_pos, back_pos = model.forward(tr_pos[pos_idx])
            out_unl, back_unl = model.forward(tr_unl[unl_idx])
            w_pos, w_unl, branch = objective.weights(out_pos, out_unl)
            grad = back_pos(w_pos) + back_unl(w_unl)
            del back_pos, back_unl  # their gathered rows, which a scoring block would otherwise hold
            if branch is Branch.CORRECTED:
                n_corrected += 1
            if cfg.l2_reg:
                grad += cfg.l2_reg * model.params
            model.params = model.params + adam_step(state, grad, cfg.learning_rate)
        report.corrected_fraction.append(n_corrected / len(batches))
        finite = np.all(np.isfinite(model.params))
        # An overflowed second moment freezes finite parameters instead of making them non-finite.
        if finite and not np.all(np.isfinite(state.v)):
            raise TrainingDiverged(f"non-finite optimiser state at epoch {epoch}")
        snapshots.append(model.params.copy())
        # Non-finite parameters end the block early, so a diverged run stops at once.
        if len(snapshots) < model.SCORE_BLOCK and epoch < cfg.epochs - 1 and finite:
            continue

        first = epoch + 1 - len(snapshots)
        scores = _block_objectives(model, objective, tr_pos, tr_unl, va, snapshots)
        for j, (train_obj, val_obj) in enumerate(scores):
            if not (np.isfinite(train_obj) and np.isfinite(val_obj)):
                raise TrainingDiverged(
                    f"non-finite objective at epoch {first + j}: train={train_obj}, val={val_obj}"
                )
            report.train_objective.append(float(train_obj))
            report.val_objective.append(float(val_obj))
            if val_obj < best_val:
                best_val = val_obj
                best_params = snapshots[j]
                report.best_epoch = first + j
        snapshots = []

    model.params = best_params
    return model, report
