"""Unbiased and non-negative PU risk estimators with surrogate losses.

Both estimators rewrite the supervised risk in terms of the positive and
unlabeled samples only; they require the class-prior as an explicit input.
The unbiased form can go negative once a flexible model overfits; the
non-negative form clips the part whose population value cannot be negative
and descends on the negated bracket whenever a mini-batch lands below zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .divergence import Objective
from .errors import ConfigError
from .models import expit
from .trainer import TrainConfig, train

__all__ = [
    "SurrogateLoss",
    "logistic_loss",
    "sigmoid_loss",
    "risk_objective",
    "train_baseline",
]


@dataclass(frozen=True)
class SurrogateLoss:
    loss: Callable
    dloss_dv: Callable


def logistic_loss() -> SurrogateLoss:
    return SurrogateLoss(
        loss=lambda y, v: np.logaddexp(0.0, -y * np.asarray(v, dtype=float)),
        dloss_dv=lambda y, v: -y * expit(-y * np.asarray(v, dtype=float)),
    )


def sigmoid_loss() -> SurrogateLoss:
    def _d(y, v):
        s = expit(-y * np.asarray(v, dtype=float))
        return -y * s * (1.0 - s)

    return SurrogateLoss(
        loss=lambda y, v: expit(-y * np.asarray(v, dtype=float)),
        dloss_dv=_d,
    )


def risk_objective(method: str, loss: SurrogateLoss, prior: float) -> Objective:
    """uPU or nnPU risk: pos = prior (l(+1) - l(-1)), bracket = l(-1), clipped for nnPU.

    The selection value is the unbiased risk either way.
    """
    if method not in ("upu", "nnpu"):
        raise ConfigError(f"unknown baseline method {method!r}")
    if not (0.0 <= prior <= 1.0):
        raise ConfigError(f"prior must be in [0, 1], got {prior}")
    return Objective(
        pos=lambda g: prior * (loss.loss(1, g) - loss.loss(-1, g)),
        d_pos=lambda g: prior * (loss.dloss_dv(1, g) - loss.dloss_dv(-1, g)),
        bracket=lambda g: loss.loss(-1, g),
        d_bracket=lambda g: loss.dloss_dv(-1, g),
        kappa=prior,
        clip=method == "nnpu",
    )


def train_baseline(method: str, loss: SurrogateLoss, prior: float, model, data, cfg: TrainConfig):
    """Train a decision model by uPU or nnPU risk minimization.

    Runs the ratio models' training loop: Adam, per-batch branch rule for
    nnPU, and a best-validation snapshot.  The validation criterion is the
    unbiased risk (computable from PU data alone, given the prior).
    """
    if not (0.0 < prior < 1.0):
        raise ConfigError(f"baselines need a prior in (0, 1), got {prior}")
    return train(model, data, risk_objective(method.lower(), loss, prior), cfg)
