"""Unbiased and non-negative PU risk estimators with surrogate losses.

Both estimators rewrite the supervised risk in terms of the positive and
unlabeled samples only; they require the class-prior as an explicit input.
The unbiased form can go negative once a flexible model overfits; the
non-negative form clips the part whose population value cannot be negative
and descends on the negated bracket whenever a mini-batch lands below zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .divergence import Branch
from .errors import ConfigError
from .models import expit
from .trainer import Objective, TrainConfig, train

__all__ = [
    "SurrogateLoss",
    "logistic_loss",
    "sigmoid_loss",
    "upu_risk",
    "nnpu_risk",
    "risk_objective",
    "train_baseline",
]


@dataclass(frozen=True)
class SurrogateLoss:
    kind: str
    loss: Callable
    dloss_dv: Callable


def logistic_loss() -> SurrogateLoss:
    return SurrogateLoss(
        kind="logistic",
        loss=lambda y, v: np.logaddexp(0.0, -y * np.asarray(v, dtype=float)),
        dloss_dv=lambda y, v: -y * expit(-y * np.asarray(v, dtype=float)),
    )


def sigmoid_loss() -> SurrogateLoss:
    def _d(y, v):
        s = expit(-y * np.asarray(v, dtype=float))
        return -y * s * (1.0 - s)

    return SurrogateLoss(
        kind="sigmoid",
        loss=lambda y, v: expit(-y * np.asarray(v, dtype=float)),
        dloss_dv=_d,
    )


def _check(prior, g_pos, g_unl):
    if not (0.0 <= prior <= 1.0):
        raise ValueError(f"prior must be in [0, 1], got {prior}")
    gp = np.asarray(g_pos, dtype=float).reshape(-1)
    gu = np.asarray(g_unl, dtype=float).reshape(-1)
    if gp.size == 0 or gu.size == 0:
        raise ValueError("decision value lists must be nonempty")
    return gp, gu


def upu_risk(loss: SurrogateLoss, prior: float, g_pos, g_unl) -> float:
    """Unbiased plug-in risk; may be negative under overfitting."""
    gp, gu = _check(prior, g_pos, g_unl)
    return float(
        prior * np.mean(loss.loss(1, gp))
        - prior * np.mean(loss.loss(-1, gp))
        + np.mean(loss.loss(-1, gu))
    )


def nnpu_risk(loss: SurrogateLoss, prior: float, g_pos, g_unl):
    """Non-negative plug-in risk with its branch flag."""
    gp, gu = _check(prior, g_pos, g_unl)
    pos_term = prior * np.mean(loss.loss(1, gp))
    bracket = float(np.mean(loss.loss(-1, gu)) - prior * np.mean(loss.loss(-1, gp)))
    branch = Branch.NORMAL if bracket >= 0 else Branch.CORRECTED
    return float(pos_term + max(0.0, bracket)), branch


def risk_weights(method, loss, prior, g_pos, g_unl):
    """Per-point chain-rule weights for the uPU or nnPU batch gradient."""
    gp = np.asarray(g_pos, dtype=float)
    gu = np.asarray(g_unl, dtype=float)
    n_p, n_u = gp.size, gu.size
    bracket = float(np.mean(loss.loss(-1, gu)) - prior * np.mean(loss.loss(-1, gp)))
    if method == "upu" or bracket >= 0:
        w_pos = prior * (loss.dloss_dv(1, gp) - loss.dloss_dv(-1, gp)) / n_p
        w_unl = loss.dloss_dv(-1, gu) / n_u
        branch = Branch.NORMAL
    else:
        w_pos = prior * loss.dloss_dv(-1, gp) / n_p
        w_unl = -loss.dloss_dv(-1, gu) / n_u
        branch = Branch.CORRECTED
    return w_pos, w_unl, branch


def risk_objective(method: str, loss: SurrogateLoss, prior: float) -> Objective:
    """uPU or nnPU training objective; validation uses the unbiased risk."""

    def train_value(g_pos, g_unl):
        if method == "upu":
            return upu_risk(loss, prior, g_pos, g_unl)
        return nnpu_risk(loss, prior, g_pos, g_unl)[0]

    return Objective(
        weights=functools.partial(risk_weights, method, loss, prior),
        train_value=train_value,
        val_value=functools.partial(upu_risk, loss, prior),
    )


def train_baseline(method: str, loss: SurrogateLoss, prior: float, model, data, cfg: TrainConfig):
    """Train a decision model by uPU or nnPU risk minimization.

    Runs the ratio models' training loop: Adam, per-batch branch rule for
    nnPU, and a best-validation snapshot.  The validation criterion is the
    unbiased risk (computable from PU data alone, given the prior).
    """
    method = method.lower()
    if method not in ("upu", "nnpu"):
        raise ConfigError(f"unknown baseline method {method!r}")
    if not (0.0 < prior < 1.0):
        raise ConfigError(f"baselines need a prior in (0, 1), got {prior}")
    return train(model, data, risk_objective(method, loss, prior), cfg)
