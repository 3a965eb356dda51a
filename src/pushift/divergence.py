"""Empirical Bregman-divergence objectives over PU data.

The plain empirical objective drops the model-free constant; the corrected
objective clips the part whose population value is provably nonnegative and
adds the constant back, so the two are directly comparable:

    plain(r)     = mean_P[-f'(r)] + mean_U[f_conj(r)]
    corrected(r) = mean_P[-f'(r) + alpha * big_f(r)]
                   + max(0, mean_U[big_f(r)] - alpha * mean_P[big_f(r)])
                   + f_conj(0)

``corrected - plain = max(0, bracket) - bracket``, hence corrected >= plain
with equality exactly when the bracket is nonnegative.

``branch_weights`` turns the per-batch branch rule of the trainer into
per-point chain-rule weights: descend on the plain objective while the
bracket is nonnegative, otherwise descend on the negated bracket to push it
back above zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .generators import BregmanGenerator

__all__ = [
    "Branch",
    "ObjectiveValue",
    "empirical_objective",
    "corrected_objective",
]


class Branch(Enum):
    NORMAL = "normal"
    CORRECTED = "corrected"


@dataclass(frozen=True)
class ObjectiveValue:
    value: float
    branch: Branch
    bracket: float


def _check_ratios(name, values):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if np.any(arr < 0):
        raise ValueError(f"{name} contains negative ratio values")
    return arr


def empirical_objective(gen: BregmanGenerator, r_pos, r_unl) -> float:
    """Plain objective: mean_P[-f'(r)] + mean_U[f_conj(r)]."""
    rp = _check_ratios("r_pos", r_pos)
    ru = _check_ratios("r_unl", r_unl)
    return float(np.mean(-gen.f_prime(rp)) + np.mean(gen.f_conj(ru)))


def corrected_objective(gen: BregmanGenerator, alpha: float, r_pos, r_unl) -> ObjectiveValue:
    """Nonnegativity-corrected objective with its branch flag.

    ``alpha`` acts as a lower bound on the positive class-prior; with
    alpha = 0 the bracket is a mean of nonnegative terms and the corrected
    branch can never fire.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    rp = _check_ratios("r_pos", r_pos)
    ru = _check_ratios("r_unl", r_unl)
    pos_term = float(np.mean(-gen.f_prime(rp) + alpha * gen.big_f(rp)))
    bracket = float(np.mean(gen.big_f(ru)) - alpha * np.mean(gen.big_f(rp)))
    branch = Branch.NORMAL if bracket >= 0 else Branch.CORRECTED
    value = pos_term + max(0.0, bracket) + gen.f_conj_at_zero
    return ObjectiveValue(value=value, branch=branch, bracket=bracket)


def branch_weights(gen: BregmanGenerator, alpha: float, r_pos, r_unl):
    """Per-point chain-rule weights for the active branch of the objective.

    Returns ``(w_pos, w_unl, branch)`` such that the gradient of the branch
    objective is sum_i w_pos[i] * dr/dtheta(x_i) + sum_j w_unl[j] * dr/dtheta(x_j).
    Uses d/dt f_conj(t) = t f''(t) and d/dt (-f'(t)) = -f''(t).
    """
    rp = np.asarray(r_pos, dtype=float)
    ru = np.asarray(r_unl, dtype=float)
    n_p, n_u = rp.size, ru.size
    bracket = float(np.mean(gen.big_f(ru)) - alpha * np.mean(gen.big_f(rp)))
    if bracket >= 0:
        w_pos = -gen.f_prime2(rp) / n_p
        w_unl = ru * gen.f_prime2(ru) / n_u
        branch = Branch.NORMAL
    else:
        w_pos = alpha * rp * gen.f_prime2(rp) / n_p
        w_unl = -ru * gen.f_prime2(ru) / n_u
        branch = Branch.CORRECTED
    return w_pos, w_unl, branch
