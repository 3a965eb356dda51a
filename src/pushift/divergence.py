"""The one non-negative PU objective, shared by the ratio models and the baselines.

An ``Objective`` is built from two pointwise terms of the model output,
``pos`` and ``bracket``, their slopes and a weight ``kappa``:

    plain(out)   = mean_P[pos] + mean_U[bracket]
    bracket(out) = mean_U[bracket] - kappa * mean_P[bracket]
    value(out)   = mean_P[pos + kappa * bracket] + max(0, bracket(out))

The bracket's population value is nonnegative, so ``value`` clips it at zero
and ``value - plain = max(0, b) - b``: value >= plain, with equality exactly
when the bracket is nonnegative.  Without ``clip`` (the unbiased PU risk)
``value`` is ``plain``.

``weights`` turns the per-batch branch rule of the trainer into per-point
chain-rule weights: descend on the plain objective while the bracket is
nonnegative (or unclipped), otherwise descend on the negated bracket to push
it back above zero.

The ratio objective is LSIF, the least-squares ratio fit (uLSIF, Kanamori,
Hido & Sugiyama 2009), with the non-negative correction of nnBD (Kato &
Teshima 2021): pos = -r, bracket = r^2 / 2 and kappa = alpha.
``baselines.risk_objective`` builds the uPU / nnPU risks (Kiryo et al. 2017)
from a surrogate loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ConfigError

__all__ = ["Branch", "Objective", "ratio_objective"]


class Branch(Enum):
    NORMAL = "normal"
    CORRECTED = "corrected"


def _mean(x) -> float:
    """``np.mean`` of a float64 array, bit for bit, without its Python wrapper."""
    return x.sum() / x.size


def _nonempty(*outs):
    if any(np.size(out) == 0 for out in outs):
        raise ValueError("model outputs on P and U must be nonempty")


@dataclass(frozen=True)
class Objective:
    """What the training loop minimizes, given model outputs on P and U rows.

    ``d_pos`` and ``d_bracket`` are the derivatives of the pointwise terms.
    ``value`` is the training objective, ``plain`` the selection value (the
    epoch with the lowest ``plain`` on validation is kept) and ``weights``
    returns ``(w_pos, w_unl, branch)``, the per-point chain-rule weights of
    the active branch on one mini-batch.
    """

    pos: Callable
    d_pos: Callable
    bracket: Callable
    d_bracket: Callable
    kappa: float
    clip: bool = True

    def bracket_value(self, out_pos, out_unl) -> float:
        return self._bracket_of(self.bracket(out_pos), out_unl)

    def _bracket_of(self, b_pos, out_unl) -> float:
        return float(_mean(self.bracket(out_unl)) - self.kappa * _mean(b_pos))

    def plain(self, out_pos, out_unl) -> float:
        _nonempty(out_pos, out_unl)
        return float(_mean(self.pos(out_pos)) + _mean(self.bracket(out_unl)))

    def value(self, out_pos, out_unl) -> float:
        if not self.clip:
            return self.plain(out_pos, out_unl)
        _nonempty(out_pos, out_unl)
        b_pos = self.bracket(out_pos)
        pos_term = _mean(self.pos(out_pos) + self.kappa * b_pos)
        return float(pos_term + max(0.0, self._bracket_of(b_pos, out_unl)))

    def weights(self, out_pos, out_unl):
        """Per-point weights: the gradient is sum_i w_pos[i] dout_i/dtheta + sum_j w_unl[j] dout_j/dtheta."""
        n_p, n_u = np.size(out_pos), np.size(out_unl)
        if not self.clip or self.bracket_value(out_pos, out_unl) >= 0:
            return self.d_pos(out_pos) / n_p, self.d_bracket(out_unl) / n_u, Branch.NORMAL
        return self.kappa * self.d_bracket(out_pos) / n_p, -self.d_bracket(out_unl) / n_u, Branch.CORRECTED


def ratio_objective(alpha: float) -> Objective:
    """LSIF objective of a ratio model; ``alpha`` lower-bounds the positive prior.

    The slopes are d/dr (-r) = -1 and d/dr (r^2 / 2) = r.  With alpha = 0 the
    bracket is a mean of nonnegative terms and the clip never engages.
    """
    if not (0.0 <= alpha < 1.0):
        raise ConfigError(f"alpha must be in [0, 1), got {alpha}")

    def ratios(r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("ratio values must be nonnegative")
        return r

    return Objective(
        pos=lambda r: -ratios(r),
        d_pos=lambda r: np.full(np.shape(r), -1.0),
        bracket=lambda r: 0.5 * np.square(ratios(r)),
        d_bracket=lambda r: np.asarray(r, dtype=float),
        kappa=alpha,
    )
