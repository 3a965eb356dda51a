"""Class-prior estimation by sweeping thresholds over a trained score.

Over every thresholding h(x) = +1 iff r(x) >= theta, the estimator returns
the smallest ratio of the unlabeled acceptance rate to the positive
acceptance rate, restricted to thresholds whose positive acceptance rate
clears a finite-sample confidence floor ``gamma_bar``.  That minimum is
always attained at -inf or at one of the B distinct positive scores, so the
sweep evaluates only those B + 1 thresholds (``estimate_test_prior`` says why).
Only the ordering of the scores matters, so any strictly increasing
transform of r leaves the estimate unchanged.

``ThresholdIntervals`` is a lossless summary of the positive acceptance rate
as a function of the threshold.  Shipping it (instead of the raw positive
scores) is enough to rerun the same sweep against fresh unlabeled data at
test time, which is how the test-time class-prior is estimated without
retaining any training data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError, DataError, DegeneratePriorError, json_array, json_int, json_number, json_object, read_json, write_json
)

__all__ = [
    "GAMMA",
    "PriorEstimate",
    "ThresholdIntervals",
    "epsilon",
    "gamma_bar",
    "estimate_prior",
    "build_intervals",
    "estimate_test_prior",
]

# The default confidence level of the sweep.  At 0.5, 100 validation positives and 500
# unlabeled points give gamma_bar = 1.21 >= 1, so no threshold is admissible; 0.9 gives 0.67.
GAMMA = 0.9


def epsilon(n: int, delta: float) -> float:
    """Confidence radius for an empirical acceptance rate at sample size n; finite at delta = 1 (n = 1 in ``gamma_bar``)."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return math.sqrt(4.0 * math.log(math.e * n / 2.0) / n) + math.sqrt(
        math.log(2.0 / delta) / (2.0 * n)
    )


def gamma_bar(n_pos: int, n_unl: int, gamma: float) -> float:
    """Admissibility floor for the positive acceptance rate.

    Values >= 1 mean no thresholding hypothesis is admissible at these
    sample sizes; callers treat that as a degenerate condition.
    """
    if not (0.0 < gamma < 1.0):
        raise ConfigError(f"gamma must be in (0, 1), got {gamma}")
    return max(epsilon(n_pos, 1.0 / n_pos), epsilon(n_unl, 1.0 / n_unl)) / gamma


@dataclass(frozen=True)
class PriorEstimate:
    value: float
    raw_value: float
    argmin_threshold: float
    gamma_bar: float
    n_unl_used: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "raw_value": self.raw_value,
            # null: the -inf sentinel won the sweep, so every point is accepted
            "argmin_threshold": self.argmin_threshold if math.isfinite(self.argmin_threshold) else None,
            "gamma_bar": self.gamma_bar,
            "n_unl_used": self.n_unl_used,
        }


def estimate_prior(r_pos, r_unl, gamma: float = GAMMA) -> PriorEstimate:
    """Estimate the positive class-prior from scores on P and U samples.

    The sweep of ``estimate_test_prior`` over the lossless summary of the
    positive scores, so training and test time run the same code.
    """
    return estimate_test_prior(build_intervals(r_pos, gamma=gamma), r_unl)


@dataclass(frozen=True)
class ThresholdIntervals:
    """Positive acceptance rate as a step function of the threshold.

    ``boundaries`` are the strictly increasing distinct score values attained
    on the positive set; ``accept_counts[i]`` is the number of positive
    scores >= boundaries[i], and no positive score is accepted above the last
    boundary, so the summary is lossless for the sweep.
    """

    boundaries: np.ndarray
    accept_counts: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "boundaries", np.asarray(self.boundaries, dtype=float))
        object.__setattr__(self, "accept_counts", np.asarray(self.accept_counts, dtype=int))
        self.validate()

    def validate(self):
        b, c = self.boundaries, self.accept_counts
        if b.ndim != 1 or b.shape != c.shape or b.size == 0:
            raise DataError("interval boundaries and counts must be aligned and nonempty")
        if not np.all(np.isfinite(b)):
            raise DataError("interval boundaries must be finite")
        if np.any(np.diff(b) <= 0):
            raise DataError("interval boundaries must be strictly increasing")
        if np.any(np.diff(c) >= 0) or c[-1] < 1:
            raise DataError("acceptance counts must be positive and strictly decreasing")
        if not (0.0 < self.gamma < 1.0):
            raise DataError(f"gamma must be in (0, 1), got {self.gamma}")

    @property
    def n_pos(self) -> int:
        """Positives summarised: every one is accepted at the lowest boundary."""
        return int(self.accept_counts[0])

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "boundaries": self.boundaries.tolist(),
            "accept_counts": self.accept_counts.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ThresholdIntervals":
        doc = json_object(doc, "interval document")
        try:
            return cls(
                boundaries=json_array(doc["boundaries"], "boundaries", json_number),
                accept_counts=json_array(doc["accept_counts"], "accept_counts", json_int),
                gamma=json_number(doc["gamma"], "gamma"),
            )
        except KeyError as exc:
            raise DataError(f"interval document is missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:  # validate's DataError; a count beyond int64
            raise DataError(f"invalid interval document: {exc}") from exc

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ThresholdIntervals":
        return cls.from_dict(read_json(path))


def build_intervals(r_pos, gamma: float = GAMMA) -> ThresholdIntervals:
    """Summarize positive-set scores into their acceptance step function."""
    rp = np.asarray(r_pos, dtype=float).reshape(-1)
    if rp.size == 0:
        raise ValueError("r_pos must be nonempty")
    values, counts = np.unique(rp, return_counts=True)
    accept = counts[::-1].cumsum()[::-1]
    return ThresholdIntervals(boundaries=values, accept_counts=accept, gamma=gamma)


def estimate_test_prior(intervals: ThresholdIntervals, r_test_unl) -> PriorEstimate:
    """Estimate a class-prior from unlabeled scores and a positive summary.

    The candidates are -inf and the B positive boundaries b_1 < ... < b_B.
    Nothing else can win: on (b_i, b_{i+1}] the positive rate is constant
    and the unlabeled rate falls as the threshold rises, and a test score
    strictly inside counts itself, so its ratio is above the one at b_{i+1};
    above b_B the positive rate is 0, never admissible.  The positive rate
    is read from ``intervals``, so the raw positive scores are not needed.
    """
    ru = np.sort(np.asarray(r_test_unl, dtype=float).reshape(-1))
    if ru.size == 0:
        raise ValueError("unlabeled score list must be nonempty")
    if not (np.isfinite(ru[0]) and np.isfinite(ru[-1])):  # sorted, so any NaN or infinity sits at an end
        raise DataError("unlabeled scores must be finite")
    n_pos = intervals.n_pos
    gbar = gamma_bar(n_pos, ru.size, intervals.gamma)
    if gbar >= 1.0:
        raise DegeneratePriorError(gbar, n_pos, ru.size)

    thresholds = np.concatenate(([-np.inf], intervals.boundaries))
    p_plus = np.concatenate(([n_pos], intervals.accept_counts)) / n_pos
    # The counts fall strictly, so the admissible candidates are a prefix; never empty: -inf has p_plus = 1 > gbar.
    m = int(np.count_nonzero(p_plus > gbar))
    p_unl = (ru.size - np.searchsorted(ru, thresholds[:m], side="left")) / ru.size
    ratios = p_unl / p_plus[:m]
    k = int(np.argmin(ratios))
    raw = float(ratios[k])
    return PriorEstimate(
        value=min(1.0, max(0.0, raw)),
        raw_value=raw,
        argmin_threshold=float(thresholds[k]),
        gamma_bar=float(gbar),
        n_unl_used=ru.size,
    )
