"""Evaluation metrics: empirical AUC and accuracy.

Empirical AUC uses the rank-sum formulation with ties counted 1/2, the
unbiased treatment of the pairwise definition.  ``ties_present`` lets
callers flag results where the tie convention actually mattered.
"""

from __future__ import annotations

import numpy as np

__all__ = ["auc", "ties_present", "accuracy"]


def auc(scores_pos, scores_neg) -> float:
    """Probability a random positive outranks a random negative, ties at 1/2.

    Rank-sum implementation, O(n log n).
    """
    sp = np.asarray(scores_pos, dtype=float).reshape(-1)
    sn = np.asarray(scores_neg, dtype=float).reshape(-1)
    if sp.size == 0 or sn.size == 0:
        raise ValueError("both score lists must be nonempty")
    ranks = _average_ranks(np.concatenate((sp, sn)))
    rank_sum = float(np.sum(ranks[: sp.size]))
    return (rank_sum - sp.size * (sp.size + 1) / 2.0) / (sp.size * sn.size)


def _average_ranks(x) -> np.ndarray:
    """1-based ranks, each run of equal values sharing its mean rank; NaN input gives NaN ranks."""
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def ties_present(scores_pos, scores_neg) -> bool:
    """True when some positive and negative score coincide exactly."""
    sp = np.unique(np.asarray(scores_pos, dtype=float))
    sn = np.unique(np.asarray(scores_neg, dtype=float))
    return bool(np.intersect1d(sp, sn).size)


def accuracy(labels, predictions) -> float:
    """Fraction of predictions that equal the labels: 1 - the error rate."""
    y = np.asarray(labels, dtype=int)
    d = np.asarray(predictions, dtype=int)
    if y.shape != d.shape:
        raise ValueError("labels and predictions must have equal length")
    return 1.0 - float(np.mean(y != d))
