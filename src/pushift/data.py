"""Synthetic PU data and CSV ingestion.

The synthetic sets are the two univariate Gaussian-mixture cases and a
``dim``-dimensional Gaussian pair; each draws positives from the positive
class and unlabeled points from the prior-weighted marginal.  All
randomness flows through seeded Philox generators (counter based), so every
dataset is bit-reproducible across platforms.  Hidden labels on the
unlabeled side exist purely for evaluation; nothing on the training path
reads them, and the CSV writers never emit them alongside training inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "philox_rng",
    "PUDataset",
    "SplitDataset",
    "GaussianMixtureSpec",
    "case1_mixture",
    "case2_mixture",
    "synth_from_mixture",
    "synth_case1",
    "synth_gaussian_pair",
    "save_csv",
    "load_csv",
]


def philox_rng(seed) -> np.random.Generator:
    """Counter-based generator; accepts an int or a SeedSequence."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class PUDataset:
    positives: np.ndarray
    unlabeled: np.ndarray
    hidden_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.positives = np.atleast_2d(np.asarray(self.positives, dtype=float))
        self.unlabeled = np.atleast_2d(np.asarray(self.unlabeled, dtype=float))
        if self.positives.shape[1] != self.unlabeled.shape[1]:
            raise DataError(
                f"dimension mismatch: positives are {self.positives.shape[1]}-d, "
                f"unlabeled are {self.unlabeled.shape[1]}-d"
            )
        if self.hidden_labels is not None:
            self.hidden_labels = np.asarray(self.hidden_labels, dtype=int)
            if self.hidden_labels.shape != (self.unlabeled.shape[0],):
                raise DataError("hidden_labels length must match the unlabeled set")

    @property
    def n_pos(self) -> int:
        return self.positives.shape[0]

    @property
    def n_unl(self) -> int:
        return self.unlabeled.shape[0]

    @property
    def dim(self) -> int:
        return self.positives.shape[1]


@dataclass
class SplitDataset:
    train: PUDataset
    val: PUDataset

    def __post_init__(self):
        if self.train.dim != self.val.dim:
            raise DataError(
                f"dimension mismatch: training data are {self.train.dim}-d, validation data are {self.val.dim}-d"
            )


@dataclass
class GaussianMixtureSpec:
    """Univariate Gaussian mixtures for the two synthetic scenarios.

    Components are (mean, variance, weight) triples per class; ``sample``,
    ``pdf_marginal`` and ``true_ratio`` take the class-prior as an argument.
    """

    components_pos: list
    components_neg: list

    def __post_init__(self):
        for name, comps in (("components_pos", self.components_pos), ("components_neg", self.components_neg)):
            w = sum(c[2] for c in comps)
            if abs(w - 1.0) > 1e-12:
                raise ConfigError(f"{name} weights sum to {w}, not 1")
            if any(c[1] <= 0 for c in comps):
                raise ConfigError(f"{name} contains a nonpositive variance")

    @staticmethod
    def _pdf(comps, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for mean, var, weight in comps:
            out += weight * np.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        return out

    def pdf_pos(self, x):
        return self._pdf(self.components_pos, x)

    def pdf_neg(self, x):
        return self._pdf(self.components_neg, x)

    def pdf_marginal(self, x, prior):
        return prior * self.pdf_pos(x) + (1.0 - prior) * self.pdf_neg(x)

    def true_ratio(self, x, prior):
        """p_pos / marginal at class-prior ``prior``, the population target of ratio fitting."""
        return self.pdf_pos(x) / self.pdf_marginal(x, prior)

    def _sample_class(self, rng, comps, n):
        weights = np.array([c[2] for c in comps])
        means = np.array([c[0] for c in comps])
        sds = np.sqrt([c[1] for c in comps])
        which = rng.choice(len(comps), size=n, p=weights)
        return rng.normal(means[which], sds[which])

    def sample(self, rng, n_pos, n_unl, prior):
        """Draw positives from p_pos and unlabeled from the marginal at class-prior ``prior``."""
        pos = self._sample_class(rng, self.components_pos, n_pos)
        labels = np.where(rng.random(n_unl) < prior, 1, -1)
        unl = np.empty(n_unl)
        mask = labels == 1
        unl[mask] = self._sample_class(rng, self.components_pos, int(mask.sum()))
        unl[~mask] = self._sample_class(rng, self.components_neg, int((~mask).sum()))
        return pos[:, None], unl[:, None], labels


def case1_mixture() -> GaussianMixtureSpec:
    """Separated case: p_pos = N(+1, 1), p_neg = N(-1, 1)."""
    return GaussianMixtureSpec(
        components_pos=[(1.0, 1.0, 1.0)],
        components_neg=[(-1.0, 1.0, 1.0)],
    )


def case2_mixture() -> GaussianMixtureSpec:
    """Overlapping case: each class is a mixture leaking into the other.

    p_pos = 0.8 N(+1,1) + 0.2 N(-1,1), p_neg = 0.2 N(+1,1) + 0.8 N(-1,1).
    The class-prior is then not identifiable from PU data alone: the maximum
    mixture proportion exceeds the prior.
    """
    return GaussianMixtureSpec(
        components_pos=[(1.0, 1.0, 0.8), (-1.0, 1.0, 0.2)],
        components_neg=[(1.0, 1.0, 0.2), (-1.0, 1.0, 0.8)],
    )


def _draw_rng(n_pos, n_unl, prior, seed) -> np.random.Generator:
    """The Philox generator of one draw, after its counts and prior are checked."""
    if n_pos <= 0 or n_unl <= 0:
        raise ConfigError(f"sample counts must be positive, got n_pos={n_pos}, n_unl={n_unl}")
    if not (0.0 < prior < 1.0):
        raise ConfigError(f"prior must be in (0, 1), got {prior}")
    return philox_rng(seed)


def synth_from_mixture(mix: GaussianMixtureSpec, n_pos, n_unl, prior, seed) -> PUDataset:
    rng = _draw_rng(n_pos, n_unl, prior, seed)
    pos, unl, labels = mix.sample(rng, n_pos, n_unl, prior)
    return PUDataset(pos, unl, labels)


def synth_case1(n_pos, n_unl, prior: float = 0.4, seed: int = 0) -> PUDataset:
    return synth_from_mixture(case1_mixture(), n_pos, n_unl, prior, seed)


def synth_gaussian_pair(dim: int, n_pos: int, n_unl: int, prior: float, seed) -> PUDataset:
    """Spherical unit-variance Gaussian pair in ``dim`` dimensions.

    The class means sit at +-(1,...,1)/sqrt(dim), so the between-class
    distance is 2 regardless of dimension.
    """
    rng = _draw_rng(n_pos, n_unl, prior, seed)
    mean = np.ones(dim) / np.sqrt(dim)
    pos = rng.normal(size=(n_pos, dim)) + mean
    labels = np.where(rng.random(n_unl) < prior, 1, -1)
    unl = rng.normal(size=(n_unl, dim)) + np.where(labels[:, None] == 1, mean, -mean)
    return PUDataset(pos, unl, labels)


def save_csv(path, X, labels=None) -> None:
    """Write a numeric CSV; labels, when given, one per row of ``X``, become the last column."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if labels is not None and len(labels) != X.shape[0]:
        raise DataError(f"{len(labels)} labels for {X.shape[0]} rows")
    with open(path, "w") as fh:
        for i in range(0, X.shape[0], 4096):  # format 4096 rows at a time, so memory stays bounded
            rows = [",".join(map(repr, row)) for row in X[i : i + 4096].tolist()]
            if labels is not None:
                rows = [f"{row},{int(y)}" for row, y in zip(rows, labels[i : i + 4096])]
            fh.writelines(row + "\n" for row in rows)


def load_csv(path, labeled: bool):
    """Read a numeric CSV written by ``save_csv`` or compatible tools.

    A leading row that Python's ``float`` does not read cell by cell is a header and is skipped.  A ``labeled`` file
    carries its labels, each +1 or -1, in the last column; returns ``(X, labels)``, with labels None for an unlabeled
    file.  ``np.loadtxt`` reads every number: from the data lines, and when it refuses them (a whitespace-only line
    makes it) once more from the stripped non-blank lines.  A ragged line, a cell it does not read (``1_000``, a
    non-ASCII digit), a NaN or infinite cell, or a row whose |x|^2 overflows (a 1e308 cell) raises ``DataError`` naming
    the file and the line an editor shows: counted from 1, with blank lines and a header.  The models refuse such a
    row too, but cannot name it.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is encoding, not data
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    first = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if first is None:
        raise DataError(f"{path} is empty")

    top = first
    try:
        [float(v) for v in lines[first].split(",")]
    except ValueError:
        top += 1  # skip a header
    body = lines[top:]
    if top > first and not any(ln.strip() for ln in body):
        raise DataError(f"{path} has a header but no data rows")

    def numbered():
        """(file line, text) of each non-blank data line: the rows, in order."""
        return [(i, ln.strip()) for i, ln in enumerate(body, top + 1) if ln.strip()]

    data = _loadtxt(body)  # skips empty lines, refuses blank ones
    if data is None:
        rows = numbered()
        data = _loadtxt([ln for _, ln in rows])
        if data is None:
            _raise_fault(path, rows)
    finite = np.isfinite(np.einsum("ij,ij->i", data, data))
    if not finite.all():
        raise DataError(f"{path}: non-finite value or squared norm at line {numbered()[int(np.argmin(finite))][0]}")

    if not labeled:
        return data, None
    if data.shape[1] < 2:
        raise DataError(f"{path}: labeled file needs at least one feature column")
    valid = np.isin(data[:, -1], (-1.0, 1.0))
    if not valid.all():
        raise DataError(f"{path}: label at line {numbered()[int(np.argmin(valid))][0]} is not +1 or -1")
    return data[:, :-1], data[:, -1].astype(int)


def _loadtxt(lines, **kwargs):
    """``np.loadtxt`` of CSV ``lines`` into float64 rows, or None where it refuses them."""
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, **kwargs)
    except ValueError:
        return None


def _raise_fault(path, rows):
    """Raise the DataError for non-blank data lines, given as (file line, text) pairs, that ``np.loadtxt`` refuses: the
    first ragged line, or else the first cell it refuses, sought line by line in the first refused block of 1024."""
    width = rows[0][1].count(",") + 1
    for i, ln in rows:
        if (n := ln.count(",") + 1) != width:
            raise DataError(f"{path}: ragged line {i} has {n} cells, expected {width}")
    s = next(s for s in range(0, len(rows), 1024) if _loadtxt([ln for _, ln in rows[s : s + 1024]]) is None)
    i, ln = next((i, ln) for i, ln in rows[s : s + 1024] if _loadtxt([ln]) is None)
    j = next(j for j in range(width) if _loadtxt([ln], usecols=j) is None)
    raise DataError(f"{path}: non-numeric cell at line {i}, column {j + 1}")
