"""Convex generator functions for Bregman-divergence ratio fitting.

A generator bundles a convex function ``f`` on [0, inf) with its first two
derivatives and the induced quantities used by the divergence objectives:

    f_conj(t) = t * f'(t) - f(t)        (the "tilted" conjugate along the ray)
    big_f(t)  = f_conj(t) - f_conj(0)   (nonnegative, vanishes at 0)

``mu`` is the strong-convexity constant inf_{t>=0} f''(t), declared by each
constructor because every generator here is closed form; ``f_conj(0)`` and
``big_f`` are derived from ``f_conj``.  Generators are immutable value
objects; all callables accept scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ConfigError

__all__ = [
    "BregmanGenerator",
    "lsif_generator",
    "scaled_quadratic_generator",
    "exp_generator",
    "generator_by_name",
]


@dataclass(frozen=True)
class BregmanGenerator:
    name: str
    f: Callable
    f_prime: Callable
    f_prime2: Callable
    f_conj: Callable
    mu: float
    f_conj_at_zero: float = field(init=False)
    big_f: Callable = field(init=False)

    def __post_init__(self):
        c0 = float(self.f_conj(0.0))
        conj = self.f_conj
        object.__setattr__(self, "f_conj_at_zero", c0)
        object.__setattr__(self, "big_f", lambda t: conj(t) - c0)


def lsif_generator() -> BregmanGenerator:
    """Quadratic generator f(t) = t^2 / 2 (least-squares importance fitting)."""
    return replace(scaled_quadratic_generator(1.0), name="lsif")


def scaled_quadratic_generator(mu: float) -> BregmanGenerator:
    """Generator f(t) = mu * t^2 / 2 for a given finite curvature mu > 0."""
    if not (0 < mu < np.inf):
        raise ConfigError(f"scaled quadratic generator needs a finite mu > 0, got {mu}")
    mu = float(mu)
    return BregmanGenerator(
        name=f"quadratic:{mu:g}",
        f=lambda t: 0.5 * mu * np.square(t),
        f_prime=lambda t: mu * np.asarray(t, dtype=float),
        f_prime2=lambda t: np.full_like(np.asarray(t, dtype=float), mu),
        f_conj=lambda t: 0.5 * mu * np.square(t),
        mu=mu,
    )


def exp_generator() -> BregmanGenerator:
    """Exponential generator f(t) = e^t, with f_conj(t) = (t - 1) e^t.

    inf_{t>=0} f''(t) = 1, so this is strongly convex on the ratio domain and
    useful as a non-quadratic stress case for the divergence identities.
    """
    return BregmanGenerator(
        name="exp",
        f=lambda t: np.exp(t),
        f_prime=lambda t: np.exp(t),
        f_prime2=lambda t: np.exp(t),
        f_conj=lambda t: (np.asarray(t, dtype=float) - 1.0) * np.exp(t),
        mu=1.0,
    )


def generator_by_name(name: str) -> BregmanGenerator:
    """Resolve a generator from its config string.

    Accepted forms: ``"lsif"``, ``"exp"``, ``"quadratic:<mu>"``.
    """
    key = name.strip().lower()
    if key == "lsif":
        return lsif_generator()
    if key == "exp":
        return exp_generator()
    if key.startswith("quadratic:"):
        try:
            mu = float(key.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad quadratic generator spec {name!r}") from exc
        return scaled_quadratic_generator(mu)
    raise ConfigError(f"unknown generator {name!r} (expected lsif, exp, or quadratic:<mu>)")
