"""Tests of the benchmark's own pieces: oracles and tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import math
import sys
import types

import numpy as np
import pytest

import oracles
from tracer import Tracer


@pytest.mark.parametrize("scenario,prior", [("case1", 0.2), ("case1", 0.6), ("case2", 0.4), ("case2", 0.7)])
def test_bayes_accuracy_matches_monte_carlo(scenario, prior):
    rng = np.random.default_rng(1)
    n = 400_000
    labels = np.where(rng.random(n) < prior, 1, -1)
    spec = oracles.SCENARIOS[scenario]
    x = np.empty(n)
    for label, key in ((1, "pos"), (-1, "neg")):
        rows = labels == label
        means = np.array([m for m, _ in spec[key]])
        weights = np.array([w for _, w in spec[key]])
        x[rows] = rng.normal(means[rng.choice(means.size, size=rows.sum(), p=weights)], 1.0)
    t = oracles.bayes_threshold(scenario, prior)
    empirical = np.mean(np.where(x >= t, 1, -1) == labels)
    exact = oracles.bayes_accuracy(scenario, prior)
    assert abs(empirical - exact) < 4 * math.sqrt(exact * (1 - exact) / n)


def test_bayes_threshold_closed_forms():
    assert oracles.bayes_threshold("case1", 0.5) == 0.0
    assert oracles.bayes_threshold("case1", 0.4) == pytest.approx(math.log(1.5) / 2)
    assert oracles.bayes_threshold("case2", 0.4) == pytest.approx(math.log(2.0) / 2)
    # case 2's likelihood ratio stays inside (1/4, 4): at prior 0.2 no point is worth calling positive
    assert oracles.bayes_threshold("case2", 0.2) == math.inf
    assert oracles.bayes_accuracy("case2", 0.2) == pytest.approx(0.8)


def test_brute_force_sweep_hand_example():
    # Candidates -inf, 0.5, 1, 2, 3, 4, inf.  Positive acceptance 1, 1, 1, 3/4, 1/2, 1/4, 0;
    # unlabeled acceptance 1, 1, 3/4, 1/2, 1/4, 0, 0.  With the floor at 0.3 the
    # admissible ratios are 1, 1, 3/4, 2/3, 1/2, so the minimum 1/2 sits at threshold 3.
    r_pos = [2.0, 3.0, 4.0, 1.0]
    r_unl = [1.0, 2.0, 3.0, 0.5]
    assert oracles.brute_force_sweep(r_pos, r_unl, 0.3) == (0.5, 3.0)
    # At floor 0.5 threshold 3 (acceptance exactly 1/2) is no longer admissible.
    assert oracles.brute_force_sweep(r_pos, r_unl, 0.5) == (2.0 / 3.0, 2.0)


def test_matched_cost_without_shift_is_the_cost():
    c0, theta = oracles.matched_cost(0.3, 0.3, 0.5)
    assert c0 == pytest.approx(0.5)
    assert theta == pytest.approx(0.5 / 0.3)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def toy_package():
    """Package ``toypkg`` with layers ``a`` and ``b``; ``a`` imports ``b.inner`` by name."""
    clock = FakeClock()
    pkg = types.ModuleType("toypkg")
    a = types.ModuleType("toypkg.a")
    b = types.ModuleType("toypkg.b")

    def inner():
        clock.t += 2.0

    inner.__module__ = b.__name__
    b.inner = inner

    class Box:
        def work(self):
            clock.t += 5.0
            b.inner()

    Box.__module__ = b.__name__
    b.Box = Box

    def outer():
        clock.t += 1.0
        a.inner()
        clock.t += 3.0
        a.inner()

    outer.__module__ = a.__name__
    a.outer, a.inner = outer, inner
    mods = {"toypkg": pkg, "toypkg.a": a, "toypkg.b": b}
    sys.modules.update(mods)
    yield clock, a, b
    for name in mods:
        del sys.modules[name]


def test_tracer_self_time_on_a_toy_nest(toy_package):
    clock, a, b = toy_package
    tracer = Tracer(package="toypkg", layers=("a", "b"), clock=clock)
    original = a.inner
    with tracer.installed():
        assert a.inner is not original and a.inner is b.inner
        a.outer()  # outer 0..8 with inner at 1..3 and 6..8
        b.Box().work()  # work 8..15 with inner at 13..15
    assert a.inner is original and b.inner is original
    self_s, rooted = tracer.self_times()
    assert self_s == {"a": 4.0, "b": 5.0 + 3 * 2.0}
    assert rooted == 15.0 == sum(self_s.values())
    assert tracer.calls() == {"a": 1, "b": 4}
    assert tracer.durations("b.inner") == [2.0, 2.0, 2.0]
    parents = [tracer.spans[p][1] if p >= 0 else None for *_, p in tracer.spans]
    assert parents == [None, "a.outer", "a.outer", None, "b.Box.work"]
