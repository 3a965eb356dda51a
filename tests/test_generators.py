import numpy as np
import pytest

from pushift.errors import ConfigError

from _theory import exp_generator, generator_by_name, lsif_generator, scaled_quadratic_generator

ALL_GENERATORS = [lsif_generator(), scaled_quadratic_generator(2.5), exp_generator()]


def test_lsif_values():
    g = lsif_generator()
    assert g.f(2) == 2.0
    assert g.f_prime(2) == 2.0
    assert g.f_conj(2) == 2.0
    assert g.big_f(0) == 0.0
    assert g.mu == 1.0


def test_scaled_quadratic_matches_lsif_at_mu_one():
    q = scaled_quadratic_generator(1.0)
    l = lsif_generator()
    t = np.linspace(0, 10, 101)
    for fn in ("f", "f_prime", "f_conj", "big_f", "f_prime2"):
        np.testing.assert_array_equal(getattr(q, fn)(t), getattr(l, fn)(t))


def test_scaled_quadratic_values_and_precondition():
    q = scaled_quadratic_generator(2.0)
    assert q.f(3) == 9.0
    assert q.mu == 2.0
    with pytest.raises(ConfigError):
        scaled_quadratic_generator(0.0)
    with pytest.raises(ConfigError):
        scaled_quadratic_generator(-1.0)
    with pytest.raises(ConfigError):
        generator_by_name("quadratic:inf")


def test_exp_generator_values():
    g = exp_generator()
    assert g.f_conj(0) == -1.0
    assert g.f_conj_at_zero == -1.0
    assert g.big_f(0) == 0.0
    # hand evaluation: (1 - 1) e + 1
    assert abs(g.big_f(1) - 1.0) < 1e-15
    assert g.mu == 1.0


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.name)
def test_derivative_and_conjugate_consistency(gen):
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 10.0, 1000)
    h = 1e-6
    numeric = (gen.f(t + h) - gen.f(t - h)) / (2.0 * h)
    scale = np.maximum(np.abs(gen.f_prime(t)), 1.0)
    assert np.max(np.abs(numeric - gen.f_prime(t)) / scale) < 1e-5
    np.testing.assert_allclose(gen.f_conj(t), t * gen.f_prime(t) - gen.f(t), atol=1e-10, rtol=1e-10)
    assert np.all(gen.big_f(t) >= -1e-12)


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.name)
def test_big_f_nondecreasing(gen):
    t = np.sort(np.random.default_rng(3).uniform(0.0, 10.0, 1000))
    assert np.all(np.diff(gen.big_f(t)) >= -1e-12)


@pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.name)
def test_convexity_monotone_first_derivative(gen):
    t = np.sort(np.random.default_rng(11).uniform(0.0, 10.0, 500))
    assert np.all(np.diff(gen.f_prime(t)) >= -1e-12)


def test_generator_by_name():
    assert generator_by_name("lsif").name == "lsif"
    assert generator_by_name("exp").name == "exp"
    q = generator_by_name("quadratic:2.5")
    assert q.mu == 2.5
    with pytest.raises(ConfigError):
        generator_by_name("quadratic:oops")
    with pytest.raises(ConfigError):
        generator_by_name("unknown")
