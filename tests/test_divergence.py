import numpy as np
import pytest

from pushift.baselines import logistic_loss, risk_objective, sigmoid_loss
from pushift.divergence import Branch, ratio_objective
from pushift.generators import exp_generator, lsif_generator, scaled_quadratic_generator
from pushift.models import GaussianBasisLinear, gaussian_basis_linear
from pushift.theory import (
    DiscreteDistributionPair,
    population_divergence,
    random_distribution,
    random_ratio_values,
)

from _helpers import finite_difference, objective_gradient, relative_error

LSIF = lsif_generator()


def branch_of(objective, out_pos, out_unl):
    return objective.weights(np.asarray(out_pos, float), np.asarray(out_unl, float))[2]


class TestEmpiricalObjective:
    def test_hand_values(self):
        plain = ratio_objective(LSIF, 0.0).plain
        assert plain([1], [1]) == -0.5
        assert plain([0], [0]) == 0.0
        assert plain([2, 2], [1, 3]) == 0.5

    def test_errors(self):
        plain = ratio_objective(LSIF, 0.0).plain
        with pytest.raises(ValueError):
            plain([], [1])
        with pytest.raises(ValueError):
            plain([1], [])
        with pytest.raises(ValueError):
            plain([1, -0.1], [1])


class TestCorrectedObjective:
    def test_normal_branch_example(self):
        obj = ratio_objective(LSIF, 0.0)
        assert obj.value([1], [1]) == -0.5
        assert branch_of(obj, [1], [1]) is Branch.NORMAL
        assert obj.bracket_value([1], [1]) == 0.5

    def test_corrected_branch_example(self):
        obj = ratio_objective(LSIF, 0.9)
        assert branch_of(obj, [2], [0]) is Branch.CORRECTED
        assert abs(obj.bracket_value([2], [0]) - (-1.8)) < 1e-12
        assert abs(obj.value([2], [0]) - (-0.2)) < 1e-12

    def test_all_zero_inputs(self):
        assert ratio_objective(LSIF, 0.5).value([0, 0], [0, 0]) == 0.0

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ratio_objective(LSIF, 1.0)
        with pytest.raises(ValueError):
            ratio_objective(LSIF, -0.1)

    @pytest.mark.parametrize("gen", [LSIF, exp_generator()], ids=lambda g: g.name)
    def test_corrected_dominates_plain(self, gen):
        """corrected >= plain, equality exactly when the bracket is nonnegative."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            obj = ratio_objective(gen, rng.uniform(0.0, 0.99))
            r_pos = rng.uniform(0, 3, rng.integers(1, 20))
            r_unl = rng.uniform(0, 3, rng.integers(1, 20))
            plain = obj.plain(r_pos, r_unl)
            value = obj.value(r_pos, r_unl)
            assert value >= plain - 1e-12
            if obj.bracket_value(r_pos, r_unl) >= 0:
                assert abs(value - plain) < 1e-12
                assert branch_of(obj, r_pos, r_unl) is Branch.NORMAL
            else:
                assert value > plain
                assert branch_of(obj, r_pos, r_unl) is Branch.CORRECTED


# name -> (objective at a given alpha or prior, whether it scores a ratio model)
OBJECTIVES = {
    "lsif": (lambda k: ratio_objective(LSIF, k), True),
    "exp": (lambda k: ratio_objective(exp_generator(), k), True),
    "quadratic:1.7": (lambda k: ratio_objective(scaled_quadratic_generator(1.7), k), True),
    "upu-sigmoid": (lambda k: risk_objective("upu", sigmoid_loss(), k), False),
    "upu-logistic": (lambda k: risk_objective("upu", logistic_loss(), k), False),
    "nnpu-sigmoid": (lambda k: risk_objective("nnpu", sigmoid_loss(), k), False),
    "nnpu-logistic": (lambda k: risk_objective("nnpu", logistic_loss(), k), False),
}


class TestObjective:
    """The clip, the branch rule and the chain-rule weights, for every objective family."""

    @pytest.mark.parametrize("name", list(OBJECTIVES))
    def test_clip_branch_and_gradient(self, name):
        make, is_ratio = OBJECTIVES[name]
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(200):
            obj = make(rng.uniform(0.0, 0.99) if is_ratio else rng.uniform(0.05, 0.95))
            n_p, n_u = rng.integers(1, 20, size=2)
            if is_ratio:
                out_pos, out_unl = rng.uniform(0, 3, n_p), rng.uniform(0, 3, n_u)
            else:
                out_pos, out_unl = rng.normal(0, 3, n_p), rng.normal(0, 3, n_u)
            b = obj.bracket_value(out_pos, out_unl)
            gap = max(0.0, b) - b if obj.clip else 0.0
            assert abs(obj.value(out_pos, out_unl) - obj.plain(out_pos, out_unl) - gap) <= 1e-12
            normal = b >= 0 or not obj.clip
            assert branch_of(obj, out_pos, out_unl) is (Branch.NORMAL if normal else Branch.CORRECTED)
            seen.add(normal)
        assert seen == ({True, False} if obj.clip else {True})

        # Kernel model: the weights are the gradient of the active branch, on
        # unlabeled rows near the centres (normal) and far from them (corrected).
        branches = set()
        for trial in range(6):
            centers = rng.normal(size=(6, 2))
            model = GaussianBasisLinear(centers, bandwidth=1.2, clamp=is_ratio)
            model.params = np.abs(rng.normal(0.4, 0.3, 6)) * (3.0 if trial % 2 else 1.0)
            xp = rng.normal(size=(5, 2))
            xu = rng.normal(loc=4.0 if trial % 2 else 0.0, size=(8, 2))
            obj = make(0.9)
            grad, branch = objective_gradient(obj, model, xp, xu)
            branches.add(branch)

            def active(theta):
                m = GaussianBasisLinear(centers, bandwidth=1.2, clamp=is_ratio, params=theta)
                out_pos, out_unl = m.predict(xp), m.predict(xu)
                if branch is Branch.NORMAL:
                    return obj.plain(out_pos, out_unl)
                return -obj.bracket_value(out_pos, out_unl)

            assert relative_error(grad, finite_difference(active, model.params.copy())) < 1e-4
        assert branches == ({Branch.NORMAL, Branch.CORRECTED} if obj.clip else {Branch.NORMAL})


class TestDistributionPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteDistributionPair([0, 1], [0.5, 0.4], [0.5, 0.5], 0.5)
        with pytest.raises(ValueError):
            DiscreteDistributionPair([0, 1], [0.5, 0.5], [-0.1, 1.1], 0.5)
        with pytest.raises(ValueError):
            DiscreteDistributionPair([0, 1], [0.5, 0.5], [0.5, 0.5], 1.5)

    def test_marginal_and_ratio(self):
        dist = DiscreteDistributionPair([0, 1], [1.0, 0.0], [0.0, 1.0], 0.5)
        assert abs(dist.marginal_mass.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(dist.true_ratio, [2.0, 0.0])

    def test_random_marginals_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dist = random_distribution(rng)
            assert abs(dist.marginal_mass.sum() - 1.0) < 1e-12


def mean_objective(objective, out_pos, out_unl):
    """``plain``, ``value`` and ``weights`` of ``objective`` with every mean taken by ``np.mean``."""
    bp, bu = objective.bracket(out_pos), objective.bracket(out_unl)
    bracket = float(np.mean(bu) - objective.kappa * np.mean(bp))
    plain = float(np.mean(objective.pos(out_pos)) + np.mean(bu) + objective.const)
    value = plain
    if objective.clip:
        value = float(np.mean(objective.pos(out_pos) + objective.kappa * bp) + max(0.0, bracket) + objective.const)
    n_p, n_u = out_pos.size, out_unl.size
    if not objective.clip or bracket >= 0:
        weights = objective.d_pos(out_pos) / n_p, objective.d_bracket(out_unl) / n_u, Branch.NORMAL
    else:
        w_pos = objective.kappa * objective.d_bracket(out_pos) / n_p
        weights = w_pos, -objective.d_bracket(out_unl) / n_u, Branch.CORRECTED
    return plain, value, weights


class TestPlainMeans:
    """The objective's means are ``np.mean``'s, bit for bit."""

    @pytest.mark.parametrize(
        "objective",
        [
            ratio_objective(LSIF, 0.0),
            ratio_objective(LSIF, 0.6),
            ratio_objective(exp_generator(), 0.3),
            ratio_objective(scaled_quadratic_generator(1.7), 0.9),
            risk_objective("nnpu", sigmoid_loss(), 0.4),
            risk_objective("upu", logistic_loss(), 0.3),
        ],
        ids=["lsif-0", "lsif-0.6", "exp-0.3", "quadratic-0.9", "nnpu-sigmoid", "upu-logistic"],
    )
    def test_plain_value_weights_match_np_mean(self, objective):
        rng = np.random.default_rng(17)
        branches = set()
        for n_p, n_u in [(1, 1), (3, 250), (50, 250), (1000, 37)]:
            for _ in range(10):
                out_pos = rng.uniform(0, 3, n_p) * rng.uniform(0.2, 2)
                out_unl = rng.uniform(0, 3, n_u) * rng.uniform(0.2, 2)
                plain, value, (w_pos, w_unl, branch) = mean_objective(objective, out_pos, out_unl)
                assert objective.plain(out_pos, out_unl) == plain
                assert objective.value(out_pos, out_unl) == value
                got = objective.weights(out_pos, out_unl)
                np.testing.assert_array_equal(got[0], w_pos)
                np.testing.assert_array_equal(got[1], w_unl)
                assert got[2] is branch
                branches.add(branch)
        if objective.clip and objective.kappa >= 0.6:
            assert branches == {Branch.NORMAL, Branch.CORRECTED}


class TestPopulationDivergence:
    def test_zero_at_truth(self):
        rng = np.random.default_rng(1)
        for gen in (LSIF, exp_generator()):
            for _ in range(20):
                dist = random_distribution(rng)
                assert population_divergence(gen, dist, dist.true_ratio) == 0.0

    def test_two_point_hand_value(self):
        dist = DiscreteDistributionPair([0, 1], [1.0, 0.0], [0.0, 1.0], 0.5)
        assert population_divergence(LSIF, dist, [0.0, 0.0]) == 1.0

    def test_lsif_equals_weighted_square(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            dist = random_distribution(rng)
            r = random_ratio_values(rng, dist)
            direct = 0.5 * np.sum(dist.marginal_mass * (dist.true_ratio - r) ** 2)
            assert abs(population_divergence(LSIF, dist, r) - direct) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for gen in (LSIF, exp_generator(), scaled_quadratic_generator(0.7)):
            for _ in range(100):
                dist = random_distribution(rng)
                r = random_ratio_values(rng, dist)
                assert population_divergence(gen, dist, r) >= -1e-12

    def test_strictly_positive_away_from_truth(self):
        """Strong convexity: any deviation on a mass-carrying point is seen."""
        rng = np.random.default_rng(4)
        for gen in (LSIF, exp_generator()):
            for _ in range(50):
                dist = random_distribution(rng)
                r = dist.true_ratio.copy()
                k = int(rng.integers(0, r.size))
                r[k] = max(0.0, r[k] + rng.choice([-1, 1]) * rng.uniform(0.1, 1.0))
                if r[k] == dist.true_ratio[k]:
                    continue
                assert population_divergence(gen, dist, r) > 0

    def test_misaligned_lengths(self):
        dist = DiscreteDistributionPair([0, 1], [0.5, 0.5], [0.5, 0.5], 0.5)
        with pytest.raises(ValueError):
            population_divergence(LSIF, dist, [1.0])


class TestObjectiveGradient:
    def _linear_setup(self, seed):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(6, 2))
        model = gaussian_basis_linear(centers, bandwidth=1.2)
        model.params = rng.normal(0.4, 0.3, 6)
        xp = rng.normal(size=(5, 2))
        xu = rng.normal(size=(8, 2))
        return model, centers, xp, xu

    def test_linear_normal_branch_closed_form(self):
        """For the linear model the plain-branch gradient has a closed form."""
        model, centers, xp, xu = self._linear_setup(0)
        grad, branch = objective_gradient(ratio_objective(LSIF, 0.0), model, xp, xu)
        assert branch is Branch.NORMAL
        phi_p, phi_u = model.features(xp), model.features(xu)
        expected = -phi_p.mean(axis=0) + phi_u.T @ (phi_u @ model.params) / len(xu)
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_both_branches_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 100)
        model, centers, xp, xu = self._linear_setup(seed)
        gen = [LSIF, exp_generator(), scaled_quadratic_generator(1.7)][seed % 3]
        alpha = [0.0, 0.5, 0.95][seed % 3]
        grad, branch = objective_gradient(ratio_objective(gen, alpha), model, xp, xu)

        def branch_objective(theta):
            m = gaussian_basis_linear(centers, bandwidth=1.2)
            m.params = theta
            rp, ru = m.predict(xp), m.predict(xu)
            if branch is Branch.NORMAL:
                return np.mean(-gen.f_prime(rp)) + np.mean(gen.f_conj(ru))
            return -np.mean(gen.big_f(ru)) + alpha * np.mean(gen.big_f(rp))

        fd = finite_difference(branch_objective, model.params.copy())
        assert relative_error(grad, fd) < 1e-4

    def test_corrected_branch_reachable(self):
        model, centers, xp, xu = self._linear_setup(4)
        # positives scoring high, unlabeled far outside the basis support
        model.params = np.abs(model.params) * 3
        far = np.full((4, 2), 100.0)
        grad, branch = objective_gradient(ratio_objective(LSIF, 0.99), model, xp, far)
        assert branch is Branch.CORRECTED

    def test_empty_batch_error(self):
        model, centers, xp, xu = self._linear_setup(1)
        with pytest.raises(ValueError):
            objective_gradient(ratio_objective(LSIF, 0.0), model, np.empty((0, 2)), xu)

    def test_branch_weights_match_bracket_sign(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            rp = rng.uniform(0, 3, 7)
            ru = rng.uniform(0, 3, 9)
            alpha = rng.uniform(0, 0.99)
            bracket = np.mean(LSIF.big_f(ru)) - alpha * np.mean(LSIF.big_f(rp))
            branch = branch_of(ratio_objective(LSIF, alpha), rp, ru)
            assert branch is (Branch.NORMAL if bracket >= 0 else Branch.CORRECTED)
