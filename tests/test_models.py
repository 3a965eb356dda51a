import os
import subprocess
import sys

import numpy as np
import pytest

from pushift.errors import ConfigError, DataError
from pushift.models import (
    GaussianBasisLinear,
    MLP,
    block_rows,
    expit,
    load_model,
    mlp,
    model_from_dict,
    save_model,
)

from _helpers import (
    finite_difference, peak_traced, reference_mlp_forward, relative_error, run_at_one_blas_thread, value_and_grad
)


class TestExpit:
    def test_matches_scipy_to_rounding(self):
        from scipy.special import expit as scipy_expit

        rng = np.random.default_rng(0)
        x = np.concatenate([np.linspace(-750.0, 750.0, 100_001), rng.normal(scale=5.0, size=100_000)])
        ours, ref = expit(x), scipy_expit(x)
        np.testing.assert_array_equal(ours == 0, ref == 0)
        np.testing.assert_allclose(ours, ref, rtol=1e-15, atol=0)

    def test_overflow_is_a_silent_zero(self):
        with np.errstate(all="raise"):
            out = expit(np.array([-1e308, -np.inf, 0.0, np.inf]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.5, 1.0])

    def test_package_imports_no_scipy(self):
        code = "import sys, pushift, pushift.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestGaussianBasisLinear:
    def test_zero_weights_predict_zero(self):
        model = GaussianBasisLinear(np.zeros((5, 3)), bandwidth=1.0)
        X = np.random.default_rng(0).normal(size=(10, 3))
        np.testing.assert_array_equal(model.predict(X), np.zeros(10))

    def test_unit_weight_at_center(self):
        c = np.array([[0.7, -1.2]])
        model = GaussianBasisLinear(c, bandwidth=1.0)
        model.params = np.array([1.0])
        assert model.predict(c)[0] == 1.0

    def test_clamp_at_zero(self):
        model = GaussianBasisLinear(np.array([[0.0]]), bandwidth=1.0)
        model.params = np.array([-3.0])
        assert model.predict(np.array([[0.0]]))[0] == 0.0
        _, grad = value_and_grad(model, np.array([0.0]))
        np.testing.assert_array_equal(grad, np.zeros(1))

    def test_gradient_is_features_when_active(self):
        rng = np.random.default_rng(1)
        centers = rng.normal(size=(4, 2))
        model = GaussianBasisLinear(centers, bandwidth=1.5)
        model.params = np.full(4, 0.5)
        x = rng.normal(size=2)
        _, grad = value_and_grad(model, x)
        np.testing.assert_allclose(grad, model.features(x[None, :])[0], atol=1e-15)

    def test_param_count_matches_centers(self):
        model = GaussianBasisLinear(np.random.default_rng(2).normal(size=(1000, 1)))
        assert model.n_params == 1000

    def test_unit_bandwidth_kernel_form(self):
        """In one dimension, bandwidth 1 gives exp(-(x - c)^2 / 2)."""
        c = 0.3
        model = GaussianBasisLinear(np.array([[c]]), bandwidth=1.0)
        model.params = np.array([1.0])
        x = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(
            model.predict(x[:, None]), np.exp(-((x - c) ** 2) / 2.0), atol=1e-15
        )

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            GaussianBasisLinear(np.empty((0, 2)))
        with pytest.raises(ConfigError):
            GaussianBasisLinear(np.zeros((3, 2)), bandwidth=0.0)
        with pytest.raises(ConfigError):
            GaussianBasisLinear(np.zeros((3, 2)), bandwidth=np.inf)

    def test_dimension_mismatch(self):
        model = GaussianBasisLinear(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            model.predict(np.zeros((4, 3)))

    def test_nonnegative_for_random_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            centers = rng.normal(size=(rng.integers(2, 10), 2))
            model = GaussianBasisLinear(centers, bandwidth=float(rng.uniform(0.3, 2)))
            model.params = rng.normal(scale=3.0, size=centers.shape[0])
            X = rng.normal(scale=2.0, size=(40, 2))
            assert np.all(model.predict(X) >= 0)

    def test_features_match_textbook_expression(self):
        """The in-place expansion keeps the order of operations, so the bits match."""
        rng = np.random.default_rng(3)
        centers, X = rng.normal(size=(40, 3)), rng.normal(size=(70, 3))
        model = GaussianBasisLinear(centers, bandwidth=0.8)
        np.testing.assert_array_equal(model.features(X), _textbook_features(X, centers, 0.8))

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 10])
    def test_row_features_depend_on_no_other_row_and_no_layout(self, dim):
        """A row's features have the same bits scored alone, in blocks of any size and in Fortran
        order, and a model built from Fortran-ordered centers gives the same features."""
        rng = np.random.default_rng(50 + dim)
        centers, X = rng.normal(size=(300, dim)), rng.normal(scale=2.0, size=(3000, dim))
        model = GaussianBasisLinear(centers, bandwidth=1.3)
        whole = model.features(X)
        edges = np.cumsum([0, 1, 7, 331, 1023, 1025, 613])
        np.testing.assert_array_equal(np.vstack([model.features(x) for x in X]), whole)
        np.testing.assert_array_equal(np.vstack([model.features(X[s:e]) for s, e in zip(edges, edges[1:])]), whole)
        np.testing.assert_array_equal(model.features(np.asfortranarray(X)), whole)
        fortran = GaussianBasisLinear(np.asfortranarray(centers), bandwidth=1.3)
        np.testing.assert_array_equal(fortran.features(X), whole)

    def test_features_peak_memory_is_one_output(self):
        rng = np.random.default_rng(4)
        model = GaussianBasisLinear(rng.normal(size=(500, 2)))
        X = rng.normal(size=(2000, 2))
        phi, peak = peak_traced(lambda: model.features(X))
        assert peak <= 1.5 * phi.nbytes


def _textbook_features(X, centers, bandwidth):
    """exp(-(|x|^2 - 2 x.c + |c|^2) / (2 bw^2)), the cross term summed by ``einsum`` (at d = 1 the
    exact value of the matrix product): the reference expansion, in the order of operations
    ``features`` must reproduce."""
    cross = np.einsum("ik,jk->ij", 2.0 * X, centers)
    sq = np.sum(X * X, axis=1)[:, None] - cross + np.sum(centers * centers, axis=1)[None, :]
    return np.exp(-sq / (2.0 * bandwidth**2))


# Around the edges of 64-, 128-, 256- and 1024-row blocks, and many blocks.
PREDICT_ROWS = (0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025, 2047, 2048, 2049, 5000, 6000, 20000)
# No case encodes more rows x centers than the 20 000 rows on 1000 centers do (160 MB in float64).
MAX_CELLS = 20_000 * 1000


def _scoring_models():
    """1-d kernel models, clamp on and off, whose blocks take 1024 to 128 rows, and unclamped on 2000 and
    5000 centers (64-row blocks), unclamped kernel models with 300 centers on d > 1 inputs, and
    10-32-32-1 MLPs, softplus and linear."""
    rng = np.random.default_rng(20)
    for n_centers in (1, 37, 100, 333, 1000, 2000, 5000):
        for clamp in (True, False) if n_centers <= 1000 else (False,):
            model = GaussianBasisLinear(rng.normal(scale=2.0, size=(n_centers, 1)), bandwidth=0.9, clamp=clamp)
            model.params = rng.normal(size=n_centers)
            yield f"kernel-{n_centers}-clamp={clamp}", model
    for dim in (2, 3, 5, 10):
        model = GaussianBasisLinear(rng.normal(scale=2.0, size=(300, dim)), bandwidth=1.5, clamp=False)
        model.params = rng.normal(size=300)
        yield f"kernel-300-d={dim}", model
    for output in ("softplus", "linear"):
        yield f"mlp-{output}", mlp([10, 32, 32, 1], seed=6, output=output)


def blocked_mismatches():
    """The (model, rows) cases whose blocked ``predict`` differs in any bit from one ``forward`` pass, or
    whose ``block_outputs``, over a full and a narrow epoch block, from one ``outputs`` call; rows
    whose encoding would pass ``MAX_CELLS`` are left out."""
    rng, theta_rng = np.random.default_rng(21), np.random.default_rng(25)
    bad = []
    for name, model in _scoring_models():
        thetas = [
            model.params[:, None] + theta_rng.normal(scale=0.3, size=(model.n_params, cols))
            for cols in (model.SCORE_BLOCK, 3)
        ]
        for n in PREDICT_ROWS:
            if n * model.encode(np.empty((0, model.dim_in))).shape[1] > MAX_CELLS:
                continue
            X = rng.normal(scale=2.0, size=(n, model.dim_in))
            Z = model.encode(X)
            if not np.array_equal(model.predict(X), model.forward(Z)[0]):
                bad.append(f"{name} n={n}")
            if n <= 5000 and not all(np.array_equal(model.block_outputs(X, t), model.outputs(Z, t)) for t in thetas):
                bad.append(f"{name} n={n} block_outputs")
    return bad


@pytest.mark.parametrize("model", [GaussianBasisLinear(np.zeros((3, 2))), mlp([2, 4, 1])], ids=["kernel", "mlp"])
@pytest.mark.parametrize("cell", [1e308, -1e155, np.nan, np.inf])
def test_rows_with_non_finite_squared_norm_are_data_errors(model, cell):
    """A finite row can still overflow |x|^2, which the kernel features subtract (inf - inf is NaN)."""
    X = np.ones((3000, 2))
    X[2100, 1] = cell
    for call in (model.predict, model.encode, lambda X: model.block_outputs(X, np.zeros((model.n_params, 2)))):
        with pytest.raises(DataError, match=r"input row 2100 \(from 0\)"):
            call(X)
    model.predict(np.full((2, 2), 9e153))  # |x|^2 = 1.62e308 is still finite


class TestBlockedPredict:
    """``predict`` and ``block_outputs`` score ``score_rows``-row blocks instead of one whole-batch pass."""

    @pytest.mark.parametrize(
        "model, rows",
        [
            (GaussianBasisLinear(np.zeros((1000, 1))), 128),
            (GaussianBasisLinear(np.zeros((5000, 1))), 64),
            (GaussianBasisLinear(np.zeros((100, 1))), 1024),
            (mlp([10, 32, 32, 1]), 1024),
        ],
        ids=["kernel-1000", "kernel-5000", "kernel-100", "mlp-10"],
    )
    def test_block_rows_follow_the_encoded_width(self, model, rows):
        assert model.score_rows == rows

    def test_block_rows_are_powers_of_two_that_fit_a_mebibyte(self):
        """The largest power of two from 64 to 1024 whose float64 rows fit in 1 MiB, else 64."""
        for width in range(1, 20_000):
            rows = block_rows(width)
            assert 64 <= rows <= 1024 and rows & (rows - 1) == 0
            assert rows * width * 8 <= 2**20 or rows == 64
            assert rows == 1024 or 2 * rows * width * 8 > 2**20

    def test_bits_match_one_forward_pass_at_one_blas_thread(self):
        """With more threads OpenBLAS splits a matrix-vector product's rows among them at
        points that depend on the row count, so there the bits may differ (bounded below)."""
        proc = run_at_one_blas_thread("test_models.blocked_mismatches()")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 10])
    def test_scores_within_a_reordered_sum(self, dim):
        """At any thread count a blocked score stays within 8 eps of |phi(x)| . |w|, and so
        does each column of ``block_outputs``."""
        rng, theta_rng = np.random.default_rng(24 + dim), np.random.default_rng(34 + dim)
        for n_centers in (37, 333, 1001):
            model = GaussianBasisLinear(rng.normal(size=(n_centers, dim)), float(rng.uniform(0.3, 7.0)), clamp=False)
            model.params = rng.normal(size=n_centers)
            for n in (2 * model.score_rows + 1, 5000):
                X = rng.normal(scale=2.0, size=(n, dim))
                phi = model.features(X)
                bound = 8 * np.finfo(float).eps * (phi @ np.abs(model.params))
                assert np.all(np.abs(model.predict(X) - model.forward(phi)[0]) <= bound)
                thetas = model.params[:, None] * theta_rng.uniform(0.5, 1.5, size=(1, model.SCORE_BLOCK))
                bound = 8 * np.finfo(float).eps * (phi @ np.abs(thetas))
                assert np.all(np.abs(model.block_outputs(X, thetas) - model.outputs(phi, thetas)) <= bound)

    @pytest.mark.parametrize("bandwidth", [0.3, 0.7, 1.0, 2.5, 7.0])
    def test_1d_features_equal_the_matrix_product_expansion(self, bandwidth):
        rng = np.random.default_rng(22)
        centers = np.concatenate([[0.0, -0.0, 1.0, -1.5], rng.normal(scale=3.0, size=300)])[:, None]
        X = np.concatenate([[0.0, -0.0, 1e-300, -2.0], rng.normal(scale=3.0, size=700), rng.uniform(-40, 40, 100)])
        model = GaussianBasisLinear(centers, bandwidth)
        np.testing.assert_array_equal(model.features(X[:, None]), _textbook_features(X[:, None], centers, bandwidth))

    def test_predict_peak_memory_is_a_block(self):
        """20 000 rows and 100 centers: the full feature matrix would take 16 MB."""
        rng = np.random.default_rng(23)
        model = GaussianBasisLinear(rng.normal(size=(100, 1)))
        X = rng.normal(size=(20_000, 1))
        _, peak = peak_traced(lambda: model.predict(X))
        assert peak < 20_000 * 100 * 8 / 4

    def test_wide_model_predict_peaks_below_4_mb(self):
        """5000 rows on 5000 centers: blocks of 64 rows (the last of 72) hold 2.9 MB of features; 1024-row
        blocks would hold up to 77 MB."""
        rng = np.random.default_rng(26)
        model = GaussianBasisLinear(rng.normal(size=(5000, 1)))
        X = rng.normal(size=(5000, 1))
        _, peak = peak_traced(lambda: model.predict(X))
        assert peak < 4e6


def _fused_cases():
    rng = np.random.default_rng(11)
    centers = rng.normal(size=(12, 2))
    for clamp in (True, False):
        model = GaussianBasisLinear(centers, bandwidth=0.7, clamp=clamp)
        model.params = rng.normal(size=12)
        yield pytest.param(model, id=f"kernel-clamp={clamp}")
    for output in ("softplus", "linear"):
        yield pytest.param(mlp([2, 8, 6, 1], seed=5, output=output), id=f"mlp-{output}")


class TestFusedForward:
    """``forward`` on gathered encoded rows is what the training loop runs."""

    @pytest.mark.parametrize("model", list(_fused_cases()))
    def test_matches_predict_and_grad_dot_on_gathered_rows(self, model):
        rng = np.random.default_rng(12)
        X = rng.normal(scale=1.5, size=(60, 2))
        idx = rng.choice(60, size=25, replace=True)
        w = rng.normal(size=25)
        out, backward = model.forward(model.encode(X)[idx])
        np.testing.assert_array_equal(out, model.predict(X[idx]))
        np.testing.assert_array_equal(backward(w), model.forward(model.encode(X[idx]))[1](w))

    def test_clamped_rows_get_no_gradient(self):
        rng = np.random.default_rng(13)
        model = GaussianBasisLinear(rng.normal(size=(12, 2)), bandwidth=0.7, clamp=True)
        model.params = rng.normal(size=12)
        phi = model.encode(rng.normal(scale=1.5, size=(60, 2)))
        raw = phi @ model.params
        assert np.any(raw < 0) and np.any(raw >= 0)
        w = rng.normal(size=60)
        out, backward = model.forward(phi)
        np.testing.assert_array_equal(out, np.maximum(raw, 0.0))
        np.testing.assert_array_equal(backward(w), phi.T @ np.where(raw >= 0, w, 0.0))

    def test_unclamped_gradient_is_features_transpose(self):
        rng = np.random.default_rng(14)
        model = GaussianBasisLinear(rng.normal(size=(12, 2)), bandwidth=0.7, clamp=False)
        model.params = rng.normal(size=12)
        phi = model.encode(rng.normal(scale=1.5, size=(60, 2)))
        w = rng.normal(size=60)
        out, backward = model.forward(phi)
        np.testing.assert_array_equal(out, phi @ model.params)
        np.testing.assert_array_equal(backward(w), phi.T @ w)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e39, 1e308])
    def test_float32_rows_take_a_scaled_cast(self, scale):
        """On float32 rows the products run in float32 and return float64.  Parameters or weights beyond
        float32's range neither overflow nor warn, and stay within float32 rounding of the float64 product."""
        rng = np.random.default_rng(15)
        model = GaussianBasisLinear(rng.normal(size=(300, 2)), bandwidth=0.7, clamp=False)
        phi = model.encode(rng.normal(scale=1.5, size=(200, 2))).astype(np.float32)
        phi64 = phi.astype(float)
        eps = np.finfo(np.float32).eps
        # parameters near 1e39 (a plain float32 cast gives inf); weights up to 1e308 with a small tail
        model.params = rng.uniform(-1.0, 1.0, size=300) * 1e39
        w = np.concatenate([[scale], rng.uniform(-1.0, 1.0, size=199) * scale * 1e-8])
        out, backward = model.forward(phi)
        for got, want, bound in (
            (out, phi64 @ model.params, 300 * eps * (phi64 @ np.abs(model.params))),
            (backward(w), phi64.T @ w, 200 * eps * (phi64.T @ np.abs(w))),
        ):
            assert got.dtype == np.float64 and np.all(np.isfinite(got))
            assert np.all(np.abs(got - want) <= bound)

    def test_float32_rows_in_range_equal_the_plain_cast(self):
        """For |v| <= 1 the scaled product is the unscaled float32 product, bit for bit."""
        rng = np.random.default_rng(16)
        model = GaussianBasisLinear(rng.normal(size=(300, 2)), bandwidth=0.7, clamp=False)
        phi = model.encode(rng.normal(scale=1.5, size=(200, 2))).astype(np.float32)
        model.params = rng.uniform(-1.0, 1.0, size=300)
        w = rng.uniform(-1.0, 1.0, size=200)
        out, backward = model.forward(phi)
        np.testing.assert_array_equal(out, (phi @ model.params.astype(np.float32)).astype(float))
        np.testing.assert_array_equal(backward(w), (phi.T @ w.astype(np.float32)).astype(float))


class TestMLP:
    def test_parameter_count(self):
        assert mlp([1, 8, 1]).n_params == 1 * 8 + 8 + 8 * 1 + 1

    def test_seed_determinism(self):
        a = mlp([3, 16, 1], seed=42)
        b = mlp([3, 16, 1], seed=42)
        np.testing.assert_array_equal(a.params, b.params)
        c = mlp([3, 16, 1], seed=43)
        assert not np.array_equal(a.params, c.params)

    def test_nonnegative_output(self):
        model = mlp([4, 16, 8, 1], seed=0)
        X = np.random.default_rng(0).normal(scale=3.0, size=(1000, 4))
        assert np.all(model.predict(X) >= 0)

    def test_linear_output_mode_signed(self):
        model = mlp([2, 16, 1], seed=1, output="linear")
        model.params = model.params + 0.0
        X = np.random.default_rng(1).normal(size=(500, 2))
        vals = model.predict(X)
        assert np.any(vals < 0) and np.any(vals > 0)

    def test_architecture_preconditions(self):
        with pytest.raises(ConfigError):
            mlp([3, 8, 2])
        with pytest.raises(ConfigError):
            mlp([3])
        with pytest.raises(ConfigError):
            mlp([3, 0, 1])
        with pytest.raises(ConfigError):
            mlp([3, 8, 1], output="tanh")

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 5))
        model = mlp([dim, 8, 6, 1], seed=seed)
        x = rng.normal(size=(1, dim))
        _, grad = value_and_grad(model, x)

        def val(theta):
            m = mlp([dim, 8, 6, 1], seed=seed)
            m.params = theta
            return m.predict(x)[0]

        fd = finite_difference(val, model.params.copy(), h=1e-6)
        assert relative_error(grad, fd) < 1e-4

    def test_grad_dot_equals_weighted_sum_of_pointwise(self):
        rng = np.random.default_rng(10)
        model = mlp([3, 8, 1], seed=0)
        X = rng.normal(size=(7, 3))
        w = rng.normal(size=7)
        acc = np.zeros(model.n_params)
        for i in range(7):
            _, g = value_and_grad(model, X[i])
            acc += w[i] * g
        np.testing.assert_allclose(model.forward(model.encode(X))[1](w), acc, atol=1e-12)


class TestInPlaceForward:
    """``MLP._forward`` and its ``backward`` give the reference passes' bits."""

    @pytest.mark.parametrize("output", ["softplus", "linear"])
    @pytest.mark.parametrize("layers", [[1, 8, 1], [3, 16, 1], [10, 32, 32, 1], [2, 5, 4, 3, 1], [4, 1]])
    @pytest.mark.parametrize("rows", [1, 7, 250])
    def test_bits_match_reference(self, layers, output, rows):
        rng = np.random.default_rng(len(layers) * 1000 + layers[0] * 10 + rows)
        model = mlp(layers, seed=rows, output=output)
        theta = model.params.copy()
        W, b = model._layers(theta)[0]
        W[0], b[0] = 0.0, 0.0  # a dead first-layer unit: pre-activation exactly 0.0 on every row
        b[1:] = rng.normal(size=b.size - 1)
        X = rng.normal(size=(rows, layers[0]))
        X[0] = 0.0
        w = rng.normal(size=rows)
        w_before = w.copy()
        model.params = theta
        y, backward = model.forward(X)
        want_y, want_backward = reference_mlp_forward(model, X, theta)
        assert np.any(X @ W.T + b == 0.0)
        np.testing.assert_array_equal(y, want_y)
        np.testing.assert_array_equal(backward(w), want_backward(w))
        np.testing.assert_array_equal(w, w_before)
        np.testing.assert_array_equal(backward(w), want_backward(w))  # a second call sees the same pass

    @pytest.mark.parametrize("output", ["softplus", "linear"])
    def test_nan_rows_match_reference(self, output):
        rng = np.random.default_rng(21)
        model = mlp([3, 8, 6, 1], seed=4, output=output)
        X = rng.normal(size=(9, 3))
        X[2, 1] = np.nan
        w = rng.normal(size=9)
        with np.errstate(invalid="ignore"):
            y, backward = model.forward(X)
            want_y, want_backward = reference_mlp_forward(model, X, model.params)
        assert np.isnan(y[2]) and np.all(np.isfinite(np.delete(y, 2)))
        np.testing.assert_array_equal(y, want_y)
        np.testing.assert_array_equal(backward(w), want_backward(w))

    def test_relu_in_place_keeps_the_pre_activation_mask(self):
        """``max(pre, 0) > 0`` is ``pre > 0`` at 0.0, -0.0, NaN and the infinities."""
        pre = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.0, -2.0])
        relu = np.maximum(pre.copy(), 0.0, out=pre.copy())
        np.testing.assert_array_equal(relu > 0, pre > 0)


class TestSerialization:
    def test_gaussian_basis_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        model = GaussianBasisLinear(rng.normal(size=(10, 3)), bandwidth=1.7)
        model.params = rng.normal(size=10)
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, GaussianBasisLinear)
        np.testing.assert_array_equal(back.params, model.params)
        np.testing.assert_array_equal(back.centers, model.centers)
        X = rng.normal(size=(20, 3))
        np.testing.assert_array_equal(back.predict(X), model.predict(X))

    def test_mlp_round_trip(self, tmp_path):
        model = mlp([4, 8, 1], seed=9)
        model.params = model.params * 1.3
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, MLP)
        np.testing.assert_array_equal(back.params, model.params)
        X = np.random.default_rng(9).normal(size=(20, 4))
        np.testing.assert_array_equal(back.predict(X), model.predict(X))

    def test_mlp_document_holds_no_seed(self):
        """A loaded MLP takes its ``params``, never its initial seed, so the document carries none; a ``seed``
        from an earlier version is ignored."""
        model = mlp([2, 5, 1], seed=4, output="linear")
        doc = model.to_dict()
        assert set(doc) == {"kind", "layer_sizes", "output", "params"}
        np.testing.assert_array_equal(model_from_dict({**doc, "seed": 99}).params, model.params)

    def test_non_finite_params_raise_and_write_no_file(self, tmp_path):
        model = GaussianBasisLinear(np.zeros((3, 2)))
        model.params = [0.5, np.nan, 1.0]
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            save_model(model, path)
        assert not path.exists()

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            model_from_dict({"kind": "mystery"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_model(tmp_path / "nope.json")
