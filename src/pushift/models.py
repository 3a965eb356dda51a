"""Parametric score models with flat parameter vectors and analytic gradients.

Two families:

* ``GaussianBasisLinear`` -- linear in Gaussian kernel features placed on a
  set of centers (typically the unlabeled training points).  In ratio mode
  the raw output is clamped at zero with a zero subgradient below the clamp.
* ``MLP`` -- fully connected ReLU network with a softplus output in ratio
  mode, trained by manual backpropagation.  No autodiff framework involved.

Both expose the same primitive: ``encode(X)`` turns raw inputs into the
rows the model consumes (kernel features, or the checked inputs for the
MLP), and ``forward(Z)`` returns the predictions on encoded rows together
with a ``backward(w)`` function that gives sum_i w_i * d r(x_i) / d theta
from that same forward pass.  The training loop encodes each training split
once, into ``train_rows`` in the class's ``TRAIN_DTYPE`` (float32 for the
kernel model, whose step products then run in float32 and return float64),
and calls ``forward`` once per mini-batch side.  ``RatioModel`` owns the
flat parameter vector; each family's forward pass takes the vector as an
argument, so ``outputs(Z, thetas)`` scores encoded rows under several
parameter vectors at once without assigning ``params``.  ``predict`` and
``block_outputs`` encode raw inputs and run ``forward`` or ``outputs`` on
blocks of ``score_rows`` rows, which ``block_rows`` sizes to about an L2
cache from the model's ``width``, the values in an encoded row.

Models serialize to plain JSON documents and round-trip bit-exactly.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import (
    ConfigError, DataError, json_array, json_bool, json_int, json_number, json_object, json_str, read_json, write_json
)

__all__ = [
    "block_rows",
    "expit",
    "RatioModel",
    "GaussianBasisLinear",
    "MLP",
    "mlp",
    "save_model",
    "load_model",
    "model_from_dict",
]

# Bytes of float64 encoded rows that one scoring block may hold, so no rows x centers matrix is
# built and a block's features stay about the size of an L2 cache.
BLOCK_BYTES = 1 << 20


def block_rows(width: int) -> int:
    """Rows per scoring block for encoded rows of ``width`` values: the largest power of two from 64
    to 1024 whose float64 rows fit in ``BLOCK_BYTES`` (64 when none does), so 1024 up to 128 centres
    or MLP inputs, 128 for 1000 centres and 64 from 1025 on.  Powers of two keep block edges on the
    row groups of OpenBLAS's matrix-vector kernels, so at one BLAS thread blocked scores equal one
    whole-batch pass bit for bit; a 131-row block moves the last bits of scores."""
    rows = 1024
    while rows > 64 and rows * width * 8 > BLOCK_BYTES:
        rows //= 2
    return rows


def _in_row_blocks(X, score, rows, dtype=float):
    """``score(X[s:e])`` stacked in ``dtype`` over blocks with edges at multiples of ``rows``; ``X[:0]`` shapes it.
    The last block takes the remainder: a short tail block would take BLAS's matrix-vector tail path and could
    move the last bit of its scores."""
    edges = [i * rows for i in range(max(1, len(X) // rows))] + [len(X)]
    out = np.empty((len(X), *score(X[:0]).shape[1:]), dtype)
    for s, e in zip(edges[:-1], edges[1:]):
        out[s:e] = score(X[s:e])
    return out


def _product(A, v):
    """``A @ v`` in ``A``'s dtype, as float64.  A float32 ``A`` takes ``v`` cast to float32; a ``v`` reaching 2**64 is
    scaled below 1 by a power of two and the product scaled back, exact, so no float32 cast or sum of |A| <= 1 overflows."""
    if A.dtype == v.dtype:
        with np.errstate(over="ignore"):  # an overflowed score is refused by its reader
            return A @ v
    top = np.abs(v).max(initial=0.0)
    if not top >= 2.0**64:  # NaN too: the plain cast keeps it
        return (A @ v.astype(A.dtype)).astype(float)
    e = int(np.frexp(top)[1])
    with np.errstate(over="ignore"):  # beyond float64, as the float64 product would be
        return np.ldexp((A @ np.ldexp(v, -e).astype(A.dtype)).astype(float), e)


def _param_vector(value, size: int) -> np.ndarray:
    """A float64 copy of ``value``, which must have shape ``(size,)``."""
    value = np.array(value, dtype=float)
    if value.shape != (size,):
        raise ConfigError(f"params must have shape ({size},), got {value.shape}")
    return value


def expit(x):
    """Logistic sigmoid 1 / (1 + exp(-x)), the derivative of softplus.

    scipy's formula in numpy; a large negative ``x`` overflows ``exp`` and
    gives 0 without a warning.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


class RatioModel:
    """Common interface for parametric score models; owns the flat parameter vector.

    A subclass gives the architecture, ``encode`` and ``_forward(Z, theta)``,
    the predictions on encoded rows at parameters ``theta``.
    """

    kind = "abstract"
    # Epochs the training loop scores per ``outputs`` call.
    SCORE_BLOCK = 16
    TRAIN_DTYPE = np.float64  # of the encoded training copy that steps gather from

    def __init__(self, dim_in: int, params):
        self.dim_in = dim_in
        self.width = dim_in  # values in a row ``encode`` gives
        self._params = np.asarray(params, dtype=float).copy()

    @property
    def params(self) -> np.ndarray:
        return self._params

    @params.setter
    def params(self, value):
        self._params = _param_vector(value, self._params.size)

    @property
    def n_params(self) -> int:
        return self._params.size

    def encode(self, X) -> np.ndarray:
        """Rows ``forward`` consumes; by default the checked inputs."""
        return self._check_dim(X)

    def forward(self, Z):
        """Predictions on encoded rows ``Z`` and their ``backward(weights)``.

        ``backward`` returns sum_i weights[i] * d prediction_i / d params at
        the parameters of this pass, reusing what the pass computed.
        """
        return self._forward(Z, self._params)

    def _forward(self, Z, theta):
        raise NotImplementedError

    def outputs(self, Z, thetas) -> np.ndarray:
        """Predictions on encoded rows ``Z`` for each column of ``thetas``.

        Returns a rows x columns array whose column j equals
        ``forward(Z)[0]`` at parameters ``thetas[:, j]``; this default runs
        the forward pass once per column.  Each column is scored from a
        contiguous copy, as ``params`` is, so the bits match ``forward``.
        """
        return np.column_stack([self._forward(Z, theta)[0] for theta in np.ascontiguousarray(thetas.T)])

    @property
    def score_rows(self) -> int:
        """Rows ``predict``, ``block_outputs`` and ``train_rows`` encode at a time: ``block_rows`` of ``width``."""
        return block_rows(self.width)

    def predict(self, X) -> np.ndarray:
        """``forward(encode(X))[0]``, encoded and scored ``score_rows`` rows at a time."""
        return _in_row_blocks(self._check_dim(X), lambda X: self.forward(self.encode(X))[0], self.score_rows)

    def block_outputs(self, X, thetas) -> np.ndarray:
        """``outputs(encode(X), thetas)``, encoded and scored ``score_rows`` rows at a time."""
        return _in_row_blocks(self._check_dim(X), lambda X: self.outputs(self.encode(X), thetas), self.score_rows)

    def train_rows(self, X) -> np.ndarray:
        """``encode(X).astype(TRAIN_DTYPE)``, encoded ``score_rows`` rows at a time: the rows training steps gather."""
        return _in_row_blocks(self._check_dim(X), self.encode, self.score_rows, self.TRAIN_DTYPE)

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _check_dim(self, X, what="input row"):
        """Raw inputs as C-ordered rows of ``dim_in`` values (``einsum`` sums in memory order).  Every raw input and
        basis center enters here, so a row whose |x|^2 is not finite (features inf - inf, MLP scores NaN) is refused."""
        X = np.atleast_2d(np.ascontiguousarray(X, dtype=float))
        if X.shape[1] != self.dim_in:
            raise DataError(f"expected inputs of dimension {self.dim_in}, got {X.shape[1]}")
        finite = np.isfinite(np.einsum("ij,ij->i", X, X))  # no rows x dim temporary, and no overflow warning
        if not finite.all():
            raise DataError(f"{what} {int(np.argmin(finite))} (from 0) has a squared norm that is not finite")
        return X


class GaussianBasisLinear(RatioModel):
    """Linear model over Gaussian basis functions exp(-||x - c||^2 / (2 bw^2)).

    With ``clamp=True`` (ratio mode) the output is max(0, w . phi(x)) and the
    gradient is zero wherever the raw output is negative.  ``clamp=False``
    gives a plain real-valued decision function for the PU baselines.
    """

    kind = "gaussian_basis_linear"
    # ``outputs`` zero-pads a narrower block to this width: one column would be
    # a matrix-vector product and a narrow one another BLAS kernel, either of
    # which can round differently, so an epoch's objective would depend on how
    # many epochs share its block, and so on the run's length.  64 columns
    # amortise re-encoding the validation split at every block.
    SCORE_BLOCK = 64
    TRAIN_DTYPE = np.float32  # features lie in [0, 1]; a step gathers half the bytes

    def __init__(self, centers, bandwidth: float = 1.0, clamp: bool = True, params=None):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if centers.shape[0] == 0:
            raise ConfigError("at least one basis center is required")
        if not (bandwidth > 0 and 0 < 2.0 * bandwidth * bandwidth < np.inf):  # the features divide by 2 bw^2
            raise ConfigError(f"bandwidth must be positive with 2 bandwidth^2 finite and nonzero, got {bandwidth}")
        self.bandwidth = float(bandwidth)
        self.clamp = bool(clamp)
        super().__init__(centers.shape[1], np.zeros(centers.shape[0]))
        self.centers = self._check_dim(centers, "basis center")
        self.width = len(self.centers)  # one feature per centre
        if params is not None:
            self.params = params

    def features(self, X) -> np.ndarray:
        """exp((2 x.c - |x|^2 - |c|^2) / (2 bw^2)), built in one rows x centers buffer.

        IEEE subtraction is antisymmetric, so this is -((|x|^2 - 2 x.c) + |c|^2) bit for bit.
        """
        X = self._check_dim(X)
        # Not a BLAS product, whose rounding depends on the row count: a row's features depend on no other row.
        out = np.einsum("ik,jk->ij", 2.0 * X, self.centers)
        np.subtract(out, np.sum(X * X, axis=1)[:, None], out=out)
        np.subtract(out, np.sum(self.centers * self.centers, axis=1)[None, :], out=out)
        np.divide(out, 2.0 * self.bandwidth**2, out=out)
        return np.exp(out, out=out)

    def encode(self, X) -> np.ndarray:
        """The kernel features; the training loop builds them once per split."""
        return self.features(X)

    def _forward(self, phi, theta):
        raw = _product(phi, theta)

        def backward(weights):
            w = np.asarray(weights, dtype=float)
            if self.clamp:
                w = w * (raw >= 0)
            return _product(phi.T, w)

        return (np.maximum(raw, 0.0) if self.clamp else raw), backward

    def outputs(self, phi, thetas) -> np.ndarray:
        """Per ``block_rows`` of the centres, upcast to float64, one product for every parameter column, zero-padded
        to ``SCORE_BLOCK`` columns; then the clamp."""
        n = thetas.shape[1]
        padded = np.zeros((thetas.shape[0], max(n, self.SCORE_BLOCK)))
        padded[:, :n] = thetas
        out = _in_row_blocks(phi, lambda Z: (Z.astype(float, copy=False) @ padded)[:, :n], block_rows(phi.shape[1]))
        return np.maximum(out, 0.0, out=out) if self.clamp else out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bandwidth": self.bandwidth,
            "clamp": self.clamp,
            "centers": self.centers.tolist(),
            "params": self._params.tolist(),
        }


class MLP(RatioModel):
    """Fully connected network, ReLU hidden layers, width-1 output.

    ``output="softplus"`` keeps predictions nonnegative for ratio models;
    ``output="linear"`` yields a real-valued decision function.  Weights are
    He-uniform initialized from the given seed, biases start at zero.
    """

    kind = "mlp"

    def __init__(self, layer_sizes, seed: int = 0, output: str = "softplus", params=None):
        layer_sizes = [int(s) for s in layer_sizes]
        if len(layer_sizes) < 2:
            raise ConfigError("layer_sizes needs at least input and output entries")
        if any(s <= 0 for s in layer_sizes):
            raise ConfigError("layer sizes must be positive")
        if layer_sizes[-1] != 1:
            raise ConfigError(f"output width must be 1, got {layer_sizes[-1]}")
        if output not in ("softplus", "linear"):
            raise ConfigError(f"unknown output mode {output!r}")
        self.layer_sizes = layer_sizes
        self.output = output
        self._shapes = [
            (layer_sizes[i + 1], layer_sizes[i]) for i in range(len(layer_sizes) - 1)
        ]
        # A document's layer sizes can ask for terabytes: a given vector is checked against them before any allocation.
        n_params = sum(o * i + o for o, i in self._shapes)
        super().__init__(layer_sizes[0], self._init_params(seed) if params is None else _param_vector(params, n_params))

    def _init_params(self, seed: int) -> np.ndarray:
        rng = np.random.Generator(np.random.Philox(int(seed)))
        chunks = []
        for out_dim, in_dim in self._shapes:
            bound = np.sqrt(6.0 / in_dim)
            chunks.append(rng.uniform(-bound, bound, size=out_dim * in_dim))
            chunks.append(np.zeros(out_dim))
        return np.concatenate(chunks)

    def _layers(self, theta):
        """Views of (W, b) per layer into the flat vector."""
        out = []
        k = 0
        for out_dim, in_dim in self._shapes:
            W = theta[k : k + out_dim * in_dim].reshape(out_dim, in_dim)
            k += out_dim * in_dim
            b = theta[k : k + out_dim]
            k += out_dim
            out.append((W, b))
        return out

    def _forward(self, X, theta):
        """Forward pass that keeps its activations for the backward pass.

        Each layer's pre-activation is built in one buffer, and a hidden
        layer's ReLU overwrites it, so ``activations[idx] > 0`` is the mask
        ``pre > 0`` of the layer below (NaN and -0.0 included).
        """
        layers = self._layers(theta)
        activations = [X]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score or objective is refused by its reader
            for W, b in layers:
                pre = activations[-1] @ W.T
                pre += b
                if len(activations) < len(layers):
                    activations.append(np.maximum(pre, 0.0, out=pre))
            z = pre[:, 0]
            y = np.logaddexp(0.0, z) if self.output == "softplus" else z

        def backward(weights):
            w = np.asarray(weights, dtype=float)
            delta = (w * expit(z))[:, None] if self.output == "softplus" else w[:, None]
            grad = np.empty_like(theta)
            for idx, (gW, gb) in reversed(list(enumerate(self._layers(grad)))):
                np.matmul(delta.T, activations[idx], out=gW)
                np.add.reduce(delta, axis=0, out=gb)  # np.sum's reduction, without its Python wrapper
                if idx > 0:
                    delta = delta @ layers[idx][0]
                    delta *= activations[idx] > 0
            return grad

        return y, backward

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "layer_sizes": self.layer_sizes,
            "output": self.output,
            "params": self._params.tolist(),
        }


def mlp(layer_sizes, seed: int = 0, output: str = "softplus") -> MLP:
    return MLP(layer_sizes, seed=seed, output=output)


_numbers = partial(json_array, item=json_number)


def model_from_dict(doc: dict) -> RatioModel:
    """Rebuild a model; any malformed document, or one missing a field ``to_dict`` writes, raises DataError."""
    kind = json_object(doc, "model document").get("kind")
    try:
        if kind == GaussianBasisLinear.kind:
            centers = np.array(json_array(doc["centers"], "centers", _numbers))
            if centers.ndim != 2:
                raise DataError(f"centers must be a 2-d array, got shape {centers.shape}")
            return GaussianBasisLinear(
                centers=centers,
                bandwidth=json_number(doc["bandwidth"], "bandwidth"),
                clamp=json_bool(doc["clamp"], "clamp"),
                params=_numbers(doc["params"], "params"),
            )
        if kind == MLP.kind:
            return MLP(
                layer_sizes=json_array(doc["layer_sizes"], "layer_sizes", json_int),
                output=json_str(doc["output"], "output"),
                params=_numbers(doc["params"], "params"),
            )
    except KeyError as exc:
        raise DataError(f"model document is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:  # the constructors' ConfigError, and the readers' DataError
        raise DataError(f"invalid model document: {exc}") from exc
    raise DataError(f"unknown model kind {kind!r}")


def save_model(model: RatioModel, path) -> None:
    """Write strict JSON; a non-finite value raises before the file is opened."""
    write_json(path, model.to_dict())


def load_model(path) -> RatioModel:
    return model_from_dict(read_json(path))
