"""Shared oracles for the test suite: finite differences, brute-force sweeps,
the pairwise AUC, the mini-batch gradient of an objective's active branch,
a model's gradient at one point, and reference implementations of the MLP
forward and backward passes and of the Adam step; and a runner for checks
whose bits hold only at one BLAS thread."""

import copy
import json
import os
import subprocess
import sys

import numpy as np

from pushift.models import expit

RAW_1E400 = "@1e400"  # written as the bare token 1e400, which json.dumps cannot produce
ONE_BLAS_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_at_one_blas_thread(call):
    """Run ``call``, a ``module.function()`` expression of a test module that returns the names of
    its failing cases, in a fresh interpreter at one BLAS thread; it exits nonzero naming them."""
    module = call.split(".", 1)[0]
    code = f"import sys, {module}; sys.exit(', '.join({call}) or None)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **ONE_BLAS_THREAD)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)



def finite_difference(fun, theta, h=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fun(up) - fun(down)) / (2.0 * h)
    return grad


def relative_error(a, b, floor=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.max(np.abs(a - b)) / max(floor, np.max(np.abs(b)))


def brute_force_prior_sweep(r_pos, r_unl, gbar):
    """Exhaustive minimization over every distinct thresholding of the scores.

    O(n^2) oracle: for each candidate threshold (every attained value plus
    sentinels), count acceptances directly and keep the best admissible
    ratio.  Returns (min_ratio, argmin_threshold).
    """
    r_pos = np.asarray(r_pos, dtype=float)
    r_unl = np.asarray(r_unl, dtype=float)
    candidates = np.concatenate(([-np.inf], np.unique(np.concatenate((r_pos, r_unl))), [np.inf]))
    best, arg = np.inf, None
    for theta in candidates:
        p_plus = np.mean(r_pos >= theta)
        if p_plus <= gbar:
            continue
        ratio = np.mean(r_unl >= theta) / p_plus
        if ratio < best:
            best, arg = ratio, theta
    return best, arg


def auc_brute_force(scores_pos, scores_neg) -> float:
    """Quadratic pairwise enumeration; the oracle for the rank-sum path."""
    sp = np.asarray(scores_pos, dtype=float).reshape(-1)
    sn = np.asarray(scores_neg, dtype=float).reshape(-1)
    wins = (sp[:, None] > sn[None, :]).sum() + 0.5 * (sp[:, None] == sn[None, :]).sum()
    return float(wins / (sp.size * sn.size))


def objective_gradient(objective, model, batch_pos, batch_unl):
    """Parameter gradient of a ``divergence.Objective`` on one mini-batch.

    Returns ``(grad, branch)``.  On the normal branch this is the gradient of
    the plain objective; on the corrected branch it is the gradient of the
    negated bracket, the defensive direction that restores nonnegativity.
    """
    xp = np.atleast_2d(np.asarray(batch_pos, dtype=float))
    xu = np.atleast_2d(np.asarray(batch_unl, dtype=float))
    if xp.shape[0] == 0 or xu.shape[0] == 0:
        raise ValueError("batches must be nonempty")
    r_pos, back_pos = model.forward(model.encode(xp))
    r_unl, back_unl = model.forward(model.encode(xu))
    w_pos, w_unl, branch = objective.weights(r_pos, r_unl)
    return back_pos(w_pos) + back_unl(w_unl), branch


def value_and_grad(model, x):
    """A model's value and parameter gradient at one input point, from one forward pass."""
    value, backward = model.forward(model.encode(x))
    return value[0], backward(np.ones(1))


def reference_mlp_forward(model, X, theta):
    """``MLP._forward`` with a fresh array per operation: every pre-activation
    kept apart from its ReLU and the gradient concatenated from its pieces."""
    layers = model._layers(theta)
    activations = [X]
    a = X
    pres = []
    for idx, (W, b) in enumerate(layers):
        pre = a @ W.T + b
        pres.append(pre)
        if idx < len(layers) - 1:
            a = np.maximum(pre, 0.0)
            activations.append(a)
    z = pres[-1][:, 0]
    y = np.logaddexp(0.0, z) if model.output == "softplus" else z

    def backward(weights):
        w = np.asarray(weights, dtype=float)
        if model.output == "softplus":
            delta = (w * expit(z))[:, None]
        else:
            delta = w[:, None]
        grads = [None] * len(layers)
        for idx in range(len(layers) - 1, -1, -1):
            W, _ = layers[idx]
            grads[idx] = (delta.T @ activations[idx], delta.sum(axis=0))
            if idx > 0:
                delta = (delta @ W) * (pres[idx - 1] > 0)
        flat = []
        for gW, gb in grads:
            flat.append(gW.reshape(-1))
            flat.append(gb)
        return np.concatenate(flat)

    return y, backward


def reference_adam_step(state, grad, lr):
    """``trainer.adam_step`` with a fresh array per operation."""
    grad = np.asarray(grad, dtype=float)
    state.t += 1
    with np.errstate(over="ignore"):
        state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
        state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1**state.t)
    v_hat = state.v / (1.0 - state.beta2**state.t)
    return -lr * m_hat / (np.sqrt(v_hat) + state.eps)


def refuse(token):
    raise ValueError(f"not strict JSON: bare {token}")


def read_json(path):
    """Parse an output document, refusing the NaN and Infinity tokens that JSON does not have."""
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


def write_doc(path, doc):
    """Write ``doc`` as JSON, every ``RAW_1E400`` string as the bare token 1e400 (which reads back as inf)."""
    path.write_text(json.dumps(doc).replace(f'"{RAW_1E400}"', "1e400"))
    return path


def replaced(doc, path, value):
    """A copy of ``doc`` with the entry at ``path`` (a tuple of keys and indices) set to ``value``."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc
