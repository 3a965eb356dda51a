"""Shared oracles for the test suite: finite differences, brute-force sweeps,
the pairwise AUC, the mini-batch gradient of an objective's active branch,
a model's gradient at one point, the true ratio of a synthetic mixture, and
reference implementations of the MLP forward and backward passes, of the
Adam step and of the theory suites' trial loops and finite-support risks; a
runner for checks whose bits hold only at one BLAS thread; the traced peak
memory of a call; a one-grammar CSV reader; and test ids named by a document
field's path."""

import copy
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from pushift.classifier import ShiftSpec, cost_threshold, threshold_decisions
from pushift.models import expit
from pushift.trainer import ADAM_EPS

from _theory import (
    IDENTITY_TOL,
    INEQUALITY_TOL,
    auc_excess_bound_check,
    bound_constant,
    exp_generator,
    lsif_generator,
    population_divergence,
    random_distribution,
    random_ratio_values,
    scaled_quadratic_generator,
    squared_loss_decomposition,
)

RAW_1E400 = "@1e400"  # written as the bare token 1e400, which json.dumps cannot produce
ONE_BLAS_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_at_one_blas_thread(call):
    """Run ``call``, a ``module.function()`` expression of a test module that returns the names of
    its failing cases, in a fresh interpreter at one BLAS thread; it exits nonzero naming them."""
    module = call.split(".", 1)[0]
    code = f"import sys, {module}; sys.exit(', '.join({call}) or None)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **ONE_BLAS_THREAD)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)


def mixture_pdf(components, x):
    """Density at ``x`` of one class of a ``GaussianMixtureSpec``: its (mean, variance, weight) components."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for mean, var, weight in components:
        out += weight * np.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return out


def mixture_marginal(mix, x, prior):
    """Marginal density of a ``GaussianMixtureSpec`` at class-prior ``prior``."""
    return prior * mixture_pdf(mix.components_pos, x) + (1.0 - prior) * mixture_pdf(mix.components_neg, x)


def mixture_true_ratio(mix, x, prior):
    """p_pos / marginal at class-prior ``prior``, the population target of ratio fitting."""
    return mixture_pdf(mix.components_pos, x) / mixture_marginal(mix, x, prior)


def peak_traced(fn):
    """``(fn(), peak)``: the result of ``fn()`` and the peak bytes tracemalloc saw allocated during the call."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _loadtxt_reads(cell):
    """Whether ``np.loadtxt`` reads ``cell``, alone on a line, as one number; an empty line gives none."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "input contained no data"
        try:
            return np.loadtxt([cell], delimiter=",", comments=None, ndmin=1).shape == (1,)
        except ValueError:
            return False


def reference_load_csv(path, labeled):
    """``load_csv``'s outcome from ``np.loadtxt`` alone: ``("ok", shape, X bytes, labels)`` of its array of the
    stripped non-blank data lines, or ``("error", message)`` naming by file line the first ragged line, or else the
    first cell ``np.loadtxt`` refuses alone, then the first non-finite row or bad label.  A first line that Python's
    ``float`` does not read cell by cell is a header."""
    with open(path, encoding="utf-8-sig") as fh:
        rows = [(i, ln.strip()) for i, ln in enumerate(fh.read().split("\n"), 1) if ln.strip()]
    if not rows:
        return "error", f"{path} is empty"
    try:
        [float(v) for v in rows[0][1].split(",")]
    except ValueError:
        rows = rows[1:]
        if not rows:
            return "error", f"{path} has a header but no data rows"
    try:
        data = np.loadtxt([ln for _, ln in rows], delimiter=",", ndmin=2, comments=None)
    except ValueError:
        width = len(rows[0][1].split(","))
        for i, ln in rows:
            if len(ln.split(",")) != width:
                return "error", f"{path}: ragged line {i} has {len(ln.split(','))} cells, expected {width}"
        i, j = next((i, j) for i, ln in rows for j, v in enumerate(ln.split(",")) if not _loadtxt_reads(v))
        return "error", f"{path}: non-numeric cell at line {i}, column {j + 1}"
    for (i, _), norm in zip(rows, np.einsum("ij,ij->i", data, data)):
        if not np.isfinite(norm):
            return "error", f"{path}: non-finite value or squared norm at line {i}"
    if not labeled:
        return "ok", data.shape, data.tobytes(), None
    if data.shape[1] < 2:
        return "error", f"{path}: labeled file needs at least one feature column"
    for (i, _), label in zip(rows, data[:, -1]):
        if label not in (-1.0, 1.0):
            return "error", f"{path}: label at line {i} is not +1 or -1"
    return "ok", data[:, :-1].shape, data[:, :-1].tobytes(), data[:, -1].astype(int).tolist()


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
    return -lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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


def field_param(document, path, *values):
    """A ``pytest.param`` of one field of ``document``, its id built from the field path and the first value
    (``model.json-centers-0-3``), so adding or removing a case renames no other."""
    return pytest.param(document, path, *values, id="-".join(map(str, (document, *path, *values[:1]))))


def reference_finite_support_risk(dist, decisions, prior, cost):
    """Exact cost-weighted risk of fixed per-point decisions."""
    d = np.asarray(decisions, dtype=int)
    miss_pos = (1.0 - cost) * prior * dist.p_plus_mass
    miss_neg = cost * (1.0 - prior) * dist.p_minus_mass
    return float(np.sum(np.where(d == 1, miss_neg, miss_pos)))


def reference_finite_support_bayes_risk(dist, prior, cost):
    """Exact Bayes risk: pick the cheaper label at every support point."""
    miss_pos = (1.0 - cost) * prior * dist.p_plus_mass
    miss_neg = cost * (1.0 - prior) * dist.p_minus_mass
    return float(np.sum(np.minimum(miss_pos, miss_neg)))


def _reference_threshold_excess_risk(dist, r, theta, spec):
    risk = reference_finite_support_risk(dist, threshold_decisions(r, theta), spec.test_prior, spec.cost)
    return risk - reference_finite_support_bayes_risk(dist, spec.test_prior, spec.cost)


def _reference_divergence_term(gen, dist, r):
    return float(np.sqrt(max(0.0, 2.0 * population_divergence(gen, dist, r) / gen.mu)))


def _reference_random_generator(rng):
    pick = rng.integers(0, 3)
    if pick == 0:
        return lsif_generator()
    if pick == 1:
        return scaled_quadratic_generator(float(rng.uniform(0.2, 5.0)))
    return exp_generator()


def _reference_classification_bound(rng, trials, shift):
    records = []
    for _ in range(trials):
        dist = random_distribution(rng)
        r = random_ratio_values(rng, dist)
        gen = _reference_random_generator(rng)
        test_prior = float(rng.uniform(0.1, 0.9)) if shift else dist.prior
        spec = ShiftSpec(train_prior=dist.prior, test_prior=test_prior, cost=float(rng.uniform(0.1, 0.9)))
        _, theta = cost_threshold(spec)
        lhs = _reference_threshold_excess_risk(dist, r, theta, spec)
        records.append((lhs, bound_constant(spec) * _reference_divergence_term(gen, dist, r)))
    return records


def _reference_auc_bound(rng, trials):
    records = []
    for _ in range(trials):
        dist = random_distribution(rng)
        r = random_ratio_values(rng, dist)
        gen = _reference_random_generator(rng)
        records.append(auc_excess_bound_check(dist, r, gen))
    return records


def _reference_quadratic_tightness(rng, trials):
    gen_exp = exp_generator()
    gen_quad = scaled_quadratic_generator(gen_exp.mu)
    records = []
    for _ in range(trials):
        dist = random_distribution(rng)
        r = np.minimum(random_ratio_values(rng, dist), 8.0)
        lhs = population_divergence(gen_quad, dist, r)
        rhs = population_divergence(gen_exp, dist, r)
        records.append((lhs, rhs))
    return records


def _reference_squared_loss_identity(rng, trials):
    records = []
    for _ in range(trials):
        dist = random_distribution(rng)
        r = random_ratio_values(rng, dist)
        mu = float(rng.uniform(0.2, 5.0))
        records.append(squared_loss_decomposition(dist, r, mu=mu))
    return records


def _reference_threshold_perturbation(rng, trials):
    records = []
    for _ in range(trials):
        dist = random_distribution(rng)
        r = random_ratio_values(rng, dist)
        gen = _reference_random_generator(rng)
        spec = ShiftSpec(
            train_prior=dist.prior,
            test_prior=float(rng.uniform(0.1, 0.9)),
            cost=float(rng.uniform(0.1, 0.9)),
        )
        _, theta = cost_threshold(spec)
        delta = float(rng.uniform(-0.9, 1.0)) * theta
        lhs = _reference_threshold_excess_risk(dist, r, theta + delta, spec)
        rhs = bound_constant(spec) * (2.0 * _reference_divergence_term(gen, dist, r) + abs(delta))
        records.append((lhs, rhs))
    return records


REFERENCE_SUITES = {
    "classification_bound": ("inequality", lambda rng, n: _reference_classification_bound(rng, n, shift=False)),
    "shifted_classification_bound": ("inequality", lambda rng, n: _reference_classification_bound(rng, n, shift=True)),
    "auc_bound": ("inequality", _reference_auc_bound),
    "quadratic_tightness": ("inequality", _reference_quadratic_tightness),
    "squared_loss_identity": ("identity", _reference_squared_loss_identity),
    "threshold_perturbation": ("inequality", _reference_threshold_perturbation),
}


def reference_run_suite(name, seed, trials):
    """The former one-loop-per-suite ``theory.run_suite``: (passed, worst_margin, max_slack)."""
    kind, fn = REFERENCE_SUITES[name]
    records = fn(np.random.default_rng(seed), trials)
    margins = np.array([b for _, b in records]) - np.array([a for a, _ in records])
    if kind == "identity":
        worst = -float(np.max(np.abs(margins)))
        passed = -worst <= IDENTITY_TOL
    else:
        worst = float(np.min(margins))
        passed = worst >= -INEQUALITY_TOL
    return bool(passed), worst, float(np.max(margins))
