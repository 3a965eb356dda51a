"""Run-time tracing of pushift's layers, installed from outside the package.

``Tracer.installed()`` wraps every public function, and every public method
of the classes, defined in each layer module, and rebinds every name under
which another pushift module imported them, so calls between layers are
seen too.  Each call records a span (layer, name, start, end, parent) in
memory; counters read the call's arguments and result after the call.  The
time the counters take is cut out of the tracer's clock, so spans measure
the program, not the bookkeeping.  Leaving the context restores every
original binding.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct children.  Calls run one at a time, so the self
times of all layers add up to the time covered by root spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = (
    "cli",
    "experiments",
    "trainer",
    "baselines",
    "models",
    "divergence",
    "prior",
    "classifier",
    "metrics",
    "data",
)
TRAIN_LOOPS = ("trainer.train", "baselines.train_baseline")
ROW_METHODS = {
    "predict",
    "predict_grad",
    "raw",
    "features",
    "feature_cache",
    "predict_features",
    "grad_dot",
    "grad_dot_features",
}


def _rows(x) -> int:
    return np.atleast_2d(np.asarray(x)).shape[0]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _distinct(*arrays) -> int:
    return np.unique(np.concatenate([np.ravel(a) for a in arrays])).size


def count(counts: Counter, name: str, args, kwargs, result, parent_layer) -> None:
    """Work counts of one call, computed from its arguments and result."""
    layer, leaf = name.split(".", 1)[0], name.rsplit(".", 1)[-1]
    if layer == "models" and leaf in ROW_METHODS:
        x = args[1] if len(args) > 1 else next(iter(kwargs.values()))
        if parent_layer != "models":
            counts["models.rows"] += _rows(x)
        if leaf == "features":
            counts["models.feature_cells"] += _rows(x) * args[0].centers.shape[0]
    elif name == "data.load_csv":
        counts["data.rows_read"] += result[0].shape[0]
        counts["data.mb_read"] += os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6
    elif name == "data.save_csv":
        counts["data.rows_written"] += _rows(_arg(args, kwargs, 1, "X"))
    elif name == "prior.estimate_prior":
        n = _distinct(_arg(args, kwargs, 0, "r_pos"), _arg(args, kwargs, 1, "r_unl"))
        counts["prior.thresholds"] += n + 2
    elif name == "prior.estimate_test_prior":
        n = _distinct(_arg(args, kwargs, 0, "intervals").boundaries, _arg(args, kwargs, 1, "r_test_unl"))
        counts["prior.thresholds"] += n + 2
    elif name in TRAIN_LOOPS:
        # train(model, data, gen, cfg) and train_baseline(method, loss, prior, model, data, cfg)
        data_pos, cfg_pos = (1, 3) if name == "trainer.train" else (4, 5)
        data, cfg = _arg(args, kwargs, data_pos, "data"), _arg(args, kwargs, cfg_pos, "cfg")
        counts["trainer.steps"] += cfg.epochs * math.ceil(data.train.n_unl / cfg.batch_size)


class Tracer:
    def __init__(self, package: str = "pushift", layers=LAYERS, clock=time.perf_counter):
        self.package = package
        self.layers = tuple(layers)
        self.clock = clock
        self.spans = []  # [layer, name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._paused = 0.0

    def now(self) -> float:
        """Clock with the tracer's own counting time taken out."""
        return self.clock() - self._paused

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = tracer._stack, tracer.spans
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append([layer, name, tracer.now(), None, parent])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = tracer.now()
                stack.pop()
            t0 = tracer.clock()
            count(tracer.counts, name, args, kwargs, result, spans[parent][0] if parent >= 0 else None)
            tracer._paused += tracer.clock() - t0
            return result

        return traced

    def _targets(self):
        """(owner, attribute, original, wrapper) for every public callable of each layer."""
        for layer in self.layers:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield mod, attr, obj, self._wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        if isinstance(raw, (staticmethod, classmethod)):
                            yield obj, meth, raw, type(raw)(self._wrap(layer, name, raw.__func__))
                        elif inspect.isfunction(raw):
                            yield obj, meth, raw, self._wrap(layer, name, raw)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers for the duration of the block, then restore them."""
        saved = []
        replaced = {}
        for owner, attr, original, wrapper in self._targets():
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            replaced[id(original)] = (original, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Self time per layer and the total time covered by root spans."""
        child = [0.0] * len(self.spans)
        for layer, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(self.layers, 0.0)
        for (layer, _, start, end, _), c in zip(self.spans, child):
            out[layer] += end - start - c
        roots = sum(end - start for _, _, start, end, parent in self.spans if parent < 0)
        return out, roots

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def durations(self, name: str) -> list:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def loop_model_calls(self) -> int:
        """Model-layer calls made directly by the training loops."""
        return sum(
            1
            for layer, _, _, _, parent in self.spans
            if layer == "models" and parent >= 0 and self.spans[parent][1] in TRAIN_LOOPS
        )
