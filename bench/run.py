"""Benchmark of pushift: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload kernel_case2 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0

Run it from the root of a source checkout; it imports pushift from ``src/``
and nothing else.  A run first sets the workload up several times, then
repeats its operation until ``--seconds`` have passed (and at least the
workload's block of operations is done), checks every output against
independent computations, and prints one JSON object as its last line.
``--trace 1`` runs each operation twice, plain and traced, and reports the
per-layer metrics instead.  ``--workload all`` runs every workload in its own
process and prints a table.  See README.md in this directory.
"""

import os

# Fixed before numpy loads: the thread count changes both timings and output bits.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, "bench_results")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("kernel_case2", "mlp_shift10d", "cli_stream")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def import_pushift():
    """Import the package from this checkout's sources, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "pushift", "__init__.py")):
        print(f"bench: no pushift sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import pushift

    if not os.path.abspath(pushift.__file__).startswith(SRC + os.sep):
        print(f"bench: imported pushift from {pushift.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return pushift


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports pushift, as every script or CLI call pays."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import pushift"], env=env, cwd=ROOT, check=True)
    return perf_counter() - t0


class Run:
    """One workload's operations, timed, with failures counted and outputs checked."""

    def __init__(self, wl, seconds: float):
        self.wl, self.seconds = wl, seconds
        self.records, self.op_times = [], []
        self.attempted = self.failed = 0

    def loop(self, step):
        """Call step(i) until the time is up, the block is done and the round is whole."""
        start = perf_counter()
        i = 0
        while i < self.wl.block or i % self.wl.round or perf_counter() - start < self.seconds:
            self.attempted += 1
            try:
                out, elapsed = step(i)
            except Exception:
                traceback.print_exc()
                self.failed += 1
            else:
                self.op_times.append(elapsed)
                self.records.append(self.wl.check(i, out))
            i += 1

    def summary(self) -> float:
        """Checks over the first block of operations; returns their mean accuracy."""
        return self.wl.summary(self.records[: self.wl.block])


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def end_to_end(wl, seconds: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        setups.append(t_import + timed(wl.prepare)[1])
    run = Run(wl, seconds)
    run.loop(lambda i: timed(wl.op, i))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(run.op_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "accuracy": (run.summary(), "fraction"),
    }
    info = {"setup_s.all": setups, "op_s.all": run.op_times, **wl.details(run.records)}
    return run, metrics, info


def per_layer(wl, seconds: float):
    from tracer import LAYERS, Tracer
    from workloads import require

    tracer = Tracer()
    totals = {"plain": 0.0, "traced": 0.0, "traced_clock": 0.0}

    def paired(fn, *args):
        _, plain = timed(fn, *args)
        with tracer.installed():
            v0, t0 = tracer.now(), perf_counter()
            out = fn(*args)
            traced, traced_clock = perf_counter() - t0, tracer.now() - v0
        totals["plain"] += plain
        totals["traced"] += traced
        totals["traced_clock"] += traced_clock
        return out, traced

    paired(wl.prepare)
    run = Run(wl, seconds)
    run.loop(lambda i: paired(wl.op, i))
    run.summary()

    self_s, rooted = tracer.self_times()
    require(
        abs(sum(self_s.values()) - rooted) <= 1e-6 * max(1.0, rooted),
        f"layer self times add to {sum(self_s.values())}, root spans to {rooted}",
    )
    calls, counts = tracer.calls(), tracer.counts
    steps = counts["trainer.steps"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    adapt_ms = [d * 1e3 for d in tracer.durations("cli.cmd_adapt")]
    evaluate_ms = [d * 1e3 for d in tracer.durations("cli.cmd_evaluate")]
    metrics.update(
        {
            "trainer.steps": (steps, "count"),
            "models.calls_per_step": (tracer.loop_model_calls() / steps if steps else 0.0, "ratio"),
            "models.rows": (counts["models.rows"], "count"),
            "models.feature_cells": (counts["models.feature_cells"], "count"),
            "data.rows_read": (counts["data.rows_read"], "count"),
            "data.mb_read": (counts["data.mb_read"], "MB"),
            "data.rows_written": (counts["data.rows_written"], "count"),
            "prior.thresholds": (counts["prior.thresholds"], "count"),
            "cli.adapt_ms.p50": (statistics.median(adapt_ms) if adapt_ms else 0.0, "ms"),
            "cli.evaluate_ms.p50": (statistics.median(evaluate_ms) if evaluate_ms else 0.0, "ms"),
            "trace.wall_s": (totals["traced_clock"], "s"),
            "trace.unwrapped_s": (totals["traced_clock"] - rooted, "s"),
            "trace.overhead_s": (totals["traced"] - totals["plain"], "s"),
        }
    )
    spans_path = os.path.join(RESULTS, f"spans-{wl.name}-seed{wl.run_seed}.json")
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["layer", "name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return run, metrics, {"spans": os.path.relpath(spans_path, ROOT), "ops": len(run.op_times)}


def run_one(args) -> int:
    pushift = import_pushift()
    from workloads import WORKLOADS, CheckError

    import numpy
    import scipy

    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        run, metrics, info = (per_layer if args.trace else end_to_end)(wl, args.seconds)
    except CheckError as exc:
        print(f"bench: {args.workload}: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    result = {
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "blas_threads": int(BLAS_THREADS),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "pushift": pushift.__version__,
        }
    )
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1)
    print(f"{args.workload}: {run.attempted} operations, {run.failed} failed, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:>20.6g} {unit}")
    for name, value in info.items():
        if not isinstance(value, list):
            print(f"  {name:24s} {value!s:>20}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout, flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
