"""Experiment command line: synth, train, adapt, evaluate, verify-theory.

Every run is described by a JSON config document; command-line flags
override config fields (flag > config > default).  Each output JSON embeds
the effective config hash and the seed, so reruns with the same hash are
byte-identical on the numeric fields at a fixed BLAS thread count.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric divergence,
5 degenerate prior estimation.

``adapt`` deliberately accepts only the model file, the intervals file, and
the test-time unlabeled data: threshold adaptation never touches training
data, which is the point of shipping the interval summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .baselines import logistic_loss, sigmoid_loss, train_baseline
from .classifier import threshold_decisions
from .data import SplitDataset, load_csv, load_pu_dataset, save_csv
from .errors import ConfigError, DataError, DegeneratePriorError, TrainingDiverged
from .experiments import CASE_DEFAULTS, adapt_threshold, case_data, decision_boundary_1d, fit_drpu, kernel_centers
from .generators import generator_by_name
from .metrics import accuracy, auc, error_rate, ties_present
from .models import GaussianBasisLinear, load_model, save_model
from .prior import ThresholdIntervals
from .theory import run_all
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_DEGENERATE = 5

SYNTH_DEFAULTS = {
    "case": 1,
    "seed": 0,
    "n_train_pos": 200,
    "n_train_unl": 1000,
    "n_val_pos": 100,
    "n_val_unl": 500,
    "n_test": 1000,
    "train_prior": None,  # case default when absent
    "test_prior": None,
    "out": "data",
}

TRAIN_DEFAULTS = {
    "seed": 0,
    "data": "data",
    "out": "run",
    "method": "drpu",
    "generator": "lsif",
    "loss": "sigmoid",
    "prior": None,  # baselines only
    "alpha": 0.0,
    "epochs": 200,
    "batch_size": 200,
    "learning_rate": 2e-5,
    "lr_halving_period": None,
    "adam_beta1": 0.5,
    "adam_beta2": 0.999,
    "l2_reg": 0.1,
    "gamma": 0.9,  # 0.5 leaves no admissible threshold at the default 100 validation positives
    "bandwidth": 1.0,
    "max_centers": None,
}

def _config_hash(cfg: dict) -> str:
    """Hash of the run parameters; filesystem paths are not identity."""
    semantic = {k: v for k, v in cfg.items() if k not in ("out", "data")}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write_json(path, doc: dict) -> None:
    """Write strict JSON: a NaN or infinity raises before the file is opened."""
    text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc


def _effective_config(defaults: dict, args, keys) -> dict:
    """defaults < config file < command-line flags."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        doc = _load_json(args.config)
        if not isinstance(doc, dict):
            raise ConfigError(f"config {args.config} must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg.update(doc)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _validate_prior(name, value):
    if not (0.0 < value < 1.0):
        raise ConfigError(f"{name} must lie in (0, 1), got {value}")


def cmd_synth(args) -> int:
    cfg = _effective_config(SYNTH_DEFAULTS, args, SYNTH_DEFAULTS.keys())
    case = int(cfg["case"])
    if case not in CASE_DEFAULTS:
        raise ConfigError(f"case must be 1 or 2, got {case}")
    defaults = CASE_DEFAULTS[case]
    train_prior = defaults["train_prior"] if cfg["train_prior"] is None else float(cfg["train_prior"])
    test_prior = defaults["test_prior"] if cfg["test_prior"] is None else float(cfg["test_prior"])
    _validate_prior("train_prior", train_prior)
    _validate_prior("test_prior", test_prior)
    cfg["train_prior"], cfg["test_prior"] = train_prior, test_prior
    seed = int(cfg["seed"])
    n_train = (int(cfg["n_train_pos"]), int(cfg["n_train_unl"]))
    n_val = (int(cfg["n_val_pos"]), int(cfg["n_val_unl"]))
    split, te = case_data(case, seed, n_train, n_val, int(cfg["n_test"]), train_prior, test_prior)
    tr, va = split.train, split.val

    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    save_csv(os.path.join(out, "train_pos.csv"), tr.positives)
    save_csv(os.path.join(out, "train_unl.csv"), tr.unlabeled)
    save_csv(os.path.join(out, "val_pos.csv"), va.positives)
    save_csv(os.path.join(out, "val_unl.csv"), va.unlabeled)
    save_csv(os.path.join(out, "test_unl.csv"), te.unlabeled)
    # labeled copy of the test set, for evaluation only
    save_csv(os.path.join(out, "eval_test.csv"), te.unlabeled, labels=te.hidden_labels)
    manifest = {
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "seed": seed,
        "dim": tr.dim,
        "counts": {
            "train_pos": tr.n_pos,
            "train_unl": tr.n_unl,
            "val_pos": va.n_pos,
            "val_unl": va.n_unl,
            "test": te.n_unl,
        },
        "files": [
            "train_pos.csv",
            "train_unl.csv",
            "val_pos.csv",
            "val_unl.csv",
            "test_unl.csv",
            "eval_test.csv",
        ],
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)
    print(f"synth: wrote {out}/ (case {case}, seed {seed}, hash {manifest['config_hash']})")
    return EXIT_OK


def _write_trace_csv(path, report) -> None:
    """Per-epoch curves (objective vs epoch), ready for external plotting."""
    with open(path, "w") as fh:
        fh.write("epoch,train_objective,val_objective,corrected_fraction\n")
        rows = zip(report.train_objective, report.val_objective, report.corrected_fraction)
        for epoch, (tr, va, cf) in enumerate(rows):
            fh.write(f"{epoch},{tr!r},{va!r},{cf!r}\n")


def _append_results_csv(path, tag, doc) -> None:
    """One row per run: threshold, boundary, and metrics for seed sweeps."""
    fields = ["tag", "theta", "boundary", "accuracy", "error_rate", "auc", "pi_hat", "pi_prime"]
    fresh = not os.path.exists(path)
    with open(path, "a") as fh:
        if fresh:
            fh.write(",".join(fields) + "\n")
        row = [str(tag)] + [
            "" if doc.get(k) is None else repr(float(doc[k])) for k in fields[1:]
        ]
        fh.write(",".join(row) + "\n")


def _load_split(data_dir) -> SplitDataset:
    return SplitDataset(
        train=load_pu_dataset(
            os.path.join(data_dir, "train_pos.csv"), os.path.join(data_dir, "train_unl.csv")
        ),
        val=load_pu_dataset(
            os.path.join(data_dir, "val_pos.csv"), os.path.join(data_dir, "val_unl.csv")
        ),
    )


def cmd_train(args) -> int:
    cfg = _effective_config(TRAIN_DEFAULTS, args, TRAIN_DEFAULTS.keys())
    if args.sweep:
        return _run_sweep(args, cfg)
    seed = int(cfg["seed"])
    method = str(cfg["method"]).lower()
    if method not in ("drpu", "upu", "nnpu"):
        raise ConfigError(f"method must be drpu, upu, or nnpu, got {method!r}")
    split = _load_split(cfg["data"])
    tcfg = TrainConfig(
        alpha=float(cfg["alpha"]),
        epochs=int(cfg["epochs"]),
        batch_size=int(cfg["batch_size"]),
        learning_rate=float(cfg["learning_rate"]),
        lr_halving_period=None if cfg["lr_halving_period"] is None else int(cfg["lr_halving_period"]),
        adam_beta1=float(cfg["adam_beta1"]),
        adam_beta2=float(cfg["adam_beta2"]),
        l2_reg=float(cfg["l2_reg"]),
        seed=seed,
    )
    max_centers = None if cfg["max_centers"] is None else int(cfg["max_centers"])
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    chash = _config_hash(cfg)
    report = {"config": cfg, "config_hash": chash, "seed": seed, "method": method}

    if method == "drpu":
        gen = generator_by_name(str(cfg["generator"]))
        fit = fit_drpu(
            split,
            tcfg,
            gen=gen,
            gamma=float(cfg["gamma"]),
            max_centers=max_centers,
            bandwidth=float(cfg["bandwidth"]),
        )
        save_model(fit.model, os.path.join(out, "model.json"))
        fit.intervals.save(os.path.join(out, "intervals.json"))
        report["pi_hat"] = fit.pi_hat.to_dict()
        report["gamma"] = float(cfg["gamma"])
        report["train_report"] = fit.report.to_dict()
        _write_trace_csv(os.path.join(out, "trace.csv"), fit.report)
        print(
            f"train[drpu]: pi_hat={fit.pi_hat.value:.4f} "
            f"best_epoch={fit.report.best_epoch} hash={chash}"
        )
    else:
        if cfg["prior"] is None:
            raise ConfigError(f"method {method} requires an explicit prior (none given)")
        prior = float(cfg["prior"])
        _validate_prior("prior", prior)
        loss = {"sigmoid": sigmoid_loss, "logistic": logistic_loss}.get(str(cfg["loss"]).lower())
        if loss is None:
            raise ConfigError(f"loss must be sigmoid or logistic, got {cfg['loss']!r}")
        centers = kernel_centers(split, seed, max_centers)
        model = GaussianBasisLinear(centers, bandwidth=float(cfg["bandwidth"]), clamp=False)
        model, trep = train_baseline(method, loss(), prior, model, split, tcfg)
        save_model(model, os.path.join(out, "model.json"))
        report["prior"] = prior
        report["prior_source"] = "user-supplied"
        report["train_report"] = trep.to_dict()
        _write_trace_csv(os.path.join(out, "trace.csv"), trep)
        print(f"train[{method}]: prior={prior} best_epoch={trep.best_epoch} hash={chash}")

    _write_json(os.path.join(out, "report.json"), report)
    return EXIT_OK


def _run_sweep(args, cfg) -> int:
    """Re-invoke this command once per seed as independent processes.

    The effective config (defaults + config file + flags) is written out and
    handed to every child, with only the seed and output directory varying.
    At most ``os.cpu_count()`` children run at a time.
    """
    n = int(args.sweep)
    base_seed = int(cfg["seed"])
    sweep_cfg = f"{cfg['out']}-sweep-config.json"
    os.makedirs(os.path.dirname(sweep_cfg) or ".", exist_ok=True)
    _write_json(sweep_cfg, cfg)
    cmds = [
        [
            sys.executable, "-m", "pushift.cli", args.command,
            "--config", sweep_cfg,
            "--seed", str(seed),
            "--out", f"{cfg['out']}-seed{seed}",
        ]
        for seed in range(base_seed, base_seed + n)
    ]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        codes = list(pool.map(subprocess.call, cmds))
    bad = [c for c in codes if c != 0]
    print(f"sweep: {n - len(bad)}/{n} runs succeeded")
    return max(bad) if bad else EXIT_OK


def cmd_adapt(args) -> int:
    model = load_model(args.model)
    intervals = ThresholdIntervals.load(args.intervals)
    X, labels = load_csv(args.test)
    if labels is not None:
        raise DataError("adapt expects an unlabeled test file (no label column)")
    report = _load_json(args.report) if args.report else None
    if report is not None and not isinstance(report, dict):
        raise DataError(f"{args.report} must be a JSON object")
    if args.pi_hat is not None:
        pi_hat = float(args.pi_hat)
        if not (0.0 <= pi_hat <= 1.0):
            raise ConfigError(f"pi_hat must lie in [0, 1], got {pi_hat}")
    elif report and "pi_hat" in report:
        pi_hat = _estimate_value(report, "pi_hat", args.report)
    else:
        raise ConfigError("adapt needs --pi-hat or --report with a pi_hat field")
    cost = float(args.cost)
    _validate_prior("cost", cost)

    adapted = adapt_threshold(model, intervals, X, pi_hat, cost=cost, gamma=args.gamma)
    doc = {
        "pi_hat": pi_hat,
        "pi_prime": adapted.pi_prime.to_dict(),
        "c0": adapted.c0,
        "theta": adapted.theta,
        "cost": cost,
        "gamma": args.gamma if args.gamma is not None else intervals.gamma,
        "gamma_bar": adapted.pi_prime.gamma_bar,
        "n_test": int(X.shape[0]),
        "inputs": {"model": args.model, "intervals": args.intervals, "test": args.test},
        **_run_identity(report or {}, args.report),
    }
    _write_json(args.out, doc)
    print(
        f"adapt: pi_prime={adapted.pi_prime.value:.4f} c0={adapted.c0:.4f} "
        f"theta={adapted.theta:.4f} -> {args.out}"
    )
    return EXIT_OK


def _number(value, what, lo=-math.inf, hi=math.inf) -> float:
    """``value`` as a float if it is a finite JSON number in [lo, hi]; else a ``DataError`` naming ``what``."""
    try:
        x = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.nan
    if not (math.isfinite(x) and lo <= x <= hi):
        raise DataError(f"{what} must be a finite number in [{lo:g}, {hi:g}], got {value!r}")
    return x


def _estimate_value(doc, key, path) -> float:
    """The ``value`` of the prior estimate document ``doc[key]``, a number in [0, 1]."""
    est = doc[key]
    if not isinstance(est, dict) or "value" not in est:
        raise DataError(f"{path}: {key} must be a JSON object with a value field")
    return _number(est["value"], f"{path}: {key} value", 0.0, 1.0)


def _run_identity(doc, path) -> dict:
    """The ``seed`` (an integer) and ``config_hash`` (a string) that ``doc`` passes on; either may be null."""
    seed, chash = doc.get("seed"), doc.get("config_hash")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise DataError(f"{path}: seed must be an integer or null, got {seed!r}")
    if chash is not None and not isinstance(chash, str):
        raise DataError(f"{path}: config_hash must be a string or null, got {chash!r}")
    return {"seed": seed, "config_hash": chash}


def _load_adapted(path):
    """The ``adapt`` output document and its threshold, which must be finite."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or "theta" not in doc:
        raise DataError(f"{path} must be a JSON object with a theta field")
    return doc, _number(doc["theta"], f"{path}: theta")


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    X, labels = load_csv(args.test)
    if labels is None:
        raise DataError("evaluate needs a labeled test file (last column +1/-1)")
    if args.adapted:
        adapted, theta = _load_adapted(args.adapted)
    elif args.theta is not None:
        adapted = None
        theta = float(args.theta)
        if not np.isfinite(theta):
            raise ConfigError(f"--theta must be finite, got {theta}")
    else:
        raise ConfigError("evaluate needs --adapted or --theta")

    scores = model.predict(X)
    preds = threshold_decisions(scores, theta)
    pos, neg = scores[labels == 1], scores[labels == -1]
    doc = {
        "theta": theta,
        "n_test": int(X.shape[0]),
        "accuracy": accuracy(labels, preds),
        "error_rate": error_rate(labels, preds),
        "auc": auc(pos, neg) if pos.size and neg.size else None,
        # ties count 1/2 in the AUC; flag rows where that convention engaged
        "auc_ties_at_half": bool(pos.size and neg.size and ties_present(pos, neg)),
        "inputs": {"model": args.model, "test": args.test, "adapted": args.adapted},
    }
    if adapted:
        path = args.adapted
        pi_hat, c0 = adapted.get("pi_hat"), adapted.get("c0")
        doc["pi_hat"] = None if pi_hat is None else _number(pi_hat, f"{path}: pi_hat", 0.0, 1.0)
        doc["pi_prime"] = _estimate_value(adapted, "pi_prime", path) if "pi_prime" in adapted else None
        doc["c0"] = None if c0 is None else _number(c0, f"{path}: c0")
        doc.update(_run_identity(adapted, path))
    if X.shape[1] == 1:
        boundary = decision_boundary_1d(model.predict, theta)
        doc["boundary"] = boundary if np.isfinite(boundary) else None  # null: no crossing
    _write_json(args.out, doc)
    if args.append_csv:
        tag = args.tag if args.tag is not None else doc.get("seed", "")
        _append_results_csv(args.append_csv, tag, doc)
    print(f"evaluate: accuracy={doc['accuracy']:.4f} auc={doc['auc']} -> {args.out}")
    return EXIT_OK


def cmd_verify_theory(args) -> int:
    results = run_all(seed=int(args.seed), trials=int(args.trials))
    doc = {"seed": int(args.seed), "trials": int(args.trials), "suites": [r.to_dict() for r in results]}
    all_passed = all(r.passed for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:32s} trials={r.trials} worst_margin={r.worst_margin:+.3e} max_slack={r.max_slack:.3e}")
    if args.out:
        _write_json(args.out, doc)
    return EXIT_OK if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pushift",
        description="PU classification via density ratio estimation with test-time prior-shift adaptation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic Gaussian dataset directory")
    sp.add_argument("--config", help="JSON config document")
    sp.add_argument("--case", type=int, choices=(1, 2))
    sp.add_argument("--seed", type=int)
    sp.add_argument("--n-train-pos", dest="n_train_pos", type=int)
    sp.add_argument("--n-train-unl", dest="n_train_unl", type=int)
    sp.add_argument("--n-val-pos", dest="n_val_pos", type=int)
    sp.add_argument("--n-val-unl", dest="n_val_unl", type=int)
    sp.add_argument("--n-test", dest="n_test", type=int)
    sp.add_argument("--train-prior", dest="train_prior", type=float)
    sp.add_argument("--test-prior", dest="test_prior", type=float)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_synth)

    tp = sub.add_parser("train", help="train DRPU or a PU baseline from a dataset directory")
    tp.add_argument("--config")
    tp.add_argument("--data")
    tp.add_argument("--out")
    tp.add_argument("--seed", type=int)
    tp.add_argument("--method", choices=("drpu", "upu", "nnpu"))
    tp.add_argument("--generator")
    tp.add_argument("--loss", choices=("sigmoid", "logistic"))
    tp.add_argument("--prior", type=float)
    tp.add_argument("--alpha", type=float)
    tp.add_argument("--epochs", type=int)
    tp.add_argument("--batch-size", dest="batch_size", type=int)
    tp.add_argument("--learning-rate", dest="learning_rate", type=float)
    tp.add_argument("--lr-halving-period", dest="lr_halving_period", type=int)
    tp.add_argument("--l2-reg", dest="l2_reg", type=float)
    tp.add_argument("--gamma", type=float)
    tp.add_argument("--bandwidth", type=float)
    tp.add_argument("--max-centers", dest="max_centers", type=int)
    tp.add_argument("--sweep", type=int, help="run N seeds as independent processes")
    tp.set_defaults(func=cmd_train)

    ap = sub.add_parser("adapt", help="estimate the test prior and place the threshold")
    ap.add_argument("--model", required=True)
    ap.add_argument("--intervals", required=True)
    ap.add_argument("--test", required=True, help="unlabeled test CSV")
    ap.add_argument("--cost", type=float, default=0.5)
    ap.add_argument("--gamma", type=float, default=None)
    ap.add_argument("--pi-hat", dest="pi_hat", type=float, default=None)
    ap.add_argument("--report", help="training report JSON carrying pi_hat")
    ap.add_argument("--out", default="adapted.json")
    ap.set_defaults(func=cmd_adapt)

    ep = sub.add_parser("evaluate", help="score a labeled test file with a trained model")
    ep.add_argument("--model", required=True)
    ep.add_argument("--test", required=True, help="labeled test CSV")
    ep.add_argument("--adapted", help="adapt output JSON")
    ep.add_argument("--theta", type=float, help="explicit threshold (baselines use 0)")
    ep.add_argument("--out", default="metrics.json")
    ep.add_argument("--append-csv", dest="append_csv", help="append a plot-ready result row")
    ep.add_argument("--tag", help="row label for --append-csv (defaults to the seed)")
    ep.set_defaults(func=cmd_evaluate)

    vp = sub.add_parser("verify-theory", help="run the randomized bound/identity suites")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--trials", type=int, default=100)
    vp.add_argument("--out")
    vp.set_defaults(func=cmd_verify_theory)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except DegeneratePriorError as exc:
        print(f"degenerate prior estimation: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
