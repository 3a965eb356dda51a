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
import os
import sys
from functools import partial

import numpy as np

from .baselines import logistic_loss, sigmoid_loss, train_baseline
from .classifier import threshold_decisions
from .data import SplitDataset, load_csv, load_pu_dataset, save_csv
from .errors import (
    ConfigError, DataError, DegeneratePriorError, TrainingDiverged, json_int, json_number, json_object, json_str,
    read_json, write_json,
)
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

# One table per config-driven command: field -> (type, default).  The flags,
# the config-document check and the typed config all come from it.  ``int``
# is a JSON integer >= 0, ``float`` a finite JSON number (stored as a float),
# ``str`` a JSON string; null is allowed only where the default is None.
SYNTH_FIELDS = {
    "case": (int, 1),
    "seed": (int, 0),
    "n_train_pos": (int, 200),
    "n_train_unl": (int, 1000),
    "n_val_pos": (int, 100),
    "n_val_unl": (int, 500),
    "n_test": (int, 1000),
    "train_prior": (float, None),  # case default when null
    "test_prior": (float, None),
    "out": (str, "data"),
}

TRAIN_FIELDS = {
    "seed": (int, TrainConfig.seed),
    "data": (str, "data"),
    "out": (str, "run"),
    "method": (str, "drpu"),
    "generator": (str, "lsif"),
    "loss": (str, "sigmoid"),
    "prior": (float, None),  # baselines only
    "alpha": (float, TrainConfig.alpha),
    "epochs": (int, TrainConfig.epochs),
    "batch_size": (int, TrainConfig.batch_size),
    "learning_rate": (float, TrainConfig.learning_rate),
    "l2_reg": (float, TrainConfig.l2_reg),
    "gamma": (float, 0.9),  # 0.5 leaves no admissible threshold at the default 100 validation positives
    "bandwidth": (float, 1.0),
    "max_centers": (int, None),
}

READERS = {int: json_int, float: json_number, str: json_str}

LOSSES = {"sigmoid": sigmoid_loss, "logistic": logistic_loss}


def _config_hash(cfg: dict) -> str:
    """Hash of the run parameters; filesystem paths are not identity."""
    semantic = {k: v for k, v in cfg.items() if k not in ("out", "data")}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _add_fields(parser, fields: dict) -> None:
    parser.add_argument("--config", help="JSON config document")
    for name, (kind, _) in fields.items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=kind)


def _effective_config(fields: dict, args) -> dict:
    """Table defaults < config file < command-line flags, each value read as its field's type."""
    cfg = {name: default for name, (_, default) in fields.items()}
    if args.config:
        doc = json_object(read_json(args.config), f"config {args.config}", error=ConfigError)
        unknown = set(doc) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg.update(doc)
    cfg.update((name, getattr(args, name)) for name in fields if getattr(args, name) is not None)
    return {name: _read_field(fields[name], name, value) for name, value in cfg.items()}


def _read_field(field, name, value):
    kind, default = field
    if value is None and default is None:
        return None
    return READERS[kind](value, name, error=ConfigError)


def _check_out_dir(path) -> None:
    """Refuse an output path whose directory does not exist before any work (exit 2, as a failed write)."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write output: {parent} is not a directory ({path})")


def _validate_prior(name, value):
    if not (0.0 < value < 1.0):
        raise ConfigError(f"{name} must lie in (0, 1), got {value}")


def cmd_synth(args) -> int:
    cfg = _effective_config(SYNTH_FIELDS, args)
    case, seed = cfg["case"], cfg["seed"]
    if case not in CASE_DEFAULTS:
        raise ConfigError(f"case must be 1 or 2, got {case}")
    for name in ("train_prior", "test_prior"):
        if cfg[name] is None:
            cfg[name] = CASE_DEFAULTS[case][name]
        _validate_prior(name, cfg[name])
    n_train = (cfg["n_train_pos"], cfg["n_train_unl"])
    n_val = (cfg["n_val_pos"], cfg["n_val_unl"])
    split, te = case_data(case, seed, n_train, n_val, cfg["n_test"], cfg["train_prior"], cfg["test_prior"])
    tr, va = split.train, split.val

    files = {
        "train_pos.csv": (tr.positives, None),
        "train_unl.csv": (tr.unlabeled, None),
        "val_pos.csv": (va.positives, None),
        "val_unl.csv": (va.unlabeled, None),
        "test_unl.csv": (te.unlabeled, None),
        "eval_test.csv": (te.unlabeled, te.hidden_labels),  # labeled copy of the test set, for evaluation only
    }
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    for name, (X, labels) in files.items():
        save_csv(os.path.join(out, name), X, labels=labels)
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
        "files": list(files),
    }
    write_json(os.path.join(out, "manifest.json"), manifest, indent=1)
    print(f"synth: wrote {out}/ (case {case}, seed {seed}, hash {manifest['config_hash']})")
    return EXIT_OK


def _write_trace_csv(path, report) -> None:
    """Per-epoch curves (objective vs epoch), ready for external plotting."""
    with open(path, "w") as fh:
        fh.write("epoch,train_objective,val_objective,corrected_fraction\n")
        rows = zip(report.train_objective, report.val_objective, report.corrected_fraction)
        for epoch, (tr, va, cf) in enumerate(rows):
            fh.write(f"{epoch},{tr!r},{va!r},{cf!r}\n")


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
    cfg = _effective_config(TRAIN_FIELDS, args)
    seed, method = cfg["seed"], cfg["method"]
    if method not in ("drpu", "upu", "nnpu"):
        raise ConfigError(f"method must be drpu, upu, or nnpu, got {method!r}")
    loss = LOSSES.get(cfg["loss"])
    if loss is None:
        raise ConfigError(f"loss must be sigmoid or logistic, got {cfg['loss']!r}")
    prior = cfg["prior"]
    if prior is not None:
        _validate_prior("prior", prior)
    elif method != "drpu":
        raise ConfigError(f"method {method} requires an explicit prior (none given)")
    split = _load_split(cfg["data"])
    tcfg = TrainConfig(**{k: cfg[k] for k in ("alpha", "epochs", "batch_size", "learning_rate", "l2_reg", "seed")})
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    chash = _config_hash(cfg)
    report = {"config": cfg, "config_hash": chash, "seed": seed, "method": method}

    if method == "drpu":
        gen = generator_by_name(cfg["generator"])
        fit = fit_drpu(split, tcfg, gen=gen, gamma=cfg["gamma"], max_centers=cfg["max_centers"], bandwidth=cfg["bandwidth"])
        model, trep = fit.model, fit.report
        fit.intervals.save(os.path.join(out, "intervals.json"))
        report.update(pi_hat=fit.pi_hat.to_dict(), gamma=cfg["gamma"])
        summary = f"pi_hat={fit.pi_hat.value:.4f}"
    else:
        centers = kernel_centers(split, seed, cfg["max_centers"])
        model = GaussianBasisLinear(centers, bandwidth=cfg["bandwidth"], clamp=False)
        model, trep = train_baseline(method, loss(), prior, model, split, tcfg)
        report.update(prior=prior, prior_source="user-supplied")
        summary = f"prior={prior}"

    save_model(model, os.path.join(out, "model.json"))
    report["train_report"] = trep.to_dict()
    _write_trace_csv(os.path.join(out, "trace.csv"), trep)
    write_json(os.path.join(out, "report.json"), report, indent=1)
    print(f"train[{method}]: {summary} best_epoch={trep.best_epoch} hash={chash}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    _check_out_dir(args.out)
    model = load_model(args.model)
    intervals = ThresholdIntervals.load(args.intervals)
    X, labels = load_csv(args.test)
    if labels is not None:
        raise DataError("adapt expects an unlabeled test file (no label column)")
    report = json_object(read_json(args.report), args.report) if args.report else None
    if args.pi_hat is not None:
        pi_hat = args.pi_hat
        if not (0.0 <= pi_hat <= 1.0):
            raise ConfigError(f"pi_hat must lie in [0, 1], got {pi_hat}")
    elif report and "pi_hat" in report:
        pi_hat = _estimate_value(report, "pi_hat", args.report)
    else:
        raise ConfigError("adapt needs --pi-hat or --report with a pi_hat field")
    cost = args.cost
    _validate_prior("cost", cost)

    adapted = adapt_threshold(model, intervals, X, pi_hat, cost=cost)
    doc = {
        "pi_hat": pi_hat,
        "pi_prime": adapted.pi_prime.to_dict(),
        "c0": adapted.c0,
        "theta": adapted.theta,
        "cost": cost,
        "gamma": intervals.gamma,
        "gamma_bar": adapted.pi_prime.gamma_bar,
        "n_test": X.shape[0],
        "inputs": {"model": args.model, "intervals": args.intervals, "test": args.test},
        **_run_identity(report or {}, args.report),
    }
    write_json(args.out, doc, indent=1)
    print(
        f"adapt: pi_prime={adapted.pi_prime.value:.4f} c0={adapted.c0:.4f} "
        f"theta={adapted.theta:.4f} -> {args.out}"
    )
    return EXIT_OK


def _estimate_value(doc, key, path) -> float:
    """The ``value`` of the prior estimate document ``doc[key]``, a number in [0, 1]."""
    est = json_object(doc[key], f"{path}: {key}")
    return json_number(est.get("value"), f"{path}: {key} value", 0.0, 1.0)


def _run_identity(doc, path) -> dict:
    """The ``seed`` (an integer) and ``config_hash`` (a string) that ``doc`` passes on; either may be null."""
    seed, chash = doc.get("seed"), doc.get("config_hash")
    return {
        "seed": None if seed is None else json_int(seed, f"{path}: seed"),
        "config_hash": None if chash is None else json_str(chash, f"{path}: config_hash"),
    }


def _load_adapted(path):
    """The ``adapt`` output document and its threshold, which must be finite."""
    doc = json_object(read_json(path), path)
    return doc, json_number(doc.get("theta"), f"{path}: theta")


def cmd_evaluate(args) -> int:
    _check_out_dir(args.out)
    model = load_model(args.model)
    X, labels = load_csv(args.test)
    if labels is None:
        raise DataError("evaluate needs a labeled test file (last column +1/-1)")
    if args.adapted:
        adapted, theta = _load_adapted(args.adapted)
    elif args.theta is not None:
        adapted = None
        theta = args.theta
        if not np.isfinite(theta):
            raise ConfigError(f"--theta must be finite, got {theta}")
    else:
        raise ConfigError("evaluate needs --adapted or --theta")

    scores = model.predict(X)
    preds = threshold_decisions(scores, theta)
    pos, neg = scores[labels == 1], scores[labels == -1]
    doc = {
        "theta": theta,
        "n_test": X.shape[0],
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
        doc["pi_hat"] = None if pi_hat is None else json_number(pi_hat, f"{path}: pi_hat", 0.0, 1.0)
        doc["pi_prime"] = _estimate_value(adapted, "pi_prime", path) if "pi_prime" in adapted else None
        doc["c0"] = None if c0 is None else json_number(c0, f"{path}: c0")
        doc.update(_run_identity(adapted, path))
    if X.shape[1] == 1:
        boundary = decision_boundary_1d(model.predict, theta)
        doc["boundary"] = boundary if np.isfinite(boundary) else None  # null: no crossing
    write_json(args.out, doc, indent=1)
    print(f"evaluate: accuracy={doc['accuracy']:.4f} auc={doc['auc']} -> {args.out}")
    return EXIT_OK


def cmd_verify_theory(args) -> int:
    if args.out:
        _check_out_dir(args.out)
    results = run_all(seed=json_int(args.seed, "seed", error=ConfigError), trials=args.trials)
    doc = {"seed": args.seed, "trials": args.trials, "suites": [r.to_dict() for r in results]}
    all_passed = all(r.passed for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:32s} trials={r.trials} worst_margin={r.worst_margin:+.3e} max_slack={r.max_slack:.3e}")
    if args.out:
        write_json(args.out, doc, indent=1)
    return EXIT_OK if all_passed else 1


def _adapt_arguments(ap) -> None:
    ap.add_argument("--model", required=True)
    ap.add_argument("--intervals", required=True)
    ap.add_argument("--test", required=True, help="unlabeled test CSV")
    ap.add_argument("--cost", type=float, default=0.5)
    ap.add_argument("--pi-hat", dest="pi_hat", type=float, default=None)
    ap.add_argument("--report", help="training report JSON carrying pi_hat")
    ap.add_argument("--out", default="adapted.json")


def _evaluate_arguments(ep) -> None:
    ep.add_argument("--model", required=True)
    ep.add_argument("--test", required=True, help="labeled test CSV")
    ep.add_argument("--adapted", help="adapt output JSON")
    ep.add_argument("--theta", type=float, help="explicit threshold (baselines use 0)")
    ep.add_argument("--out", default="metrics.json")


def _verify_theory_arguments(vp) -> None:
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--trials", type=int, default=100)
    vp.add_argument("--out")


# Subcommand -> (help, handler, the function that adds its arguments).
COMMANDS = {
    "synth": ("generate a synthetic Gaussian dataset directory", cmd_synth, partial(_add_fields, fields=SYNTH_FIELDS)),
    "train": (
        "train DRPU or a PU baseline from a dataset directory", cmd_train, partial(_add_fields, fields=TRAIN_FIELDS)
    ),
    "adapt": ("estimate the test prior and place the threshold", cmd_adapt, _adapt_arguments),
    "evaluate": ("score a labeled test file with a trained model", cmd_evaluate, _evaluate_arguments),
    "verify-theory": ("run the randomized bound/identity suites", cmd_verify_theory, _verify_theory_arguments),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """Every subcommand with its help; only ``command``'s parser gets its arguments."""
    p = argparse.ArgumentParser(
        prog="pushift",
        description="PU classification via density ratio estimation with test-time prior-shift adaptation",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, func, add_arguments) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        if name == command:
            add_arguments(sp)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no option that takes a value, so the first non-option word names the command.
    command = next((word for word in argv if not word.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
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
        print(exc, file=sys.stderr)  # the message starts with "degenerate prior estimation"
        return EXIT_DEGENERATE
    except OSError as exc:  # reads raise DataError, so this is an output path
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
