"""Experiment command line: synth, train, adapt, evaluate.

Every run is described by a JSON config document; command-line flags
override config fields (flag > config > default).  Every output JSON
carries the run identity ``config_hash``: a hash of the ``config`` that
``manifest.json`` and ``report.json`` write (which holds no path) and, for
``train``, of the four training arrays it read.  No output holds a path, so
reruns with one hash write byte-identical files in any directory at a
fixed BLAS thread count.  ``adapt`` and ``evaluate``
refuse inputs whose identities differ (exit 3); for both, one helper
(``_score_test``) reads the model, checks the identity and scores the test rows.
``train`` refuses a setting that needs no data before it reads a CSV, and
checks the split (``trainer.check_split``) and builds its model before it
creates ``--out``.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric divergence,
5 degenerate prior estimation.

``adapt`` deliberately accepts only the model file, the intervals file, the
training report (the one source of pi_hat) and the test-time unlabeled
data: threshold adaptation never touches training data, which is the point
of shipping the interval summary.
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
from .data import PUDataset, SplitDataset, load_csv, save_csv
from .errors import (
    ConfigError, DataError, DegeneratePriorError, TrainingDiverged, json_int, json_number, json_object, json_str,
    read_json, write_json,
)
from .experiments import CASE_DEFAULTS, adapt_to_scores, case_data, decision_boundary_1d, fit_drpu, kernel_centers
from .generators import generator_by_name
from .metrics import accuracy, auc, ties_present
from .models import GaussianBasisLinear, model_from_dict
from .prior import GAMMA, ThresholdIntervals
from .trainer import TrainConfig, check_split

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
    "gamma": (float, GAMMA),
    "bandwidth": (float, 1.0),
    "max_centers": (int, None),
}

# Fields a method does not read: set away from the default, each would give one model another config hash.
UNREAD_FIELDS = {"drpu": ("loss", "prior"), "upu": ("generator", "alpha", "gamma"), "nnpu": ("generator", "alpha", "gamma")}

READERS = {int: json_int, float: json_number, str: json_str}

LOSSES = {"sigmoid": sigmoid_loss, "logistic": logistic_loss}


def _config_hash(config: dict, arrays=()) -> str:
    """The run identity: a hash of the ``config`` a run writes, which holds no path, and of each array it read
    (shape and float64 values)."""
    digest = hashlib.sha256(json.dumps(config, sort_keys=True, separators=(",", ":")).encode())
    for x in arrays:
        digest.update(f"{x.shape}".encode() + np.ascontiguousarray(x, dtype="<f8").tobytes())
    return digest.hexdigest()[:12]


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
    x = READERS[kind](value, name, error=ConfigError)
    return x + 0.0 if kind is float else x  # -0.0 becomes 0.0: one config, one hash


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
    out, case, seed = cfg.pop("out"), cfg["case"], cfg["seed"]
    if case not in CASE_DEFAULTS:
        raise ConfigError(f"case must be 1 or 2, got {case}")
    for name in ("train_prior", "test_prior"):
        if cfg[name] is None:
            cfg[name] = CASE_DEFAULTS[case][name]
        _validate_prior(name, cfg[name])
    for name in ("n_train_pos", "n_train_unl", "n_val_pos", "n_val_unl", "n_test"):
        if cfg[name] < 1:
            raise ConfigError(f"{name} must be a positive integer, got {cfg[name]}")
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
    os.makedirs(out, exist_ok=True)
    for name, (X, labels) in files.items():
        save_csv(os.path.join(out, name), X, labels=labels)
    manifest = {"config": cfg, "config_hash": _config_hash(cfg), "dim": tr.dim, "files": list(files)}
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
    """The four feature files of a dataset directory; files of different widths raise DataError naming each."""
    paths = [os.path.join(data_dir, name) for name in ("train_pos.csv", "train_unl.csv", "val_pos.csv", "val_unl.csv")]
    X = [load_csv(path, labeled=False)[0] for path in paths]
    if len({x.shape[1] for x in X}) > 1:
        widths = ", ".join(f"{path} has width {x.shape[1]}" for path, x in zip(paths, X))
        raise DataError(f"feature files differ in width: {widths}")
    return SplitDataset(train=PUDataset(*X[:2]), val=PUDataset(*X[2:]))


def cmd_train(args) -> int:
    cfg = _effective_config(TRAIN_FIELDS, args)
    data, out, seed, method = cfg.pop("data"), cfg.pop("out"), cfg["seed"], cfg["method"]
    if method not in UNREAD_FIELDS:
        raise ConfigError(f"method must be drpu, upu, or nnpu, got {method!r}")
    for name in UNREAD_FIELDS[method]:
        if cfg[name] != TRAIN_FIELDS[name][1]:
            raise ConfigError(f"method {method} does not read {name}, got {cfg[name]!r}")
    loss = LOSSES.get(cfg["loss"])
    if loss is None:
        raise ConfigError(f"loss must be sigmoid or logistic, got {cfg['loss']!r}")
    prior = cfg["prior"]
    if method != "drpu" and not (prior is not None and 0.0 < prior < 1.0):
        raise ConfigError(f"method {method} needs a prior in (0, 1), got {prior}")
    tcfg = TrainConfig(**{k: cfg[k] for k in ("alpha", "epochs", "batch_size", "learning_rate", "l2_reg", "seed")})
    gen = generator_by_name(cfg["generator"])
    split = _load_split(data)
    check_split(split, tcfg, cfg["gamma"] if method == "drpu" else None)
    centers = kernel_centers(split, seed, cfg["max_centers"])
    model = GaussianBasisLinear(centers, bandwidth=cfg["bandwidth"], clamp=method == "drpu")
    os.makedirs(out, exist_ok=True)
    arrays = (split.train.positives, split.train.unlabeled, split.val.positives, split.val.unlabeled)
    identity = {"config_hash": _config_hash(cfg, arrays)}
    report = {"config": cfg, **identity}

    if method == "drpu":
        fit = fit_drpu(split, tcfg, gen=gen, gamma=cfg["gamma"], model=model)
        trep = fit.report
        write_json(os.path.join(out, "intervals.json"), {**fit.intervals.to_dict(), **identity})
        report["pi_hat"] = fit.pi_hat.to_dict()
        summary = f"pi_hat={fit.pi_hat.value:.4f}"
    else:
        model, trep = train_baseline(method, loss(), prior, model, split, tcfg)
        summary = f"prior={prior}"

    write_json(os.path.join(out, "model.json"), {**model.to_dict(), **identity})
    report["best_epoch"] = trep.best_epoch
    _write_trace_csv(os.path.join(out, "trace.csv"), trep)
    write_json(os.path.join(out, "report.json"), report, indent=1)
    print(f"train[{method}]: {summary} best_epoch={trep.best_epoch} hash={identity['config_hash']}")
    return EXIT_OK


def _score_test(args, *sources, labeled=False):
    """The test site: read ``--model``, check that it and the ``(path, document)`` sources agree on one
    ``config_hash`` (a document without one, as ``save_model`` and ``ThresholdIntervals.save`` write, has no
    identity; a stale ``seed`` beside it is ignored), load ``--test`` and score it; a NaN or infinite score, as an
    overflowing model gives, raises DataError naming the model.  Returns ``(model, scores, labels, config_hash)``.
    """
    model_doc = read_json(args.model)
    model = model_from_dict(model_doc)
    found = {}
    for path, doc in ((args.model, model_doc), *sources):
        if "config_hash" in doc:
            chash = doc["config_hash"]
            found.setdefault(None if chash is None else json_str(chash, f"{path}: config_hash"), path)
    if len(found) > 1:
        runs = ", ".join(f"{path} has config_hash {chash}" for chash, path in found.items())
        raise DataError(f"inputs come from different runs: {runs}")
    X, labels = load_csv(args.test, labeled=labeled)
    scores = model.predict(X)
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise DataError(f"{args.model}: the model scores {bad} of {scores.size} test rows as NaN or infinite")
    return model, scores, labels, next(iter(found), None)


def cmd_adapt(args) -> int:
    _check_out_dir(args.out)
    _validate_prior("cost", args.cost)
    intervals_doc = read_json(args.intervals)
    intervals = ThresholdIntervals.from_dict(intervals_doc)
    report = json_object(read_json(args.report), args.report)
    if "pi_hat" not in report:
        raise ConfigError(f"{args.report} has no pi_hat field: adapt needs the report of a drpu training run")
    estimate = json_object(report["pi_hat"], f"{args.report}: pi_hat")
    pi_hat = json_number(estimate.get("value"), f"{args.report}: pi_hat value", 0.0, 1.0)
    _, scores, _, config_hash = _score_test(args, (args.intervals, intervals_doc), (args.report, report))

    adapted = adapt_to_scores(intervals, scores, pi_hat, cost=args.cost)
    doc = {
        "pi_hat": pi_hat,
        "pi_prime": adapted.pi_prime.to_dict(),
        "c0": adapted.c0,
        "theta": adapted.theta,
        "cost": args.cost,
        "config_hash": config_hash,
    }
    write_json(args.out, doc, indent=1)
    print(f"adapt: pi_prime={adapted.pi_prime.value:.4f} c0={adapted.c0:.4f} theta={adapted.theta:.4f} -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _check_out_dir(args.out)
    if (args.adapted is None) == (args.theta is None):
        raise ConfigError("evaluate takes exactly one of --adapted and --theta")
    if args.theta is not None and not np.isfinite(args.theta):
        raise ConfigError(f"--theta must be finite, got {args.theta}")
    sources, theta = [], args.theta
    if args.adapted is not None:
        adapted = json_object(read_json(args.adapted), args.adapted)
        theta = json_number(adapted.get("theta"), f"{args.adapted}: theta")
        sources.append((args.adapted, adapted))
    model, scores, labels, config_hash = _score_test(args, *sources, labeled=True)

    preds = threshold_decisions(scores, theta)
    pos, neg = scores[labels == 1], scores[labels == -1]
    doc = {
        "theta": theta,
        "n_test": scores.size,
        "accuracy": accuracy(labels, preds),
        "auc": auc(pos, neg) if pos.size and neg.size else None,
        # ties count 1/2 in the AUC; flag rows where that convention engaged
        "auc_ties_at_half": bool(pos.size and neg.size and ties_present(pos, neg)),
        "config_hash": config_hash,
    }
    if model.dim_in == 1:
        boundary = decision_boundary_1d(model.predict, theta)
        doc["boundary"] = boundary if np.isfinite(boundary) else None  # null: no crossing
    write_json(args.out, doc, indent=1)
    print(f"evaluate: accuracy={doc['accuracy']:.4f} auc={doc['auc']} -> {args.out}")
    return EXIT_OK


def _adapt_arguments(ap) -> None:
    ap.add_argument("--model", required=True)
    ap.add_argument("--intervals", required=True)
    ap.add_argument("--test", required=True, help="unlabeled test CSV")
    ap.add_argument("--cost", type=float, default=0.5)
    ap.add_argument("--report", required=True, help="drpu training report JSON: supplies pi_hat")
    ap.add_argument("--out", default="adapted.json")


def _evaluate_arguments(ep) -> None:
    ep.add_argument("--model", required=True)
    ep.add_argument("--test", required=True, help="labeled test CSV, labels +1 or -1 in the last column")
    ep.add_argument("--adapted", help="adapt output JSON; give it or --theta, not both")
    ep.add_argument("--theta", type=float, help="explicit threshold instead of --adapted (baselines use 0)")
    ep.add_argument("--out", default="metrics.json")


# Subcommand -> (help, handler, the function that adds its arguments).
COMMANDS = {
    "synth": ("generate a synthetic Gaussian dataset directory", cmd_synth, partial(_add_fields, fields=SYNTH_FIELDS)),
    "train": (
        "train DRPU or a PU baseline from a dataset directory", cmd_train, partial(_add_fields, fields=TRAIN_FIELDS)
    ),
    "adapt": ("estimate the test prior and place the threshold", cmd_adapt, _adapt_arguments),
    "evaluate": ("score a labeled test file with a trained model", cmd_evaluate, _evaluate_arguments),
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
