"""Whole-chain fault injection: every field the commands read, one malformed value at a time.

One real ``synth -> train --epochs 2 -> adapt`` run on a tiny dataset gives
the valid documents.  Each test replaces one field with each of
``BAD_VALUES`` and reruns the command that reads it.  Every run must end in
a named exit (0, 2, 3, 4 or 5): never exit 1 and never an uncaught
exception.  A run that exits 0 must have used exactly the value written:
the config that ``manifest.json`` / ``report.json`` echo (an ``out`` or
``data`` path as the directory the run used, since no output holds a path),
and the ``config_hash`` that ``adapted.json`` / ``metrics.json`` carry.
"""

import warnings

import numpy as np
import pytest

from _helpers import RAW_1E400, field_param, read_json, replaced, write_doc
from pushift.cli import SYNTH_FIELDS, TRAIN_FIELDS, main
from pushift.experiments import CASE_DEFAULTS
from pushift.models import mlp, save_model

BAD_VALUES = [None, True, "x", [], {}, 2.5, -1, 1e308, RAW_1E400, [[1]]]

SYNTH_CONFIG = {
    **{name: default for name, (_, default) in SYNTH_FIELDS.items()},
    "seed": 3, "n_train_pos": 30, "n_train_unl": 120, "n_val_pos": 40, "n_val_unl": 120, "n_test": 60,
}
TRAIN_CONFIG = {
    **{name: default for name, (_, default) in TRAIN_FIELDS.items()},
    "seed": 3, "epochs": 2, "batch_size": 40, "learning_rate": 1e-3,
}


def run(capsys, argv) -> int:
    """``main(argv)``; an uncaught exception fails the test with its traceback."""
    code = main(argv)
    assert code in (0, 2, 3, 4, 5), argv
    assert "Traceback" not in capsys.readouterr().err
    return code


def assert_echoed(echoed, value):
    """Equal, and a bool only where a bool was written (1 == True in Python)."""
    assert echoed == value and isinstance(echoed, bool) == isinstance(value, bool), (echoed, value)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Directory of one valid run: ``data/``, ``run/`` (with an MLP ``mlp.json`` that ``save_model`` wrote) and
    ``adapted.json``."""
    root = tmp_path_factory.mktemp("chain")
    cfg = write_doc(root / "synth.json", {**SYNTH_CONFIG, "out": str(root / "data")})
    assert main(["synth", "--config", str(cfg)]) == 0
    cfg = write_doc(root / "train.json", {**TRAIN_CONFIG, "data": str(root / "data"), "out": str(root / "run")})
    assert main(["train", "--config", str(cfg)]) == 0
    run_dir = root / "run"
    save_model(mlp([1, 4, 1], seed=0), run_dir / "mlp.json")
    argv = adapt_argv(root, run_dir / "model.json", run_dir / "intervals.json", run_dir / "report.json", root / "adapted.json")
    assert main(argv) == 0
    return root


def adapt_argv(root, model, intervals, report, out):
    return ["adapt", "--model", str(model), "--intervals", str(intervals),
            "--test", str(root / "data" / "test_unl.csv"), "--report", str(report), "--out", str(out)]


def config_runs(capsys, tmp_path, command, config, field):
    """Run ``command`` once per bad value of ``field``; yield (value, echoed config) of each exit 0."""
    for i, value in enumerate(BAD_VALUES):
        out = value if field == "out" else f"out{i}"
        cfg = write_doc(tmp_path / f"cfg{i}.json", {**config, "out": out, field: value})
        with np.errstate(all="ignore"):
            code = run(capsys, [command, "--config", str(cfg)])
        if code == 0:
            doc = "manifest.json" if command == "synth" else "report.json"
            yield value, read_json(tmp_path / out / doc)["config"]


@pytest.mark.parametrize("field", sorted(SYNTH_FIELDS))
def test_synth_config_field(capsys, tmp_path, monkeypatch, field):
    monkeypatch.chdir(tmp_path)
    for value, echoed in config_runs(capsys, tmp_path, "synth", SYNTH_CONFIG, field):
        if value is None and field in ("train_prior", "test_prior"):
            assert echoed[field] == CASE_DEFAULTS[1][field]
        elif field != "out":
            assert_echoed(echoed[field], value)


@pytest.mark.parametrize("field", sorted(TRAIN_FIELDS))
def test_train_config_field(capsys, tmp_path, monkeypatch, chain, field):
    monkeypatch.chdir(tmp_path)
    config = {**TRAIN_CONFIG, "data": str(chain / "data")}
    for value, echoed in config_runs(capsys, tmp_path, "train", config, field):
        if field not in ("out", "data"):
            assert_echoed(echoed[field], value)


# (document, path) of every field ``adapt`` reads; a path names a field, or an entry of an array or object.
ADAPT_INPUTS = {
    "model.json": [("kind",), ("config_hash",), ("bandwidth",), ("clamp",), ("centers",), ("centers", 0), ("params",),
                   ("params", 0)],
    "intervals.json": [("config_hash",), ("gamma",), ("boundaries",), ("boundaries", 0), ("accept_counts",),
                       ("accept_counts", 0)],
    "report.json": [("pi_hat",), ("pi_hat", "value"), ("config_hash",)],
    # an MLP model.json, in the kernel model's place
    "mlp.json": [("layer_sizes",), ("layer_sizes", 0), ("layer_sizes", 1), ("output",), ("params",), ("params", 0)],
}


@pytest.mark.parametrize(
    "document, path", [field_param(doc, path) for doc, paths in ADAPT_INPUTS.items() for path in paths]
)
def test_adapt_input_field(capsys, tmp_path, chain, document, path):
    """``adapt`` reads the model, the intervals, the report's pi_hat, and the run identity; no value warns
    (an MLP whose products overflow is refused by its scores, in silence)."""
    files = {name: chain / "run" / name for name in ("model.json", "intervals.json", "report.json")}
    valid = read_json(chain / "run" / document)
    slot = "model.json" if document == "mlp.json" else document
    for i, value in enumerate(BAD_VALUES):
        files[slot] = write_doc(tmp_path / f"{i}-{document}", replaced(valid, path, value))
        out = tmp_path / f"adapted{i}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(capsys, adapt_argv(chain, files["model.json"], files["intervals.json"], files["report.json"], out))
        if code == 0 and document == "report.json":
            assert_echoed(read_json(out)[path[0]], value)


@pytest.mark.parametrize(
    "path", [("theta",), ("pi_hat",), ("pi_prime",), ("pi_prime", "value"), ("c0",), ("seed",), ("config_hash",)]
)
def test_evaluate_input_field(capsys, tmp_path, chain, path):
    """``evaluate`` reads the threshold and config_hash of ``adapted.json``.  It neither reads nor copies the
    estimates, which stay in ``adapted.json``, or a ``seed``, which earlier versions wrote beside the hash."""
    valid = read_json(chain / "adapted.json")
    for i, value in enumerate(BAD_VALUES):
        adapted = write_doc(tmp_path / f"adapted{i}.json", replaced(valid, path, value))
        out = tmp_path / f"metrics{i}.json"
        code = run(capsys, ["evaluate", "--model", str(chain / "run" / "model.json"), "--adapted", str(adapted),
                            "--test", str(chain / "data" / "eval_test.csv"), "--out", str(out)])
        if path[0] in ("theta", "config_hash"):
            if code == 0:
                assert_echoed(read_json(out)[path[0]], value)
        else:
            assert code == 0 and path[0] not in read_json(out)
