import json
import warnings

import numpy as np
import pytest

from _helpers import RAW_1E400, read_json, replaced, write_doc
from pushift import experiments
from pushift.cli import COMMANDS, build_parser, main
from pushift.models import mlp, save_model
from pushift.prior import build_intervals


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "d"
    code = main([
        "synth", "--case", "1", "--seed", "5", "--out", str(out),
        "--n-train-pos", "80", "--n-train-unl", "400",
        "--n-val-pos", "100", "--n-val-unl", "400", "--n-test", "400",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_run(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "r"
    code = main([
        "train", "--data", str(dataset_dir), "--out", str(out),
        "--seed", "5", "--gamma", "0.9", "--epochs", "40",
        "--batch-size", "80", "--learning-rate", "5e-4",
    ])
    assert code == 0
    return out


class TestSynth:
    def test_deterministic_files(self, tmp_path):
        args = ["synth", "--case", "1", "--seed", "7", "--n-train-pos", "30",
                "--n-train-unl", "100", "--n-val-pos", "20", "--n-val-unl", "60",
                "--n-test", "50"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("train_pos.csv", "train_unl.csv", "val_pos.csv", "val_unl.csv",
                     "test_unl.csv", "eval_test.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        ma = read_json(tmp_path / "a" / "manifest.json")
        mb = read_json(tmp_path / "b" / "manifest.json")
        assert ma["config_hash"] == mb["config_hash"]

    def test_case_defaults_match_reference_counts(self, tmp_path):
        assert main(["synth", "--case", "1", "--seed", "0", "--out", str(tmp_path / "c")]) == 0
        m = read_json(tmp_path / "c" / "manifest.json")
        assert m["counts"] == {
            "train_pos": 200, "train_unl": 1000, "val_pos": 100, "val_unl": 500, "test": 1000,
        }
        assert m["config"]["train_prior"] == 0.4
        assert m["config"]["test_prior"] == 0.6

    def test_training_files_carry_no_labels(self, dataset_dir):
        for name in ("train_unl.csv", "val_unl.csv", "test_unl.csv"):
            with open(dataset_dir / name) as fh:
                first = fh.readline().strip().split(",")
            assert len(first) == 1  # one feature column, no label

    def test_invalid_prior_exit_code(self, tmp_path):
        assert main(["synth", "--train-prior", "1.5", "--out", str(tmp_path / "x")]) == 2

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cases": 1}')
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "y")]) == 2

    @pytest.mark.parametrize("doc", [{"n_test": None}, {"n_test": RAW_1E400}, {"case": True}, {"seed": "3"}])
    def test_mistyped_config_field_named(self, tmp_path, capsys, doc):
        cfg = write_doc(tmp_path / "cfg.json", doc)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "y")]) == 2
        assert f"{next(iter(doc))} must be" in capsys.readouterr().err
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "verify-theory"])
    def test_negative_seed_named(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--seed", "-1"]) == 2
        assert "seed must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_non_object_config_rejected(self, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("5")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "y")]) == 2


class TestTrain:
    def test_report_contents(self, trained_run):
        report = read_json(trained_run / "report.json")
        assert report["method"] == "drpu"
        assert 0.0 <= report["pi_hat"]["value"] <= 1.0
        assert len(report["train_report"]["val_objective"]) == 40
        assert report["seed"] == 5 and report["config_hash"]
        assert (trained_run / "model.json").exists()
        assert (trained_run / "intervals.json").exists()

    def test_trace_csv_written(self, trained_run):
        lines = (trained_run / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_objective,val_objective,corrected_fraction"
        assert len(lines) == 41  # header + one row per epoch

    def test_rerun_with_same_hash_reproduces_numeric_fields(self, dataset_dir, tmp_path):
        args = [
            "train", "--data", str(dataset_dir), "--seed", "11", "--gamma", "0.9",
            "--epochs", "6", "--batch-size", "80", "--learning-rate", "5e-4",
        ]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        a = read_json(tmp_path / "r1" / "report.json")
        b = read_json(tmp_path / "r2" / "report.json")
        assert a["config_hash"] == b["config_hash"]
        assert a["pi_hat"] == b["pi_hat"]
        assert a["train_report"] == b["train_report"]
        assert (tmp_path / "r1" / "model.json").read_bytes() == (tmp_path / "r2" / "model.json").read_bytes()
        assert (tmp_path / "r1" / "intervals.json").read_bytes() == (tmp_path / "r2" / "intervals.json").read_bytes()

    def test_missing_data_dir_exit_code(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 3

    def test_divergence_exit_code(self, dataset_dir, tmp_path):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([
                "train", "--data", str(dataset_dir), "--out", str(tmp_path / "dv"), "--gamma", "0.9",
                "--epochs", "3", "--batch-size", "80", "--learning-rate", "1e200",
            ])
        assert code == 4

    @pytest.mark.parametrize("flag", [["--generator", "quadratic:1e308"], ["--l2-reg", "1e308"]])
    def test_overflowed_optimiser_state_exit_code(self, capsys, dataset_dir, tmp_path, flag):
        """The squared gradient overflows and freezes finite parameters: exit 4, no model, no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "r"), "--gamma", "0.9",
                         "--epochs", "2", *flag])
        assert code == 4
        assert "non-finite optimiser state at epoch 0" in capsys.readouterr().err
        assert not (tmp_path / "r" / "model.json").exists()

    def test_degenerate_prior_fails_before_training(self, tmp_path, monkeypatch):
        """Default sizes with gamma 0.5 leave no admissible threshold: exit 5 with no training run."""
        data = tmp_path / "defaults"
        assert main(["synth", "--out", str(data)]) == 0

        def no_training(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(experiments, "train", no_training)
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "r"), "--gamma", "0.5"]) == 5
        assert not (tmp_path / "r" / "model.json").exists()

    def test_default_flags_form_a_working_pipeline(self, tmp_path):
        data = tmp_path / "defaults"
        assert main(["synth", "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "r"), "--epochs", "2"]) == 0
        assert (tmp_path / "r" / "model.json").exists()
        assert (tmp_path / "r" / "intervals.json").exists()

    def test_baseline_honours_max_centers(self, tmp_path):
        """An nnPU model takes the 50 centers that DRPU picks for the same seed."""
        data = tmp_path / "d"
        assert main(["synth", "--case", "1", "--seed", "7", "--out", str(data)]) == 0
        centers = {}
        for method in ("drpu", "nnpu"):
            out = tmp_path / method
            assert main([
                "train", "--data", str(data), "--out", str(out), "--seed", "7", "--method", method,
                "--prior", "0.4", "--max-centers", "50", "--epochs", "2",
            ]) == 0
            centers[method] = read_json(out / "model.json")["centers"]
        assert len(centers["nnpu"]) == 50
        assert centers["nnpu"] == centers["drpu"]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--learning-rate", "nan"),
            ("--learning-rate", "inf"),
            ("--l2-reg", "nan"),
            ("--bandwidth", "inf"),
            ("--generator", "quadratic:inf"),
            ("--prior", "inf"),
            ("--prior", "nan"),
        ],
    )
    def test_non_finite_training_setting_is_config_error(self, dataset_dir, tmp_path, flag, value):
        code = main([
            "train", "--data", str(dataset_dir), "--out", str(tmp_path / "nf"), "--gamma", "0.9",
            "--epochs", "2", "--batch-size", "80", flag, value,
        ])
        assert code == 2
        assert not (tmp_path / "nf" / "model.json").exists()

    @pytest.mark.parametrize("method", ["drpu", "nnpu"])
    @pytest.mark.parametrize("max_centers", ["-3", "0"])
    def test_max_centers_below_one_named(self, dataset_dir, tmp_path, capsys, method, max_centers):
        code = main([
            "train", "--data", str(dataset_dir), "--out", str(tmp_path / "mc"), "--gamma", "0.9",
            "--method", method, "--prior", "0.4", "--max-centers", max_centers, "--epochs", "2",
        ])
        assert code == 2
        assert "max_centers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {"epochs": None}, {"epochs": [2]}, {"epochs": RAW_1E400}, {"epochs": True},
            {"max_centers": RAW_1E400}, {"alpha": None}, {"seed": 1.5}, {"gamma": "0.9"},
        ],
    )
    def test_mistyped_config_field_named(self, dataset_dir, tmp_path, capsys, doc):
        """A value of the wrong JSON type is refused before training; a cast would train seed 1.5 as seed 1."""
        cfg = write_doc(tmp_path / "cfg.json", {"epochs": 2, **doc})
        code = main(["train", "--config", str(cfg), "--data", str(dataset_dir), "--out", str(tmp_path / "t")])
        assert code == 2
        assert f"{next(iter(doc))} must be" in capsys.readouterr().err
        assert not (tmp_path / "t" / "model.json").exists()

    def test_config_integer_hashes_like_the_flag(self, dataset_dir, tmp_path):
        """A JSON integer in a float field is read as that float: {"alpha": 0} and --alpha 0 are one run."""
        cfg = write_doc(tmp_path / "cfg.json", {"alpha": 0, "epochs": 0})
        base = ["train", "--data", str(dataset_dir), "--gamma", "0.9"]
        assert main(base + ["--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--alpha", "0", "--epochs", "0", "--out", str(tmp_path / "b")]) == 0
        a, b = (read_json(tmp_path / run / "report.json") for run in "ab")
        assert a["config_hash"] == b["config_hash"]
        assert a["config"]["alpha"] == 0.0 and isinstance(a["config"]["alpha"], float)

    def test_baseline_requires_prior(self, dataset_dir, tmp_path):
        assert main([
            "train", "--data", str(dataset_dir), "--out", str(tmp_path / "b0"),
            "--method", "nnpu", "--epochs", "2", "--batch-size", "80",
        ]) == 2

    def test_baseline_trains_with_prior(self, dataset_dir, tmp_path):
        out = tmp_path / "b1"
        code = main([
            "train", "--data", str(dataset_dir), "--out", str(out),
            "--method", "upu", "--loss", "logistic", "--prior", "0.4",
            "--epochs", "5", "--batch-size", "80", "--learning-rate", "1e-3",
        ])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["prior_source"] == "user-supplied"


class TestAdapt:
    def test_adapt_and_evaluate(self, dataset_dir, trained_run, tmp_path):
        adapted = tmp_path / "adapted.json"
        code = main([
            "adapt", "--model", str(trained_run / "model.json"),
            "--intervals", str(trained_run / "intervals.json"),
            "--test", str(dataset_dir / "test_unl.csv"),
            "--report", str(trained_run / "report.json"),
            "--out", str(adapted),
        ])
        assert code == 0
        doc = read_json(adapted)
        # threshold recomputed independently from the reported estimates
        pi, pip, c = doc["pi_hat"], doc["pi_prime"]["value"], doc["cost"]
        pip = min(1 - 1e-6, max(1e-6, pip))
        c0 = c * pi * (1 - pip) / ((1 - c) * (1 - pi) * pip + c * pi * (1 - pip))
        assert doc["theta"] == pytest.approx(c0 / pi, abs=1e-12)

        metrics = tmp_path / "metrics.json"
        code = main([
            "evaluate", "--model", str(trained_run / "model.json"),
            "--adapted", str(adapted),
            "--test", str(dataset_dir / "eval_test.csv"),
            "--out", str(metrics),
        ])
        assert code == 0
        doc = read_json(metrics)
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert doc["auc"] is not None
        assert "boundary" in doc
        # provenance flows from the training report through adapt to metrics
        assert doc["seed"] == 5 and doc["config_hash"]

    def test_no_crossing_writes_null_boundary(self, dataset_dir, trained_run, tmp_path):
        """A threshold the scores never reach has no boundary; metrics.json stays strict JSON."""
        out = tmp_path / "metrics.json"
        code = main([
            "evaluate", "--model", str(trained_run / "model.json"), "--theta", "1e6",
            "--test", str(dataset_dir / "eval_test.csv"), "--out", str(out),
        ])
        assert code == 0

        def refuse(name):
            raise ValueError(f"bare {name} in metrics.json")

        doc = json.loads(out.read_text(), parse_constant=refuse)
        assert doc["boundary"] is None

    def test_huge_theta_runs_without_floating_point_warnings(self, dataset_dir, trained_run, tmp_path):
        """The boundary search compares signs, so theta 1e308 overflows no product of neighbours."""
        out = tmp_path / "metrics.json"
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            code = main([
                "evaluate", "--model", str(trained_run / "model.json"), "--theta", "1e308",
                "--test", str(dataset_dir / "eval_test.csv"), "--out", str(out),
            ])
        assert code == 0
        assert read_json(out)["boundary"] is None

    def test_no_shift_theta_collapses(self, dataset_dir, trained_run, tmp_path):
        """Val-unlabeled as the test set gives pi_prime == pi_hat exactly."""
        adapted = tmp_path / "noshift.json"
        code = main([
            "adapt", "--model", str(trained_run / "model.json"),
            "--intervals", str(trained_run / "intervals.json"),
            "--test", str(dataset_dir / "val_unl.csv"),
            "--report", str(trained_run / "report.json"),
            "--out", str(adapted),
        ])
        assert code == 0
        doc = read_json(adapted)
        assert doc["pi_prime"]["value"] == pytest.approx(doc["pi_hat"], abs=1e-12)
        assert doc["theta"] == pytest.approx(0.5 / doc["pi_hat"], abs=1e-10)

    def test_corrupted_intervals_no_output(self, dataset_dir, trained_run, tmp_path):
        bad = tmp_path / "bad_intervals.json"
        doc = read_json(trained_run / "intervals.json")
        doc["accept_counts"] = doc["accept_counts"][::-1]
        bad.write_text(json.dumps(doc))
        out = tmp_path / "should_not_exist.json"
        code = main([
            "adapt", "--model", str(trained_run / "model.json"),
            "--intervals", str(bad),
            "--test", str(dataset_dir / "test_unl.csv"),
            "--pi-hat", "0.4", "--out", str(out),
        ])
        assert code == 3
        assert not out.exists()

    def test_degenerate_intervals_exit_code(self, capsys, dataset_dir, trained_run, tmp_path):
        tiny = tmp_path / "tiny_intervals.json"
        build_intervals(np.linspace(0.1, 0.9, 5), gamma=0.5).save(tiny)
        code = main([
            "adapt", "--model", str(trained_run / "model.json"),
            "--intervals", str(tiny),
            "--test", str(dataset_dir / "test_unl.csv"),
            "--pi-hat", "0.4", "--out", str(tmp_path / "deg.json"),
        ])
        assert code == 5
        assert capsys.readouterr().err.count("degenerate prior estimation") == 1

    def test_isolated_adapt_matches_in_process_raw_scores(
        self, dataset_dir, trained_run, tmp_path
    ):
        """Model + intervals + test file reproduce the raw-score pipeline exactly."""
        from pushift.classifier import ShiftSpec, cost_threshold
        from pushift.data import load_csv
        from pushift.models import load_model
        from pushift.prior import build_intervals, estimate_test_prior

        adapted_path = tmp_path / "iso.json"
        code = main([
            "adapt", "--model", str(trained_run / "model.json"),
            "--intervals", str(trained_run / "intervals.json"),
            "--test", str(dataset_dir / "test_unl.csv"),
            "--report", str(trained_run / "report.json"),
            "--out", str(adapted_path),
        ])
        assert code == 0
        via_files = read_json(adapted_path)

        # in-process rerun that keeps the raw validation positive scores
        model = load_model(trained_run / "model.json")
        val_pos, _ = load_csv(dataset_dir / "val_pos.csv")
        test_unl, _ = load_csv(dataset_dir / "test_unl.csv")
        report = read_json(trained_run / "report.json")
        intervals = build_intervals(model.predict(val_pos), gamma=report["gamma"])
        pi_prime = estimate_test_prior(intervals, model.predict(test_unl))
        pi_hat = report["pi_hat"]["value"]
        _, theta = cost_threshold(ShiftSpec(pi_hat, pi_prime.value, 0.5))

        assert via_files["pi_prime"]["value"] == pi_prime.value
        assert via_files["theta"] == theta

    def test_labeled_test_file_rejected(self, dataset_dir, trained_run, tmp_path):
        code = main([
            "adapt", "--model", str(trained_run / "model.json"),
            "--intervals", str(trained_run / "intervals.json"),
            "--test", str(dataset_dir / "eval_test.csv"),
            "--pi-hat", "0.4", "--out", str(tmp_path / "z.json"),
        ])
        assert code == 3


class TestDataFaults:
    """Bad input files exit 3 (data error) and write nothing."""

    def adapt(self, tmp_path, model, intervals, test):
        out = tmp_path / "adapted.json"
        code = main([
            "adapt", "--model", str(model), "--intervals", str(intervals),
            "--test", str(test), "--pi-hat", "0.4", "--out", str(out),
        ])
        return code, out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_test_row(self, dataset_dir, trained_run, tmp_path, cell):
        test = tmp_path / "test.csv"
        test.write_text((dataset_dir / "test_unl.csv").read_text() + cell + "\n")
        code, wrote = self.adapt(tmp_path, trained_run / "model.json", trained_run / "intervals.json", test)
        assert (code, wrote) == (3, False)

    def test_nan_interval_boundary(self, dataset_dir, trained_run, tmp_path):
        doc = read_json(trained_run / "intervals.json")
        doc["boundaries"][-1] = float("nan")
        bad = tmp_path / "intervals.json"
        bad.write_text(json.dumps(doc))
        code, wrote = self.adapt(tmp_path, trained_run / "model.json", bad, dataset_dir / "test_unl.csv")
        assert (code, wrote) == (3, False)

    def test_nan_model_parameter(self, dataset_dir, trained_run, tmp_path):
        doc = read_json(trained_run / "model.json")
        doc["params"][0] = float("nan")
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        code, wrote = self.adapt(tmp_path, bad, trained_run / "intervals.json", dataset_dir / "test_unl.csv")
        assert (code, wrote) == (3, False)

    def test_model_missing_field(self, dataset_dir, trained_run, tmp_path):
        doc = read_json(trained_run / "model.json")
        del doc["bandwidth"]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        code, wrote = self.adapt(tmp_path, bad, trained_run / "intervals.json", dataset_dir / "test_unl.csv")
        assert (code, wrote) == (3, False)

    @pytest.mark.parametrize("probe", ["params_one_short", "negative_bandwidth", "list_document"])
    def test_malformed_model_document(self, dataset_dir, trained_run, tmp_path, probe):
        doc = read_json(trained_run / "model.json")
        if probe == "params_one_short":
            doc["params"] = doc["params"][:-1]
        elif probe == "negative_bandwidth":
            doc["bandwidth"] = -1
        else:
            doc = [doc]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        code, wrote = self.adapt(tmp_path, bad, trained_run / "intervals.json", dataset_dir / "test_unl.csv")
        assert (code, wrote) == (3, False)

    @pytest.mark.parametrize("probe", ["list_document", "n_pos_not_a_number"])
    def test_malformed_interval_document(self, dataset_dir, trained_run, tmp_path, probe):
        doc = read_json(trained_run / "intervals.json")
        if probe == "list_document":
            doc = [doc]
        else:
            doc["n_pos"] = "abc"
        bad = tmp_path / "intervals.json"
        bad.write_text(json.dumps(doc))
        code, wrote = self.adapt(tmp_path, trained_run / "model.json", bad, dataset_dir / "test_unl.csv")
        assert (code, wrote) == (3, False)

    @pytest.mark.parametrize(
        "document, path, value, named",
        [
            ("intervals.json", ("n_pos",), RAW_1E400, "n_pos"),
            ("intervals.json", ("n_pos",), 2.5, "n_pos"),
            ("intervals.json", ("n_pos",), True, "n_pos"),
            ("intervals.json", ("accept_counts", 1), RAW_1E400, "an entry of accept_counts"),
            ("intervals.json", ("accept_counts", 1), 2.5, "an entry of accept_counts"),
            ("intervals.json", ("boundaries", 0), "x", "an entry of boundaries"),
            ("intervals.json", ("gamma",), "0.9", "gamma"),
            ("model.json", ("clamp",), "no", "clamp"),
            ("model.json", ("clamp",), 0, "clamp"),
            ("model.json", ("dim_in",), 3, "dim_in"),
            ("model.json", ("params", 0), "x", "an entry of params"),
            ("model.json", ("centers", 0, 0), "x", "an entry of an entry of centers"),
            ("model.json", ("params", 0), True, "an entry of params"),
            ("model.json", ("bandwidth",), True, "bandwidth"),
        ],
    )
    def test_mistyped_document_field_named(self, dataset_dir, trained_run, tmp_path, capsys, document, path, value, named):
        """Each field is read as its JSON type: no overflow traceback, no silent cast."""
        files = {name: trained_run / name for name in ("model.json", "intervals.json")}
        files[document] = write_doc(tmp_path / document, replaced(read_json(files[document]), path, value))
        code, wrote = self.adapt(tmp_path, files["model.json"], files["intervals.json"], dataset_dir / "test_unl.csv")
        assert (code, wrote) == (3, False)
        assert f"{named} must" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, field",
        [("model.json", "clamp"), ("mlp", "output"), ("mlp", "seed"), ("intervals.json", "gamma")],
    )
    def test_writer_field_missing_named(self, dataset_dir, trained_run, tmp_path, capsys, document, field):
        """Every field the writers emit is required: a model without clamp is not read as a clamped one."""
        files = {name: trained_run / name for name in ("model.json", "intervals.json")}
        if document == "mlp":
            document = "model.json"
            save_model(mlp([1, 3, 1], seed=2, output="linear"), tmp_path / "mlp.json")
            files[document] = tmp_path / "mlp.json"
        doc = read_json(files[document])
        del doc[field]
        files[document] = write_doc(tmp_path / document, doc)
        code, wrote = self.adapt(tmp_path, files["model.json"], files["intervals.json"], dataset_dir / "test_unl.csv")
        assert (code, wrote) == (3, False)
        assert f"missing field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b'{"kind": "\xff"}', b"[" * 100_000 + b"]" * 100_000, b'{"n_pos": ' + b"1" * 5000 + b"}"],
        ids=["non_utf8", "deep_array", "huge_integer"],
    )
    @pytest.mark.parametrize(
        "command, flag",
        [("adapt", "--model"), ("adapt", "--intervals"), ("adapt", "--report"), ("evaluate", "--adapted"),
         ("synth", "--config"), ("train", "--config")],
    )
    def test_undecodable_document(self, dataset_dir, trained_run, tmp_path, capsys, command, flag, content):
        """Each JSON input the commands read: a file that does not decode exits 3 and writes nothing."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        valid = {
            "adapt": ["--model", str(trained_run / "model.json"), "--intervals", str(trained_run / "intervals.json"),
                      "--test", str(dataset_dir / "test_unl.csv"), "--pi-hat", "0.4"],
            "evaluate": ["--model", str(trained_run / "model.json"), "--test", str(dataset_dir / "eval_test.csv")],
            "synth": [],
            "train": ["--data", str(dataset_dir)],
        }[command]
        out = tmp_path / "out"
        assert main([command, *valid, flag, str(bad), "--out", str(out)]) == 3  # the last --model / --intervals wins
        assert capsys.readouterr().err.startswith(f"data error: cannot read {bad}")
        assert not out.exists()

    def test_wrong_dimension_test_file(self, trained_run, tmp_path):
        test = tmp_path / "test2d.csv"
        test.write_text("0.3,0.7\n1.2,-0.4\n" * 50)
        code, wrote = self.adapt(tmp_path, trained_run / "model.json", trained_run / "intervals.json", test)
        assert (code, wrote) == (3, False)

    @pytest.mark.parametrize("doc", [{"pi_hat": 0.4}, {"pi_hat": {"value": "abc"}}, {"pi_hat": {"value": 1.5}}, []])
    def test_report_pi_hat_checked(self, dataset_dir, trained_run, tmp_path, doc):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        out = tmp_path / "adapted.json"
        code = main([
            "adapt", "--model", str(trained_run / "model.json"),
            "--intervals", str(trained_run / "intervals.json"),
            "--test", str(dataset_dir / "test_unl.csv"), "--report", str(report), "--out", str(out),
        ])
        assert (code, out.exists()) == (3, False)

    @pytest.mark.parametrize("pi_prime", [5, {"value": "abc"}])
    def test_adapted_pi_prime_checked(self, dataset_dir, trained_run, tmp_path, pi_prime):
        adapted = tmp_path / "adapted.json"
        adapted.write_text(json.dumps({"theta": 0.5, "pi_prime": pi_prime}))
        metrics = tmp_path / "m.json"
        code = main([
            "evaluate", "--model", str(trained_run / "model.json"), "--adapted", str(adapted),
            "--test", str(dataset_dir / "eval_test.csv"), "--out", str(metrics),
        ])
        assert (code, metrics.exists()) == (3, False)


    def run_adapt(self, dataset_dir, trained_run, report, out):
        return main([
            "adapt", "--model", str(trained_run / "model.json"),
            "--intervals", str(trained_run / "intervals.json"),
            "--test", str(dataset_dir / "test_unl.csv"), "--report", str(report), "--out", str(out),
        ])

    def test_constant_scores_write_strict_json(self, dataset_dir, tmp_path):
        """Untrained, every score is 0 and the -inf sentinel wins the sweep: its threshold is null."""
        run = tmp_path / "r0"
        assert main([
            "train", "--data", str(dataset_dir), "--out", str(run), "--seed", "5", "--gamma", "0.9", "--epochs", "0",
        ]) == 0
        assert read_json(run / "report.json")["pi_hat"]["argmin_threshold"] is None
        adapted = tmp_path / "adapted.json"
        assert self.run_adapt(dataset_dir, run, run / "report.json", adapted) == 0
        assert read_json(adapted)["pi_prime"]["argmin_threshold"] is None

    @pytest.mark.parametrize("field,value", [("seed", float("nan")), ("seed", "7"), ("config_hash", 5)])
    def test_report_echoed_fields_checked(self, dataset_dir, trained_run, tmp_path, field, value):
        doc = read_json(trained_run / "report.json")
        doc[field] = value
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        out = tmp_path / "adapted.json"
        assert (self.run_adapt(dataset_dir, trained_run, report, out), out.exists()) == (3, False)

    @pytest.mark.parametrize(
        "field,value",
        [("pi_hat", float("nan")), ("pi_hat", 1.5), ("c0", float("inf")), ("seed", float("nan")), ("config_hash", 5)],
    )
    def test_adapted_echoed_fields_checked(self, dataset_dir, trained_run, tmp_path, field, value):
        adapted = tmp_path / "adapted.json"
        assert self.run_adapt(dataset_dir, trained_run, trained_run / "report.json", adapted) == 0
        doc = read_json(adapted)
        doc[field] = value
        adapted.write_text(json.dumps(doc))
        metrics = tmp_path / "m.json"
        code = main([
            "evaluate", "--model", str(trained_run / "model.json"), "--adapted", str(adapted),
            "--test", str(dataset_dir / "eval_test.csv"), "--out", str(metrics),
        ])
        assert (code, metrics.exists()) == (3, False)

    def test_string_pi_hat_writes_nothing(self, dataset_dir, trained_run, tmp_path):
        """A string pi_hat is a data fault found before metrics.json is written."""
        adapted = tmp_path / "adapted.json"
        assert self.run_adapt(dataset_dir, trained_run, trained_run / "report.json", adapted) == 0
        doc = read_json(adapted)
        doc["pi_hat"] = "abc"
        adapted.write_text(json.dumps(doc))
        metrics = tmp_path / "m.json"
        code = main([
            "evaluate", "--model", str(trained_run / "model.json"), "--adapted", str(adapted),
            "--test", str(dataset_dir / "eval_test.csv"), "--out", str(metrics),
        ])
        assert (code, metrics.exists()) == (3, False)


class TestEvaluate:
    def test_explicit_theta_for_baselines(self, dataset_dir, trained_run, tmp_path):
        metrics = tmp_path / "m0.json"
        code = main([
            "evaluate", "--model", str(trained_run / "model.json"),
            "--theta", "0.5", "--test", str(dataset_dir / "eval_test.csv"),
            "--out", str(metrics),
        ])
        assert code == 0
        assert read_json(metrics)["theta"] == 0.5

    @pytest.mark.parametrize("probe", ["nan_theta", "missing_theta", "list_document"])
    def test_adapted_threshold_checked(self, dataset_dir, trained_run, tmp_path, probe):
        """A NaN theta would label every point negative and still exit 0."""
        adapted = tmp_path / "adapted.json"
        assert main([
            "adapt", "--model", str(trained_run / "model.json"),
            "--intervals", str(trained_run / "intervals.json"),
            "--test", str(dataset_dir / "test_unl.csv"),
            "--report", str(trained_run / "report.json"), "--out", str(adapted),
        ]) == 0
        doc = read_json(adapted)
        if probe == "nan_theta":
            doc["theta"] = float("nan")
        elif probe == "missing_theta":
            del doc["theta"]
        else:
            doc = [doc]
        adapted.write_text(json.dumps(doc))
        metrics = tmp_path / "m.json"
        code = main([
            "evaluate", "--model", str(trained_run / "model.json"), "--adapted", str(adapted),
            "--test", str(dataset_dir / "eval_test.csv"), "--out", str(metrics),
        ])
        assert (code, metrics.exists()) == (3, False)

    def test_non_finite_theta_flag(self, dataset_dir, trained_run, tmp_path):
        code = main([
            "evaluate", "--model", str(trained_run / "model.json"), "--theta", "nan",
            "--test", str(dataset_dir / "eval_test.csv"), "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2

    def test_needs_threshold_source(self, dataset_dir, trained_run, tmp_path):
        code = main([
            "evaluate", "--model", str(trained_run / "model.json"),
            "--test", str(dataset_dir / "eval_test.csv"),
            "--out", str(tmp_path / "m1.json"),
        ])
        assert code == 2


@pytest.mark.parametrize("command", ["synth", "train", "adapt", "evaluate", "verify-theory"])
def test_unwritable_output_is_config_error(dataset_dir, trained_run, tmp_path, capsys, command):
    """An output path under a regular file exits 2 with the path named, not an OSError traceback,
    and before any work: nothing is printed."""
    (tmp_path / "afile").write_text("")
    inputs = {
        "synth": ["--n-test", "10"],
        "train": ["--data", str(dataset_dir), "--epochs", "1", "--gamma", "0.9"],
        "adapt": ["--model", str(trained_run / "model.json"), "--intervals", str(trained_run / "intervals.json"),
                  "--test", str(dataset_dir / "test_unl.csv"), "--pi-hat", "0.4"],
        "evaluate": ["--model", str(trained_run / "model.json"), "--test", str(dataset_dir / "eval_test.csv"),
                     "--theta", "0.5"],
        "verify-theory": ["--trials", "2"],
    }[command]
    assert main([command, *inputs, "--out", str(tmp_path / "afile" / "x")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: cannot write output:") and "afile" in err
    assert out == ""


@pytest.mark.parametrize("command", ["adapt", "evaluate"])
def test_unwritable_output_is_refused_before_the_inputs_are_read(dataset_dir, tmp_path, capsys, command):
    """A missing model would exit 3, but the output path is checked first."""
    (tmp_path / "afile").write_text("")
    inputs = {
        "adapt": ["--intervals", str(tmp_path / "none.json"), "--test", str(dataset_dir / "test_unl.csv")],
        "evaluate": ["--test", str(dataset_dir / "eval_test.csv"), "--theta", "0.5"],
    }[command]
    code = main([command, "--model", str(tmp_path / "missing.json"), *inputs, "--out", str(tmp_path / "afile" / "x")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: cannot write output:")


class TestVerifyTheory:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "theory.json"
        code = main(["verify-theory", "--seed", "1", "--trials", "40", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("PASS") == 6
        doc = read_json(out)
        assert all(s["passed"] for s in doc["suites"])

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_named(self, capsys, trials):
        assert main(["verify-theory", "--trials", trials]) == 2
        assert "trials" in capsys.readouterr().err


class TestParser:
    """Every subcommand is listed; only the invoked one's arguments are built."""

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        printed = capsys.readouterr().out
        for name, (help_text, _, _) in COMMANDS.items():
            assert name in printed and help_text in printed

    @pytest.mark.parametrize(
        "command, flag",
        [("synth", "--n-train-pos"), ("train", "--max-centers"), ("adapt", "--pi-hat"),
         ("evaluate", "--theta"), ("verify-theory", "--trials")],
    )
    def test_subcommand_help_lists_its_flags(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert flag in capsys.readouterr().out

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--epochs", "3"])
        assert exc.value.code == 2
        assert "invalid choice: 'fit'" in capsys.readouterr().err

    def test_other_commands_get_no_arguments(self):
        parser = build_parser("adapt")
        sub = next(a for a in parser._actions if a.dest == "command")
        built = {name: [o for a in sp._actions for o in a.option_strings] for name, sp in sub.choices.items()}
        assert "--pi-hat" in built["adapt"]
        assert all(built[name] == ["-h", "--help"] for name in COMMANDS if name != "adapt")
