import json
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from _helpers import RAW_1E400, field_param, read_json, replaced, run_at_one_blas_thread, write_doc
from pushift import cli, experiments
from pushift.cli import COMMANDS, build_parser, main
from pushift.models import MLP, load_model, mlp, save_model
from pushift.prior import ThresholdIntervals, build_intervals


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
                     "test_unl.csv", "eval_test.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_case_defaults_match_reference_counts(self, tmp_path):
        assert main(["synth", "--case", "1", "--seed", "0", "--out", str(tmp_path / "c")]) == 0
        m = read_json(tmp_path / "c" / "manifest.json")
        counts = {"n_train_pos": 200, "n_train_unl": 1000, "n_val_pos": 100, "n_val_unl": 500, "n_test": 1000}
        assert {name: m["config"][name] for name in counts} == counts
        for name, n in zip(("train_pos.csv", "train_unl.csv", "val_pos.csv", "val_unl.csv", "test_unl.csv"),
                           counts.values()):
            assert len((tmp_path / "c" / name).read_text().splitlines()) == n
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

    @pytest.mark.parametrize(
        "doc", [{"n_test": None}, {"n_test": RAW_1E400}, {"case": True}, {"seed": "3"}, {"case": 3}]
    )
    def test_mistyped_config_field_named(self, tmp_path, capsys, doc):
        cfg = write_doc(tmp_path / "cfg.json", doc)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "y")]) == 2
        assert f"{next(iter(doc))} must be" in capsys.readouterr().err
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize("field", ["n_train_pos", "n_train_unl", "n_val_pos", "n_val_unl", "n_test"])
    def test_zero_count_named(self, tmp_path, capsys, field):
        """Each split count is checked by name: the test draw's dummy positive is never the one reported."""
        out = tmp_path / "z"
        assert main(["synth", "--" + field.replace("_", "-"), "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {field} must be a positive integer, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "train"])
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
        assert report["config"]["method"] == "drpu"
        assert 0.0 <= report["pi_hat"]["value"] <= 1.0
        assert 0 <= report["best_epoch"] < 40
        assert report["config"]["seed"] == 5 and report["config_hash"]
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
        for name in ("report.json", "trace.csv", "model.json", "intervals.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_readme_config_hash(self, three_runs):
        """README quotes this hash for `train --epochs 20` on `synth --case 1 --seed 7`; it pins every train
        default, gamma's included, and the data the run read."""
        assert read_json(three_runs / "A" / "report.json")["config_hash"] == "a11722a9654d"

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

    def test_small_validation_samples_exit_5(self, capsys, dataset_dir, tmp_path):
        """One to three validation points per side leave no admissible threshold: exit 5, no model."""
        for n_pos in (1, 2, 3):
            for n_unl in (1, 2, 3):
                data = tmp_path / f"val{n_pos}x{n_unl}"
                data.mkdir()
                for name in ("train_pos.csv", "train_unl.csv"):
                    (data / name).write_bytes((dataset_dir / name).read_bytes())
                for name, n in (("val_pos.csv", n_pos), ("val_unl.csv", n_unl)):
                    lines = (dataset_dir / name).read_text().splitlines(keepends=True)
                    (data / name).write_text("".join(lines[:n]))
                out = tmp_path / f"run{n_pos}x{n_unl}"
                code = main(["train", "--data", str(data), "--out", str(out), "--gamma", "0.9", "--epochs", "2"])
                assert code == 5, (n_pos, n_unl)
                assert f"(n_pos={n_pos}, n_unl={n_unl})" in capsys.readouterr().err
                assert not (out / "model.json").exists()

    def test_splits_of_different_widths_refused_before_training(self, dataset_dir, tmp_path, capsys, monkeypatch):
        """2-column validation files beside 1-column training files exit 3 naming the files, with no epoch run."""
        data = tmp_path / "wide"
        shutil.copytree(dataset_dir, data)
        for name in ("val_pos.csv", "val_unl.csv"):
            lines = (data / name).read_text().splitlines()
            (data / name).write_text("".join(f"{ln},0.5\n" for ln in lines))

        def no_training(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(experiments, "train", no_training)
        out = tmp_path / "r"
        assert main(["train", "--data", str(data), "--out", str(out), "--epochs", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: feature files differ in width: ")
        assert f"{data / 'train_pos.csv'} has width 1" in err and f"{data / 'val_unl.csv'} has width 2" in err
        assert not out.exists()

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
            prior = ["--prior", "0.4"] if method == "nnpu" else []
            assert main([
                "train", "--data", str(data), "--out", str(out), "--seed", "7", "--method", method,
                *prior, "--max-centers", "50", "--epochs", "2",
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
        prior = ["--prior", "0.4"] if method == "nnpu" else []
        code = main([
            "train", "--data", str(dataset_dir), "--out", str(tmp_path / "mc"), "--gamma", "0.9",
            "--method", method, *prior, "--max-centers", max_centers, "--epochs", "2",
        ])
        assert code == 2
        assert "max_centers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, needs_data",
        [
            ("--learning-rate", "0", False),
            ("--alpha", "1.5", False),
            ("--generator", "bogus", False),
            ("--bandwidth", "0", True),
            ("--max-centers", "0", True),
            ("--gamma", "1.5", True),
            ("--batch-size", "5000", True),  # the unlabeled training pool holds 400 rows
        ],
    )
    def test_bad_setting_leaves_no_output_directory(
        self, dataset_dir, tmp_path, capsys, monkeypatch, flag, value, needs_data
    ):
        """A bad setting exits 2 before ``--out`` is created; one that needs no data, before any CSV is read."""
        if not needs_data:
            def no_read(data_dir):
                raise AssertionError("data read")

            monkeypatch.setattr(cli, "_load_split", no_read)
        out = tmp_path / "r"
        assert main(["train", "--data", str(dataset_dir), "--out", str(out), "--epochs", "2", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and flag[2:].replace("-", "_") in err
        assert not out.exists()

    def test_degenerate_validation_split_leaves_no_output_directory(self, tmp_path, capsys):
        """Three validation positives and five unlabeled points admit no threshold: exit 5 before ``--out``."""
        data, out = tmp_path / "d", tmp_path / "r"
        assert main(["synth", "--n-val-pos", "3", "--n-val-unl", "5", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(out), "--epochs", "2"]) == 5
        assert capsys.readouterr().err.startswith("degenerate prior estimation: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"epochs": None}, {"epochs": [2]}, {"epochs": RAW_1E400}, {"epochs": True},
            {"max_centers": RAW_1E400}, {"alpha": None}, {"seed": 1.5}, {"gamma": "0.9"}, {"alpha": 10**400},
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

    @pytest.mark.parametrize("flag", ["--alpha", "--l2-reg"])
    def test_negative_zero_hashes_like_zero(self, dataset_dir, tmp_path, flag):
        """-0.0 trains the model that 0 trains, so both are read as 0.0 and share one config hash."""
        base = ["train", "--data", str(dataset_dir), "--epochs", "20"]
        for run, value in (("neg", "-0.0"), ("zero", "0")):
            assert main(base + [flag, value, "--out", str(tmp_path / run)]) == 0
        neg, zero = (tmp_path / run / "report.json" for run in ("neg", "zero"))
        assert read_json(neg)["config_hash"] == read_json(zero)["config_hash"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "method, field, value",
        [
            ("drpu", "loss", "logistic"), ("drpu", "prior", 0.3),
            ("upu", "generator", "exp"), ("upu", "alpha", 0.5), ("upu", "gamma", 0.8),
            ("nnpu", "generator", "exp"), ("nnpu", "alpha", 0.5), ("nnpu", "gamma", 0.8),
        ],
    )
    def test_field_the_method_does_not_read_is_refused(self, tmp_path, capsys, method, field, value, source):
        """Such a run would write the model of the run without it under another config hash.  Refused
        before any data is read: the data directory does not exist, which would exit 3."""
        argv = ["train", "--data", str(tmp_path / "none"), "--out", str(tmp_path / "r"), "--method", method]
        argv += [] if method == "drpu" else ["--prior", "0.4"]
        if source == "flag":
            argv += ["--" + field, str(value)]
        else:
            argv += ["--config", str(write_doc(tmp_path / "cfg.json", {field: value}))]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: method {method} does not read {field}, got {value!r}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("prior", [[], ["--prior", "0"], ["--prior", "1"], ["--prior", "1.5"]])
    def test_baseline_prior_outside_the_open_interval(self, tmp_path, capsys, prior):
        """Refused before any data is read: the data directory does not exist, which would exit 3."""
        argv = ["train", "--data", str(tmp_path / "none"), "--out", str(tmp_path / "r"), "--method", "nnpu", *prior]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: method nnpu needs a prior in (0, 1), got ")
        assert not (tmp_path / "r").exists()

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
        assert doc["config_hash"] == read_json(trained_run / "report.json")["config_hash"]

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

    @pytest.mark.parametrize("with_report", [True, False], ids=["pi_hat_flag", "no_report"])
    def test_report_is_required(self, dataset_dir, trained_run, tmp_path, capsys, with_report):
        """The report is the one source of pi_hat: a --pi-hat flag, or no --report, is a usage error."""
        flags = ["--report", str(trained_run / "report.json"), "--pi-hat", "0.4"] if with_report else []
        with pytest.raises(SystemExit) as exc:
            main([
                "adapt", "--model", str(trained_run / "model.json"), "--intervals", str(trained_run / "intervals.json"),
                "--test", str(dataset_dir / "test_unl.csv"), *flags, "--out", str(tmp_path / "adapted.json"),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("unrecognized arguments: --pi-hat 0.4" if with_report else "required: --report") in err

    def test_report_without_pi_hat_is_named(self, dataset_dir, trained_run, tmp_path, capsys):
        """A baseline run's report carries no pi_hat: exit 2 naming the report, and nothing written."""
        doc = read_json(trained_run / "report.json")
        del doc["pi_hat"]
        report, out = write_doc(tmp_path / "report.json", doc), tmp_path / "adapted.json"
        code = main([
            "adapt", "--model", str(trained_run / "model.json"), "--intervals", str(trained_run / "intervals.json"),
            "--test", str(dataset_dir / "test_unl.csv"), "--report", str(report), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert (code, out.exists()) == (2, False)
        assert err.startswith("config error: ") and str(report) in err

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
            "--report", str(trained_run / "report.json"), "--out", str(out),
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
            "--report", str(trained_run / "report.json"), "--out", str(tmp_path / "deg.json"),
        ])
        assert code == 5
        assert capsys.readouterr().err.count("degenerate prior estimation") == 1

    def test_small_samples_exit_5(self, capsys, dataset_dir, trained_run, tmp_path):
        """An intervals.json with one to three positives, or a test file of one to three rows, exits 5."""
        test_rows = (dataset_dir / "test_unl.csv").read_text().splitlines(keepends=True)
        for n_pos in (1, 2, 3):
            intervals = tmp_path / f"intervals{n_pos}.json"
            build_intervals(np.linspace(0.1, 0.9, n_pos), gamma=0.9).save(intervals)
            for n_test in (1, 2, 3):
                test = tmp_path / f"test{n_test}.csv"
                test.write_text("".join(test_rows[:n_test]))
                out = tmp_path / "small.json"
                code = main([
                    "adapt", "--model", str(trained_run / "model.json"), "--intervals", str(intervals),
                    "--test", str(test), "--report", str(trained_run / "report.json"), "--out", str(out),
                ])
                assert code == 5, (n_pos, n_test)
                assert f"(n_pos={n_pos}, n_unl={n_test})" in capsys.readouterr().err
                assert not out.exists()

    def test_plus_minus_one_feature_is_data(self, dataset_dir, tmp_path):
        """A last feature column of +1/-1 values is read as a feature by train and adapt, not as labels."""
        from pushift.data import load_csv, save_csv

        rng = np.random.default_rng(13)
        data = tmp_path / "pm"
        data.mkdir()
        for name in ("train_pos.csv", "train_unl.csv", "val_pos.csv", "val_unl.csv", "test_unl.csv"):
            X, _ = load_csv(dataset_dir / name, labeled=False)
            save_csv(data / name, np.column_stack([X, rng.choice([-1.0, 1.0], size=len(X))]))
        run = tmp_path / "run"
        code = main([
            "train", "--data", str(data), "--out", str(run), "--gamma", "0.9", "--epochs", "2",
            "--batch-size", "80", "--max-centers", "50",
        ])
        assert code == 0
        assert load_model(run / "model.json").dim_in == 2
        code = main([
            "adapt", "--model", str(run / "model.json"), "--intervals", str(run / "intervals.json"),
            "--test", str(data / "test_unl.csv"), "--report", str(run / "report.json"),
            "--out", str(run / "adapted.json"),
        ])
        assert code == 0
        assert read_json(run / "adapted.json")["pi_prime"]["n_unl_used"] == 400

    @pytest.mark.parametrize("dim_in, n_pos", [(1, 100), (7, 3)], ids=["as_written", "stale"])
    def test_documents_with_dim_in_and_n_pos_still_load(self, dataset_dir, trained_run, tmp_path, dim_in, n_pos):
        """Files that also carry the kernel's dim_in and the summary's n_pos, which earlier versions wrote, adapt to the
        same values: the two copies are ignored, so a stale one is neither an error nor trusted."""
        model_doc, intervals_doc = read_json(trained_run / "model.json"), read_json(trained_run / "intervals.json")
        assert (len(model_doc["centers"][0]), intervals_doc["accept_counts"][0]) == (1, 100)  # the values as written
        model = write_doc(tmp_path / "model.json", {**model_doc, "dim_in": dim_in})
        intervals = write_doc(tmp_path / "intervals.json", {**intervals_doc, "n_pos": n_pos})
        docs = []
        for m, iv in ((trained_run / "model.json", trained_run / "intervals.json"), (model, intervals)):
            out = tmp_path / f"adapted{len(docs)}.json"
            assert main(["adapt", "--model", str(m), "--intervals", str(iv), "--test", str(dataset_dir / "test_unl.csv"),
                         "--report", str(trained_run / "report.json"), "--out", str(out)]) == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]

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
        val_pos, _ = load_csv(dataset_dir / "val_pos.csv", labeled=False)
        test_unl, _ = load_csv(dataset_dir / "test_unl.csv", labeled=False)
        report = read_json(trained_run / "report.json")
        intervals = build_intervals(model.predict(val_pos), gamma=report["config"]["gamma"])
        pi_prime = estimate_test_prior(intervals, model.predict(test_unl))
        pi_hat = report["pi_hat"]["value"]
        _, theta = cost_threshold(ShiftSpec(pi_hat, pi_prime.value, 0.5))

        assert via_files["pi_prime"]["value"] == pi_prime.value
        assert via_files["theta"] == theta
        # the report is the one source of pi_hat and of the run identity
        assert via_files["pi_hat"] == pi_hat
        assert via_files["config_hash"] == report["config_hash"]

    def test_labeled_test_file_rejected(self, dataset_dir, trained_run, tmp_path):
        code = main([
            "adapt", "--model", str(trained_run / "model.json"),
            "--intervals", str(trained_run / "intervals.json"),
            "--test", str(dataset_dir / "eval_test.csv"),
            "--report", str(trained_run / "report.json"), "--out", str(tmp_path / "z.json"),
        ])
        assert code == 3


CENTER_ERROR = "data error: invalid model document: basis center 5 (from 0) has a squared norm that is not finite\n"


class TestDataFaults:
    """Bad input files exit 3 (data error) and write nothing."""

    @pytest.fixture(autouse=True)
    def trained_report(self, trained_run):
        self.report = trained_run / "report.json"

    def adapt(self, tmp_path, model, intervals, test):
        out = tmp_path / "adapted.json"
        code = main([
            "adapt", "--model", str(model), "--intervals", str(intervals),
            "--test", str(test), "--report", str(self.report), "--out", str(out),
        ])
        return code, out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_test_row(self, dataset_dir, trained_run, tmp_path, cell):
        test = tmp_path / "test.csv"
        test.write_text((dataset_dir / "test_unl.csv").read_text() + cell + "\n")
        code, wrote = self.adapt(tmp_path, trained_run / "model.json", trained_run / "intervals.json", test)
        assert (code, wrote) == (3, False)

    def test_cell_numpy_does_not_read(self, dataset_dir, trained_run, tmp_path, capsys):
        """``1_000`` is a number to Python's ``float`` but not to ``np.loadtxt``, which reads every CSV number."""
        test = tmp_path / "test.csv"
        lines = (dataset_dir / "test_unl.csv").read_text().splitlines(keepends=True)
        test.write_text("".join(lines) + "1_000\n")
        code, wrote = self.adapt(tmp_path, trained_run / "model.json", trained_run / "intervals.json", test)
        assert (code, wrote) == (3, False)
        assert capsys.readouterr().err == f"data error: {test}: non-numeric cell at line {len(lines) + 1}, column 1\n"

    @pytest.mark.parametrize("command, name, flags", [
        pytest.param("adapt", "test_unl.csv", [], id="adapt-test_unl.csv"),
        pytest.param("evaluate", "eval_test.csv", [], id="evaluate-eval_test.csv"),
        pytest.param("train", "val_unl.csv", [], id="train-val_unl.csv"),
        pytest.param("train", "train_unl.csv", [], id="train-train_unl.csv"),
        pytest.param("train", "train_unl.csv", ["--max-centers", "100"], id="train-train_unl.csv-max-centers"),
    ])
    def test_row_whose_squared_norm_overflows(self, dataset_dir, trained_run, tmp_path, capsys, command, name, flags):
        """A finite 1e308 cell overflows |x|^2 in the kernel features: exit 3 naming the file and its
        row counted from 1, whichever rows become basis centers, and no warning."""
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        lines = (data / name).read_text().splitlines(keepends=True)
        for i in (3, 50, 100):
            lines[i] = re.sub(r"^[^,\n]*", "1e308", lines[i])  # the first cell
        (data / name).write_text("".join(lines))
        model, out = str(trained_run / "model.json"), tmp_path / "out"
        argv = {
            "adapt": ["--model", model, "--intervals", str(trained_run / "intervals.json"),
                      "--report", str(trained_run / "report.json"), "--test", str(data / name), "--out", str(out)],
            "evaluate": ["--model", model, "--theta", "0.5", "--test", str(data / name), "--out", str(out)],
            "train": ["--data", str(data), "--out", str(out), "--gamma", "0.9", "--epochs", "2"],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, *argv, *flags])
        assert (code, [str(w.message) for w in caught]) == (3, [])
        assert capsys.readouterr().err == f"data error: {data / name}: non-finite value or squared norm at line 4\n"
        assert not (out / "model.json" if command == "train" else out).exists()

    def test_model_scoring_non_finite_is_data(self, dataset_dir, trained_run, tmp_path, capsys):
        """A 1e308 basis centre gives NaN test scores, which the sweep would count as accepted."""
        doc = read_json(trained_run / "model.json")
        doc["centers"][5][0] = 1e308
        model = write_doc(tmp_path / "model.json", doc)
        with np.errstate(over="ignore", invalid="ignore"):
            code, wrote = self.adapt(tmp_path, model, trained_run / "intervals.json", dataset_dir / "test_unl.csv")
        assert (code, wrote) == (3, False)
        assert capsys.readouterr().err == CENTER_ERROR

    @pytest.mark.parametrize("command", ["adapt", "evaluate"])
    def test_non_finite_basis_center(self, dataset_dir, trained_run, tmp_path, capsys, command):
        """A 1e308 centre is refused as the model loads: exit 3, one error line, no numpy warning."""
        doc = read_json(trained_run / "model.json")
        doc["centers"][5][0] = 1e308
        model, out = write_doc(tmp_path / "model.json", doc), tmp_path / "out.json"
        argv = {
            "adapt": ["--intervals", str(trained_run / "intervals.json"), "--test", str(dataset_dir / "test_unl.csv"),
                      "--report", str(trained_run / "report.json")],
            "evaluate": ["--theta", "0.5", "--test", str(dataset_dir / "eval_test.csv")],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--model", str(model), *argv, "--out", str(out)])
        assert (code, [str(w.message) for w in caught], out.exists()) == (3, [], False)
        assert capsys.readouterr().err == CENTER_ERROR

    @pytest.mark.parametrize("command", ["adapt", "evaluate"])
    @pytest.mark.parametrize("scores", ["nan", "inf", "kernel"])
    def test_non_finite_model_scores_named(self, dataset_dir, trained_run, tmp_path, capsys, command, scores):
        """A model whose products overflow scores test rows as NaN or infinite.  Both commands refuse such scores:
        exit 3 naming the model file, with no numpy warning.  ``evaluate`` once crashed on NaN scores in writing
        the metrics, and wrote metrics from infinite ones."""
        if scores == "nan":  # hidden units 1e308 x and an output 1e308 (h1 - h2): inf - inf where x > 1
            model = MLP([1, 2, 1], params=[1e308, 1e308, 0, 0, 1e308, -1e308, 0])
        elif scores == "inf":  # a first-layer weight of 1e308 overflows its unit, and the softplus output, to inf
            model = mlp([1, 4, 1], seed=0)
            model.params = np.where(np.arange(model.n_params) == 0, 1e308, model.params)
        else:  # every kernel weight 1e308: the features' sum overflows
            model = load_model(trained_run / "model.json")
            model.params = np.full(model.n_params, 1e308)
        save_model(model, tmp_path / "model.json")
        argv = {
            "adapt": ["--intervals", str(trained_run / "intervals.json"), "--test", str(dataset_dir / "test_unl.csv"),
                      "--report", str(trained_run / "report.json")],
            "evaluate": ["--theta", "0", "--test", str(dataset_dir / "eval_test.csv")],
        }[command]
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--model", str(tmp_path / "model.json"), *argv, "--out", str(out)])
        assert (code, out.exists()) == (3, False)
        err = capsys.readouterr().err
        assert re.fullmatch(rf"data error: {re.escape(str(tmp_path / 'model.json'))}: the model scores [1-9]\d* of 400 "
                            r"test rows as NaN or infinite\n", err), err

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

    @pytest.mark.parametrize("probe", ["list_document", "zero_accept_count"])
    def test_malformed_interval_document(self, dataset_dir, trained_run, tmp_path, probe):
        doc = read_json(trained_run / "intervals.json")
        if probe == "list_document":
            doc = [doc]
        else:
            doc["accept_counts"][-1] = 0  # still strictly decreasing; no positive is accepted there
        bad = tmp_path / "intervals.json"
        bad.write_text(json.dumps(doc))
        code, wrote = self.adapt(tmp_path, trained_run / "model.json", bad, dataset_dir / "test_unl.csv")
        assert (code, wrote) == (3, False)

    @pytest.mark.parametrize(
        "document, path, value, named",
        [
            field_param("intervals.json", ("accept_counts", 0), RAW_1E400, "an entry of accept_counts"),
            field_param("intervals.json", ("accept_counts", 0), 2.5, "an entry of accept_counts"),
            field_param("intervals.json", ("accept_counts", 0), True, "an entry of accept_counts"),
            field_param("intervals.json", ("accept_counts", 1), RAW_1E400, "an entry of accept_counts"),
            field_param("intervals.json", ("accept_counts", 1), 2.5, "an entry of accept_counts"),
            field_param("intervals.json", ("boundaries", 0), "x", "an entry of boundaries"),
            field_param("intervals.json", ("gamma",), "0.9", "gamma"),
            field_param("model.json", ("clamp",), "no", "clamp"),
            field_param("model.json", ("clamp",), 0, "clamp"),
            field_param("model.json", ("centers", 0), 3, "an entry of centers"),
            field_param("model.json", ("params", 0), "x", "an entry of params"),
            field_param("model.json", ("centers", 0, 0), "x", "an entry of an entry of centers"),
            field_param("model.json", ("params", 0), True, "an entry of params"),
            field_param("model.json", ("bandwidth",), True, "bandwidth"),
            pytest.param("model.json", ("bandwidth",), 10**400, "bandwidth", id="model.json-bandwidth-401-digits"),
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
        [("model.json", "clamp"), ("mlp", "output"), ("intervals.json", "gamma")],
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

    @pytest.mark.parametrize("command", ["adapt", "evaluate"])
    def test_mlp_layer_sizes_beyond_memory(self, dataset_dir, trained_run, tmp_path, capsys, command):
        """A 100-byte MLP document whose layer sizes ask for 65 TiB: its params are checked against them before
        anything is allocated, so exit 3, not a MemoryError traceback."""
        model = write_doc(tmp_path / "model.json", {
            "kind": "mlp", "layer_sizes": [3000000, 3000000, 1], "output": "softplus", "params": [],
        })
        argv = {
            "adapt": ["--intervals", str(trained_run / "intervals.json"), "--test", str(dataset_dir / "test_unl.csv"),
                      "--report", str(trained_run / "report.json")],
            "evaluate": ["--theta", "0.5", "--test", str(dataset_dir / "eval_test.csv")],
        }[command]
        out = tmp_path / "out.json"
        assert main([command, "--model", str(model), *argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "data error: invalid model document: params must have shape (9000006000001,), got (0,)\n"
        )
        assert not out.exists()

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
                      "--test", str(dataset_dir / "test_unl.csv"), "--report", str(trained_run / "report.json")],
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

    @pytest.mark.parametrize("field,value", [("config_hash", 5)])
    def test_report_echoed_fields_checked(self, dataset_dir, trained_run, tmp_path, field, value):
        doc = read_json(trained_run / "report.json")
        doc[field] = value
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        out = tmp_path / "adapted.json"
        assert (self.run_adapt(dataset_dir, trained_run, report, out), out.exists()) == (3, False)

    @pytest.mark.parametrize("field,value", [("config_hash", 5)])
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


    def test_both_threshold_sources_refused(self, dataset_dir, trained_run, tmp_path, capsys):
        """With --adapted and --theta, one of them would be ignored without a word."""
        adapted, metrics = tmp_path / "adapted.json", tmp_path / "m.json"
        assert main([
            "adapt", "--model", str(trained_run / "model.json"),
            "--intervals", str(trained_run / "intervals.json"),
            "--test", str(dataset_dir / "test_unl.csv"),
            "--report", str(trained_run / "report.json"), "--out", str(adapted),
        ]) == 0
        code = main([
            "evaluate", "--model", str(trained_run / "model.json"), "--adapted", str(adapted), "--theta", "0.01",
            "--test", str(dataset_dir / "eval_test.csv"), "--out", str(metrics),
        ])
        assert (code, metrics.exists()) == (2, False)
        assert "exactly one of --adapted and --theta" in capsys.readouterr().err


@pytest.fixture(scope="module")
def three_runs(tmp_path_factory):
    """Runs A, B and C on one ``synth --case 1 --seed 7`` dataset, and run A's ``adapted.json``."""
    root = tmp_path_factory.mktemp("three")
    data = root / "data"
    assert main(["synth", "--case", "1", "--seed", "7", "--out", str(data)]) == 0
    for run, flags in (("A", []), ("B", ["--seed", "5"]), ("C", ["--epochs", "5", "--seed", "9", "--bandwidth", "0.5"])):
        assert main(["train", "--data", str(data), "--out", str(root / run), "--epochs", "20", *flags]) == 0
    assert main(adapt_argv(root, "A", "A", "A", root / "A" / "adapted.json")) == 0
    return root


def adapt_argv(root, model, intervals, report, out):
    """``adapt`` on the model, intervals and report of the named runs under ``root``."""
    return ["adapt", "--model", str(root / model / "model.json"), "--intervals", str(root / intervals / "intervals.json"),
            "--report", str(root / report / "report.json"), "--test", str(root / "data" / "test_unl.csv"),
            "--out", str(out)]


def rerun_mismatches():
    """The files that differ, or exist once, between two README chains (``synth --case 1 --seed 7``, ``train
    --epochs 20``, ``adapt``, ``evaluate``) run under two directories of different depths."""
    with tempfile.TemporaryDirectory() as root:
        trees = [Path(root, "a"), Path(root, "b", "nested")]
        for tree in trees:
            data, run = tree / "data", tree / "run"
            assert main(["synth", "--case", "1", "--seed", "7", "--out", str(data)]) == 0
            assert main(["train", "--data", str(data), "--out", str(run), "--epochs", "20"]) == 0
            assert main(adapt_argv(tree, "run", "run", "run", run / "adapted.json")) == 0
            assert main(["evaluate", "--model", str(run / "model.json"), "--adapted", str(run / "adapted.json"),
                         "--test", str(data / "eval_test.csv"), "--out", str(run / "metrics.json")]) == 0
        files = [{p.relative_to(tree) for p in tree.rglob("*") if p.is_file()} for tree in trees]
        differ = {f for f in files[0] & files[1] if (trees[0] / f).read_bytes() != (trees[1] / f).read_bytes()}
        return sorted(map(str, differ | (files[0] ^ files[1])))


class TestRunIdentity:
    """``train`` stamps ``config_hash`` into what it ships; the test site refuses a mix of runs."""

    def test_train_stamps_the_report_identity(self, three_runs):
        for run in "ABC":
            report = read_json(three_runs / run / "report.json")
            for name in ("model.json", "intervals.json"):
                assert read_json(three_runs / run / name)["config_hash"] == report["config_hash"]

    def test_one_config_on_two_datasets_is_two_runs(self, three_runs, tmp_path, capsys):
        """The hash covers the training data: `train --epochs 5` on `synth --seed 7` and on `--seed 8` once
        shared a hash, and adapt on a mix of the two runs exited 0."""
        assert main(["synth", "--case", "1", "--seed", "8", "--out", str(tmp_path / "data")]) == 0
        for run, data in (("seven", three_runs / "data"), ("eight", tmp_path / "data")):
            assert main(["train", "--data", str(data), "--out", str(tmp_path / run), "--epochs", "5"]) == 0
        seven, eight = (read_json(tmp_path / run / "report.json") for run in ("seven", "eight"))
        assert seven["config"] == eight["config"] and seven["config_hash"] != eight["config_hash"]
        out = tmp_path / "adapted.json"
        assert (main(adapt_argv(tmp_path, "seven", "eight", "seven", out)), out.exists()) == (3, False)
        err = capsys.readouterr().err
        assert err.startswith("data error: inputs come from different runs: ")
        assert seven["config_hash"] in err and eight["config_hash"] in err

    def test_reruns_in_other_directories_are_byte_identical(self):
        """At one BLAS thread two README chains on equal data, with other --data and --out paths, write the same
        bytes in every file: no output holds a path."""
        proc = run_at_one_blas_thread("test_cli.rerun_mismatches()")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("runs", ["ABC", "AAB", "ABA", "BAA"])
    def test_adapt_across_runs_exits_3(self, three_runs, tmp_path, capsys, runs):
        """Model A, intervals B and report C wrote theta 0.8270 under C's hash before the identity was checked."""
        out = tmp_path / "adapted.json"
        assert (main(adapt_argv(three_runs, *runs, out)), out.exists()) == (3, False)
        err = capsys.readouterr().err
        assert err.startswith("data error: inputs come from different runs: ")
        assert all(read_json(three_runs / run / "report.json")["config_hash"] in err for run in runs)

    @pytest.mark.parametrize("document", ["model.json", "intervals.json"])
    @pytest.mark.parametrize("field, value", [("config_hash", 5)])
    def test_mistyped_identity_named(self, three_runs, tmp_path, capsys, document, field, value):
        doc = write_doc(tmp_path / document, replaced(read_json(three_runs / "A" / document), (field,), value))
        out = tmp_path / "adapted.json"
        argv = adapt_argv(three_runs, "A", "A", "A", out)
        argv[argv.index(str(three_runs / "A" / document))] = str(doc)
        assert (main(argv), out.exists()) == (3, False)
        assert capsys.readouterr().err.startswith(f"data error: {doc}: {field} must be")

    @pytest.mark.parametrize("document", ["model.json", "intervals.json", "report.json"])
    def test_stale_seed_is_ignored(self, three_runs, tmp_path, document):
        """Earlier versions wrote a ``seed`` beside ``config_hash``; the hash covers ``config.seed``, so a stale
        copy, even of the wrong type, changes no byte of the output."""
        doc = write_doc(tmp_path / document, {**read_json(three_runs / "A" / document), "seed": "7"})
        out = tmp_path / "adapted.json"
        argv = adapt_argv(three_runs, "A", "A", "A", out)
        argv[argv.index(str(three_runs / "A" / document))] = str(doc)
        assert main(argv) == 0
        assert out.read_bytes() == (three_runs / "A" / "adapted.json").read_bytes()

    def test_evaluate_across_runs_exits_3(self, three_runs, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(["evaluate", "--model", str(three_runs / "B" / "model.json"),
                     "--adapted", str(three_runs / "A" / "adapted.json"),
                     "--test", str(three_runs / "data" / "eval_test.csv"), "--out", str(out)])
        assert (code, out.exists()) == (3, False)
        err = capsys.readouterr().err
        assert all(read_json(three_runs / run / "report.json")["config_hash"] in err for run in "AB")

    def test_files_without_identity_are_accepted(self, three_runs, tmp_path):
        """``save_model`` and ``ThresholdIntervals.save`` write no identity; the report's is the one shared."""
        model, intervals = tmp_path / "model.json", tmp_path / "intervals.json"
        save_model(load_model(three_runs / "A" / "model.json"), model)
        ThresholdIntervals.load(three_runs / "A" / "intervals.json").save(intervals)
        argv = adapt_argv(three_runs, "A", "A", "A", tmp_path / "adapted.json")
        argv[argv.index("--model") + 1], argv[argv.index("--intervals") + 1] = str(model), str(intervals)
        assert main(argv) == 0
        assert (tmp_path / "adapted.json").read_bytes() == (three_runs / "A" / "adapted.json").read_bytes()
        metrics = tmp_path / "metrics.json"
        assert main(["evaluate", "--model", str(model), "--theta", "0.5",
                     "--test", str(three_runs / "data" / "eval_test.csv"), "--out", str(metrics)]) == 0
        assert read_json(metrics)["config_hash"] is None


IDENTITY = {"config_hash"}
EVALUATE_KEYS = {"theta", "n_test", "accuracy", "auc", "auc_ties_at_half", "boundary", *IDENTITY}
ESTIMATE_KEYS = {"value", "raw_value", "argmin_threshold", "gamma_bar", "n_unl_used"}


def test_output_documents_state_each_value_once(dataset_dir, trained_run, tmp_path):
    """The exact top-level keys of each document one CLI chain writes: a removed copy cannot come back
    unnoticed, the run identity is in every document, and no document holds a path."""
    assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "nnpu"), "--method", "nnpu",
                 "--prior", "0.4", "--epochs", "2"]) == 0
    adapted, by_adapted, by_theta = (tmp_path / name for name in ("a.json", "m.json", "t.json"))
    model, test = str(trained_run / "model.json"), str(dataset_dir / "eval_test.csv")
    assert main(["adapt", "--model", model, "--intervals", str(trained_run / "intervals.json"),
                 "--report", str(trained_run / "report.json"), "--test", str(dataset_dir / "test_unl.csv"),
                 "--out", str(adapted)]) == 0
    assert main(["evaluate", "--model", model, "--adapted", str(adapted), "--test", test, "--out", str(by_adapted)]) == 0
    assert main(["evaluate", "--model", model, "--theta", "0.5", "--test", test, "--out", str(by_theta)]) == 0
    keys = {
        dataset_dir / "manifest.json": {"config", "dim", "files", *IDENTITY},
        trained_run / "report.json": {"config", "pi_hat", "best_epoch", *IDENTITY},
        tmp_path / "nnpu" / "report.json": {"config", "best_epoch", *IDENTITY},
        trained_run / "model.json": {"kind", "bandwidth", "clamp", "centers", "params", *IDENTITY},
        tmp_path / "nnpu" / "model.json": {"kind", "bandwidth", "clamp", "centers", "params", *IDENTITY},
        trained_run / "intervals.json": {"gamma", "boundaries", "accept_counts", *IDENTITY},
        adapted: {"pi_hat", "pi_prime", "c0", "theta", "cost", *IDENTITY},
        by_adapted: EVALUATE_KEYS,
        by_theta: EVALUATE_KEYS,
    }
    assert {path: set(read_json(path)) for path in keys} == keys
    report = read_json(trained_run / "report.json")
    assert set(report["pi_hat"]) == set(read_json(adapted)["pi_prime"]) == ESTIMATE_KEYS
    for path in (trained_run / "model.json", trained_run / "intervals.json", adapted, by_adapted, by_theta):
        assert read_json(path)["config_hash"] == report["config_hash"]
    for path in keys:
        assert not [d for d in (dataset_dir, trained_run, tmp_path) if str(d) in path.read_text()], path


@pytest.mark.parametrize("command", ["synth", "train", "adapt", "evaluate"])
def test_unwritable_output_is_config_error(dataset_dir, trained_run, tmp_path, capsys, command):
    """An output path under a regular file exits 2 with the path named, not an OSError traceback,
    and before any work: nothing is printed."""
    (tmp_path / "afile").write_text("")
    inputs = {
        "synth": ["--n-test", "10"],
        "train": ["--data", str(dataset_dir), "--epochs", "1", "--gamma", "0.9"],
        "adapt": ["--model", str(trained_run / "model.json"), "--intervals", str(trained_run / "intervals.json"),
                  "--test", str(dataset_dir / "test_unl.csv"), "--report", str(trained_run / "report.json")],
        "evaluate": ["--model", str(trained_run / "model.json"), "--test", str(dataset_dir / "eval_test.csv"),
                     "--theta", "0.5"],
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
        "adapt": ["--intervals", str(tmp_path / "none.json"), "--test", str(dataset_dir / "test_unl.csv"),
                  "--report", str(tmp_path / "none.json")],
        "evaluate": ["--test", str(dataset_dir / "eval_test.csv"), "--theta", "0.5"],
    }[command]
    code = main([command, "--model", str(tmp_path / "missing.json"), *inputs, "--out", str(tmp_path / "afile" / "x")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: cannot write output:")


class TestParser:
    """Every subcommand is listed; only the invoked one's arguments are built."""

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        printed = capsys.readouterr().out
        assert "{synth,train,adapt,evaluate}" in printed
        for name, (help_text, _, _) in COMMANDS.items():
            assert name in printed and help_text in printed

    @pytest.mark.parametrize(
        "command, flag",
        [("synth", "--n-train-pos"), ("train", "--max-centers"), ("adapt", "--report"), ("evaluate", "--theta")],
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
        assert "--report" in built["adapt"]
        assert all(built[name] == ["-h", "--help"] for name in COMMANDS if name != "adapt")
