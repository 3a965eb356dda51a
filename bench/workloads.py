"""The benchmark's workloads and the checks on their outputs.

Every workload drives pushift through its public functions only.  ``op(i)``
is one timed operation; ``check(i, out)`` runs untimed afterwards and
compares the program's outputs with ``oracles``; ``summary(records)`` checks
what needs a whole block of operations and returns the mean accuracy.  A
run always completes at least ``block`` operations, and accuracy is averaged
over exactly those, so it does not depend on how fast the machine is.

* ``kernel_case2``: the criterion-2 recipe, one seed per operation.  The
  training loop over a cached Gaussian-kernel feature matrix dominates.
* ``mlp_shift10d``: the criterion-8 recipe, one seed per operation.  MLP
  forward and backward passes, two nnPU baselines, four adapted priors.
* ``cli_stream``: the test site.  Set-up runs ``synth``, writes the test
  CSVs and trains a compact model; each operation is one ``adapt`` and one
  ``evaluate`` call on a 20 000-row batch, cycling through four test priors.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
from time import perf_counter

import numpy as np

import oracles
from pushift import baselines, classifier, cli, data, experiments, metrics, models, prior, trainer

COST = 0.5
GAMMA = 0.9
# Accuracy a test set may lose against the Bayes rule through estimation error.
# Probes saw at most 0.053 over about 100 test sets of the three workloads; the
# margin catches a pipeline that is badly wrong, and the exact checks on the
# sweep and the threshold catch one that is subtly wrong.
LOSS_MARGIN = 0.10


class CheckError(AssertionError):
    """An output of the program disagrees with its independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def strict_json(raw: bytes):
    """Parse a JSON document, refusing the NaN and Infinity tokens that JSON does not have."""

    def refuse(token):
        raise CheckError(f"not valid JSON: bare {token}")

    return json.loads(raw, parse_constant=refuse)


def op_seed(run_seed: int, i: int) -> int:
    """Seed of operation i, derived from the run's seed."""
    return int(np.random.SeedSequence((run_seed, i)).generate_state(1)[0])


def _interior(p: float) -> float:
    return min(1.0 - 1e-6, max(1e-6, float(p)))


def check_sweep(est: dict, r_pos, r_unl, what: str) -> None:
    """The program's prior estimate equals the brute-force sweep, bit for bit."""
    floor = oracles.admissibility_floor(np.size(r_pos), np.size(r_unl), GAMMA)
    require(abs(est["gamma_bar"] - floor) <= 1e-12 * floor, f"{what}: gamma_bar {est['gamma_bar']!r} != {floor!r}")
    ratio, threshold = oracles.brute_force_sweep(r_pos, r_unl, floor)
    require(
        est["raw_value"] == ratio and est["argmin_threshold"] == threshold,
        f"{what}: sweep gives {est['raw_value']!r} at {est['argmin_threshold']!r}, "
        f"brute force {ratio!r} at {threshold!r}",
    )


def check_threshold(pi_hat: float, pi_prime: float, c0: float, theta: float, what: str) -> None:
    """theta = c0 / pi_hat with c0 in closed form."""
    want_c0, want_theta = oracles.matched_cost(_interior(pi_hat), _interior(pi_prime), COST)
    require(
        math.isclose(c0, want_c0, rel_tol=1e-12) and math.isclose(theta, want_theta, rel_tol=1e-12),
        f"{what}: (c0, theta) = ({c0!r}, {theta!r}), closed form ({want_c0!r}, {want_theta!r})",
    )


def check_accuracy(acc: float, scores, labels, theta: float, scenario: str, test_prior: float, what: str):
    """Recount the accuracy and bound it by the Bayes accuracy."""
    recount = float(np.mean((np.asarray(scores) >= theta) == (np.asarray(labels) == 1)))
    require(abs(acc - recount) <= 1e-12, f"{what}: accuracy {acc!r}, recounted {recount!r}")
    lo, hi = oracles.accuracy_bounds(scenario, test_prior, len(labels), LOSS_MARGIN)
    require(lo <= acc <= hi, f"{what}: accuracy {acc:.4f} outside [{lo:.4f}, {hi:.4f}] around Bayes")


def check_fit(fit, split, what: str):
    """pi_hat from the sweep, and the same estimate from the interval summary."""
    r_pos = fit.model.predict(split.val.positives)
    r_unl = fit.model.predict(split.val.unlabeled)
    check_sweep(fit.pi_hat.to_dict(), r_pos, r_unl, f"{what} pi_hat")
    summary = prior.estimate_test_prior(fit.intervals, r_unl)
    require(summary == fit.pi_hat, f"{what}: interval-summary estimate {summary} != raw-score {fit.pi_hat}")
    return r_pos


def check_adapt(adapted, pi_hat: float, r_pos, r_test, what: str) -> None:
    check_sweep(adapted.pi_prime.to_dict(), r_pos, r_test, f"{what} pi_prime")
    check_threshold(pi_hat, adapted.pi_prime.value, adapted.c0, adapted.theta, what)


def scored_accuracy(model, X, labels, theta: float):
    scores = model.predict(X)
    return metrics.accuracy(labels, classifier.threshold_decisions(scores, theta)), scores


class KernelCase2:
    """Criterion 2: case 2, 1000/5000 train and validation, 1000 centers, 5000 test rows at prior 0.4."""

    name = "kernel_case2"
    block = 3
    round = 1

    def __init__(self, run_seed: int, workdir: str):
        self.run_seed = run_seed

    def prepare(self) -> None:
        """Nothing beyond the import: each operation generates its own seed's data."""

    def op(self, i: int) -> dict:
        seed = op_seed(self.run_seed, i)
        mix = data.case2_mixture()
        s_train, s_val, s_test = np.random.SeedSequence(seed).spawn(3)
        split = data.SplitDataset(
            train=data.synth_from_mixture(mix, 1000, 5000, 0.6, s_train),
            val=data.synth_from_mixture(mix, 1000, 5000, 0.6, s_val),
        )
        test = data.synth_from_mixture(mix, 1, 5000, 0.4, s_test)
        cfg = trainer.TrainConfig(alpha=0.0, epochs=200, batch_size=500, learning_rate=2e-4, seed=seed)
        fit = experiments.fit_drpu(split, cfg, gamma=GAMMA, max_centers=1000, bandwidth=1.5)
        adapted = experiments.adapt_threshold(fit.model, fit.intervals, test.unlabeled, fit.pi_hat.value, cost=COST)
        boundary = experiments.decision_boundary_1d(fit.model.predict, adapted.theta)
        acc, scores = scored_accuracy(fit.model, test.unlabeled, test.hidden_labels, adapted.theta)
        return dict(split=split, test=test, fit=fit, adapted=adapted, boundary=boundary, accuracy=acc, scores=scores)

    def check(self, i: int, out: dict) -> dict:
        fit, adapted, test = out["fit"], out["adapted"], out["test"]
        r_pos = check_fit(fit, out["split"], f"seed {i}")
        check_adapt(adapted, fit.pi_hat.value, r_pos, out["scores"], f"seed {i}")
        check_accuracy(
            out["accuracy"], out["scores"], test.hidden_labels, adapted.theta, "case2", 0.4, f"seed {i}"
        )
        require(math.isfinite(out["boundary"]), f"seed {i}: no decision boundary")
        return {"accuracy": out["accuracy"], "boundary_error": abs(out["boundary"] - math.log(2.0) / 2.0)}

    def summary(self, records: list) -> float:
        return float(np.mean([r["accuracy"] for r in records]))

    def details(self, records: list) -> dict:
        return {"boundary_error.mean": float(np.mean([r["boundary_error"] for r in records]))}


class MlpShift10d:
    """Criterion 8: a 10-32-32-1 ratio MLP and two nnPU baselines, adapted at four test priors."""

    name = "mlp_shift10d"
    block = 8
    round = 1
    test_priors = (0.2, 0.4, 0.6, 0.8)
    train_prior = 0.4

    def __init__(self, run_seed: int, workdir: str):
        self.run_seed = run_seed

    def prepare(self) -> None:
        """Nothing beyond the import: each operation generates its own seed's data."""

    def op(self, i: int) -> dict:
        seed = op_seed(self.run_seed, i)
        s_tr, s_va, *s_tests = np.random.SeedSequence((seed, 9001)).spawn(2 + len(self.test_priors))
        split = data.SplitDataset(
            train=data.synth_gaussian_pair(10, 500, 2500, self.train_prior, s_tr),
            val=data.synth_gaussian_pair(10, 300, 1500, self.train_prior, s_va),
        )
        tests = [data.synth_gaussian_pair(10, 1, 3000, p, s) for p, s in zip(self.test_priors, s_tests)]
        cfg = trainer.TrainConfig(
            alpha=0.35, epochs=60, batch_size=250, learning_rate=2e-3,
            adam_beta1=0.9, adam_beta2=0.999, l2_reg=1e-4, seed=seed,
        )
        layers = [10, 32, 32, 1]
        fit = experiments.fit_drpu(split, cfg, gamma=GAMMA, model=models.mlp(layers, seed=seed, output="softplus"))
        references = {}
        for name, p in (("nnpu_true", self.train_prior), ("nnpu_misestimated", self.train_prior + 0.15)):
            net = models.mlp(layers, seed=seed + 1000, output="linear")
            references[name], _ = baselines.train_baseline("nnpu", baselines.sigmoid_loss(), p, net, split, cfg)
        per_prior = []
        for test in tests:
            adapted = experiments.adapt_threshold(fit.model, fit.intervals, test.unlabeled, fit.pi_hat.value, cost=COST)
            acc, scores = scored_accuracy(fit.model, test.unlabeled, test.hidden_labels, adapted.theta)
            ref_acc = {
                name: scored_accuracy(net, test.unlabeled, test.hidden_labels, 0.0)[0]
                for name, net in references.items()
            }
            per_prior.append(dict(adapted=adapted, accuracy=acc, scores=scores, references=ref_acc))
        return dict(split=split, tests=tests, fit=fit, per_prior=per_prior)

    def check(self, i: int, out: dict) -> dict:
        fit = out["fit"]
        r_pos = check_fit(fit, out["split"], f"seed {i}")
        for p, test, res in zip(self.test_priors, out["tests"], out["per_prior"]):
            what = f"seed {i} prior {p}"
            check_adapt(res["adapted"], fit.pi_hat.value, r_pos, res["scores"], what)
            check_accuracy(
                res["accuracy"], res["scores"], test.hidden_labels, res["adapted"].theta,
                "pair10d", p, what,
            )
        return {
            "accuracy": float(np.mean([r["accuracy"] for r in out["per_prior"]])),
            "nnpu_misestimated": float(np.mean([r["references"]["nnpu_misestimated"] for r in out["per_prior"]])),
        }

    def summary(self, records: list) -> float:
        drpu = float(np.mean([r["accuracy"] for r in records]))
        misest = float(np.mean([r["nnpu_misestimated"] for r in records]))
        require(drpu > misest, f"drpu average accuracy {drpu:.4f} <= nnPU with a misestimated prior {misest:.4f}")
        return drpu

    def details(self, records: list) -> dict:
        return {"nnpu_misestimated.accuracy": float(np.mean([r["nnpu_misestimated"] for r in records]))}


class CliStream:
    """The test site through ``pushift.cli.main``: adapt and evaluate on 20 000-row CSV batches."""

    name = "cli_stream"
    test_priors = (0.2, 0.4, 0.6, 0.8)
    block = len(test_priors)
    round = len(test_priors)
    n_test = 20000

    def __init__(self, run_seed: int, workdir: str):
        self.run_seed = run_seed
        self.workdir = workdir
        self.setups = 0
        self.first_round = {}
        self.reference = None

    def _cli(self, *argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"pushift {argv[0]} exited with code {code}")

    def _path(self, *parts) -> str:
        return os.path.join(self.dir, *parts)

    def prepare(self) -> None:
        """synth, the labeled and unlabeled test CSVs, and one compact train."""
        self.setups += 1
        self.dir = os.path.join(self.workdir, f"setup{self.setups}")
        seed = op_seed(self.run_seed, 0)
        self._cli("synth", "--case", "1", "--seed", str(seed), "--out", self._path("data"))
        streams = np.random.SeedSequence((self.run_seed, 7)).spawn(len(self.test_priors))
        for p, s in zip(self.test_priors, streams):
            test = data.synth_case1(1, self.n_test, p, s)
            data.save_csv(self._path("data", f"test_{p}.csv"), test.unlabeled)
            data.save_csv(self._path("data", f"eval_{p}.csv"), test.unlabeled, labels=test.hidden_labels)
        self._cli(
            "train", "--data", self._path("data"), "--out", self._path("run"), "--seed", str(seed),
            "--max-centers", "100", "--learning-rate", "2e-3", "--gamma", str(GAMMA),
        )

    def op(self, i: int) -> dict:
        p = self.test_priors[i % len(self.test_priors)]
        model, adapted, scored = self._path("run", "model.json"), self._path(f"adapted_{p}.json"), self._path(f"metrics_{p}.json")
        t0 = perf_counter()
        self._cli(
            "adapt", "--model", model, "--intervals", self._path("run", "intervals.json"),
            "--test", self._path("data", f"test_{p}.csv"), "--report", self._path("run", "report.json"), "--out", adapted,
        )
        t1 = perf_counter()
        self._cli("evaluate", "--model", model, "--test", self._path("data", f"eval_{p}.csv"), "--adapted", adapted, "--out", scored)
        return dict(prior=p, adapted=adapted, scored=scored, adapt_s=t1 - t0, evaluate_s=perf_counter() - t1)

    def _load(self, name: str) -> np.ndarray:
        """A CSV of the set-up, parsed apart from pushift."""
        return np.loadtxt(self._path("data", name), delimiter=",", ndmin=2)

    def _reference_scores(self):
        """The trained model and its validation scores; checks the training-time pi_hat."""
        model = models.load_model(self._path("run", "model.json"))
        r_pos, r_unl = model.predict(self._load("val_pos.csv")), model.predict(self._load("val_unl.csv"))
        with open(self._path("run", "report.json")) as fh:
            pi_hat = json.load(fh)["pi_hat"]
        check_sweep(pi_hat, r_pos, r_unl, "train pi_hat")
        summary = prior.estimate_test_prior(prior.ThresholdIntervals.load(self._path("run", "intervals.json")), r_unl)
        require(summary.to_dict() == pi_hat, f"interval-summary estimate {summary} != report {pi_hat}")
        return model, r_pos

    def check(self, i: int, out: dict) -> dict:
        p = out["prior"]
        with open(out["adapted"], "rb") as fh:
            adapted_bytes = fh.read()
        with open(out["scored"], "rb") as fh:
            scored_bytes = fh.read()
        record = {"prior": p, "adapt_s": out["adapt_s"], "evaluate_s": out["evaluate_s"]}
        if p in self.first_round:
            first = self.first_round[p]
            require(adapted_bytes == first["adapted"], f"call {i}: adapted.json at prior {p} differs from the first call")
            require(scored_bytes == first["scored"], f"call {i}: metrics.json at prior {p} differs from the first call")
            return record
        if self.reference is None:
            self.reference = self._reference_scores()
        model, r_pos = self.reference
        doc, scored = strict_json(adapted_bytes), strict_json(scored_bytes)
        X_test, labeled = self._load(f"test_{p}.csv"), self._load(f"eval_{p}.csv")
        r_test = model.predict(X_test)
        what = f"prior {p}"
        check_sweep(doc["pi_prime"], r_pos, r_test, f"{what} pi_prime")
        direct = prior.estimate_prior(r_pos, r_test, gamma=GAMMA).to_dict()
        require(direct == doc["pi_prime"], f"{what}: interval-summary estimate {doc['pi_prime']} != raw-score {direct}")
        check_threshold(doc["pi_hat"], doc["pi_prime"]["value"], doc["c0"], doc["theta"], what)
        require(np.array_equal(labeled[:, :-1], X_test), f"{what}: labeled and unlabeled batches differ")
        check_accuracy(scored["accuracy"], r_test, labeled[:, -1], doc["theta"], "case1", p, what)
        self.first_round[p] = {"adapted": adapted_bytes, "scored": scored_bytes, "pi_prime": doc["pi_prime"]["value"]}
        record["accuracy"] = scored["accuracy"]
        return record

    def summary(self, records: list) -> float:
        require(len(self.first_round) == len(self.test_priors), "a test prior was never adapted")
        rising = [self.first_round[p]["pi_prime"] for p in self.test_priors]
        require(all(a < b for a, b in zip(rising, rising[1:])), f"pi_prime does not rise with the test prior: {rising}")
        return float(np.mean([r["accuracy"] for r in records]))

    def details(self, records: list) -> dict:
        """Per-call latencies (a p90 only with at least 100 calls) and the trained files' sha256."""
        adapt = [r["adapt_s"] * 1e3 for r in records]
        out = {}
        for name in ("model.json", "intervals.json"):
            with open(self._path("run", name), "rb") as fh:
                out[f"{name}.sha256"] = hashlib.sha256(fh.read()).hexdigest()
        out.update({
            "adapt_ms.p50": statistics.median(adapt),
            "evaluate_ms.p50": statistics.median(r["evaluate_s"] * 1e3 for r in records),
        })
        if len(adapt) >= 100:
            out["adapt_ms.p90"] = percentile(adapt, 90)
        return out


WORKLOADS = {w.name: w for w in (KernelCase2, MlpShift10d, CliStream)}
