#!/usr/bin/env python3
# The privacy-preserving adaptation story: after training, keep only the
# model and a compact summary of the positive validation scores (the
# acceptance-rate step function).  The training data can be discarded; the
# summary alone supports estimating a shifted test prior later.

import tempfile
from pathlib import Path

from pushift import (
    SplitDataset,
    TrainConfig,
    ThresholdIntervals,
    adapt_threshold,
    fit_drpu,
    load_model,
    save_model,
    synth_case1,
)

split = SplitDataset(
    train=synth_case1(200, 1000, prior=0.4, seed=0),
    val=synth_case1(100, 500, prior=0.4, seed=1),
)
cfg = TrainConfig(alpha=0.0, epochs=120, batch_size=200, learning_rate=2e-4, seed=0)
fit = fit_drpu(split, cfg, gamma=0.9)
print(f"estimated training prior: {fit.pi_hat.value:.4f} (true 0.4)")

# serialize the model and the summary, pretend the training data is gone
workdir = Path(tempfile.mkdtemp())
model_path, summary_path = workdir / "model.json", workdir / "intervals.json"
save_model(fit.model, model_path)
fit.intervals.save(summary_path)
size = summary_path.stat().st_size
print(f"interval summary: {size} bytes for {fit.intervals.n_pos} positives")

model, intervals = load_model(model_path), ThresholdIntervals.load(summary_path)

# a year later: unlabeled data arrives from a shifted distribution
test = synth_case1(1, 1000, prior=0.6, seed=2)
adapted = adapt_threshold(model, intervals, test.unlabeled, fit.pi_hat.value, cost=0.5)
print(f"estimated test prior:     {adapted.pi_prime.value:.4f} (true 0.6)")
print(f"matched cost c0 = {adapted.c0:.4f}, ratio threshold = {adapted.theta:.4f}")

# sanity: feeding back the validation data the summary was built from
# reproduces the training-time estimate exactly, because the summary is a
# lossless description of the positive acceptance rates
no_shift = adapt_threshold(model, intervals, split.val.unlabeled, fit.pi_hat.value)
assert abs(no_shift.pi_prime.value - fit.pi_hat.value) < 1e-12
print("\nno-shift collapse check: pi_prime == pi_hat exactly, threshold = cost/pi_hat")
