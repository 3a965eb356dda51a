#!/usr/bin/env python3
# The overfitting contrast that motivates the non-negative corrections:
# a flexible model driven by the unbiased PU risk pushes its training risk
# below zero (impossible for any true risk), while the corrected estimators
# stay nonnegative and generalize.

from pushift import (
    GaussianBasisLinear,
    SplitDataset,
    TrainConfig,
    logistic_loss,
    lsif_generator,
    ratio_objective,
    sigmoid_loss,
    synth_case1,
    train,
    train_baseline,
)

# 20 positives, narrow kernels: one basis function per unlabeled point can
# memorize the sample
split = SplitDataset(
    train=synth_case1(20, 100, prior=0.4, seed=0),
    val=synth_case1(20, 100, prior=0.4, seed=1),
)
cfg = TrainConfig(epochs=150, batch_size=100, learning_rate=5e-2, l2_reg=0.0, seed=0)

upu = GaussianBasisLinear(split.train.unlabeled, bandwidth=0.3, clamp=False)
upu, upu_report = train_baseline("upu", logistic_loss(), 0.4, upu, split, cfg)

nnpu = GaussianBasisLinear(split.train.unlabeled, bandwidth=0.3, clamp=False)
nnpu, nnpu_report = train_baseline("nnpu", sigmoid_loss(), 0.4, nnpu, split, cfg)

ratio = GaussianBasisLinear(split.train.unlabeled, bandwidth=0.3)
rcfg = TrainConfig(alpha=0.9, epochs=150, batch_size=100, learning_rate=5e-2, l2_reg=0.0, seed=0)
ratio, ratio_report = train(ratio, split, ratio_objective(lsif_generator(), rcfg.alpha), rcfg)

print("epoch   uPU train risk   nnPU train risk   corrected ratio objective")
for epoch in range(0, 150, 15):
    print(
        f"{epoch:5d} {upu_report.train_objective[epoch]:16.4f} "
        f"{nnpu_report.train_objective[epoch]:17.4f} "
        f"{ratio_report.train_objective[epoch]:25.4f}"
    )

print(f"\nmin uPU train risk:  {min(upu_report.train_objective):+.4f}  (negative: overfit)")
print(f"min nnPU train risk: {min(nnpu_report.train_objective):+.4f}  (clipped at zero)")
frac = max(ratio_report.corrected_fraction)
print(f"ratio trainer defensive-branch usage peaks at {frac:.0%} of batches")
