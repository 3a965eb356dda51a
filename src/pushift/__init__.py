"""pushift: positive-unlabeled classification via density ratio estimation.

Train a nonnegative ratio model from positive and unlabeled samples without
knowing any class-prior, estimate the training and test-time priors by
threshold sweeps over the fitted scores, and place a cost-sensitive decision
threshold that adapts to test-time class-prior shift using only a compact
summary of the training scores.
"""

from .baselines import SurrogateLoss, logistic_loss, risk_objective, sigmoid_loss, train_baseline
from .classifier import ShiftSpec, cost_threshold, threshold_decisions
from .data import (
    GaussianMixtureSpec,
    PUDataset,
    SplitDataset,
    case1_mixture,
    case2_mixture,
    load_csv,
    save_csv,
    synth_case1,
    synth_gaussian_pair,
)
from .divergence import Branch, Objective, ratio_objective
from .errors import ConfigError, DataError, DegeneratePriorError, TrainingDiverged
from .experiments import (
    adapt_threshold,
    decision_boundary_1d,
    fit_drpu,
    gaussian_case_experiment,
    shift_robustness_experiment,
)
from .generators import (
    BregmanGenerator,
    exp_generator,
    generator_by_name,
    lsif_generator,
    scaled_quadratic_generator,
)
from .metrics import accuracy, auc, ties_present
from .models import MLP, GaussianBasisLinear, load_model, mlp, save_model
from .prior import (
    PriorEstimate,
    ThresholdIntervals,
    build_intervals,
    epsilon,
    estimate_prior,
    estimate_test_prior,
    gamma_bar,
)
from .trainer import AdamState, TrainConfig, TrainReport, adam_step, train

__version__ = "0.1.0"
