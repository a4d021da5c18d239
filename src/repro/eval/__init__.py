"""Evaluation: accuracy metrics and Monte Carlo robustness under variability."""

from repro.eval.metrics import top1_accuracy
from repro.eval.robustness import RobustnessResult, evaluate_clean, evaluate_robustness
from repro.eval.statistics import (
    accuracy_quantiles,
    accuracy_spec_at_yield,
    bootstrap_mean_interval,
    epsilon_profile,
    mean_confidence_interval,
    parametric_yield,
    summarize,
    worst_k_mean,
)

__all__ = [
    "top1_accuracy",
    "RobustnessResult",
    "evaluate_robustness",
    "evaluate_clean",
    "accuracy_quantiles",
    "mean_confidence_interval",
    "bootstrap_mean_interval",
    "parametric_yield",
    "accuracy_spec_at_yield",
    "worst_k_mean",
    "epsilon_profile",
    "summarize",
]
