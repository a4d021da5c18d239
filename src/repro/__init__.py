"""Reproduction of Deng & Orshansky, "Variability-Aware Training and
Self-Tuning of Highly Quantized DNNs for Analog PIM" (DATE 2022).

Top-level convenience re-exports; see docs/architecture.md for the package map.
"""

from repro import (
    autograd,
    datasets,
    eval,
    models,
    nn,
    obs,
    pim,
    quant,
    selftuning,
    serve,
    training,
    variability,
)
from repro.quant import QConfig, calibrate_model, convert_to_quantized
from repro.variability import (
    LayerFixedVariance,
    VariabilityInjector,
    VariabilitySpec,
    WeightProportionalVariance,
)
from repro.selftuning import SelfTuningConfig, attach_self_tuning
from repro.training import QavatTrainer, train_ptq_vat, train_qat, train_qavat
from repro.eval import evaluate_clean, evaluate_robustness
from repro.nn import reestimate_bn_statistics
from repro.variability import FaultSpec, evaluate_fault_robustness
from repro.serve import InferenceEngine, ServeConfig

__version__ = "1.0.0"

__all__ = [
    "autograd",
    "nn",
    "models",
    "quant",
    "variability",
    "pim",
    "selftuning",
    "serve",
    "training",
    "eval",
    "datasets",
    "obs",
    "QConfig",
    "convert_to_quantized",
    "calibrate_model",
    "VariabilitySpec",
    "VariabilityInjector",
    "WeightProportionalVariance",
    "LayerFixedVariance",
    "SelfTuningConfig",
    "attach_self_tuning",
    "QavatTrainer",
    "train_qavat",
    "train_qat",
    "train_ptq_vat",
    "evaluate_clean",
    "evaluate_robustness",
    "reestimate_bn_statistics",
    "FaultSpec",
    "evaluate_fault_robustness",
    "InferenceEngine",
    "ServeConfig",
]
