"""Experiment runner: train a method, evaluate its robustness, report rows."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends import ChipBackend, make_backend
from repro.datasets.loaders import batch_source
from repro.eval.robustness import RobustnessResult, evaluate_clean, evaluate_robustness
from repro.experiments.configs import (
    ExperimentScale,
    MethodConfig,
    dataset_for,
    model_for,
)
from repro.quant.qconfig import QConfig
from repro.selftuning.tuner import SelfTuningConfig
from repro.training.baselines import train_ptq_vat, train_qat, train_qavat
from repro.variability.sampler import VariabilitySpec

METHODS = ("qavat", "qat", "ptq-vat")


@dataclass
class MethodResult:
    """One table cell: a trained model's robustness under an eval spec."""

    method: str
    model_name: str
    notation: str
    train_spec: VariabilitySpec
    eval_spec: VariabilitySpec
    clean_accuracy: float
    robustness: RobustnessResult
    extras: dict = field(default_factory=dict)

    @property
    def mean_accuracy(self) -> float:
        return self.robustness.mean


def train_method(
    method: str,
    model_name: str,
    workload: str,
    qconfig: QConfig,
    train_spec: VariabilitySpec,
    scale: ExperimentScale,
    method_config: MethodConfig = MethodConfig(),
):
    """Train one (method, workload, spec) combination; returns (model, test set)."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    train, test = dataset_for(workload, scale)
    model = model_for(model_name, workload, scale, seed=1 + method_config.seed)
    source = batch_source(train, scale.batch_size, seed=method_config.seed)
    if method == "qavat":
        train_qavat(
            model,
            source,
            qconfig,
            train_spec,
            epochs=scale.train_epochs,
            lr=scale.lr,
            n_variation_samples=method_config.n_variation_samples,
            float_pretrain_epochs=scale.float_pretrain_epochs,
            injection_mode=method_config.injection_mode,
            seed=method_config.seed,
        )
    elif method == "qat":
        train_qat(
            model,
            source,
            qconfig,
            epochs=scale.train_epochs,
            lr=scale.lr,
            float_pretrain_epochs=scale.float_pretrain_epochs,
            seed=method_config.seed,
        )
    else:  # ptq-vat: float VAT for the whole budget, then PTQ.
        train_ptq_vat(
            model,
            source,
            qconfig,
            train_spec,
            epochs=scale.float_pretrain_epochs + scale.train_epochs,
            lr=scale.lr,
            seed=method_config.seed,
        )
    return model, test


def run_method(
    method: str,
    model_name: str,
    workload: str,
    qconfig: QConfig,
    train_spec: VariabilitySpec,
    eval_spec: VariabilitySpec,
    scale: ExperimentScale,
    method_config: MethodConfig = MethodConfig(),
    self_tuning: SelfTuningConfig | None = None,
    backend: str | ChipBackend = "fake-quant",
) -> MethodResult:
    """Train + Monte-Carlo evaluate one method; optionally with self-tuning.

    Evaluation programs each Monte-Carlo chip through ``backend`` — the
    same :class:`repro.backends.ChipBackend` objects the serving engine
    uses, so experiment numbers and served numbers cannot drift apart.
    The default fake-quant backend is bit-identical to
    :func:`~repro.eval.robustness.evaluate_robustness`'s in-place
    injection; pass ``"circuit"`` to score the method on crossbar-level
    hardware.
    """
    chip_backend = make_backend(backend)
    model, test = train_method(
        method, model_name, workload, qconfig, train_spec, scale, method_config
    )
    clean = evaluate_clean(model, test, batch_size=scale.batch_size)
    robustness = evaluate_robustness(
        model,
        test,
        eval_spec,
        num_chips=scale.num_chips,
        batch_size=scale.batch_size,
        seed=4321 + method_config.seed,
        backend=chip_backend,
        self_tuning=self_tuning,
    )
    return MethodResult(
        method=method,
        model_name=model_name,
        notation=qconfig.notation,
        train_spec=train_spec,
        eval_spec=eval_spec,
        clean_accuracy=clean,
        robustness=robustness,
        extras={"backend": chip_backend.name},
    )


def run_method_suite(
    methods,
    model_name: str,
    workload: str,
    qconfig: QConfig,
    train_spec: VariabilitySpec,
    eval_spec: VariabilitySpec,
    scale: ExperimentScale,
    method_config: MethodConfig = MethodConfig(),
    backend: str | ChipBackend = "fake-quant",
) -> dict[str, MethodResult]:
    """Run several methods on the same workload/spec (one table column)."""
    return {
        method: run_method(
            method,
            model_name,
            workload,
            qconfig,
            train_spec,
            eval_spec,
            scale,
            method_config,
            backend=backend,
        )
        for method in methods
    }
