"""Benchmark fixtures: scale selection and a shared trained-model cache.

Every benchmark reproduces one table or figure of the paper.  Set
``REPRO_BENCH_SCALE`` to ``tiny`` (default), ``small``, or ``paper`` to
trade fidelity for wall-clock; absolute accuracies differ from the paper
(synthetic data, scaled models — see docs/architecture.md) but each
bench prints the paper's reference values next to the measured ones so
the reproduced *shape* is visible.

Training is the dominant cost, and several benches share trained models
(e.g. Fig. 6 and Table II reuse the QAVAT models of Fig. 5), so trained
models are cached per-session keyed by their full configuration.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.configs import EXPERIMENT_SCALES, MethodConfig
from repro.experiments.runner import train_method
from repro.quant.qconfig import QConfig
from repro.variability.models import variance_model_by_name
from repro.variability.sampler import VariabilitySpec

_MODEL_CACHE: dict[tuple, tuple] = {}


def bench_scale():
    """The scale selected for this run (env: REPRO_BENCH_SCALE)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "tiny")
    if name not in EXPERIMENT_SCALES:
        raise KeyError(f"REPRO_BENCH_SCALE must be one of {sorted(EXPERIMENT_SCALES)}")
    return EXPERIMENT_SCALES[name]


def spec_from(sigma_within: float, sigma_between: float, variance_model: str) -> VariabilitySpec:
    """Build a spec from plain hashable values (cache-key friendly)."""
    return VariabilitySpec(sigma_within, sigma_between, variance_model_by_name(variance_model))


def trained(
    method: str,
    model_name: str,
    workload: str,
    notation: str,
    sigma_within: float,
    sigma_between: float,
    variance_model: str,
    n_variation_samples: int = 2,
    seed: int = 0,
):
    """Train (or fetch from cache) one model; returns (model, test_dataset)."""
    scale = bench_scale()
    key = (
        scale.name,
        method,
        model_name,
        workload,
        notation,
        round(sigma_within, 6),
        round(sigma_between, 6),
        variance_model,
        n_variation_samples,
        seed,
    )
    if key not in _MODEL_CACHE:
        spec = spec_from(sigma_within, sigma_between, variance_model)
        _MODEL_CACHE[key] = train_method(
            method,
            model_name,
            workload,
            QConfig.from_notation(notation),
            spec,
            scale,
            MethodConfig(n_variation_samples=n_variation_samples, seed=seed),
        )
    return _MODEL_CACHE[key]


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


def resnet_workload() -> tuple[str, str]:
    """(model, dataset) used for the paper's ResNet-18/CIFAR-100 figures.

    At tiny/small scale the 100-class workload has too few samples per class
    to train on CPU, so a half-depth residual net on the 10-class dataset
    stands in; ``REPRO_BENCH_SCALE=paper`` restores the faithful pairing.
    """
    if bench_scale().name == "paper":
        return "resnet18", "cifar100"
    return "resnet10-mini", "cifar10"


def write_result(name: str, text: str) -> None:
    """Persist a bench's table next to the benchmarks (pytest captures stdout)."""
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
    print(text)
