"""Experiment configuration: scales, model/dataset pairing, method settings.

The paper's three workloads map onto synthetic stand-ins (see docs/architecture.md):

* LeNet-5 / MNIST      -> ``lenet5`` on ``synthetic_mnist``
* VGG-11 / CIFAR-10    -> ``vgg11`` on ``synthetic_cifar10``
* ResNet-18 / CIFAR-100 -> ``resnet18`` on ``synthetic_cifar100``

Three scales trade fidelity for wall-clock: ``tiny`` (CI/test), ``small``
(the default for benchmarks, minutes on CPU) and ``paper`` (full-width
models, large Monte Carlo populations — hours).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.synthetic import (
    ArrayDataset,
    synthetic_cifar10,
    synthetic_cifar100,
    synthetic_mnist,
)
from repro.models.registry import build_model
from repro.nn import init


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that shrink the paper protocol onto a CPU budget."""

    name: str
    width_multiplier: float
    train_per_class: int
    test_per_class: int
    float_pretrain_epochs: int
    train_epochs: int
    batch_size: int
    num_chips: int
    lr: float = 0.02


EXPERIMENT_SCALES: dict[str, ExperimentScale] = {
    "tiny": ExperimentScale(
        name="tiny",
        width_multiplier=0.125,
        train_per_class=24,
        test_per_class=8,
        float_pretrain_epochs=6,
        train_epochs=10,
        batch_size=32,
        num_chips=10,
    ),
    "small": ExperimentScale(
        name="small",
        width_multiplier=0.25,
        train_per_class=32,
        test_per_class=10,
        float_pretrain_epochs=6,
        train_epochs=20,
        batch_size=32,
        num_chips=25,
    ),
    "paper": ExperimentScale(
        name="paper",
        width_multiplier=1.0,
        train_per_class=256,
        test_per_class=64,
        float_pretrain_epochs=30,
        train_epochs=100,
        batch_size=128,
        num_chips=2000,
        lr=0.05,
    ),
}

# The paper's model/dataset pairings, keyed by the model family name.
WORKLOADS = {
    "lenet5": ("lenet5", "mnist"),
    "vgg11": ("vgg11", "cifar10"),
    "resnet18": ("resnet18", "cifar100"),
}


@dataclass(frozen=True)
class MethodConfig:
    """Per-method training hyperparameters layered on a scale."""

    n_variation_samples: int = 1
    injection_mode: str = "reparameterized"
    seed: int = 0


def dataset_for(workload: str, scale: ExperimentScale) -> tuple[ArrayDataset, ArrayDataset]:
    """(train, test) synthetic datasets for a workload at a scale."""
    makers = {
        "mnist": synthetic_mnist,
        "cifar10": synthetic_cifar10,
        "cifar100": synthetic_cifar100,
    }
    if workload not in makers:
        raise KeyError(f"unknown workload {workload!r}")
    per_class_train = scale.train_per_class
    per_class_test = scale.test_per_class
    if workload == "cifar100":
        # Keep total sample counts comparable across workloads.
        per_class_train = max(2, per_class_train // 8)
        per_class_test = max(1, per_class_test // 8)
    return makers[workload](per_class_train, per_class_test)


# LeNet-5 is already tiny; shrinking it below half width leaves single-channel
# convolutions that cannot learn the task.  Floors keep each family usable.
_WIDTH_FLOORS = {"lenet5": 0.5, "vgg11": 0.125, "resnet18": 0.125}


def model_for(model_name: str, workload: str, scale: ExperimentScale, seed: int = 1):
    """Deterministically initialized model sized for the scale."""
    num_classes = {"mnist": 10, "cifar10": 10, "cifar100": 100}[workload]
    in_channels = 1 if workload == "mnist" else 3
    width = max(scale.width_multiplier, _WIDTH_FLOORS.get(model_name, 0.125))
    init.seed(seed)
    return build_model(
        model_name,
        num_classes=num_classes,
        in_channels=in_channels,
        width_multiplier=width,
    )
