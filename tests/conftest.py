"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.datasets import batch_source, synthetic_mnist
from repro.datasets.synthetic import make_pattern_dataset
from repro.models import build_model
from repro.nn import init
from repro.quant import QConfig
from repro.training import train_qavat
from repro.variability import VariabilitySpec, WeightProportionalVariance


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def _deterministic_init():
    """Every test starts from the same parameter-init stream."""
    init.seed(0)


@pytest.fixture
def tiny_dataset():
    """A 5-class learnable dataset small enough for in-test training."""
    return make_pattern_dataset(5, 20, (1, 12, 12), seed=7, max_shift=1, noise=0.2)


@pytest.fixture(scope="module")
def trained_model():
    """A QAVAT-trained ``lenet5-mini`` (10 classes, about 3 s to train):
    ``(model, test_set, within-chip training spec)``, one per test module."""
    train, test = synthetic_mnist(train_per_class=24, test_per_class=8)
    init.seed(5)
    model = build_model("lenet5-mini")
    spec = VariabilitySpec.within_only(0.2, WeightProportionalVariance())
    train_qavat(
        model,
        batch_source(train, 32, seed=0),
        QConfig.from_notation("A4W2"),
        spec,
        epochs=8,
        lr=0.02,
        float_pretrain_epochs=5,
    )
    return model, test, spec
