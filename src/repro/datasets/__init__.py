"""Synthetic datasets standing in for MNIST / CIFAR-10 / CIFAR-100.

The evaluation environment has no network access, so the paper's public
datasets are replaced by deterministic procedural pattern-classification
tasks with the same tensor shapes and class counts.  See
docs/architecture.md ("Synthetic stand-ins") for why this substitution
preserves the paper's robustness comparisons.
"""

from repro.datasets.synthetic import (
    ArrayDataset,
    make_pattern_dataset,
    synthetic_cifar10,
    synthetic_cifar100,
    synthetic_mnist,
)
from repro.datasets.loaders import batch_iterator, batch_source

__all__ = [
    "ArrayDataset",
    "make_pattern_dataset",
    "synthetic_mnist",
    "synthetic_cifar10",
    "synthetic_cifar100",
    "batch_iterator",
    "batch_source",
]
