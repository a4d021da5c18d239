"""Tests for eval metrics: top-k accuracy."""

import numpy as np
import pytest

from repro.eval.metrics import top1_accuracy, topk_accuracy


class TestTopkAccuracy:
    def test_k1_matches_top1(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(40, 7))
        targets = rng.integers(0, 7, size=40)
        assert topk_accuracy(logits, targets, k=1) == top1_accuracy(logits, targets)

    def test_k_widens_monotonically(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(60, 10))
        targets = rng.integers(0, 10, size=60)
        accs = [topk_accuracy(logits, targets, k=k) for k in (1, 3, 5, 10)]
        assert accs == sorted(accs)
        assert accs[-1] == 1.0  # k == num_classes catches everything

    def test_exact_membership(self):
        logits = np.array([[0.1, 0.9, 0.5], [0.9, 0.1, 0.5]])
        targets = np.array([2, 2])
        assert topk_accuracy(logits, targets, k=1) == 0.0
        assert topk_accuracy(logits, targets, k=2) == 1.0

    def test_k_clamped_beyond_classes(self):
        logits = np.array([[0.2, 0.8]])
        assert topk_accuracy(logits, np.array([0]), k=99) == 1.0

    def test_single_row_input(self):
        assert topk_accuracy(np.array([0.1, 0.9]), np.array([1]), k=1) == 1.0

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            topk_accuracy(np.zeros((2, 3)), np.zeros(2, dtype=int), k=0)
