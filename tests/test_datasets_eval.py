"""Synthetic datasets and the Monte Carlo robustness evaluator."""

import numpy as np
import pytest

from repro import nn
from repro.datasets import (
    ArrayDataset,
    batch_iterator,
    batch_source,
    make_pattern_dataset,
    synthetic_cifar10,
    synthetic_cifar100,
    synthetic_mnist,
)
from repro.eval import evaluate_clean, evaluate_robustness, top1_accuracy
from repro.quant import QConfig, calibrate_model, convert_to_quantized
from repro.variability import VariabilitySpec, WeightProportionalVariance


class TestSyntheticGeneration:
    def test_shapes_and_classes(self):
        train, test = synthetic_mnist(4, 2)
        assert train.images.shape == (40, 1, 28, 28)
        assert test.images.shape == (20, 1, 28, 28)
        train, _ = synthetic_cifar10(4, 2)
        assert train.sample_shape == (3, 32, 32)
        train, _ = synthetic_cifar100(2, 1)
        assert train.num_classes == 100
        assert len(train) == 200

    def test_deterministic(self):
        a = make_pattern_dataset(3, 5, (1, 8, 8), seed=11)
        b = make_pattern_dataset(3, 5, (1, 8, 8), seed=11)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = make_pattern_dataset(3, 5, (1, 8, 8), seed=1)
        b = make_pattern_dataset(3, 5, (1, 8, 8), seed=2)
        assert not np.allclose(a.images, b.images)

    def test_interleaved_labels_balanced_prefix(self):
        data = make_pattern_dataset(4, 10, (1, 8, 8), seed=0)
        prefix = data.subset(8)
        counts = np.bincount(prefix.labels, minlength=4)
        assert np.all(counts == 2)

    def test_normalized(self):
        data = make_pattern_dataset(5, 20, (3, 16, 16), seed=3)
        assert abs(data.images.mean()) < 1e-10
        assert data.images.std() == pytest.approx(1.0)

    def test_classes_are_separable(self):
        # Nearest-template classification must beat chance by a wide margin,
        # otherwise the task carries no trainable signal.
        data = make_pattern_dataset(5, 30, (1, 12, 12), seed=4, max_shift=0, noise=0.3)
        templates = np.stack(
            [data.images[data.labels == c].mean(axis=0) for c in range(5)]
        )
        flat = data.images.reshape(len(data), -1)
        temp_flat = templates.reshape(5, -1)
        predicted = np.argmax(flat @ temp_flat.T, axis=1)
        assert (predicted == data.labels).mean() > 0.9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1, 2, 2)), np.zeros(2, dtype=int), 2)


class TestLoaders:
    def test_batch_iterator_covers_all(self):
        data = make_pattern_dataset(2, 10, (1, 4, 4), seed=0)
        seen = 0
        for x, y in batch_iterator(data, 8, shuffle=False):
            assert len(x) == len(y)
            seen += len(x)
        assert seen == len(data)

    def test_drop_last(self):
        data = make_pattern_dataset(2, 10, (1, 4, 4), seed=0)
        sizes = [len(x) for x, _ in batch_iterator(data, 8, drop_last=True)]
        assert all(s == 8 for s in sizes)

    def test_shuffle_uses_rng(self):
        data = make_pattern_dataset(2, 20, (1, 4, 4), seed=0)
        rng = np.random.default_rng(0)
        first = next(batch_iterator(data, 8, rng=rng))[1]
        rng = np.random.default_rng(0)
        again = next(batch_iterator(data, 8, rng=rng))[1]
        assert np.array_equal(first, again)

    def test_batch_source_epochs_differ_but_reproduce(self):
        data = make_pattern_dataset(2, 20, (1, 4, 4), seed=0)
        source = batch_source(data, 8, seed=1)
        epoch1 = next(source())[0]
        epoch2 = next(source())[0]
        assert not np.array_equal(epoch1, epoch2)
        source_b = batch_source(data, 8, seed=1)
        assert np.array_equal(epoch1, next(source_b())[0])


class TestMetrics:
    def test_top1(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert top1_accuracy(logits, np.array([0, 0])) == 0.5


def calibrated_model(dataset):
    model = nn.Sequential(nn.Flatten(), nn.Linear(np.prod(dataset.sample_shape), 5))
    convert_to_quantized(model, QConfig(activation_bits=8, weight_bits=4))
    calibrate_model(model, [(dataset.images[:16], None)])
    return model


class TestRobustnessEvaluation:
    def test_null_spec_equals_clean(self, tiny_dataset):
        model = calibrated_model(tiny_dataset)
        clean = evaluate_clean(model, tiny_dataset)
        result = evaluate_robustness(model, tiny_dataset, VariabilitySpec.null(), num_chips=3)
        assert all(acc == pytest.approx(clean) for acc in result.accuracies)

    def test_reproducible_by_seed(self, tiny_dataset):
        model = calibrated_model(tiny_dataset)
        spec = VariabilitySpec.mixed(0.3, WeightProportionalVariance())
        a = evaluate_robustness(model, tiny_dataset, spec, num_chips=4, seed=9)
        b = evaluate_robustness(model, tiny_dataset, spec, num_chips=4, seed=9)
        assert a.accuracies == b.accuracies

    def test_variation_removed_afterwards(self, tiny_dataset):
        from repro.quant import quantized_layers

        model = calibrated_model(tiny_dataset)
        spec = VariabilitySpec.mixed(0.3, WeightProportionalVariance())
        evaluate_robustness(model, tiny_dataset, spec, num_chips=2)
        assert all(not layer.has_variation for _, layer in quantized_layers(model))

    def test_result_statistics(self):
        from repro.eval.robustness import RobustnessResult

        result = RobustnessResult([0.5, 0.7, 0.9])
        assert result.mean == pytest.approx(0.7)
        assert result.worst == pytest.approx(0.5)
        assert result.std > 0
        assert "chips=3" in repr(result)

    def test_higher_sigma_degrades_more(self, tiny_dataset):
        # Train briefly so accuracy has somewhere to fall from.
        from repro.datasets import batch_source
        from repro.training.baselines import train_qat

        model = nn.Sequential(nn.Flatten(), nn.Linear(np.prod(tiny_dataset.sample_shape), 5))
        train_qat(model, batch_source(tiny_dataset, 20, seed=0), QConfig(), epochs=10, float_pretrain_epochs=5)
        spec_lo = VariabilitySpec.within_only(0.1, WeightProportionalVariance())
        spec_hi = VariabilitySpec.within_only(0.8, WeightProportionalVariance())
        lo = evaluate_robustness(model, tiny_dataset, spec_lo, num_chips=8).mean
        hi = evaluate_robustness(model, tiny_dataset, spec_hi, num_chips=8).mean
        assert hi <= lo
