"""Tests for BatchNorm running-statistic re-estimation after noisy training."""

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.nn import BatchNorm2d, Conv2d, ReLU, Sequential, reestimate_bn_statistics


def _bn_model():
    return Sequential(Conv2d(2, 4, 3, padding=1), BatchNorm2d(4), ReLU())


def _batches(rng, count=4):
    data = [(rng.normal(size=(8, 2, 6, 6)), np.zeros(8, dtype=int)) for _ in range(count)]

    def source():
        return iter(data)

    return source


class TestResetRunningStats:
    def test_reset_restores_defaults(self):
        bn = BatchNorm2d(4)
        bn.set_buffer("running_mean", np.full(4, 3.0))
        bn.set_buffer("running_var", np.full(4, 9.0))
        bn.reset_running_stats()
        assert np.all(bn.running_mean == 0.0)
        assert np.all(bn.running_var == 1.0)


class TestReestimation:
    def test_returns_bn_count(self):
        rng = np.random.default_rng(0)
        model = _bn_model()
        assert reestimate_bn_statistics(model, _batches(rng)) == 1

    def test_no_bn_layers_is_noop(self):
        rng = np.random.default_rng(0)
        model = Sequential(Conv2d(2, 4, 3))
        assert reestimate_bn_statistics(model, _batches(rng)) == 0

    def test_statistics_match_data(self):
        """Re-estimated stats equal the plain mean of per-batch statistics."""
        rng = np.random.default_rng(1)
        model = Sequential(BatchNorm2d(2))
        batches = [(5.0 + 2.0 * rng.normal(size=(16, 2, 4, 4)), None) for _ in range(6)]

        def source():
            return iter(batches)

        reestimate_bn_statistics(model, source)
        bn = model._modules["0"]
        expected_mean = np.mean([b[0].mean(axis=(0, 2, 3)) for b in batches], axis=0)
        assert np.allclose(bn.running_mean, expected_mean, atol=1e-9)
        assert np.allclose(bn.running_var, 4.0, rtol=0.3)

    def test_momentum_restored(self):
        rng = np.random.default_rng(2)
        model = _bn_model()
        bn = model._modules["1"]
        original = bn.momentum
        reestimate_bn_statistics(model, _batches(rng), passes=2)
        assert bn.momentum == original

    def test_training_mode_restored(self):
        rng = np.random.default_rng(3)
        model = _bn_model().eval()
        reestimate_bn_statistics(model, _batches(rng))
        assert model.training is False

    def test_parameters_untouched(self):
        rng = np.random.default_rng(4)
        model = _bn_model()
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        reestimate_bn_statistics(model, _batches(rng))
        for name, parameter in model.named_parameters():
            assert np.array_equal(parameter.data, before[name])

    def test_recovers_from_corrupted_stats(self):
        """The motivating scenario: corrupted running stats destroy eval
        outputs; re-estimation restores them."""
        rng = np.random.default_rng(5)
        model = _bn_model()
        batches = _batches(rng)
        reestimate_bn_statistics(model, batches)
        x = rng.normal(size=(4, 2, 6, 6))
        model.eval()
        with no_grad():
            reference = model(Tensor(x)).data
        bn = model._modules["1"]
        bn.set_buffer("running_mean", np.full(4, 100.0))
        bn.set_buffer("running_var", np.full(4, 1e4))
        with no_grad():
            corrupted = model(Tensor(x)).data
        assert not np.allclose(corrupted, reference, atol=1e-3)
        reestimate_bn_statistics(model, batches)
        model.eval()
        with no_grad():
            recovered = model(Tensor(x)).data
        assert np.allclose(recovered, reference, atol=1e-9)
