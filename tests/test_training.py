"""Optimizers, schedules, QAVAT trainer mechanics, baseline pipelines."""

import numpy as np
import pytest

from repro import nn
from repro.datasets import batch_source
from repro.eval import evaluate_clean
from repro.quant import QConfig, convert_to_quantized, calibrate_model, quantized_layers
from repro.training import SGD, Adam, ConstantLR, CosineLR, QavatTrainer, StepLR
from repro.training.baselines import FloatVatTrainer, train_ptq_vat, train_qat, train_qavat
from repro.training.loop import train_epoch
from repro.training.optim import clip_grad_norm
from repro.variability import VariabilityInjector, VariabilitySpec, WeightProportionalVariance


def quadratic_param():
    from repro.nn.module import Parameter

    return Parameter(np.array([5.0, -3.0]))


class TestOptimizers:
    def test_sgd_minimizes_quadratic(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1, momentum=0.0)
        for _ in range(200):
            p.grad = 2 * p.data
            opt.step()
        assert np.allclose(p.data, 0.0, atol=1e-6)

    def test_momentum_accelerates(self):
        trajectories = {}
        for momentum in (0.0, 0.9):
            p = quadratic_param()
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                p.grad = 2 * p.data
                opt.step()
            trajectories[momentum] = np.abs(p.data).max()
        assert trajectories[0.9] < trajectories[0.0]

    def test_weight_decay_shrinks(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=1.0)
        p.grad = np.zeros(2)
        opt.step()
        assert np.all(np.abs(p.data) < np.abs([5.0, -3.0]))

    def test_adam_minimizes_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            p.grad = 2 * p.data
            opt.step()
        assert np.allclose(p.data, 0.0, atol=1e-4)

    def test_skips_parameters_without_grad(self):
        p = quadratic_param()
        before = p.data.copy()
        SGD([p], lr=0.1).step()
        assert np.array_equal(p.data, before)

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_zero_grad(self):
        p = quadratic_param()
        p.grad = np.ones(2)
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = quadratic_param()
        p.grad = np.array([0.3, 0.4])  # norm 0.5
        norm = clip_grad_norm([p], 1.0)
        assert norm == pytest.approx(0.5)
        assert np.allclose(p.grad, [0.3, 0.4])

    def test_clips_above_threshold(self):
        p = quadratic_param()
        p.grad = np.array([3.0, 4.0])  # norm 5
        clip_grad_norm([p], 1.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_zeroes_nonfinite(self):
        p = quadratic_param()
        p.grad = np.array([np.inf, 1.0])
        clip_grad_norm([p], 10.0)
        assert np.all(np.isfinite(p.grad))


class TestSchedules:
    def _opt(self):
        return SGD([quadratic_param()], lr=1.0)

    def test_constant(self):
        sched = ConstantLR(self._opt())
        sched.step()
        assert sched.optimizer.lr == 1.0

    def test_step_decay(self):
        opt = self._opt()
        sched = StepLR(opt, step_size=2, gamma=0.1)
        sched.step()
        assert opt.lr == pytest.approx(1.0)
        sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_cosine_endpoints(self):
        opt = self._opt()
        sched = CosineLR(opt, total_epochs=10, min_lr=0.0)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(0.0, abs=1e-12)


def tiny_quant_model(dataset, qconfig=None):
    model = nn.Sequential(
        nn.Conv2d(1, 4, 3, padding=1),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(4 * 6 * 6, 5),
    )
    convert_to_quantized(model, qconfig or QConfig(activation_bits=8, weight_bits=4))
    batches = [(dataset.images[:16], dataset.labels[:16])]
    calibrate_model(model, batches)
    return model


class TestQavatTrainer:
    def test_single_step_reduces_loss_on_batch(self, tiny_dataset):
        model = tiny_quant_model(tiny_dataset)
        spec = VariabilitySpec.within_only(0.1, WeightProportionalVariance())
        trainer = QavatTrainer(
            model,
            SGD(model.parameters(), lr=0.05),
            VariabilityInjector(spec, seed=0),
        )
        x, y = tiny_dataset.images[:32], tiny_dataset.labels[:32]
        losses = [trainer.train_step(x, y) for _ in range(30)]
        assert losses[-1] < losses[0]

    def test_multi_sample_accumulates_average(self, tiny_dataset):
        # With a null spec all samples are identical, so n=3 must produce
        # exactly the same update as n=1.
        results = {}
        for n in (1, 3):
            from repro.nn import init

            init.seed(0)
            model = tiny_quant_model(tiny_dataset)
            trainer = QavatTrainer(
                model,
                SGD(model.parameters(), lr=0.05, momentum=0.0),
                VariabilityInjector(VariabilitySpec.null(), seed=0),
                n_variation_samples=n,
            )
            trainer.train_step(tiny_dataset.images[:8], tiny_dataset.labels[:8])
            results[n] = model.state_dict()
        for key in results[1]:
            assert np.allclose(results[1][key], results[3][key], atol=1e-12), key

    def test_variation_cleared_after_step(self, tiny_dataset):
        model = tiny_quant_model(tiny_dataset)
        spec = VariabilitySpec.within_only(0.3, WeightProportionalVariance())
        trainer = QavatTrainer(
            model, SGD(model.parameters(), lr=0.01), VariabilityInjector(spec, seed=0)
        )
        trainer.train_step(tiny_dataset.images[:8], tiny_dataset.labels[:8])
        assert all(not layer.has_variation for _, layer in quantized_layers(model))

    def test_rejects_bad_sample_count(self, tiny_dataset):
        model = tiny_quant_model(tiny_dataset)
        with pytest.raises(ValueError):
            QavatTrainer(
                model,
                SGD(model.parameters(), lr=0.1),
                VariabilityInjector(VariabilitySpec.null()),
                n_variation_samples=0,
            )

    def test_weight_scale_refresh(self, tiny_dataset):
        qc = QConfig(activation_bits=8, weight_bits=4, weight_scale_refresh=1)
        model = tiny_quant_model(tiny_dataset, qc)
        layer = next(iter(quantized_layers(model)))[1]
        layer.weight.data *= 4.0  # make the stale scale obviously wrong
        stale = float(layer.weight_scale)
        trainer = QavatTrainer(
            model,
            SGD(model.parameters(), lr=1e-6),
            VariabilityInjector(VariabilitySpec.null()),
        )
        trainer.train_step(tiny_dataset.images[:8], tiny_dataset.labels[:8])
        assert float(layer.weight_scale) != stale

    def test_fit_returns_history(self, tiny_dataset):
        model = tiny_quant_model(tiny_dataset)
        trainer = QavatTrainer(
            model,
            SGD(model.parameters(), lr=0.02),
            VariabilityInjector(VariabilitySpec.null()),
        )
        source = batch_source(tiny_dataset, 16, seed=0)
        history = trainer.fit(source, epochs=3)
        assert len(history) == 3


class TestFloatVat:
    def test_weights_restored_after_step(self, tiny_dataset):
        model = nn.Sequential(nn.Flatten(), nn.Linear(144, 5))
        spec = VariabilitySpec.within_only(0.3, WeightProportionalVariance())
        trainer = FloatVatTrainer(model, SGD(model.parameters(), lr=0.0, momentum=0.0), spec)
        before = model.state_dict()
        trainer.train_step(tiny_dataset.images[:8], tiny_dataset.labels[:8])
        after = model.state_dict()
        # lr=0: any weight change could only come from unrestored noise.
        for key in before:
            assert np.allclose(before[key], after[key], atol=1e-12), key

    def test_null_spec_is_plain_training(self, tiny_dataset):
        model = nn.Sequential(nn.Flatten(), nn.Linear(144, 5))
        trainer = FloatVatTrainer(
            model, SGD(model.parameters(), lr=0.05), VariabilitySpec.null()
        )
        losses = [
            trainer.train_epoch([(tiny_dataset.images[:32], tiny_dataset.labels[:32])])
            for _ in range(20)
        ]
        assert losses[-1] < losses[0]


class TestPipelines:
    def test_train_qat_produces_calibrated_quant_model(self, tiny_dataset):
        model = nn.Sequential(nn.Flatten(), nn.Linear(144, 5))
        source = batch_source(tiny_dataset, 16, seed=0)
        train_qat(model, source, QConfig(), epochs=1, float_pretrain_epochs=1)
        layers = list(quantized_layers(model))
        assert layers
        assert all(float(layer.act_scale) > 0 for _, layer in layers)

    def test_train_qavat_runs_with_injection(self, tiny_dataset):
        model = nn.Sequential(nn.Flatten(), nn.Linear(144, 5))
        source = batch_source(tiny_dataset, 16, seed=0)
        spec = VariabilitySpec.within_only(0.2, WeightProportionalVariance())
        train_qavat(model, source, QConfig(), spec, epochs=1, float_pretrain_epochs=1)
        assert list(quantized_layers(model))

    def test_train_ptq_vat_quantizes_after(self, tiny_dataset):
        model = nn.Sequential(nn.Flatten(), nn.Linear(144, 5))
        source = batch_source(tiny_dataset, 16, seed=0)
        spec = VariabilitySpec.within_only(0.2, WeightProportionalVariance())
        train_ptq_vat(model, source, QConfig(), spec, epochs=2)
        assert list(quantized_layers(model))


class TestPlainLoop:
    def test_train_epoch_and_evaluate(self, tiny_dataset):
        model = nn.Sequential(nn.Flatten(), nn.Linear(144, 5))
        opt = SGD(model.parameters(), lr=0.05)
        seen = tiny_dataset.subset(64)
        batches = [(seen.images, seen.labels)]
        first = train_epoch(model, batches, opt)
        for _ in range(30):
            last = train_epoch(model, batches, opt)
        assert last < first
        assert evaluate_clean(model, seen) > 0.5
