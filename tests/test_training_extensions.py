"""Tests for AdamW, Nesterov SGD, warmup schedules, EMA, distillation,
checkpointing."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.datasets import synthetic_mnist
from repro.datasets.loaders import batch_iterator
from repro.models import build_model
from repro.nn import Linear, Sequential
from repro.nn.module import Parameter
from repro.quant import QConfig, calibrate_model, convert_to_quantized
from repro.training import (
    Adam,
    AdamW,
    ModelEMA,
    SGD,
    WarmupCosineLR,
    distillation_loss,
    load_checkpoint,
    save_checkpoint,
    train_distilled,
)
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySpec


def _quadratic_problem(seed=0):
    """A parameter + closure minimizing ||p - target||^2."""
    rng = np.random.default_rng(seed)
    parameter = Parameter(rng.normal(size=8))
    target = rng.normal(size=8)

    def loss_and_grad():
        diff = parameter.data - target
        parameter.grad = 2.0 * diff
        return float((diff**2).sum())

    return parameter, target, loss_and_grad


# ----------------------------------------------------------------------
# Optimizers
# ----------------------------------------------------------------------
class TestNesterovSGD:
    def test_converges(self):
        parameter, target, loss_and_grad = _quadratic_problem()
        optimizer = SGD([parameter], lr=0.05, momentum=0.9, nesterov=True)
        for _ in range(200):
            loss_and_grad()
            optimizer.step()
        assert np.allclose(parameter.data, target, atol=1e-4)

    def test_nesterov_requires_momentum(self):
        parameter, _, _ = _quadratic_problem()
        with pytest.raises(ValueError):
            SGD([parameter], lr=0.1, momentum=0.0, nesterov=True)

    def test_differs_from_classical(self):
        p1, _, g1 = _quadratic_problem()
        p2, _, g2 = _quadratic_problem()
        classical = SGD([p1], lr=0.05, momentum=0.9)
        nesterov = SGD([p2], lr=0.05, momentum=0.9, nesterov=True)
        for _ in range(3):
            g1()
            classical.step()
            g2()
            nesterov.step()
        assert not np.allclose(p1.data, p2.data)


class TestAdamW:
    def test_converges(self):
        parameter, target, loss_and_grad = _quadratic_problem()
        optimizer = AdamW([parameter], lr=0.1)
        for _ in range(500):
            loss_and_grad()
            optimizer.step()
        assert np.allclose(parameter.data, target, atol=1e-3)

    def test_decoupled_decay_shrinks_weights(self):
        """With zero gradient, AdamW decay is a pure multiplicative shrink."""
        parameter = Parameter(np.ones(4))
        optimizer = AdamW([parameter], lr=0.1, weight_decay=0.5)
        parameter.grad = np.zeros(4)
        optimizer.step()
        assert np.allclose(parameter.data, 1.0 - 0.1 * 0.5)

    def test_adam_couples_decay_through_moments(self):
        """Coupled Adam runs decay through the adaptive scaling, so one step
        with zero task gradient moves weights by ~lr (sign step), not
        lr * wd * w."""
        parameter = Parameter(np.ones(4))
        optimizer = Adam([parameter], lr=0.1, weight_decay=0.5)
        parameter.grad = np.zeros(4)
        optimizer.step()
        assert not np.allclose(parameter.data, 1.0 - 0.1 * 0.5)

    def test_state_dict_round_trip(self):
        parameter, _, loss_and_grad = _quadratic_problem()
        optimizer = Adam([parameter], lr=0.1)
        for _ in range(5):
            loss_and_grad()
            optimizer.step()
        state = optimizer.state_dict()
        snapshot = parameter.data.copy()
        loss_and_grad()
        optimizer.step()
        after_one_more = parameter.data.copy()
        # Restore and replay: identical trajectory.
        parameter.data = snapshot.copy()
        optimizer.load_state_dict(state)
        optimizer._step_count = state["step_count"]
        loss_and_grad()
        optimizer.step()
        assert np.allclose(parameter.data, after_one_more)


class TestWarmupCosine:
    def _schedule(self, **kwargs):
        parameter, _, _ = _quadratic_problem()
        optimizer = SGD([parameter], lr=1.0, momentum=0.0)
        return WarmupCosineLR(optimizer, **kwargs)

    def test_warmup_ramps_up(self):
        schedule = self._schedule(total_epochs=10, warmup_epochs=4, warmup_start=0.1)
        lrs = [schedule.lr_at(epoch) for epoch in range(4)]
        assert lrs[0] == pytest.approx(0.1)
        assert all(b > a for a, b in zip(lrs, lrs[1:]))

    def test_peak_at_end_of_warmup(self):
        schedule = self._schedule(total_epochs=10, warmup_epochs=4)
        assert schedule.lr_at(4) == pytest.approx(1.0)

    def test_cosine_decay_after_warmup(self):
        schedule = self._schedule(total_epochs=10, warmup_epochs=2, min_lr=0.01)
        assert schedule.lr_at(10) == pytest.approx(0.01)
        assert schedule.lr_at(6) < schedule.lr_at(4)

    def test_no_warmup_is_plain_cosine(self):
        schedule = self._schedule(total_epochs=8, warmup_epochs=0)
        assert schedule.lr_at(0) == pytest.approx(1.0)
        assert schedule.lr_at(8) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._schedule(total_epochs=5, warmup_epochs=6)


# ----------------------------------------------------------------------
# EMA
# ----------------------------------------------------------------------
class TestModelEMA:
    def _model(self):
        return Sequential(Linear(4, 3))

    def test_shadow_tracks_constant_weights(self):
        model = self._model()
        ema = ModelEMA(model, decay=0.9)
        for _ in range(50):
            ema.update()
        for name, parameter in model.named_parameters():
            assert np.allclose(ema._shadow[name], parameter.data)

    def test_apply_and_restore(self):
        model = self._model()
        ema = ModelEMA(model, decay=0.5)
        original = {n: p.data.copy() for n, p in model.named_parameters()}
        # Move weights, update EMA, apply shadow.
        for _, parameter in model.named_parameters():
            parameter.data = parameter.data + 1.0
        ema.update()
        ema.apply_shadow()
        assert ema.applied
        ema.restore()
        for name, parameter in model.named_parameters():
            assert np.allclose(parameter.data, original[name] + 1.0)

    def test_shadow_is_average_not_live(self):
        model = self._model()
        ema = ModelEMA(model, decay=0.99)
        live = {n: p.data.copy() for n, p in model.named_parameters()}
        for _, parameter in model.named_parameters():
            parameter.data = parameter.data + 10.0
        ema.update()
        ema.apply_shadow()
        for name, parameter in model.named_parameters():
            # The averaged value lies strictly between old and new.
            assert np.all(parameter.data > live[name])
            assert np.all(parameter.data < live[name] + 10.0)
        ema.restore()

    def test_double_apply_raises(self):
        ema = ModelEMA(self._model())
        ema.apply_shadow()
        with pytest.raises(RuntimeError):
            ema.apply_shadow()

    def test_restore_without_apply_raises(self):
        with pytest.raises(RuntimeError):
            ModelEMA(self._model()).restore()

    def test_update_while_applied_raises(self):
        ema = ModelEMA(self._model())
        ema.apply_shadow()
        with pytest.raises(RuntimeError):
            ema.update()

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            ModelEMA(self._model(), decay=1.0)


# ----------------------------------------------------------------------
# Distillation
# ----------------------------------------------------------------------
class TestDistillationLoss:
    def test_alpha_zero_is_plain_ce(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
        teacher = rng.normal(size=(8, 5))
        targets = rng.integers(0, 5, size=8)
        from repro.nn import functional as F

        kd = distillation_loss(logits, teacher, targets, alpha=0.0)
        ce = F.cross_entropy(logits, targets)
        assert float(kd.data) == pytest.approx(float(ce.data))

    def test_matching_teacher_gives_zero_soft_term(self):
        """When the student equals the teacher, KL is zero, so the loss is
        (1 - alpha) * CE."""
        rng = np.random.default_rng(1)
        logits_data = rng.normal(size=(8, 5))
        logits = Tensor(logits_data, requires_grad=True)
        targets = rng.integers(0, 5, size=8)
        from repro.nn import functional as F

        kd = distillation_loss(logits, logits_data, targets, temperature=2.0, alpha=0.5)
        ce = F.cross_entropy(logits, targets)
        assert float(kd.data) == pytest.approx(0.5 * float(ce.data), abs=1e-9)

    def test_soft_term_nonnegative(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
        teacher = rng.normal(size=(8, 5))
        targets = rng.integers(0, 5, size=8)
        full = distillation_loss(logits, teacher, targets, alpha=1.0)
        assert float(full.data) >= -1e-9  # pure KL term is >= 0

    def test_gradient_flows(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        loss = distillation_loss(
            logits, rng.normal(size=(4, 3)), rng.integers(0, 3, size=4), alpha=0.7
        )
        loss.backward()
        assert logits.grad is not None
        assert np.any(logits.grad != 0)

    def test_validation(self):
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(ValueError):
            distillation_loss(logits, np.zeros((2, 3)), np.zeros(2, dtype=int), alpha=1.5)
        with pytest.raises(ValueError):
            distillation_loss(
                logits, np.zeros((2, 3)), np.zeros(2, dtype=int), temperature=0.0
            )


@pytest.mark.slow
class TestDistillationPipeline:
    def test_distilled_student_learns(self):
        train, test = synthetic_mnist(train_per_class=32, test_per_class=16, seed=0)
        teacher = build_model("lenet5-mini")
        from repro.training import SGD as Sgd, train_epoch

        optimizer = Sgd(teacher.parameters(), lr=0.02)
        for _ in range(10):
            train_epoch(teacher, batch_iterator(train, 32), optimizer)
        student = build_model("lenet5-mini")
        spec = VariabilitySpec.within_only(0.2, WeightProportionalVariance())

        from repro.datasets import batch_source

        batches = batch_source(train, 32, seed=1)

        student = train_distilled(
            student, teacher, batches, QConfig.from_notation("A4W2"), spec,
            epochs=6, lr=0.02,
        )
        from repro.eval import evaluate_clean

        assert evaluate_clean(student, test) > 0.5  # far above the 10% floor


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_model_round_trip(self, tmp_path):
        model = build_model("lenet5-mini")
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model, metadata={"epoch": 3})
        fresh = build_model("lenet5-mini")
        metadata = load_checkpoint(path, fresh)
        assert metadata["epoch"] == 3
        for (_, a), (_, b) in zip(model.named_parameters(), fresh.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_quantized_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        model = convert_to_quantized(build_model("lenet5-mini"), QConfig())
        calibrate_model(model, [rng.normal(size=(8, 1, 28, 28))])
        path = str(tmp_path / "q.npz")
        save_checkpoint(path, model)
        fresh = convert_to_quantized(build_model("lenet5-mini"), QConfig())
        load_checkpoint(path, fresh)
        # Buffers (scales) restored: forward runs without recalibration.
        with no_grad():
            out = fresh(Tensor(rng.normal(size=(2, 1, 28, 28))))
        assert out.shape == (2, 10)

    def test_optimizer_state_round_trip(self, tmp_path):
        model = Sequential(Linear(4, 2))
        optimizer = Adam(model.parameters(), lr=0.01)
        rng = np.random.default_rng(1)
        for _ in range(3):
            optimizer.zero_grad()
            loss = (model(Tensor(rng.normal(size=(8, 4)))) ** 2).mean()
            loss.backward()
            optimizer.step()
        path = str(tmp_path / "opt.npz")
        save_checkpoint(path, model, optimizer)
        fresh_model = Sequential(Linear(4, 2))
        fresh_optimizer = Adam(fresh_model.parameters(), lr=0.01)
        load_checkpoint(path, fresh_model, fresh_optimizer)
        assert fresh_optimizer._step_count == optimizer._step_count
        for a, b in zip(optimizer._m, fresh_optimizer._m):
            assert np.array_equal(a, b)

    def test_missing_parameter_raises(self, tmp_path):
        model = build_model("lenet5-mini")
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model)
        other = build_model("vgg11-mini")
        # Architecture mismatch surfaces as a missing key or a shape error,
        # depending on whether parameter names happen to overlap.
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(path, other)
