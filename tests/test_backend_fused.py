"""Bit-exactness tests for :class:`repro.backends.FusedFleetForward`.

The fused fleet forward's contract is *the same bits* as per-chip
dispatch, on both backends, through every mutation a serving fleet goes
through: reprogramming, stuck-at fault maps, chip replacement, and drift
recalibration (``refresh``).  Everything here asserts ``array_equal``,
never ``allclose`` — a single flipped mantissa bit is a failure.
"""

import copy
import gc
import weakref

import numpy as np
import pytest

from repro.backends import (
    CircuitBackend,
    FakeQuantBackend,
    FusedFleetForward,
    UnstackableError,
    fused as fused_module,
)
from repro.datasets.loaders import batch_iterator
from repro.datasets.synthetic import make_pattern_dataset
from repro.models import build_model
from repro.nn import init
from repro.quant.calibration import calibrate_model
from repro.quant.ptq import convert_to_quantized, quantized_layers
from repro.quant.qconfig import QConfig
from repro.selftuning.tuner import SelfTuningConfig
from repro.variability.faults import FaultSpec
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySampler, VariabilitySpec

BACKENDS = {"fake-quant": FakeQuantBackend, "circuit": CircuitBackend}


@pytest.fixture(scope="module")
def golden():
    """A small calibrated quantized model plus its dataset."""
    init.seed(0)
    dataset = make_pattern_dataset(5, 16, (1, 28, 28), seed=7, max_shift=1, noise=0.2)
    model = build_model("lenet5-mini", num_classes=5, in_channels=1)
    convert_to_quantized(model, QConfig.from_notation("A4W2"))
    calibrate_model(model, batch_iterator(dataset, 16, shuffle=False), max_batches=3)
    model.eval()
    return model, dataset


def _spec(sigma=0.2):
    return VariabilitySpec.mixed(sigma, WeightProportionalVariance())


def _fleet(model, backend_name, n=3, seed0=0):
    spec = _spec()
    backend = BACKENDS[backend_name]()
    return [
        backend.program(
            model,
            VariabilitySampler(spec, seed=seed0 + i).sample_chip(),
            spec=spec,
            chip_id=f"c{i:02d}",
        )
        for i in range(n)
    ]


def _assert_parity(fused, assignments):
    """Fused outputs must be bit-equal to each chip's own forward."""
    outputs = fused.forward(assignments)
    assert len(outputs) == len(assignments)
    for (chip, inputs), out in zip(assignments, outputs):
        assert np.array_equal(out, chip.forward(inputs))


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
class TestBitExactness:
    def test_equal_batches(self, golden, backend_name):
        model, dataset = golden
        fleet = _fleet(model, backend_name)
        fused = FusedFleetForward.build(fleet)
        x = dataset.images
        _assert_parity(fused, [(chip, x[i * 8 : (i + 1) * 8]) for i, chip in enumerate(fleet)])

    def test_unequal_batches(self, golden, backend_name):
        model, dataset = golden
        fleet = _fleet(model, backend_name)
        fused = FusedFleetForward.build(fleet)
        sizes = [16, 5, 1]
        start, assignments = 0, []
        for chip, size in zip(fleet, sizes):
            assignments.append((chip, dataset.images[start : start + size]))
            start += size
        _assert_parity(fused, assignments)

    def test_subset_and_duplicate_chips(self, golden, backend_name):
        """A group may use any subset of the stack, a chip more than once."""
        model, dataset = golden
        fleet = _fleet(model, backend_name)
        fused = FusedFleetForward.build(fleet)
        x = dataset.images
        _assert_parity(
            fused, [(fleet[2], x[:4]), (fleet[0], x[4:10]), (fleet[2], x[10:13])]
        )

    def test_single_assignment(self, golden, backend_name):
        model, dataset = golden
        fleet = _fleet(model, backend_name)
        fused = FusedFleetForward.build(fleet)
        _assert_parity(fused, [(fleet[1], dataset.images[:6])])

    def test_parity_after_refresh_rebuild(self, golden, backend_name):
        """Drift recalibration: refresh() invalidates, a rebuild is exact."""
        model, dataset = golden
        fleet = _fleet(model, backend_name)
        fused = FusedFleetForward.build(fleet)
        drifted = VariabilitySampler(_spec(), seed=99).sample_chip()
        fleet[1].refresh(drifted)
        assert not fused.covers(fleet)
        rebuilt = FusedFleetForward.build(fleet)
        assert rebuilt.covers(fleet)
        x = dataset.images
        _assert_parity(
            rebuilt, [(chip, x[i * 8 : (i + 1) * 8]) for i, chip in enumerate(fleet)]
        )

    def test_parity_after_fault_map_rebuild(self, golden, backend_name):
        """Stuck-at damage: apply_faults() invalidates, a rebuild is exact."""
        model, dataset = golden
        fleet = _fleet(model, backend_name)
        fused = FusedFleetForward.build(fleet)
        stuck = fleet[0].apply_faults(
            FaultSpec(p_stuck_off=0.05, p_stuck_on=0.02), seed=11
        )
        assert stuck > 0
        assert not fused.covers(fleet)
        rebuilt = FusedFleetForward.build(fleet)
        x = dataset.images
        _assert_parity(
            rebuilt, [(chip, x[i * 8 : (i + 1) * 8]) for i, chip in enumerate(fleet)]
        )

    def test_parity_after_chip_replacement(self, golden, backend_name):
        """Spare provisioning: a new chip object misses on identity; the
        rebuilt stack serves the replacement bit-exactly."""
        model, dataset = golden
        fleet = _fleet(model, backend_name)
        fused = FusedFleetForward.build(fleet)
        replacement = _fleet(model, backend_name, n=1, seed0=50)[0]
        fleet[2] = replacement
        assert not fused.covers(fleet)
        rebuilt = FusedFleetForward.build(fleet)
        x = dataset.images
        _assert_parity(
            rebuilt, [(chip, x[i * 8 : (i + 1) * 8]) for i, chip in enumerate(fleet)]
        )


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
class TestSharedBatch:
    """forward_shared: one-chip groups that share the first layer's work."""

    def test_every_member_matches_its_own_forward(self, golden, backend_name):
        model, dataset = golden
        fleet = _fleet(model, backend_name)
        fused = FusedFleetForward.build(fleet)
        first, second = dataset.images[:32], dataset.images[32:45]
        # Interleave two batches, and hand in fresh copies: stems match by
        # content, never by array identity.
        for batch in (first, second, first.copy()):
            for chip in fleet:
                assert np.array_equal(fused.forward_shared(chip, batch), chip.forward(batch))

    def test_first_layer_runs_once_per_batch(self, golden, backend_name, monkeypatch):
        model, dataset = golden
        fleet = _fleet(model, backend_name)
        calls = []
        real = fused_module.im2col

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fused_module, "im2col", counting)
        batch = dataset.images[:16]
        fused = FusedFleetForward.build(fleet)
        for chip in fleet:
            fused.forward([(chip, batch)])
        plain = len(calls)
        calls.clear()
        for chip in fleet:
            fused.forward_shared(chip, batch)
        assert plain - len(calls) == len(fleet) - 1


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_dropped_stack_is_freed_without_garbage_collection(golden, backend_name):
    """No reference cycle keeps a dropped stack (and its chips) alive."""
    model, dataset = golden
    fleet = _fleet(model, backend_name)
    batch = dataset.images[:8]
    gc.collect()
    gc.disable()
    try:
        for run in ("forward", "forward_shared"):
            fused = FusedFleetForward.build(fleet)
            if run == "forward":
                fused.forward([(fleet[0], batch)])
            else:
                fused.forward_shared(fleet[0], batch)
            stack = weakref.ref(fused)
            del fused
            assert stack() is None, run
    finally:
        gc.enable()


class TestFreshness:
    def test_covers_same_objects(self, golden):
        model, _ = golden
        fleet = _fleet(model, "fake-quant")
        fused = FusedFleetForward.build(fleet)
        assert fused.covers(fleet)
        assert fused.covers(fleet[1:])

    def test_refresh_bumps_version_and_uncovers(self, golden):
        model, _ = golden
        fleet = _fleet(model, "fake-quant")
        fused = FusedFleetForward.build(fleet)
        before = fleet[0].version
        fleet[0].refresh(VariabilitySampler(_spec(), seed=7).sample_chip())
        assert fleet[0].version != before
        assert not fused.covers([fleet[0]])
        assert fused.covers(fleet[1:])

    def test_foreign_chip_not_covered(self, golden):
        model, _ = golden
        fleet = _fleet(model, "fake-quant")
        fused = FusedFleetForward.build(fleet[:2])
        assert not fused.covers([fleet[2]])

    def test_forward_rejects_foreign_chip(self, golden):
        model, dataset = golden
        fleet = _fleet(model, "fake-quant")
        fused = FusedFleetForward.build(fleet[:2])
        with pytest.raises(ValueError, match="outside this fused stack"):
            fused.forward([(fleet[2], dataset.images[:4])])

    def test_members_and_describe(self, golden):
        model, _ = golden
        fleet = _fleet(model, "fake-quant")
        fused = FusedFleetForward.build(fleet)
        assert fused.members == fleet
        info = fused.describe()
        assert info["backend"] == "fake-quant"
        assert info["chips"] == ["c00", "c01", "c02"]


class TestUnstackable:
    def test_empty_fleet(self):
        with pytest.raises(UnstackableError, match="empty fleet"):
            FusedFleetForward.build([])

    def test_mixed_backends(self, golden):
        model, _ = golden
        mixed = _fleet(model, "fake-quant", n=1) + _fleet(model, "circuit", n=1)
        with pytest.raises(UnstackableError, match="mixed or unknown"):
            FusedFleetForward.build(mixed)

    def test_self_tuning_chips_refused(self, golden):
        model, _ = golden
        spec = _spec()
        backend = FakeQuantBackend()
        chips = [
            backend.program(
                model,
                VariabilitySampler(spec, seed=i).sample_chip(),
                spec=spec,
                chip_id=f"t{i}",
                self_tuning=SelfTuningConfig(),
            )
            for i in range(2)
        ]
        with pytest.raises(UnstackableError):
            FusedFleetForward.build(chips)

    def test_noisy_adc_refused(self, golden):
        from repro.pim.converters import ADC

        model, _ = golden
        spec = _spec()
        backend = CircuitBackend(adc=ADC(noise_rms=0.01))
        chips = [
            backend.program(
                model,
                VariabilitySampler(spec, seed=i).sample_chip(),
                spec=spec,
                chip_id=f"n{i}",
            )
            for i in range(2)
        ]
        with pytest.raises(UnstackableError, match="ADC"):
            FusedFleetForward.build(chips)

    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    def test_different_golden_models_refused(self, golden, backend_name):
        # Equal scales, shapes and tile plans, but a different bias: a stack
        # would serve the second chip with the first model's digital layers.
        model, _ = golden
        other = copy.deepcopy(model)
        _, last = list(quantized_layers(other))[-1]
        last.bias.data = last.bias.data + 1.0
        mixed = _fleet(model, backend_name, n=1) + _fleet(other, backend_name, n=1, seed0=1)
        with pytest.raises(UnstackableError, match="one golden model"):
            FusedFleetForward.build(mixed)
