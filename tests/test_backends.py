"""Tests for the ``repro.backends`` chip-programming API."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.backends import (
    BACKENDS,
    ChipBackend,
    CircuitBackend,
    FakeQuantBackend,
    make_backend,
    register_backend,
    replicate_for_programming,
)
from repro.datasets.loaders import batch_iterator
from repro.datasets.synthetic import make_pattern_dataset
from repro.models import build_model
from repro.nn import init
from repro.pim.energy import CostReport
from repro.quant.calibration import calibrate_model
from repro.quant.ptq import convert_to_quantized, quantized_layers
from repro.quant.qconfig import QConfig
from repro.selftuning.tuner import SelfTuningConfig
from repro.selftuning.wrap import attach_self_tuning
from repro.variability.injection import inject_variation
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySampler, VariabilitySpec


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


def _chip(spec, seed=0):
    return VariabilitySampler(spec, seed=seed).sample_chip()


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"fake-quant", "circuit"} <= set(BACKENDS)

    def test_make_backend_by_name(self):
        assert isinstance(make_backend("fake-quant"), FakeQuantBackend)
        assert isinstance(make_backend("circuit"), CircuitBackend)

    def test_make_backend_passes_instances_through(self):
        backend = CircuitBackend(array_rows=64, array_cols=64)
        assert make_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown backend"):
            make_backend("quantum")

    def test_register_requires_unique_name(self):
        with pytest.raises(ValueError):
            register_backend(type("Anon", (ChipBackend,), {"name": "base"}))

    def test_bad_injection_mode_rejected(self):
        with pytest.raises(ValueError):
            FakeQuantBackend(injection_mode="telepathic")

    def test_bad_array_geometry_rejected(self):
        with pytest.raises(ValueError):
            CircuitBackend(array_cols=1)  # differential pairs need >= 2


class TestReplicateForProgramming:
    """The perf fix: programming must not deep-copy the whole model."""

    def test_non_quantized_parameters_are_shared(self, golden):
        model, _ = golden
        clone = replicate_for_programming(model)
        quantized = {id(layer.weight.data) for _, layer in quantized_layers(model)}
        shared = unshared = 0
        for original, copy in zip(model.parameters(), clone.parameters()):
            if id(original.data) in quantized:
                assert copy.data is not original.data, "crossbar weights must copy"
                unshared += 1
            else:
                assert copy.data is original.data, "digital params must alias"
                shared += 1
        assert unshared == sum(1 for _ in quantized_layers(model))
        assert shared > 0  # biases, BN affines, ...

    def test_buffers_are_shared(self, golden):
        model, _ = golden
        clone = replicate_for_programming(model)
        originals = dict(model.named_modules())
        checked = 0
        for name, module in clone.named_modules():
            for buffer_name, buffer in module._buffers.items():
                assert buffer is originals[name]._buffers[buffer_name]
                checked += 1
        assert checked > 0

    def test_programming_n_chips_memory_scales_with_quantized_weights_only(
        self, golden
    ):
        """The satellite assertion: N programmed chips cost N copies of the
        quantized weight tensors — zero bytes per non-quantized parameter
        or buffer."""
        model, _ = golden
        spec = _spec()
        backend = FakeQuantBackend(costed=False)
        chips = [
            backend.program(model, _chip(spec, seed=i), spec=spec, chip_id=f"c{i}")
            for i in range(4)
        ]
        quantized_bytes = sum(
            layer.weight.data.nbytes for _, layer in quantized_layers(model)
        )
        golden_arrays = {id(p.data) for p in model.parameters()}
        for module in model.modules():
            golden_arrays |= {id(b) for b in module._buffers.values()}
        fresh_bytes = 0
        for programmed in chips:
            for parameter in programmed.mapping.parameters():
                if id(parameter.data) not in golden_arrays:
                    fresh_bytes += parameter.data.nbytes
            for module in programmed.mapping.modules():
                for buffer in module._buffers.values():
                    assert id(buffer) in golden_arrays
        assert fresh_bytes == len(chips) * quantized_bytes

    def test_replica_modules_are_independent(self, golden):
        """Per-chip attributes (epsilon, tuner, mode) must not leak back."""
        model, _ = golden
        spec = _spec()
        clone = replicate_for_programming(model)
        inject_variation(clone, _chip(spec), spec)
        attach_self_tuning(clone, SelfTuningConfig())
        for _, layer in quantized_layers(model):
            assert not layer.has_variation
            assert layer.self_tuner is None
        for _, layer in quantized_layers(clone):
            assert layer.has_variation
            assert layer.self_tuner is not None

    def test_replica_forward_matches_original(self, golden):
        model, dataset = golden
        clone = replicate_for_programming(model)
        x = dataset.images[:6]
        with no_grad():
            assert np.array_equal(
                clone(Tensor(x)).data, model(Tensor(x)).data
            )


class TestFakeQuantBackend:
    def test_matches_legacy_deepcopy_inject_path(self, golden):
        """The extracted programming logic is bit-identical to what
        ``InferenceEngine._program`` used to do inline."""
        import copy

        model, dataset = golden
        spec = _spec()
        chip = _chip(spec, seed=3)
        legacy = copy.deepcopy(model)
        legacy.eval()
        inject_variation(legacy, chip, spec)
        programmed = FakeQuantBackend().program(model, chip, spec=spec, chip_id="c")
        x = dataset.images[:8]
        with no_grad():
            reference = legacy(Tensor(x)).data
        assert np.array_equal(programmed.forward(x), reference)

    def test_self_tuning_attached_on_request(self, golden):
        model, _ = golden
        spec = _spec()
        programmed = FakeQuantBackend().program(
            model, _chip(spec), spec=spec, self_tuning=SelfTuningConfig()
        )
        assert programmed.tuner is not None
        assert all(
            layer.self_tuner is programmed.tuner
            for _, layer in quantized_layers(programmed.mapping)
        )

    def test_refresh_installs_new_variation_in_place(self, golden):
        model, dataset = golden
        spec = _spec()
        programmed = FakeQuantBackend().program(model, _chip(spec, seed=1), spec=spec)
        x = dataset.images[:4]
        before = programmed.forward(x)
        mapping = programmed.mapping
        programmed.refresh(_chip(spec, seed=2))
        assert programmed.mapping is mapping  # no reprogramming
        assert not np.array_equal(programmed.forward(x), before)

    def test_describe_reports_provenance(self, golden):
        model, _ = golden
        spec = _spec()
        programmed = FakeQuantBackend().program(model, _chip(spec), spec=spec)
        info = programmed.describe()
        assert info["backend"] == "fake-quant"
        assert info["quantized_layers"] == sum(1 for _ in quantized_layers(model))
        assert info["self_tuning"] is False


class TestCircuitBackend:
    def test_programs_real_crossbar_tiles(self, golden):
        model, _ = golden
        spec = _spec()
        programmed = CircuitBackend(array_rows=64, array_cols=64).program(
            model, _chip(spec), spec=spec, chip_id="hw0"
        )
        info = programmed.describe()
        assert info["backend"] == "circuit"
        assert info["arrays"] >= info["quantized_layers"]
        assert info["adc_bits"] is None  # ideal by default
        assert programmed.chip.total_arrays == info["arrays"]

    def test_matches_fake_quant_closely(self, golden):
        model, dataset = golden
        spec = _spec()
        chip = _chip(spec, seed=9)
        fq = FakeQuantBackend().program(model, chip, spec=spec)
        hw = CircuitBackend(array_rows=64, array_cols=64).program(
            model, chip, spec=spec
        )
        x = dataset.images[:8]
        a, b = fq.forward(x), hw.forward(x)
        assert np.allclose(a, b, atol=1e-9)
        assert np.array_equal(a.argmax(axis=-1), b.argmax(axis=-1))

    def test_self_tuning_unsupported(self, golden):
        model, _ = golden
        spec = _spec()
        with pytest.raises(NotImplementedError, match="GTM/LTM"):
            CircuitBackend(array_rows=64, array_cols=64).program(
                model, _chip(spec), spec=spec, self_tuning=SelfTuningConfig()
            )

    def test_refresh_reprograms_deployed_layers(self, golden):
        model, dataset = golden
        spec = _spec()
        programmed = CircuitBackend(array_rows=64, array_cols=64).program(
            model, _chip(spec, seed=1), spec=spec
        )
        x = dataset.images[:4]
        before = programmed.forward(x)
        programmed.refresh(_chip(spec, seed=2))
        assert not np.array_equal(programmed.forward(x), before)


class TestCostHook:
    def test_cost_scales_with_batch(self, golden):
        model, _ = golden
        spec = _spec()
        programmed = FakeQuantBackend().program(model, _chip(spec), spec=spec)
        one = programmed.cost((1, 1, 28, 28))
        eight = programmed.cost((8, 1, 28, 28))
        assert isinstance(one, CostReport)
        assert one.energy_pj > 0
        assert np.isclose(eight.energy_pj, 8 * one.energy_pj)
        assert eight.area_um2 == one.area_um2  # hardware footprint is fixed

    def test_costless_backend_returns_none(self, golden):
        model, _ = golden
        spec = _spec()
        programmed = FakeQuantBackend(costed=False).program(
            model, _chip(spec), spec=spec
        )
        assert programmed.cost((4, 1, 28, 28)) is None

    def test_circuit_cost_matches_its_array_geometry(self, golden):
        model, _ = golden
        spec = _spec()
        backend = CircuitBackend(array_rows=64, array_cols=64)
        assert backend.estimator.array_rows == 64
        assert backend.estimator.array_cols == 64
        programmed = backend.program(model, _chip(spec), spec=spec)
        assert programmed.cost((2, 1, 28, 28)).energy_pj > 0

    def test_bad_batch_shape_rejected(self, golden):
        model, _ = golden
        spec = _spec()
        programmed = FakeQuantBackend().program(model, _chip(spec), spec=spec)
        with pytest.raises(ValueError, match="batch_shape"):
            programmed.cost((4,))
