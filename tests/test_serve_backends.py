"""Serving through ``repro.backends``: parity, lifecycle, energy, mappings.

The centerpiece is the backend parity suite: the circuit-level
``PimChip`` backend and the fake-quant backend must realize the *same
physical chip* from the same sampled variation, all the way through
``InferenceEngine.run_trace``.  The bit-exact test pins the arithmetic
regime where floating point is exact (power-of-two quantization scales,
epsilon draws rounded to a dyadic grid), so any deviation — a wrong
epsilon key, a transposed tile, an off-by-one in the differential
mapping — fails loudly instead of hiding inside a tolerance.
"""

import copy

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.backends import CircuitBackend, FakeQuantBackend
from repro.datasets.loaders import batch_iterator
from repro.datasets.synthetic import make_pattern_dataset
from repro.models import build_model
from repro.nn import init
from repro.quant.calibration import calibrate_model
from repro.quant.ptq import convert_to_quantized, quantized_layers
from repro.quant.qconfig import QConfig
from repro.serve import (
    ChipLifecycle,
    InferenceEngine,
    LifecycleConfig,
    ServeConfig,
    UniformTrace,
)
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySpec


def _make_model(num_classes=5, notation="A4W2"):
    init.seed(0)
    dataset = make_pattern_dataset(
        num_classes, 16, (1, 28, 28), seed=7, max_shift=1, noise=0.2
    )
    model = build_model("lenet5-mini", num_classes=num_classes, in_channels=1)
    convert_to_quantized(model, QConfig.from_notation(notation))
    calibrate_model(model, batch_iterator(dataset, 16, shuffle=False), max_batches=3)
    model.eval()
    return model, dataset


@pytest.fixture(scope="module")
def served_model():
    return _make_model()


def _spec(sigma=0.2):
    return VariabilitySpec.mixed(sigma, WeightProportionalVariance())


def _engine(model, backend, spec=None, num_chips=2, **config):
    config.setdefault("max_batch", 8)
    config.setdefault("max_wait", 2)
    return InferenceEngine(
        model,
        spec or _spec(),
        num_chips=num_chips,
        config=ServeConfig(backend=backend, **config),
    )


def _force_pow2_scales(model) -> None:
    """Snap quantization scales to powers of two (shift-friendly hardware).

    Power-of-two scaling commutes exactly with float rounding, which makes
    the fake-quant and circuit arithmetic bit-comparable.
    """
    for _, layer in quantized_layers(model):
        for name in ("weight_scale", "act_scale"):
            value = float(getattr(layer, name))
            layer.set_buffer(name, np.array(2.0 ** np.floor(np.log2(value))))


def _dyadicize_fleet(engine, model, grid=64.0) -> None:
    """Round every fleet chip's epsilon draws onto a ``1/grid`` dyadic grid.

    Dyadic epsilons keep all products/sums inside exact float arithmetic,
    so the two backends' different summation orders (differential columns,
    tiling) cannot introduce ULP noise — the chips stay physically
    realistic but the cross-check becomes exact.
    """
    for chip in engine.fleet:
        variation = chip.variation
        variation.eps_between = round(variation.eps_between * grid) / grid
        for name, layer in quantized_layers(model):
            pattern = variation.within_pattern(name, layer.weight.data.shape)
            variation._cache[name] = np.round(pattern * grid) / grid


class TestBitExactParity:
    """Acceptance: circuit vs fake-quant, bit-identical through run_trace."""

    def test_run_trace_outputs_bit_identical(self):
        model, dataset = _make_model()
        _force_pow2_scales(model)
        requests = 24
        workload = np.concatenate([dataset.images] * 2)[:requests]
        ids = [f"r{i:04d}" for i in range(requests)]
        outputs = {}
        for backend in ("fake-quant", CircuitBackend(array_rows=64, array_cols=64)):
            engine = _engine(model, backend, seed=11)
            _dyadicize_fleet(engine, model)
            outputs[engine.backend.name] = engine.run_trace(
                workload, UniformTrace(rate=6), ids=ids
            )
        for rid in ids:
            assert np.array_equal(
                outputs["fake-quant"][rid], outputs["circuit"][rid]
            ), f"{rid}: circuit and fake-quant disagree bit-for-bit"

    def test_bit_exactness_sees_real_variation(self):
        """The exact regime must not be vacuous: the dyadic chips still
        perturb outputs relative to the variation-free model."""
        model, dataset = _make_model()
        _force_pow2_scales(model)
        engine = _engine(model, "fake-quant", seed=11)
        _dyadicize_fleet(engine, model)
        x = dataset.images[:8]
        with no_grad():
            clean = model(Tensor(x)).data
        programmed = engine.programmed_for(engine.fleet[0])
        assert not np.array_equal(programmed.forward(x), clean)

    def test_tiled_deployment_stays_bit_identical(self):
        """Tiny arrays force multi-tile layers; the layer-epsilon slicing
        across tiles must not change the realized chip."""
        model, dataset = _make_model()
        _force_pow2_scales(model)
        x = dataset.images[:6]
        results = []
        for rows, cols in [(64, 64), (16, 16)]:
            engine = _engine(
                model, CircuitBackend(array_rows=rows, array_cols=cols), seed=3
            )
            _dyadicize_fleet(engine, model)
            results.append(engine.programmed_for(engine.fleet[0]).forward(x))
        assert np.array_equal(results[0], results[1])


class TestRealisticParity:
    """With MMSE scales and Gaussian epsilons, parity holds to float noise."""

    def test_run_trace_outputs_agree(self, served_model):
        model, dataset = served_model
        requests = 24
        workload = np.concatenate([dataset.images] * 2)[:requests]
        ids = [f"r{i:04d}" for i in range(requests)]
        fq = _engine(model, "fake-quant", spec=_spec(0.3), seed=5).run_trace(
            workload, UniformTrace(rate=6), ids=ids
        )
        hw = _engine(
            model, CircuitBackend(array_rows=64, array_cols=64), spec=_spec(0.3), seed=5
        ).run_trace(workload, UniformTrace(rate=6), ids=ids)
        for rid in ids:
            assert np.allclose(fq[rid], hw[rid], atol=1e-9)
            assert np.argmax(fq[rid]) == np.argmax(hw[rid])

    def test_probed_quality_agrees(self, served_model):
        model, dataset = served_model
        fq = _engine(model, "fake-quant", seed=2)
        hw = _engine(model, CircuitBackend(array_rows=64, array_cols=64), seed=2)
        assert fq.probe_fleet(dataset) == pytest.approx(hw.probe_fleet(dataset))


class TestEngineBackendIntegration:
    @pytest.mark.parametrize("backend", ["fake-quant", "circuit"])
    def test_cache_keyed_by_chip_id(self, served_model, backend):
        """One engine, one backend: a chip's mapping is cached under its id."""
        model, _ = served_model
        engine = _engine(model, backend, num_chips=3, seed=1)
        engine.warm_up()
        assert engine.cache.keys == [chip.chip_id for chip in engine.fleet]
        chip = engine.fleet[1]
        assert engine.cache.peek(chip.chip_id) is engine.programmed_for(chip)

    def test_reprogram_is_surgical(self, served_model):
        model, _ = served_model
        engine = _engine(model, "fake-quant", num_chips=3, seed=1)
        engine.warm_up()
        keep = engine.programmed_for(engine.fleet[1])
        assert engine.reprogram(engine.fleet[0]) == 1
        assert engine.programmed_for(engine.fleet[1]) is keep
        assert engine.reprogram(engine.fleet[0]) == 1  # fresh entry each time

    def test_engine_repr_names_backend(self, served_model):
        model, _ = served_model
        assert "backend='circuit'" in repr(_engine(model, "circuit"))

    def test_energy_telemetry_accumulates(self, served_model):
        model, dataset = served_model
        engine = _engine(model, "fake-quant", seed=4)
        engine.run(dataset.images[:16], ids=[f"r{i}" for i in range(16)])
        telemetry = engine.telemetry
        assert telemetry.total_energy_uj > 0
        assert telemetry.energy_per_request_uj > 0
        per_chip = sum(telemetry.per_chip_energy_uj.values())
        assert per_chip == pytest.approx(telemetry.total_energy_uj)
        assert sum(chip.energy_uj for chip in engine.fleet) == pytest.approx(
            telemetry.total_energy_uj
        )
        report = telemetry.report()["energy_uj"]
        assert report["total"] == pytest.approx(telemetry.total_energy_uj)
        assert "uJ" in telemetry.format()

    def test_costless_backend_serves_without_energy(self, served_model):
        model, dataset = served_model
        engine = _engine(model, FakeQuantBackend(costed=False), seed=4)
        engine.run(dataset.images[:8], ids=[f"r{i}" for i in range(8)])
        assert engine.telemetry.total_energy_uj == 0.0
        assert "energy" not in engine.telemetry.format()

    def test_energy_aware_policy_serves_through_engine(self, served_model):
        model, dataset = served_model
        engine = _engine(model, "fake-quant", policy="energy-aware", seed=4)
        engine.probe_fleet(dataset)
        outputs = engine.run(dataset.images[:16], ids=[f"r{i}" for i in range(16)])
        assert len(outputs) == 16


class TestCircuitLifecycle:
    """Recalibration reprograms circuit chips through their owning backend."""

    def _drifting_run(self, policy="drift-aware"):
        model, dataset = _make_model()
        engine = _engine(
            model,
            CircuitBackend(array_rows=64, array_cols=64),
            spec=_spec(0.3),
            num_chips=2,
            policy=policy,
            seed=6,
        )
        lifecycle = ChipLifecycle(
            engine,
            dataset,
            LifecycleConfig(
                drift="aging", nu=0.8, dt=1.0, probe_every=4.0,
                accuracy_floor=0.98, seed=6,
            ),
        )
        lifecycle.install()
        requests = 48
        workload = np.concatenate([dataset.images] * 3)[:requests]
        ids = [f"r{i:04d}" for i in range(requests)]
        outputs = engine.run_trace(
            workload, UniformTrace(rate=4), ids=ids, lifecycle=lifecycle
        )
        return engine, lifecycle, outputs, ids

    @pytest.mark.slow
    def test_recalibration_fires_and_serving_completes(self):
        engine, lifecycle, outputs, ids = self._drifting_run()
        assert len(outputs) == len(ids)
        assert len(lifecycle.events) > 0
        assert engine.cache.stats.invalidations >= len(lifecycle.events)
        for event in lifecycle.events:
            assert event.quality_after >= event.quality_before

    @pytest.mark.slow
    def test_recalibration_schedule_is_deterministic(self):
        first = self._drifting_run()
        second = self._drifting_run()
        assert [e.chip_id for e in first[1].events] == [
            e.chip_id for e in second[1].events
        ]
        assert all(
            np.array_equal(first[2][rid], second[2][rid]) for rid in first[3]
        )


class TestCompatibilityShims:
    """A programmed chip's public ``ProgrammedChip.mapping`` is a runnable
    module, and replicas stay deep-copyable despite their shared structure."""

    def test_legacy_mapping_accessor_returns_module(self, served_model):
        model, dataset = served_model
        engine = _engine(model, "fake-quant", seed=8)
        mapping = engine.programmed_for(engine.fleet[0]).mapping
        with no_grad():
            logits = mapping(Tensor(dataset.images[:2])).data
        assert logits.shape == (2, 5)

    def test_legacy_deepcopy_still_possible(self, served_model):
        """Downstream code that deep-copied programmed mappings must not
        break on the structure-shared replicas."""
        model, _ = served_model
        engine = _engine(model, "fake-quant", seed=8)
        copy.deepcopy(engine.programmed_for(engine.fleet[0]).mapping)
