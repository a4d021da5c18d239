"""Tests for drift-aged fleet serving: lifecycle, recalibration, determinism."""

import math

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
    HealthConfig,
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
        # One chip, so both requests run on the same resident mapping.
        engine = _engine(model, num_chips=1, max_batch=1, max_wait=0)
        lifecycle = _lifecycle(engine, dataset, probe_every=1000.0, nu=0.5)
        sample = dataset.images[:1]
        fresh = engine.run(sample, ids=["t0"])["t0"]
        hits_before = engine.cache.stats.hits
        misses_before = engine.cache.stats.misses
        lifecycle.advance(20.0)
        aged = engine.run(sample, ids=["t1"])["t1"]
        # Drift changed the resident mapping's outputs without reprogramming.
        assert not np.array_equal(fresh, aged)
        assert engine.cache.stats.misses == misses_before
        assert engine.cache.stats.hits > hits_before

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
        resident = set(engine.cache.keys)
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


#: Fleets whose forward is deterministic, so the probe memo books: every
#: recalibration, and every sweep that finds a recalibrated chip back at an
#: age already probed.  Two resident chips out of three make sweeps chunk
#: and spill, stacked or not: every stack build refuses for the fleets in
#: :data:`UNSTACKED`.
MEMO_FLEETS = {
    "fake-quant": {},
    "self-tuned-global": {"self_tuning": SelfTuningConfig("global", gtm_cells=1000)},
    "self-tuned-layer": {"self_tuning": SelfTuningConfig("layer")},
    "circuit": {"backend": "circuit"},
    "resident-2-fused": {"max_resident_chips": 2},
    "resident-2-unfused": {"max_resident_chips": 2},
}
UNSTACKED = {"resident-2-unfused"}


def _count_probes(monkeypatch) -> list:
    """Record the chip id of every ``probe_chip`` call from now on."""
    calls = []
    probe_chip = InferenceEngine.probe_chip

    def counted(self, chip, *args, **kwargs):
        calls.append(chip.chip_id)
        return probe_chip(self, chip, *args, **kwargs)

    monkeypatch.setattr(InferenceEngine, "probe_chip", counted)
    return calls


def _decided(events) -> list:
    """What each recalibration decided and measured (no cache bookkeeping)."""
    return [
        (event.time, event.chip_id, event.quality_before, event.quality_after)
        for event in events
    ]


def _memo_off(monkeypatch) -> None:
    """The reference lifecycle: nothing is booked, every lookup misses."""
    monkeypatch.setattr(ChipLifecycle, "_recall", lambda self, chip: None)


def _pin_faults(engine):
    chip = engine.fleet[0]
    engine.inject_chip_faults(chip, FaultSpec(p_stuck_off=0.1), seed=1)
    return chip


def _remeasure(engine):
    chip = engine.fleet[0]
    chip.variation.remeasure()
    return chip


def _run_trace(served_model, warm=False, lifecycle_overrides=None, **config):
    """Serve 40 requests on a drift-aware ``rram:2,flash:1`` fleet under a
    lifecycle (fast drift and a tight floor unless overridden)."""
    model, dataset = served_model
    engine = _engine(
        model, fleet_spec=FleetSpec.parse("rram:2,flash:1"),
        policy="drift-aware", seed=3, **config,
    )
    if warm:
        engine.warm_up()
    lifecycle = _lifecycle(
        engine, dataset,
        **{"nu": 0.8, "probe_every": 3.0, "accuracy_floor": 0.999, "seed": 3,
           **(lifecycle_overrides or {})},
    )
    ids = [f"r{i:04d}" for i in range(40)]
    outputs = engine.run_trace(
        dataset.images[:40], UniformTrace(rate=2.0), ids=ids, lifecycle=lifecycle
    )
    return engine, lifecycle, [outputs[rid] for rid in ids]


class TestFreshStateQuality:
    """The probe memo: booked qualities are exactly what probes measure."""

    def _against_reference(self, served_model, monkeypatch, **run):
        """Run with the memo, then without it: everything but the probe
        counts must match.  Returns the memo run's engine and lifecycle."""
        calls = _count_probes(monkeypatch)
        engine, lifecycle, outputs = _run_trace(served_model, **run)
        booked_calls = len(calls)
        _memo_off(monkeypatch)
        ref_engine, ref_lifecycle, ref_outputs = _run_trace(served_model, **run)
        probed_calls = len(calls) - booked_calls

        assert lifecycle.events, "the fleet must recalibrate for this test to bite"
        assert engine.telemetry.digest() == ref_engine.telemetry.digest()
        assert engine.telemetry.quality_series == ref_engine.telemetry.quality_series
        assert _decided(lifecycle.events) == _decided(ref_lifecycle.events)
        if run.get("max_resident_chips") is None:
            # Every chip stays resident, so each rewrite drops one cache
            # entry either way; on a bounded cache the memo leaves booked
            # chips unprogrammed, and ``invalidated`` counts what was resident.
            assert lifecycle.events == ref_lifecycle.events
        assert all(np.array_equal(a, b) for a, b in zip(outputs, ref_outputs))
        reused = engine.telemetry.probes_reused
        assert probed_calls - booked_calls == reused
        assert ref_engine.telemetry.probes_reused == 0
        # Both runs are gated, and the gate reads only booked values.
        assert engine.telemetry.report()["probes"] == {
            "run": booked_calls,
            "reused": reused,
            "deferred": ref_engine.telemetry.probes_deferred,
        }
        return engine, lifecycle

    @pytest.mark.parametrize("fleet", sorted(MEMO_FLEETS))
    def test_booking_matches_reprobing(
        self, served_model, monkeypatch, refuse_stacking, fleet
    ):
        """Booking the stored quality changes nothing but the probe count."""
        if fleet in UNSTACKED:
            refuse_stacking()
        engine, lifecycle = self._against_reference(
            served_model, monkeypatch, **MEMO_FLEETS[fleet]
        )
        # install() programmed every chip, so every recalibration books, and
        # some sweep finds a recalibrated chip back at an age already probed.
        assert engine.telemetry.probes_reused > len(lifecycle.events)

    def test_temperature_drift_books_no_sweep(self, served_model, monkeypatch):
        """An OU path never revisits an eps_between: only recalibrations,
        back at drift age 0, book."""
        engine, lifecycle = self._against_reference(
            served_model, monkeypatch,
            lifecycle_overrides={"drift": "temperature", "sigma": 0.5},
        )
        assert engine.telemetry.probes_reused == len(lifecycle.events)

    def test_resident_before_install_books_after_recalibrating(
        self, served_model, monkeypatch
    ):
        """A chip the lifecycle did not write is probed for real — in sweeps
        and at its first recalibration — and books only from then on."""
        lookups = []
        recall = ChipLifecycle._recall

        def spied(self, chip):
            quality = recall(self, chip)
            lookups.append((chip.chip_id, chip.recalibrations, quality is not None))
            return quality

        monkeypatch.setattr(ChipLifecycle, "_recall", spied)
        engine, _ = self._against_reference(served_model, monkeypatch, warm=True)
        for chip in engine.fleet:
            mine = [(cycle, hit) for chip_id, cycle, hit in lookups if chip_id == chip.chip_id]
            assert not any(hit for cycle, hit in mine if cycle == 0)
            # The first recalibration's own lookup misses too.
            assert not next((hit for cycle, hit in mine if cycle == 1), False)
        assert any(hit for _, _, hit in lookups)

    @pytest.mark.parametrize(
        "config, disturb",
        [({}, _pin_faults), ({"self_tuning": SelfTuningConfig("global")}, _remeasure)],
        ids=["faults-pinned", "gtm-remeasured"],
    )
    def test_changed_state_probes_for_real(
        self, served_model, monkeypatch, config, disturb
    ):
        """A chip back at a remembered drift age books, unless its fault map
        or GTM reading changed since: then its next sweep probes."""
        model, dataset = served_model
        calls = _count_probes(monkeypatch)

        def scenario():
            engine = _engine(model, **config)
            lifecycle = _lifecycle(engine, dataset, probe_every=4.0, recalibrate=False)
            lifecycle.advance(4.0)  # every chip probed at drift age 4
            for chip in engine.fleet:
                lifecycle.recalibrate(chip)
            disturbed = disturb(engine)
            start = len(calls)
            lifecycle.advance(4.0)  # back at drift age 4
            return engine, disturbed, calls[start:]

        engine, disturbed, swept = scenario()
        assert swept == [disturbed.chip_id]
        assert engine.telemetry.probes_reused == 2 * len(engine.fleet) - 1
        _memo_off(monkeypatch)
        ref_engine, _, ref_swept = scenario()
        assert ref_swept == [chip.chip_id for chip in ref_engine.fleet]
        assert engine.telemetry.quality_series == ref_engine.telemetry.quality_series
        assert engine.telemetry.digest() == ref_engine.telemetry.digest()

    def test_noisy_adc_never_books(self, served_model):
        backend = CircuitBackend(adc=ADC(ideal=True, noise_rms=0.5))
        engine, lifecycle, _ = _run_trace(served_model, backend=backend)
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


def _oracle(monkeypatch) -> None:
    """The probe-every-chip lifecycle: the gate defers nothing."""
    monkeypatch.setattr(ChipLifecycle, "_due", lambda self, chip: True)


def _sample_times(engine, chip) -> list:
    return [time for time, _ in engine.telemetry.quality_timeline(chip.chip_id)]


def _gated_sweeps(series, law, threshold, probe_every, end, beta=6.0) -> list:
    """The times a never-recalibrated healthy chip must be sampled at,
    replayed from its own quality series: install, then every sweep at
    which the anchor decayed by the law to the *next* sweep is below
    ``threshold``; a probe moves the anchor to the value it recorded."""
    recorded = dict(series)
    anchor_time, anchor_quality = series[0]
    expected = [anchor_time]
    for sweep in np.arange(probe_every, end + probe_every / 2, probe_every):
        excursion = abs(law(sweep + probe_every) - law(anchor_time))
        if anchor_quality * math.exp(-beta * excursion) < threshold:
            expected.append(float(sweep))
            anchor_time, anchor_quality = sweep, recorded.get(sweep, math.nan)
    return expected


#: Slow aging: the gate defers a chip for several sweeps at a time.
SLOW = {"nu": 0.005, "probe_every": 4.0, "recalibrate": False}

#: Drift and floor at which ``_run_trace``'s fleet both recalibrates and
#: has chips the gate defers under aging.
DEFERRING = {"nu": 0.1, "accuracy_floor": 0.7}


class TestProbeGate:
    """Sweeps defer healthy chips the aging law says hold their floor."""

    def test_healthy_chip_deferred_until_sweep_before_crossing(self, served_model):
        model, dataset = served_model
        engine = _engine(model, num_chips=1)
        lifecycle = _lifecycle(engine, dataset, **SLOW)
        for _ in range(64):
            lifecycle.advance(1.0)
        chip = engine.fleet[0]
        series = engine.telemetry.quality_timeline(chip.chip_id)
        law = chip.variation.process.expected_at
        floor = lifecycle.floor_for(chip)
        assert series[0][1] > 0.0, "a zero baseline has a zero floor and never probes"
        expected = _gated_sweeps(series, law, floor, probe_every=4.0, end=64.0)
        assert _sample_times(engine, chip) == expected
        # The first probe comes one sweep before the predicted crossing:
        # still above the floor now, below it at the next sweep.
        first = expected[1]
        baseline = series[0][1]
        assert baseline * math.exp(-6.0 * abs(law(first) - law(0.0))) >= floor
        assert baseline * math.exp(-6.0 * abs(law(first + 4.0) - law(0.0))) < floor
        deferred = 64 // 4 - (len(expected) - 1)  # sweeps not sampled
        assert deferred > 0
        assert engine.telemetry.probes_deferred == deferred

    @pytest.mark.parametrize(
        "failures, state", [(1, "degraded"), (2, "quarantined")]
    )
    def test_unhealthy_chip_probed_every_sweep(self, served_model, failures, state):
        model, dataset = served_model
        engine = _engine(model)
        lifecycle = _lifecycle(engine, dataset, **SLOW)
        sick, well = engine.fleet
        for _ in range(failures):
            engine.health.on_failure(sick, engine.now)
        assert sick.health == state
        for _ in range(32):
            lifecycle.advance(1.0)
        sweeps = [float(time) for time in range(0, 33, 4)]
        assert _sample_times(engine, sick) == sweeps
        assert len(_sample_times(engine, well)) < len(sweeps)

    def test_fault_map_pinned_after_anchor_probes_next_sweep(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        lifecycle = _lifecycle(engine, dataset, **SLOW)
        lifecycle.advance(4.0)
        assert engine.telemetry.probes_deferred == 2
        pinned = _pin_faults(engine)
        other = engine.fleet[1]
        assert pinned.health == "healthy"  # only the fault map changed
        lifecycle.advance(4.0)
        assert _sample_times(engine, pinned) == [0.0, 8.0]
        assert _sample_times(engine, other) == [0.0]

    def test_spare_replacement_probed_at_first_sweep(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        lifecycle = _lifecycle(engine, dataset, **SLOW)
        lifecycle.advance(4.0)
        spare = engine.replace_chip(engine.fleet[0])
        lifecycle.advance(4.0)
        assert _sample_times(engine, spare) == [8.0]
        assert _sample_times(engine, engine.fleet[1]) == [0.0]
        # Its first probe is its anchor: from then on it is gated too.
        lifecycle.advance(4.0)
        assert _sample_times(engine, spare) == [8.0]

    def test_probe_floor_above_recalibration_floor_probes_earlier(self, served_model):
        model, dataset = served_model

        def first_probe(probe_floor):
            engine = _engine(model, num_chips=1, health=HealthConfig(probe_floor=probe_floor))
            lifecycle = _lifecycle(
                engine, dataset, nu=0.05, probe_every=4.0, accuracy_floor=0.5,
                recalibrate=False,
            )
            for _ in range(16):
                lifecycle.advance(1.0)
            chip = engine.fleet[0]
            series = engine.telemetry.quality_timeline(chip.chip_id)
            threshold = max(lifecycle.floor_for(chip), probe_floor or 0.0)
            expected = _gated_sweeps(
                series, chip.variation.process.expected_at, threshold, 4.0, end=16.0
            )
            assert _sample_times(engine, chip)[:2] == expected[:2]
            return expected[1], lifecycle.baseline[chip.chip_id]

        relaxed, baseline = first_probe(None)
        tight, _ = first_probe(0.9 * baseline)
        assert tight < relaxed

    def test_aging_with_prediction_defers(self, served_model):
        """The fleet the oracle comparisons below use does defer under
        aging, so their equality is the gate standing down."""
        engine, lifecycle, _ = _run_trace(served_model, lifecycle_overrides=DEFERRING)
        assert engine.telemetry.probes_deferred > 0
        assert lifecycle.events

    @pytest.mark.parametrize(
        "overrides",
        [{"drift": "temperature", "sigma": 0.5}, {"predict_quality": False}],
        ids=["temperature", "no-prediction"],
    )
    def test_undeferrable_lifecycle_equals_oracle(self, served_model, monkeypatch, overrides):
        run = {**DEFERRING, **overrides}
        engine, lifecycle, outputs = _run_trace(served_model, lifecycle_overrides=run)
        _oracle(monkeypatch)
        ref_engine, ref_lifecycle, ref_outputs = _run_trace(
            served_model, lifecycle_overrides=run
        )
        assert lifecycle.events, "the fleet must recalibrate for this test to bite"
        assert engine.telemetry.probes_deferred == 0
        assert engine.telemetry.digest() == ref_engine.telemetry.digest()
        assert engine.telemetry.quality_series == ref_engine.telemetry.quality_series
        assert lifecycle.events == ref_lifecycle.events
        assert all(np.array_equal(a, b) for a, b in zip(outputs, ref_outputs))


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
            # A NaN cadence would never sweep (time >= nan is false), and a
            # NaN beta would make every estimate NaN and every chip deferred.
            ({"probe_every": float("nan")}, "probe_every"),
            ({"probe_every": float("inf")}, "probe_every"),
            ({"dt": float("nan")}, "dt"),
            ({"dt": float("-inf")}, "dt"),
            ({"predict_beta": float("nan")}, "predict_beta"),
            ({"predict_beta": float("inf")}, "predict_beta"),
            ({"nu": float("nan")}, "nu"),
            ({"t0": float("inf")}, "t0"),
            ({"theta": float("nan")}, "theta"),
            ({"sigma": -1.0}, "sigma"),
            ({"accuracy_floor": float("nan")}, "accuracy_floor"),
            ({"accuracy_floor": True}, "accuracy_floor"),
            ({"probe_every": True}, "probe_every"),
            ({"probe_subset": 2.5}, "probe_subset"),
            ({"probe_subset": True}, "probe_subset"),
            ({"probe_k": True}, "probe_k"),
            # A negative seed would fail in numpy at install(); 1.5 would be
            # truncated into another chip's drift stream.
            ({"seed": -1}, "seed"),
            ({"seed": 1.5}, "seed"),
        ],
    )
    def test_invalid_config_rejected_at_construction(self, overrides, match):
        """Bad knobs fail when the config is built, not at install() or
        the first probe."""
        with pytest.raises(ValueError, match=match):
            LifecycleConfig(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"probe_k": 1},
            {"predict_beta": 0.0},
            {"nu": 0.0},
            {"drift": "temperature"},
            {"probe_subset": np.int64(8), "probe_k": np.int32(2)},
            {"probe_every": np.float64(0.5), "dt": 1e-9},
            {"sigma": 0.0, "accuracy_floor": 1.0},
        ],
    )
    def test_boundary_config_accepted(self, overrides):
        LifecycleConfig(**overrides)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -1.0])
    def test_bad_advance_step_rejected(self, served_model, dt):
        model, dataset = served_model
        lifecycle = _lifecycle(_engine(model), dataset)
        with pytest.raises(ValueError, match="dt"):
            lifecycle.advance(dt)
        assert lifecycle.time == 0.0
