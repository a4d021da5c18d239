"""Tests for the per-chip health state machine and health-aware routing."""

import numpy as np
import pytest

from repro.datasets.loaders import batch_iterator
from repro.datasets.synthetic import make_pattern_dataset
from repro.models import build_model
from repro.nn import init
from repro.quant.calibration import calibrate_model
from repro.quant.ptq import convert_to_quantized
from repro.quant.qconfig import QConfig
from repro.serve import (
    HEALTH_STATES,
    SERVING_STATES,
    HealthConfig,
    HealthMonitor,
    InferenceEngine,
    ServeConfig,
    dispatchable,
)
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySpec


class FakeChip:
    def __init__(self, chip_id="chip00", index=0):
        self.chip_id = chip_id
        self.index = index
        self.health = "healthy"
        self.served_samples = 0


@pytest.fixture(scope="module")
def served_model():
    init.seed(0)
    dataset = make_pattern_dataset(5, 16, (1, 28, 28), seed=7, max_shift=1, noise=0.2)
    model = build_model("lenet5-mini", num_classes=5, in_channels=1)
    convert_to_quantized(model, QConfig.from_notation("A4W2"))
    calibrate_model(model, batch_iterator(dataset, 16, shuffle=False), max_batches=3)
    model.eval()
    return model, dataset


def _engine(model, num_chips=3, **config):
    config.setdefault("max_batch", 4)
    config.setdefault("max_wait", 1)
    spec = VariabilitySpec.mixed(0.2, WeightProportionalVariance())
    return InferenceEngine(
        model, spec, num_chips=num_chips, config=ServeConfig(**config)
    )


class TestConfigValidation:
    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValueError):
            HealthConfig(quarantine_after=0)
        with pytest.raises(ValueError):
            HealthConfig(recover_after=0)
        with pytest.raises(ValueError):
            HealthConfig(quarantine_ticks=0)
        with pytest.raises(ValueError):
            HealthConfig(retire_after=0)

    def test_probe_floor_range(self):
        with pytest.raises(ValueError):
            HealthConfig(probe_floor=1.5)
        HealthConfig(probe_floor=0.5)  # valid

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"quarantine_after": 1.5}, "quarantine_after"),
            ({"quarantine_after": True}, "quarantine_after"),
            ({"recover_after": 4.0}, "recover_after"),
            ({"recover_after": False}, "recover_after"),
            ({"quarantine_ticks": float("nan")}, "quarantine_ticks"),
            ({"quarantine_ticks": float("inf")}, "quarantine_ticks"),
            ({"retire_after": True}, "retire_after"),
            ({"retire_after": -1}, "retire_after"),
            ({"probe_floor": float("nan")}, "probe_floor"),
            ({"probe_floor": float("inf")}, "probe_floor"),
            ({"probe_floor": True}, "probe_floor"),
        ],
    )
    def test_invalid_config_rejected(self, params, match):
        with pytest.raises(ValueError, match=match):
            HealthConfig(**params)

    @pytest.mark.parametrize(
        "params",
        [
            {"quarantine_after": np.int64(1), "recover_after": np.int32(1)},
            {"quarantine_ticks": 1, "retire_after": 1},
            {"probe_floor": 0.0},
            {"probe_floor": 1.0},
            {"probe_floor": np.float64(0.25)},
        ],
    )
    def test_boundary_config_accepted(self, params):
        HealthConfig(**params)


class TestStateMachine:
    def test_states_cover_the_documented_ladder(self):
        assert HEALTH_STATES == ("healthy", "degraded", "quarantined", "retired", "replaced")
        assert SERVING_STATES == {"healthy", "degraded"}

    def test_single_failure_degrades(self):
        monitor = HealthMonitor(HealthConfig(quarantine_after=3))
        chip = FakeChip()
        monitor.on_failure(chip, tick=1)
        assert chip.health == "degraded"
        assert monitor.transitions[-1].reason == "dispatch-error"

    def test_failure_streak_quarantines(self):
        monitor = HealthMonitor(HealthConfig(quarantine_after=2))
        chip = FakeChip()
        monitor.on_failure(chip, tick=1)
        monitor.on_failure(chip, tick=2)
        assert chip.health == "quarantined"

    def test_success_breaks_the_failure_streak(self):
        monitor = HealthMonitor(HealthConfig(quarantine_after=2))
        chip = FakeChip()
        monitor.on_failure(chip, tick=1)
        monitor.on_success(chip, tick=2)
        monitor.on_failure(chip, tick=3)
        assert chip.health == "degraded"  # streak reset: no quarantine

    def test_recovery_needs_consecutive_successes(self):
        monitor = HealthMonitor(HealthConfig(recover_after=3))
        chip = FakeChip()
        monitor.on_failure(chip, tick=0)
        for tick in range(1, 3):
            monitor.on_success(chip, tick=tick)
            assert chip.health == "degraded"
        monitor.on_success(chip, tick=3)
        assert chip.health == "healthy"

    def test_quarantine_releases_on_probation_after_sitout(self):
        monitor = HealthMonitor(HealthConfig(quarantine_after=1, quarantine_ticks=4))
        chip = FakeChip()
        monitor.on_failure(chip, tick=2)
        assert chip.health == "quarantined"
        monitor.on_tick(3, [chip])
        assert chip.health == "quarantined"  # sit-out not served yet
        monitor.on_tick(6, [chip])
        assert chip.health == "degraded"
        assert monitor.transitions[-1].reason == "probation"

    def test_flapping_chip_retires(self):
        monitor = HealthMonitor(
            HealthConfig(quarantine_after=1, quarantine_ticks=1, retire_after=2)
        )
        chip = FakeChip()
        for round_ in range(2):
            monitor.on_failure(chip, tick=10 * round_)
            assert chip.health == "quarantined"
            monitor.on_tick(10 * round_ + 2, [chip])
        monitor.on_failure(chip, tick=30)  # third quarantine > retire_after
        assert chip.health == "retired"
        assert monitor.transitions[-1].reason == "flapping"

    def test_death_retires_immediately(self):
        monitor = HealthMonitor()
        chip = FakeChip()
        monitor.on_death(chip, tick=5)
        assert chip.health == "retired"
        assert monitor.transitions[-1].reason == "dead"

    def test_retired_chip_ignores_further_signals(self):
        monitor = HealthMonitor()
        chip = FakeChip()
        monitor.on_death(chip, tick=1)
        monitor.on_failure(chip, tick=2)
        monitor.on_death(chip, tick=3)
        assert chip.health == "retired"
        assert len(monitor.transitions) == 1

    def test_fault_event_degrades_healthy_only(self):
        monitor = HealthMonitor(HealthConfig(quarantine_after=1))
        chip = FakeChip()
        monitor.on_fault_event(chip, tick=1, kind="stuck-at:12")
        assert chip.health == "degraded"
        monitor.on_fault_event(chip, tick=2, kind="stuck-at:3")
        assert chip.health == "degraded"  # no double penalty

    def test_probe_floor_feeds_the_machine(self):
        monitor = HealthMonitor(HealthConfig(probe_floor=0.5, quarantine_after=2))
        chip = FakeChip()
        monitor.on_probe(chip, quality=0.3, tick=1)
        assert chip.health == "degraded"
        monitor.on_probe(chip, quality=0.9, tick=2)  # breaks the streak
        monitor.on_probe(chip, quality=0.3, tick=3)
        assert chip.health == "degraded"

    def test_probe_without_floor_is_inert(self):
        monitor = HealthMonitor(HealthConfig())
        chip = FakeChip()
        monitor.on_probe(chip, quality=0.0, tick=1)
        assert chip.health == "healthy"

    def test_mark_replaced_is_terminal_and_adopt_restarts(self):
        monitor = HealthMonitor()
        old, new = FakeChip("chip00"), FakeChip("chip00+1")
        monitor.on_death(old, tick=1)
        monitor.mark_replaced(old, tick=1)
        assert old.health == "replaced"
        record = monitor.adopt(new)
        assert new.health == "healthy"
        assert record.failures == 0

    def test_summary_groups_by_state(self):
        monitor = HealthMonitor()
        a, b = FakeChip("a"), FakeChip("b")
        monitor.on_success(a, tick=0)
        monitor.on_death(b, tick=0)
        assert monitor.summary() == {"healthy": ["a"], "retired": ["b"]}


class TestDispatchable:
    def test_filters_non_serving_states(self):
        chips = [FakeChip(f"c{i}", i) for i in range(5)]
        chips[1].health = "quarantined"
        chips[2].health = "retired"
        chips[3].health = "replaced"
        chips[4].health = "degraded"
        assert [c.chip_id for c in dispatchable(chips)] == ["c0", "c4"]


class TestEngineIntegration:
    def test_replacement_invalidates_only_dead_chip_cache(self, served_model):
        model, _ = served_model
        engine = _engine(model, num_chips=3)
        engine.warm_up()
        assert len(engine.cache) == 3
        victim = engine.fleet[1]
        replacement = engine.replace_chip(victim, reason="test")
        assert engine.cache.stats.invalidations == 1
        resident = set(engine.cache.keys)
        assert victim.chip_id not in resident
        assert engine.fleet[0].chip_id in resident
        assert engine.fleet[2].chip_id in resident
        assert replacement.chip_id == f"{victim.chip_id}+1"
        assert replacement.index == victim.index
        assert victim.health == "replaced"
        assert engine.retired == [victim]

    def test_replacement_is_fresh_deterministic_silicon(self, served_model):
        model, _ = served_model

        def replace(seed):
            engine = _engine(model, num_chips=2, seed=seed)
            victim = engine.fleet[0]
            original_eps = victim.variation.eps_between
            replacement = engine.replace_chip(victim)
            return original_eps, replacement.variation.eps_between

        old_a, new_a = replace(seed=5)
        old_b, new_b = replace(seed=5)
        assert new_a != old_a  # genuinely fresh silicon
        assert new_a == new_b  # ... deterministically so

    def test_second_replacement_bumps_generation(self, served_model):
        model, _ = served_model
        engine = _engine(model, num_chips=2)
        first = engine.replace_chip(engine.fleet[0])
        second = engine.replace_chip(first)
        base = engine.retired[0].chip_id
        assert first.chip_id == f"{base}+1"
        assert second.chip_id == f"{base}+2"
        assert first.variation.eps_between != second.variation.eps_between

    def test_retire_dead_without_spares_shrinks_capacity(self, served_model):
        model, dataset = served_model
        engine = _engine(
            model, num_chips=2, health=HealthConfig(replace_retired=False)
        )
        victim = engine.fleet[0]
        assert engine.retire_dead(victim) is None
        assert victim.health == "retired"
        assert victim in engine.fleet  # stays in roster, out of rotation
        assert [c.chip_id for c in dispatchable(engine.fleet)] == [
            engine.fleet[1].chip_id
        ]
        outputs = engine.run(dataset.images[:4], ids=["a", "b", "c", "d"])
        assert set(outputs) == {"a", "b", "c", "d"}
        assert engine.fleet[1].served_samples == 4

    def test_health_transitions_land_in_telemetry(self, served_model):
        model, _ = served_model
        engine = _engine(model, num_chips=2)
        engine.retire_dead(engine.fleet[0])
        report = engine.telemetry.report()
        targets = [t["target"] for t in report["faults"]["health_transitions"]]
        assert "retired" in targets and "replaced" in targets
        assert report["faults"]["replacements"]
