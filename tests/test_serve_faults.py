"""Tests for live fault injection: chaos schedules, retries, dead letters.

Mirrors the determinism discipline of ``tests/test_serve_lifecycle.py``:
everything observable about a chaos run — the fault schedule, the retry
counts, the dead-letter set, and every served logit row — must be a pure
function of ``(engine seed, fault seed, trace)``.
"""

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
    ChipFault,
    FaultInjector,
    FaultPlan,
    HealthConfig,
    InferenceEngine,
    ReplayTrace,
    RetryPolicy,
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


def _engine(model, num_chips=4, **config):
    config.setdefault("max_batch", 4)
    config.setdefault("max_wait", 1)
    return InferenceEngine(
        model, _spec(), num_chips=num_chips, config=ServeConfig(**config)
    )


def _workload(dataset, requests):
    reps = 1 + (requests - 1) // len(dataset.images)
    inputs = np.concatenate([dataset.images] * reps)[:requests]
    ids = [f"r{i:04d}" for i in range(requests)]
    return inputs, ids


class TestValidation:
    def test_plan_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(latency_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(deaths=-1)
        with pytest.raises(ValueError):
            FaultPlan(horizon=0)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"max_attempts": 0}, "max_attempts"),
            ({"max_attempts": 1.5}, "max_attempts"),
            ({"max_attempts": True}, "max_attempts"),
            ({"backoff_base": 0}, "backoff_base"),
            ({"backoff_base": 2.0}, "backoff_base"),
            ({"max_backoff": 0}, "max_backoff"),
            ({"max_backoff": False}, "max_backoff"),
            ({"timeout_ticks": 0}, "timeout_ticks"),
            ({"timeout_ticks": 2.5}, "timeout_ticks"),
            ({"timeout_ticks": True}, "timeout_ticks"),
            ({"backoff_factor": 0.5}, "backoff_factor"),
            ({"backoff_factor": float("nan")}, "backoff_factor"),
            ({"backoff_factor": float("inf")}, "backoff_factor"),
            ({"backoff_factor": True}, "backoff_factor"),
        ],
    )
    def test_invalid_retry_policy_rejected(self, overrides, match):
        """Bad budgets fail when the policy is built, not at the first retry."""
        with pytest.raises(ValueError, match=match):
            RetryPolicy(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_attempts": 1, "backoff_base": 1, "max_backoff": 1},
            {"backoff_factor": 1.0},
            {"timeout_ticks": 1},
            {"timeout_ticks": None},
            {"max_attempts": np.int64(4), "timeout_ticks": np.int32(6)},
            {"backoff_factor": 1e200},
        ],
    )
    def test_boundary_retry_policy_accepted(self, overrides):
        policy = RetryPolicy(**overrides)
        backoffs = [policy.backoff_for(cycle) for cycle in range(1, 6)]
        assert all(1 <= ticks <= policy.max_backoff for ticks in backoffs)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=1, backoff_factor=2.0, max_backoff=5)
        assert [policy.backoff_for(c) for c in (1, 2, 3, 4)] == [1, 2, 4, 5]

    def test_plan_larger_than_fleet_rejected(self, served_model):
        model, _ = served_model
        engine = _engine(model, num_chips=2)
        with pytest.raises(ValueError, match="victim"):
            FaultInjector(engine, FaultPlan(deaths=2, stuck_chips=1)).install()

    def test_double_install_rejected(self, served_model):
        model, _ = served_model
        engine = _engine(model)
        injector = FaultInjector(engine, FaultPlan(deaths=0, stuck_chips=0))
        injector.install()
        with pytest.raises(RuntimeError, match="installed"):
            injector.install()


class TestSchedule:
    def test_schedule_is_deterministic_per_seed(self, served_model):
        model, _ = served_model

        def compile_schedule(fault_seed):
            engine = _engine(model, num_chips=6)
            injector = FaultInjector(
                engine, FaultPlan(deaths=2, stuck_chips=2, seed=fault_seed)
            )
            return injector.install()

        assert compile_schedule(7) == compile_schedule(7)
        assert compile_schedule(7) != compile_schedule(8)

    def test_victims_are_distinct_and_ticks_in_horizon(self, served_model):
        model, _ = served_model
        engine = _engine(model, num_chips=6)
        plan = FaultPlan(deaths=2, stuck_chips=3, horizon=9, seed=3)
        schedule = FaultInjector(engine, plan).install()
        victims = [event.chip_id for event in schedule]
        assert len(set(victims)) == len(victims) == 5
        assert all(1 <= event.tick <= 9 for event in schedule)
        assert sorted(event.tick for event in schedule) == [e.tick for e in schedule]


class TestChaosDeterminism:
    """Same (engine seed, fault seed, trace) => bit-identical chaos story."""

    def _run(self, served_model, seed=5, fault_seed=11, requests=48):
        model, dataset = served_model
        engine = _engine(model, num_chips=4, seed=seed)
        injector = FaultInjector(
            engine,
            FaultPlan(transient_rate=0.15, deaths=1, stuck_chips=1,
                      horizon=8, seed=fault_seed),
        )
        injector.install()
        inputs, ids = _workload(dataset, requests)
        trace = ReplayTrace.from_trace(UniformTrace(rate=4.0), requests)
        outputs = engine.run_trace(inputs, trace, ids=ids)
        return engine, injector, outputs, ids

    def test_identical_schedule_retries_dead_letters_outputs(self, served_model):
        engine_a, inj_a, out_a, ids = self._run(served_model)
        engine_b, inj_b, out_b, _ = self._run(served_model)
        assert inj_a.schedule == inj_b.schedule
        assert engine_a.telemetry.retries == engine_b.telemetry.retries
        assert engine_a.telemetry.hedges == engine_b.telemetry.hedges
        assert set(engine_a.dead_letters) == set(engine_b.dead_letters)
        assert set(out_a) == set(out_b)
        assert all(np.array_equal(out_a[rid], out_b[rid]) for rid in out_a)
        transitions_a = [(t.tick, t.chip_id, t.target) for t in engine_a.health.transitions]
        transitions_b = [(t.tick, t.chip_id, t.target) for t in engine_b.health.transitions]
        assert transitions_a == transitions_b

    def test_different_fault_seed_changes_the_story(self, served_model):
        _, inj_a, _, _ = self._run(served_model, fault_seed=11)
        _, inj_b, _, _ = self._run(served_model, fault_seed=12)
        assert inj_a.schedule != inj_b.schedule

    def test_every_request_is_served_or_dead_lettered(self, served_model):
        engine, _, outputs, ids = self._run(served_model)
        assert set(outputs) | set(engine.dead_letters) == set(ids)
        assert not set(outputs) & set(engine.dead_letters)


class TestRetryAndDeadLetter:
    def test_transients_are_absorbed_by_retries(self, served_model):
        """Moderate transient rate + hedging: everything still gets served."""
        model, dataset = served_model
        engine = _engine(model, num_chips=4, seed=2)
        FaultInjector(
            engine, FaultPlan(transient_rate=0.3, deaths=0, stuck_chips=0, seed=1)
        ).install()
        inputs, ids = _workload(dataset, 32)
        outputs = engine.run(inputs, ids=ids)
        assert set(outputs) == set(ids)
        assert engine.telemetry.faults > 0  # the run genuinely saw transients
        assert engine.telemetry.goodput == 1.0

    def test_dead_fleet_dead_letters_instead_of_raising(self, served_model):
        """With every chip dead and no spares, requests exhaust their retry
        budget and land in dead_letters — the engine never raises."""
        model, dataset = served_model
        engine = _engine(
            model, num_chips=1, seed=2,
            health=HealthConfig(replace_retired=False),
            retry=RetryPolicy(max_attempts=2, hedge=False),
        )
        engine.warm_up()
        FaultInjector(
            engine,
            FaultPlan(transient_rate=0.0, deaths=1, stuck_chips=0, horizon=1, seed=0),
        ).install()
        inputs, ids = _workload(dataset, 8)
        trace = ReplayTrace(tuple([2] * len(ids)))  # arrive after the death
        outputs = engine.run_trace(inputs, trace, ids=ids)
        assert outputs == {}
        assert set(engine.dead_letters) == set(ids)
        for letter in engine.dead_letters.values():
            assert letter.reason == "retries-exhausted"
            assert letter.cause in ("dead", "no-capacity")
            assert letter.attempts == 2
        assert engine.telemetry.goodput == 0.0

    def test_timeout_dead_letters_early(self, served_model):
        model, dataset = served_model
        engine = _engine(
            model, num_chips=1, seed=2,
            health=HealthConfig(replace_retired=False),
            retry=RetryPolicy(max_attempts=10, hedge=False, timeout_ticks=3),
        )
        engine.warm_up()
        FaultInjector(
            engine, FaultPlan(transient_rate=0.0, deaths=1, stuck_chips=0,
                              horizon=1, seed=0),
        ).install()
        inputs, ids = _workload(dataset, 4)
        outputs = engine.run_trace(inputs, ReplayTrace(tuple([2] * 4)), ids=ids)
        assert outputs == {}
        assert all(l.reason == "timeout" for l in engine.dead_letters.values())
        assert all(l.attempts < 10 for l in engine.dead_letters.values())

    def test_death_triggers_spare_provisioning_and_serving_continues(self, served_model):
        model, dataset = served_model
        engine = _engine(model, num_chips=2, seed=4)
        FaultInjector(
            engine, FaultPlan(transient_rate=0.0, deaths=1, stuck_chips=0,
                              horizon=2, seed=6),
        ).install()
        inputs, ids = _workload(dataset, 24)
        trace = ReplayTrace.from_trace(UniformTrace(rate=3.0), 24)
        outputs = engine.run_trace(inputs, trace, ids=ids)
        assert set(outputs) == set(ids)
        assert len(engine.retired) == 1
        dead = engine.retired[0]
        assert dead.health == "replaced"
        replacement = engine.fleet[dead.index]
        assert replacement.chip_id == f"{dead.chip_id}+1"
        # the replacement actually serves (it is in the load report)
        assert engine.telemetry.per_chip_samples.get(replacement.chip_id, 0) > 0


class TestStickyFaults:
    def test_stuck_cells_survive_reprogramming(self, served_model):
        """Reprogramming (recalibration / cache eviction) must re-apply the
        chip's fault map: stuck cells are physical damage."""
        model, dataset = served_model
        engine = _engine(model, num_chips=1, seed=9)
        chip = engine.fleet[0]
        x = dataset.images[:4]
        stuck = engine.inject_chip_faults(chip, FaultSpec(0.05, 0.02), seed=13)
        assert stuck > 0
        faulted = engine.programmed_for(chip).forward(x)
        engine.reprogram(chip)  # full rewrite through the backend
        rewritten = engine.programmed_for(chip).forward(x)
        assert np.array_equal(faulted, rewritten)

    def test_faults_change_outputs(self, served_model):
        model, dataset = served_model
        engine = _engine(model, num_chips=1, seed=9)
        chip = engine.fleet[0]
        x = dataset.images[:4]
        clean = engine.programmed_for(chip).forward(x)
        engine.inject_chip_faults(chip, FaultSpec(0.1, 0.05), seed=13)
        assert not np.array_equal(engine.programmed_for(chip).forward(x), clean)

    def test_replacement_sheds_the_fault_map(self, served_model):
        model, _ = served_model
        engine = _engine(model, num_chips=1, seed=9)
        chip = engine.fleet[0]
        engine.inject_chip_faults(chip, FaultSpec(0.05, 0.02), seed=13)
        assert chip.chip_id in engine._sticky_faults
        replacement = engine.replace_chip(chip)
        assert chip.chip_id not in engine._sticky_faults
        assert replacement.chip_id not in engine._sticky_faults


class TestHazards:
    def test_dead_chip_raises_chip_fault(self, served_model):
        model, _ = served_model
        engine = _engine(model, num_chips=2)
        injector = FaultInjector(
            engine, FaultPlan(transient_rate=0.0, deaths=0, stuck_chips=0)
        )
        injector.install()
        injector._dead.add(engine.fleet[0].chip_id)
        with pytest.raises(ChipFault) as excinfo:
            injector.before_forward(engine.fleet[0])
        assert excinfo.value.kind == "dead"

    def test_latency_spike_returns_penalty_not_failure(self, served_model):
        model, _ = served_model
        engine = _engine(model, num_chips=2)
        injector = FaultInjector(
            engine,
            FaultPlan(transient_rate=0.0, latency_rate=0.999, latency_seconds=0.25,
                      deaths=0, stuck_chips=0),
        )
        injector.install()
        penalties = [injector.before_forward(engine.fleet[0]) for _ in range(8)]
        assert 0.25 in penalties
        assert engine.telemetry.fault_counts["latency-spike"] > 0


class TestChaosSmoke:
    """The PR's acceptance scenario: 16 chips, default fault mix."""

    def test_goodput_floor_on_16_chip_fleet(self, served_model):
        model, dataset = served_model
        engine = _engine(model, num_chips=16, max_batch=8, seed=0)
        FaultInjector(engine, FaultPlan(seed=0)).install()  # default mix
        inputs, ids = _workload(dataset, 96)
        trace = ReplayTrace.from_trace(UniformTrace(rate=8.0), 96)
        outputs = engine.run_trace(inputs, trace, ids=ids)
        assert len(outputs) + len(engine.dead_letters) == len(ids)
        assert engine.telemetry.goodput >= 0.95
        summary = engine.health.summary()
        assert "replaced" in summary  # the scheduled death fired
