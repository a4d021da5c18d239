"""Observability-in-the-engine tests: call counts, stage coverage, JSON.

The contract this file enforces:

* the stage meters never change serving results — only what gets recorded;
* the always-on path is cheap: a request triggers a fixed, small number
  of ``span``/``event`` calls (their cost against service time is timed
  in ``benchmarks/bench_serving.py``, which counts them with
  :class:`CountingObservability`);
* every stage of a request's life shows up in ``obs.breakdown()``, and
  its counts are exact on a 4,096-request run;
* ``ServeTelemetry.report()`` is pure-JSON (no numpy scalars leak), and a
  ``FakeClock`` makes the whole latency path exactly reproducible.
"""

import json

import numpy as np
import pytest

from repro.datasets.loaders import batch_iterator
from repro.datasets.synthetic import make_pattern_dataset
from repro.models import build_model
from repro.nn import init
from repro.obs import FakeClock, Observability
from repro.quant.calibration import calibrate_model
from repro.quant.ptq import convert_to_quantized
from repro.quant.qconfig import QConfig
from repro.serve import FaultInjector, FaultPlan, InferenceEngine, ServeConfig, UniformTrace
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


def _engine(model, obs=None, **config):
    config.setdefault("max_batch", 8)
    config.setdefault("max_wait", 2)
    config.setdefault("seed", 0)
    spec = VariabilitySpec.mixed(0.2, WeightProportionalVariance())
    return InferenceEngine(
        model, spec, num_chips=2, config=ServeConfig(**config), obs=obs
    )


#: A fault plan that never fires: installed, it sends every batch through
#: the retrying executor, one batch at a time on its own chip.
NO_FAULTS = FaultPlan(transient_rate=0.0, deaths=0, stuck_chips=0)


def _per_chip(model, obs=None, **config):
    """An engine that serves every batch alone on its chip (the retrying
    executor, under :data:`NO_FAULTS`)."""
    engine = _engine(model, obs=obs, **config)
    FaultInjector(engine, NO_FAULTS).install()
    return engine


def _workload(dataset, requests=32):
    reps = 1 + (requests - 1) // len(dataset)
    workload = np.concatenate([dataset.images] * reps)[:requests]
    ids = [f"r{i:04d}" for i in range(requests)]
    return workload, ids


def _released_ticks(engine):
    """Ticks that released a batch: on a fault-free run with no deadlines,
    every released batch completes on the tick it was released."""
    return len({done.completed_tick for done in engine.completed.values()})


class CountingObservability(Observability):
    """Observability that counts the ``span``/``event`` calls made on it.

    ``calls`` counts both kinds, ``spans`` the ``span`` calls alone.
    """

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0
        self.spans = 0

    def span(self, name: str):
        self.calls += 1
        self.spans += 1
        return super().span(name)

    def event(self, name: str) -> None:
        self.calls += 1
        super().event(name)


class TestMetersNeverChangeResults:
    def test_outputs_identical_under_any_obs_clock(self, served_model):
        model, dataset = served_model
        workload, ids = _workload(dataset)
        wall = _engine(model).run(workload, ids=ids)
        fake = _engine(model, obs=Observability(clock=FakeClock(step=1e-3)))
        virtual = fake.run(workload, ids=ids)
        assert all(np.array_equal(wall[rid], virtual[rid]) for rid in ids)

    def test_engine_owns_an_observability_by_default(self, served_model):
        model, _ = served_model
        engine = _engine(model)
        assert isinstance(engine.obs, Observability)
        assert engine.telemetry.registry is engine.obs.registry


class TestObsCallCount:
    def test_null_obs_call_count_per_request(self, served_model):
        """A per-chip run under a fault plan that never fires makes one
        ``enqueue`` event per request, and per batch ``batch`` and
        ``queue_wait`` events and ``dispatch``, ``schedule`` and
        ``mapping`` spans — nothing else: ``requests + 5 * batches``
        calls.  (A stacked tick makes one ``dispatch.tick`` span per tick
        instead of one ``dispatch`` span per batch.)"""
        model, dataset = served_model
        workload, ids = _workload(dataset, requests=64)
        obs = CountingObservability()
        engine = _per_chip(model, obs=obs)
        engine.warm_up()
        obs.calls = obs.spans = 0
        engine.run(workload, ids=ids)
        batches = engine.telemetry.batches
        ticks = _released_ticks(engine)
        assert (batches, ticks) == (8, 1)
        assert obs.calls == len(ids) + 5 * batches == 104
        assert obs.spans == 3 * batches


class TestStageCoverage:
    def test_every_stage_appears_in_the_breakdown(self, served_model):
        """A per-chip run (the retrying executor) meters the full stage
        chain."""
        model, dataset = served_model
        workload, ids = _workload(dataset)
        engine = _per_chip(model)
        engine.run(workload, ids=ids)
        breakdown = engine.obs.breakdown()
        for stage in ("enqueue", "batch", "queue_wait", "dispatch", "schedule",
                      "mapping", "program"):
            assert breakdown[stage]["count"] > 0, f"no {stage!r} recorded"
        assert breakdown["enqueue"]["count"] == len(ids)
        assert breakdown["program"]["count"] == engine.cache.stats.misses

    def test_fused_stages_appear_in_the_breakdown(self, served_model):
        """Fused dispatch (the default) adds ``dispatch.fuse`` for the stack
        build; the stacked group runs inside its tick's ``dispatch.tick``
        span, and the per-request stages are unchanged.  The stack is built
        after staging, so a cold fleet's first tick stacks too."""
        model, dataset = served_model
        workload, ids = _workload(dataset)
        engine = _engine(model)
        engine.run(workload, ids=ids)
        breakdown = engine.obs.breakdown()
        for stage in ("enqueue", "batch", "schedule", "mapping", "program",
                      "dispatch.fuse", "dispatch.tick"):
            assert breakdown[stage]["count"] > 0, f"no {stage!r} recorded"
        assert engine.telemetry.fused_groups == breakdown["dispatch.tick"]["count"]

    def test_breakdown_covers_dispatch_time(self, served_model):
        model, dataset = served_model
        workload, ids = _workload(dataset)
        engine = _per_chip(model)
        engine.run(workload, ids=ids)
        breakdown = engine.obs.breakdown()
        # Each batch's dispatch span wraps its schedule + mapping + forward.
        inner = breakdown["schedule"]["total_s"] + breakdown["mapping"]["total_s"]
        assert breakdown["dispatch"]["total_s"] >= inner

    def test_fault_injected_run_dispatches_batch_by_batch(self, served_model):
        """With a fault injector installed, every cut batch (retried ones
        included) runs through one ``dispatch`` span of the retrying
        executor, and no tick runs the staged executor."""
        model, dataset = served_model
        workload, ids = _workload(dataset, requests=256)
        engine = _engine(model)
        engine.warm_up()
        plan = FaultPlan(transient_rate=0.2, deaths=0, stuck_chips=0, seed=1)
        FaultInjector(engine, plan).install()
        engine.run_trace(workload, UniformTrace(rate=16.0), ids=ids)
        breakdown = engine.obs.breakdown()
        assert engine.telemetry.retries > 0
        assert breakdown["batch"]["count"] > engine.telemetry.batches
        assert breakdown["dispatch"]["count"] == breakdown["batch"]["count"]
        assert "dispatch.tick" not in breakdown
        assert engine.telemetry.fused_groups == 0


class TestStageCountsExact:
    """Stage counts equal the request and batch counts on a 4,096-request
    run — more spans than any bounded span buffer of 4,096 would keep."""

    REQUESTS = 4096

    def _run(self, model, dataset, per_chip=False):
        workload, ids = _workload(dataset, requests=self.REQUESTS)
        engine = _per_chip(model) if per_chip else _engine(model)
        engine.warm_up()
        outputs = engine.run_trace(workload, UniformTrace(rate=16.0), ids=ids)
        assert len(outputs) == self.REQUESTS
        return engine, engine.obs.breakdown()

    def test_per_chip_counts(self, served_model):
        engine, stages = self._run(*served_model, per_chip=True)
        batches = engine.telemetry.batches
        assert batches == self.REQUESTS // 8
        assert stages["enqueue"]["count"] == self.REQUESTS
        for stage in ("batch", "queue_wait", "schedule", "mapping", "dispatch"):
            assert stages[stage]["count"] == batches, stage
        assert _released_ticks(engine) == self.REQUESTS // 16
        assert "dispatch.tick" not in stages
        assert engine.telemetry.fused_groups == 0

    def test_fused_counts(self, served_model):
        engine, stages = self._run(*served_model)
        telemetry = engine.telemetry
        assert telemetry.fused_groups == self.REQUESTS // 16
        assert stages["enqueue"]["count"] == self.REQUESTS
        for stage in ("batch", "queue_wait", "schedule", "mapping"):
            assert stages[stage]["count"] == telemetry.batches, stage
        ticks = _released_ticks(engine)
        assert stages["dispatch.tick"]["count"] == ticks == telemetry.fused_groups


class TestTelemetryJson:
    def test_report_json_round_trips_without_numpy(self, served_model):
        model, dataset = served_model
        workload, ids = _workload(dataset)
        engine = _engine(model)
        engine.probe_fleet(dataset)
        engine.run(workload, ids=ids)
        report = engine.telemetry.report()
        restored = json.loads(json.dumps(report))  # raises on numpy leakage
        assert restored["requests"] == len(ids)
        assert restored["latency"]["p99"] >= restored["latency"]["p50"] > 0.0
        assert restored["cache"]["hit_rate"] > 0.0
        assert "p95" in restored["queue_ticks"]

    def test_format_mentions_quantiles_and_cache(self, served_model):
        model, dataset = served_model
        workload, ids = _workload(dataset)
        engine = _engine(model)
        engine.run(workload, ids=ids)
        text = engine.telemetry.format()
        assert "p50" in text and "p95" in text and "p99" in text
        assert "request latency ms" in text
        assert "mapping cache" in text


class TestFakeClockDeterminism:
    def test_latency_report_is_exactly_reproducible(self, served_model):
        """Two runs through fresh engines driven by identical FakeClocks
        produce bit-identical latency telemetry — no wall-clock races."""
        model, dataset = served_model
        workload, ids = _workload(dataset)

        def run():
            obs = Observability(clock=FakeClock(step=1e-3))
            engine = _engine(model, obs=obs)
            engine.run(workload, ids=ids)
            return engine.telemetry.report(), engine.obs.breakdown()

        first, second = run(), run()
        assert first[0]["latency"] == second[0]["latency"]
        assert first[0]["service_seconds_per_batch"] == second[0]["service_seconds_per_batch"]
        assert first[0]["latency"]["p99"] > 0.0
        assert first[1] == second[1]

    def test_fake_clock_drives_stage_totals(self, served_model):
        model, dataset = served_model
        workload, ids = _workload(dataset)
        step = 1e-3
        engine = _engine(model, obs=Observability(clock=FakeClock(step=step)))
        engine.run(workload, ids=ids)
        breakdown = engine.obs.breakdown()
        for stage, stats in breakdown.items():
            # Every total is a whole number of virtual steps.
            steps = stats["total_s"] / step
            assert steps == pytest.approx(round(steps)), stage
        for stage in ("program", "mapping", "schedule"):
            assert breakdown[stage]["total_s"] >= breakdown[stage]["count"] * step
