"""Observability-in-the-engine tests: overhead bound, determinism, JSON.

The contract this file enforces:

* tracing never changes serving results — only what gets recorded;
* the disabled (``NullRecorder``) path is cheap: a request triggers a
  fixed, small number of no-op obs calls (their cost against service
  time is timed in ``benchmarks/bench_serving.py``);
* every stage of a request's life shows up as a span when tracing is on;
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
from repro.obs import FakeClock, NullRecorder, Observability, SpanRecorder
from repro.quant.calibration import calibrate_model
from repro.quant.ptq import convert_to_quantized
from repro.quant.qconfig import QConfig
from repro.serve import InferenceEngine, ServeConfig
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


def _workload(dataset, requests=32):
    reps = 1 + (requests - 1) // len(dataset)
    workload = np.concatenate([dataset.images] * reps)[:requests]
    ids = [f"r{i:04d}" for i in range(requests)]
    return workload, ids


class TestTracingNeverChangesResults:
    def test_outputs_identical_with_tracing_on_and_off(self, served_model):
        model, dataset = served_model
        workload, ids = _workload(dataset)
        traced = _engine(model, tracing=True).run(workload, ids=ids)
        untraced = _engine(model, tracing=False).run(workload, ids=ids)
        assert all(np.array_equal(traced[rid], untraced[rid]) for rid in ids)

    def test_config_flag_selects_recorder(self, served_model):
        model, _ = served_model
        assert isinstance(_engine(model, tracing=True).obs.recorder, SpanRecorder)
        assert isinstance(_engine(model, tracing=False).obs.recorder, NullRecorder)


class _CountingObservability(Observability):
    """Disabled observability that counts the span/event calls made on it."""

    def __init__(self) -> None:
        super().__init__(tracing=False)
        self.calls = 0

    def span(self, name: str, **attrs):
        self.calls += 1
        return super().span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        self.calls += 1
        super().event(name, **attrs)


class TestDisabledPathOverhead:
    def test_null_obs_call_count_per_request(self, served_model):
        """Per-chip dispatch with tracing off makes one ``enqueue`` event per
        request, plus ``batch`` and ``queue_wait`` events and ``dispatch``,
        ``schedule`` and ``mapping`` spans per batch — nothing else."""
        model, dataset = served_model
        workload, ids = _workload(dataset, requests=64)
        obs = _CountingObservability()
        engine = _engine(model, obs=obs, fused=False)
        engine.warm_up()
        obs.calls = 0
        engine.run(workload, ids=ids)
        batches = engine.telemetry.batches
        assert batches == 8
        assert obs.calls == len(ids) + 5 * batches == 104

    def test_disabled_tracing_records_nothing(self, served_model):
        model, dataset = served_model
        workload, ids = _workload(dataset)
        engine = _engine(model, tracing=False)
        engine.run(workload, ids=ids)
        assert len(engine.obs.recorder) == 0
        # Metrics still flow when tracing is off.
        assert engine.telemetry.requests == len(ids)
        assert engine.telemetry.report()["latency"]["count"] == len(ids)


class TestSpanCoverage:
    def test_every_stage_appears_in_the_trace(self, served_model):
        """Per-chip dispatch (``fused=False``) emits the full span chain."""
        model, dataset = served_model
        workload, ids = _workload(dataset)
        engine = _engine(model, tracing=True, fused=False)
        engine.run(workload, ids=ids)
        recorder = engine.obs.recorder
        for stage in (
            "enqueue", "batch", "dispatch", "schedule", "mapping",
            "program", "chip.forward",
        ):
            assert recorder.named(stage), f"no {stage!r} spans recorded"
        assert len(recorder.named("enqueue")) == len(ids)
        dispatch = recorder.named("dispatch")[0]
        assert dispatch.attrs["chip"].startswith("chip")
        assert dispatch.attrs["energy_uj"] > 0.0
        forward = recorder.named("chip.forward")[0]
        assert forward.attrs["energy_uj_per_layer"]

    def test_fused_stages_appear_in_the_trace(self, served_model):
        """Fused dispatch (the default) swaps per-batch ``dispatch`` spans
        for one ``dispatch.fused`` group span (plus ``dispatch.fuse`` for
        the stack build); the per-request stages are unchanged."""
        model, dataset = served_model
        workload, ids = _workload(dataset)
        engine = _engine(model, tracing=True)
        # The stack builds from cache-resident chips only, so a cold
        # fleet's first tick dispatches per-chip; warm up as a real
        # deployment would.
        engine.warm_up()
        engine.run(workload, ids=ids)
        recorder = engine.obs.recorder
        for stage in (
            "enqueue", "batch", "schedule", "mapping", "program",
            "dispatch.fuse", "dispatch.fused",
        ):
            assert recorder.named(stage), f"no {stage!r} spans recorded"
        group = recorder.named("dispatch.fused")[0]
        assert group.attrs["batches"] > 1
        assert engine.telemetry.fused_groups == len(recorder.named("dispatch.fused"))

    def test_breakdown_covers_dispatch_time(self, served_model):
        model, dataset = served_model
        workload, ids = _workload(dataset)
        engine = _engine(model, tracing=True, fused=False)
        engine.run(workload, ids=ids)
        breakdown = engine.obs.recorder.breakdown()
        # The dispatch span wraps schedule + mapping + forward.
        inner = sum(
            breakdown[stage]["total_s"]
            for stage in ("schedule", "mapping", "chip.forward")
            if stage in breakdown
        )
        assert breakdown["dispatch"]["total_s"] >= inner


class TestTelemetryJson:
    def test_report_json_round_trips_without_numpy(self, served_model):
        model, dataset = served_model
        workload, ids = _workload(dataset)
        engine = _engine(model, tracing=True)
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
            obs = Observability(tracing=True, clock=FakeClock(step=1e-3))
            engine = _engine(model, obs=obs)
            engine.run(workload, ids=ids)
            return engine.telemetry.report()

        first, second = run(), run()
        assert first["latency"] == second["latency"]
        assert first["service_seconds_per_batch"] == second["service_seconds_per_batch"]
        assert first["latency"]["p99"] > 0.0

    def test_fake_clock_drives_span_durations(self, served_model):
        model, dataset = served_model
        workload, ids = _workload(dataset)
        obs = Observability(tracing=True, clock=FakeClock(step=1e-3))
        engine = _engine(model, obs=obs)
        engine.run(workload, ids=ids)
        for span in engine.obs.recorder.named("chip.forward"):
            # Every duration is an exact multiple of the virtual step.
            steps = span.duration / 1e-3
            assert steps == pytest.approx(round(steps))
            assert span.duration > 0.0
