"""Unit tests for repro.obs stage meters, clocks, and exporters."""

import pytest

from repro.obs import (
    FakeClock,
    MetricsRegistry,
    MonotonicClock,
    Observability,
    to_prometheus,
)


class TestClocks:
    def test_monotonic_clock_advances(self):
        clock = MonotonicClock()
        assert clock.now() <= clock.now()

    def test_fake_clock_steps_per_read(self):
        clock = FakeClock(start=10.0, step=0.5)
        assert clock.now() == 10.0
        assert clock.now() == 10.5
        assert clock.reads == 2

    def test_fake_clock_advance(self):
        clock = FakeClock()
        clock.advance(3.0)
        assert clock.now() == 3.0

    def test_fake_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            FakeClock(step=-1.0)
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)


class TestStageMeters:
    def test_span_times_into_a_stage_histogram(self):
        obs = Observability(clock=FakeClock(step=0.25))
        with obs.span("forward"):
            pass
        histogram = obs.registry.get("stage_forward")
        assert histogram.kind == "histogram"
        assert histogram.count == 1
        assert histogram.total == 0.25  # exactly one step between reads

    def test_event_counts_into_a_stage_counter(self):
        obs = Observability(clock=FakeClock(step=1.0))
        obs.event("enqueue")
        obs.event("enqueue")
        counter = obs.registry.get("stage_enqueue")
        assert counter.kind == "counter"
        assert counter.value == 2

    def test_each_stage_name_registers_one_meter(self):
        obs = Observability()
        for _ in range(3):
            with obs.span("schedule"):
                pass
            obs.event("batch")
        assert obs.registry.names == ["stage_batch", "stage_schedule"]

    def test_span_exited_by_exception_is_timed(self):
        obs = Observability(clock=FakeClock(step=0.5))
        with pytest.raises(RuntimeError):
            with obs.span("admit"):
                raise RuntimeError("overloaded")
        assert obs.breakdown()["admit"]["count"] == 1
        assert obs.breakdown()["admit"]["total_s"] == 0.5

    def test_one_name_cannot_be_span_and_event(self):
        obs = Observability()
        obs.event("probe")
        with pytest.raises(TypeError):
            obs.span("probe")

    def test_breakdown_aggregates_per_stage(self):
        obs = Observability(clock=FakeClock(step=0.1))
        for _ in range(3):
            with obs.span("forward"):
                pass
        obs.event("enqueue")
        breakdown = obs.breakdown()
        assert breakdown["forward"]["count"] == 3
        assert breakdown["forward"]["total_s"] == pytest.approx(0.3)
        assert breakdown["forward"]["mean_s"] == pytest.approx(0.1)
        assert breakdown["forward"]["max_s"] == pytest.approx(0.1)
        assert breakdown["enqueue"] == {
            "count": 1, "total_s": 0.0, "mean_s": 0.0, "max_s": 0.0
        }

    def test_counts_are_exact_past_any_buffer(self):
        obs = Observability(clock=FakeClock())
        for _ in range(10_000):
            obs.event("enqueue")
            with obs.span("dispatch"):
                pass
        breakdown = obs.breakdown()
        assert breakdown["enqueue"]["count"] == 10_000
        assert breakdown["dispatch"]["count"] == 10_000

    def test_stage_meters_export_to_prometheus(self):
        obs = Observability(clock=FakeClock(step=1e-3))
        with obs.span("dispatch.tick"):
            pass
        obs.event("fuse.unstackable")
        text = to_prometheus(obs.registry)
        assert "# TYPE stage_dispatch_tick histogram" in text
        assert "stage_dispatch_tick_count 1" in text
        assert "stage_fuse_unstackable 1" in text


class TestObservability:
    def test_shares_clock_and_registry(self):
        clock = FakeClock(step=1.0)
        registry = MetricsRegistry()
        obs = Observability(clock=clock, registry=registry)
        assert obs.clock is clock
        assert obs.registry is registry

    def test_default_clock_is_monotonic(self):
        assert isinstance(Observability().clock, MonotonicClock)


class TestPrometheusExport:
    def test_counter_gauge_histogram_exposition(self):
        registry = MetricsRegistry()
        registry.counter("serve_requests_total", "requests").inc(7)
        registry.gauge("queue.depth").set(2.5)
        histogram = registry.histogram("latency-s", lo=1e-3, hi=1.0)
        histogram.observe(0.02)
        histogram.observe(0.5)
        text = to_prometheus(registry)
        assert "# TYPE serve_requests_total counter" in text
        assert "serve_requests_total 7" in text
        assert "queue_depth 2.5" in text  # sanitized name
        assert "# TYPE latency_s histogram" in text
        assert 'latency_s_bucket{le="+Inf"} 2' in text
        assert "latency_s_count 2" in text
        # Cumulative bucket counts are non-decreasing.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("latency_s_bucket")
        ]
        assert counts == sorted(counts)

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""
