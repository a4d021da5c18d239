"""Unit tests for repro.obs tracing, clocks, and exporters."""

import io
import json

import pytest

from repro.obs import (
    FakeClock,
    MetricsRegistry,
    MonotonicClock,
    NULL_SPAN,
    NullRecorder,
    Observability,
    SpanRecorder,
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


class TestSpanRecorder:
    def test_span_measures_fake_clock_exactly(self):
        recorder = SpanRecorder(clock=FakeClock(step=0.25))
        with recorder.span("forward", chip="chip00") as span:
            span.set(rows=8)
        [recorded] = recorder.spans
        assert recorded.name == "forward"
        assert recorded.duration == 0.25  # exactly one step between reads
        assert recorded.attrs == {"chip": "chip00", "rows": 8}

    def test_event_is_zero_duration(self):
        recorder = SpanRecorder(clock=FakeClock(step=1.0))
        recorder.event("enqueue", request="r0")
        [span] = recorder.spans
        assert span.duration == 0.0
        assert span.as_dict()["request"] == "r0"

    def test_bounded_with_dropped_counter(self):
        recorder = SpanRecorder(clock=FakeClock(), max_spans=3)
        for index in range(5):
            recorder.event(f"e{index}")
        assert len(recorder) == 3
        assert recorder.dropped == 2
        assert [span.name for span in recorder.spans] == ["e2", "e3", "e4"]

    def test_named_filters(self):
        recorder = SpanRecorder(clock=FakeClock())
        recorder.event("a")
        recorder.event("b")
        recorder.event("a")
        assert len(recorder.named("a")) == 2

    def test_breakdown_aggregates_per_stage(self):
        recorder = SpanRecorder(clock=FakeClock(step=0.1))
        for _ in range(3):
            with recorder.span("forward"):
                pass
        breakdown = recorder.breakdown()
        assert breakdown["forward"]["count"] == 3
        assert breakdown["forward"]["total_s"] == pytest.approx(0.3)
        assert breakdown["forward"]["mean_s"] == pytest.approx(0.1)
        assert breakdown["forward"]["max_s"] == pytest.approx(0.1)

    def test_export_jsonl_to_path_and_fileobj(self, tmp_path):
        recorder = SpanRecorder(clock=FakeClock(step=0.5))
        with recorder.span("program", chip="chip01"):
            pass
        path = tmp_path / "trace.jsonl"
        assert recorder.export_jsonl(path) == 1
        [line] = path.read_text().splitlines()
        record = json.loads(line)
        assert record["name"] == "program"
        assert record["duration"] == 0.5
        buffer = io.StringIO()
        assert recorder.export_jsonl(buffer) == 1
        assert json.loads(buffer.getvalue())["chip"] == "chip01"

    def test_clear_resets(self):
        recorder = SpanRecorder(clock=FakeClock(), max_spans=1)
        recorder.event("a")
        recorder.event("b")
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.dropped == 0

    def test_rejects_bad_max_spans(self):
        with pytest.raises(ValueError):
            SpanRecorder(max_spans=0)


class TestNullRecorder:
    def test_everything_is_a_noop(self, tmp_path):
        recorder = NullRecorder()
        assert recorder.enabled is False
        with recorder.span("forward") as span:
            assert span is NULL_SPAN
            assert span.set(chip="x") is span
        recorder.event("enqueue")
        assert recorder.spans == []
        assert recorder.named("forward") == []
        assert recorder.breakdown() == {}
        assert len(recorder) == 0
        assert recorder.export_jsonl(tmp_path / "empty.jsonl") == 0

    def test_shared_null_span_instance(self):
        recorder = NullRecorder()
        assert recorder.span("a") is recorder.span("b")


class TestObservability:
    def test_default_is_tracing(self):
        obs = Observability.default()
        assert obs.tracing is True
        with obs.span("stage"):
            pass
        assert len(obs.recorder) == 1

    def test_disabled_uses_null_recorder(self):
        obs = Observability.disabled()
        assert obs.tracing is False
        assert isinstance(obs.recorder, NullRecorder)
        obs.event("stage")
        assert len(obs.recorder) == 0

    def test_shares_clock_with_recorder(self):
        clock = FakeClock(step=1.0)
        obs = Observability(clock=clock)
        assert obs.recorder.clock is clock
        assert obs.clock is clock

    def test_metrics_stay_live_without_tracing(self):
        obs = Observability.disabled()
        obs.registry.counter("requests").inc()
        assert obs.registry.get("requests").value == 1


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
