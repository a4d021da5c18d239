"""``repro.obs`` — observability for the serving stack.

Production-shaped instrumentation in three layers, all engine-agnostic:

* **metrics** (:mod:`repro.obs.metrics`) — :class:`Counter`,
  :class:`Gauge`, and a streaming log-bucketed :class:`Histogram` with
  O(1) memory and interpolated p50/p95/p99, owned by a
  :class:`MetricsRegistry`;
* **tracing** (:mod:`repro.obs.trace`) — request-scoped :class:`Span`
  context managers over an injectable clock, collected by a bounded
  :class:`SpanRecorder` (or a free :class:`NullRecorder` when tracing is
  off);
* **exporters** (:mod:`repro.obs.export`) — Prometheus text and span
  JSONL.

:class:`Observability` bundles one registry + recorder + clock; the
serving engine owns one and threads it through every stage of a
request's life.
"""

from __future__ import annotations

from repro.obs.clock import Clock, FakeClock, MonotonicClock
from repro.obs.export import to_prometheus
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import NULL_SPAN, NullRecorder, Span, SpanRecorder


class Observability:
    """One metrics registry + span recorder + clock, threaded as a unit.

    ``tracing=True`` (the default) records spans into a bounded
    :class:`SpanRecorder`; ``tracing=False`` swaps in a
    :class:`NullRecorder`, whose no-op spans are the disabled fast path —
    metrics and the injectable clock stay live either way, because they
    are O(1) and the telemetry layer depends on them.
    """

    def __init__(
        self,
        tracing: bool = True,
        clock: Clock | None = None,
        max_spans: int = 4096,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.clock = clock if clock is not None else MonotonicClock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = (
            SpanRecorder(self.clock, max_spans=max_spans)
            if tracing
            else NullRecorder(self.clock)
        )

    @classmethod
    def default(cls, tracing: bool = True, clock: Clock | None = None) -> "Observability":
        return cls(tracing=tracing, clock=clock)

    @classmethod
    def disabled(cls, clock: Clock | None = None) -> "Observability":
        """Metrics-only observability: tracing fully off (NullRecorder)."""
        return cls(tracing=False, clock=clock)

    @property
    def tracing(self) -> bool:
        return self.recorder.enabled

    def span(self, name: str, **attrs):
        """A timed-region context manager (no-op when tracing is off)."""
        return self.recorder.span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        """An instantaneous span (no-op when tracing is off)."""
        self.recorder.event(name, **attrs)

    def __repr__(self) -> str:
        return (
            f"Observability(tracing={self.tracing}, "
            f"metrics={len(self.registry)}, spans={len(self.recorder)})"
        )


__all__ = [
    "Clock",
    "Counter",
    "FakeClock",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MonotonicClock",
    "NULL_SPAN",
    "NullRecorder",
    "Observability",
    "Span",
    "SpanRecorder",
    "to_prometheus",
]
