"""``repro.obs`` — observability for the serving stack.

Production-shaped instrumentation in three layers, all engine-agnostic:

* **metrics** (:mod:`repro.obs.metrics`) — :class:`Counter`,
  :class:`Gauge`, and a streaming log-bucketed :class:`Histogram` with
  O(1) memory and interpolated p50/p95/p99, owned by a
  :class:`MetricsRegistry`;
* **stage meters** (:class:`Observability`) — every stage of a request's
  life (``enqueue -> batch -> schedule -> mapping/program -> dispatch ->
  lifecycle.probe``) is timed into a per-stage histogram or counted in a
  per-stage counter of that registry, on an injectable clock;
* **exporters** (:mod:`repro.obs.export`) — Prometheus text.

:class:`Observability` bundles one registry + clock; the serving engine
owns one and threads it through every stage of a request's life.
"""

from __future__ import annotations

from repro.obs.clock import Clock, FakeClock, MonotonicClock
from repro.obs.export import to_prometheus
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Registry-name prefix of every stage meter, so a stage can never collide
#: with a ``serve_*`` telemetry meter.
STAGE_PREFIX = "stage_"


class _StageTimer:
    """Context manager that observes one region's duration on exit.

    A region left by an exception is timed too: the stage still spent
    that time.
    """

    __slots__ = ("_histogram", "_now", "_start")

    def __init__(self, histogram: Histogram, now) -> None:
        self._histogram = histogram
        self._now = now

    def __enter__(self) -> None:
        self._start = self._now()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._histogram.observe(self._now() - self._start)


class Observability:
    """One metrics registry + clock, and the stage meters kept in it.

    :meth:`span` times a region into the stage's :class:`Histogram`
    (``stage_<name>``, seconds); :meth:`event` increments the stage's
    :class:`Counter` (``stage_<name>``).  Both are always on: counts are
    exact however long the run, memory is one meter per stage name, and
    :func:`to_prometheus` exports the stages with every other meter.  A
    name is either a span or an event — the registry refuses one name as
    two kinds.
    """

    def __init__(
        self, clock: Clock | None = None, registry: MetricsRegistry | None = None
    ) -> None:
        self.clock = clock if clock is not None else MonotonicClock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._spans: dict[str, Histogram] = {}
        self._events: dict[str, Counter] = {}

    def span(self, name: str) -> _StageTimer:
        """A context manager timing one region of stage ``name``."""
        histogram = self._spans.get(name)
        if histogram is None:
            histogram = self._spans[name] = self.registry.histogram(
                STAGE_PREFIX + name, f"seconds spent in stage {name}"
            )
        return _StageTimer(histogram, self.clock.now)

    def event(self, name: str) -> None:
        """Count one occurrence of the instantaneous stage ``name``."""
        counter = self._events.get(name)
        if counter is None:
            counter = self._events[name] = self.registry.counter(
                STAGE_PREFIX + name, f"occurrences of stage {name}"
            )
        counter.inc()

    def breakdown(self) -> dict:
        """Per-stage table: ``{name: {count, total_s, mean_s, max_s}}``.

        This is the "where does a request's time go" table ``serve-bench``
        prints — queue vs schedule vs program vs dispatch at a glance.
        Events count occurrences and carry zero seconds.
        """
        table = {
            name: {"count": counter.value, "total_s": 0.0, "mean_s": 0.0, "max_s": 0.0}
            for name, counter in self._events.items()
        }
        for name, histogram in self._spans.items():
            table[name] = {
                "count": histogram.count,
                "total_s": histogram.total,
                "mean_s": histogram.mean,
                "max_s": histogram.max,
            }
        return table

    def __repr__(self) -> str:
        return (
            f"Observability(metrics={len(self.registry)}, "
            f"stages={len(self._spans) + len(self._events)})"
        )


__all__ = [
    "Clock",
    "Counter",
    "FakeClock",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MonotonicClock",
    "Observability",
    "to_prometheus",
]
