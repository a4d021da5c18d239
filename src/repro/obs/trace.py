"""Request-scoped tracing: lightweight spans over an injectable clock.

A :class:`Span` is one named, timed region with free-form attributes —
the serving engine emits one per stage of a request's life
(``enqueue -> batch -> schedule -> mapping/program -> forward ->
lifecycle.probe``).  Spans land in a bounded in-memory
:class:`SpanRecorder` (oldest dropped first, so a long-running fleet
never grows without bound) and can be exported as JSONL or aggregated
into a per-stage breakdown.

When tracing is off the engine talks to a :class:`NullRecorder` instead:
``span()`` returns a shared no-op context manager and ``event()`` returns
immediately, so the disabled path costs a method call and nothing else —
the overhead bound ``benchmarks/bench_serving.py`` enforces.
"""

from __future__ import annotations

import json
from collections import deque

from repro.obs.clock import Clock, MonotonicClock


class Span:
    """One completed timed region: name, start/end seconds, attributes."""

    __slots__ = ("name", "start", "end", "attrs")

    def __init__(self, name: str, start: float, end: float, attrs: dict) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            **self.attrs,
        }

    def __repr__(self) -> str:
        return f"Span({self.name}, {1e3 * self.duration:.3f} ms, {self.attrs})"


class _LiveSpan:
    """Context manager that records one span into its recorder on exit."""

    __slots__ = ("_recorder", "_name", "_attrs", "_start")

    def __init__(self, recorder: "SpanRecorder", name: str, attrs: dict) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self._start = 0.0

    def set(self, **attrs) -> "_LiveSpan":
        """Attach attributes mid-span (e.g. the chip a scheduler chose)."""
        self._attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        self._start = self._recorder.clock.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = self._recorder.clock.now()
        self._recorder.record(Span(self._name, self._start, end, self._attrs))


class _NullSpan:
    """Shared no-op span: the fast path when tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Bounded in-memory span sink with JSONL export and stage aggregation.

    ``max_spans`` caps memory: once full, the oldest span is dropped per
    new one (``dropped`` counts them), so tracing can stay on under
    production traffic without unbounded growth.
    """

    enabled = True

    def __init__(self, clock: Clock | None = None, max_spans: int = 4096) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.clock = clock if clock is not None else MonotonicClock()
        self.max_spans = int(max_spans)
        self._spans: deque[Span] = deque(maxlen=self.max_spans)
        self.dropped = 0

    def span(self, name: str, **attrs) -> _LiveSpan:
        """A context manager timing one named region."""
        return _LiveSpan(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record an instantaneous (zero-duration) span."""
        now = self.clock.now()
        self.record(Span(name, now, now, attrs))

    def record(self, span: Span) -> None:
        if len(self._spans) == self.max_spans:
            self.dropped += 1
        self._spans.append(span)

    @property
    def spans(self) -> list[Span]:
        """Recorded spans, oldest first."""
        return list(self._spans)

    def named(self, name: str) -> list[Span]:
        """Every recorded span called ``name``, oldest first."""
        return [span for span in self._spans if span.name == name]

    def breakdown(self) -> dict:
        """Per-stage aggregate: ``{name: {count, total_s, mean_s, max_s}}``.

        This is the "where does a request's time go" table ``serve-bench``
        prints — queue vs schedule vs program vs forward at a glance.
        """
        stages: dict[str, dict] = {}
        for span in self._spans:
            stage = stages.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            stage["count"] += 1
            stage["total_s"] += span.duration
            stage["max_s"] = max(stage["max_s"], span.duration)
        for stage in stages.values():
            stage["mean_s"] = stage["total_s"] / stage["count"]
        return stages

    def export_jsonl(self, path) -> int:
        """Write every recorded span as one JSON object per line.

        Returns the number of spans written.  ``path`` may be a filesystem
        path or an open text file object.
        """
        if hasattr(path, "write"):
            for span in self._spans:
                path.write(json.dumps(span.as_dict()) + "\n")
            return len(self._spans)
        with open(path, "w", encoding="utf-8") as handle:
            return self.export_jsonl(handle)

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:
        return f"SpanRecorder({len(self)} spans, dropped={self.dropped})"


class NullRecorder:
    """Recorder with the :class:`SpanRecorder` surface and no storage.

    Every operation is a no-op; ``span()`` hands back one shared
    :data:`NULL_SPAN` so the disabled-tracing hot path allocates nothing
    per call beyond the kwargs dict Python builds for the call itself.
    """

    enabled = False
    dropped = 0
    max_spans = 0

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock if clock is not None else MonotonicClock()

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        return None

    def record(self, span: Span) -> None:
        return None

    @property
    def spans(self) -> list[Span]:
        return []

    def named(self, name: str) -> list[Span]:
        return []

    def breakdown(self) -> dict:
        return {}

    def export_jsonl(self, path) -> int:
        if hasattr(path, "write"):
            return 0
        with open(path, "w", encoding="utf-8"):
            return 0

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullRecorder()"
