"""Arrival traces: when requests reach the serving engine.

``InferenceEngine.run`` submits every request at tick 0 — fine for a
throughput benchmark, useless for studying tail latency or drift, where
*when* traffic arrives matters as much as how much.  An
:class:`ArrivalTrace` assigns each request of a workload an arrival tick;
``InferenceEngine.run_trace`` then feeds the
:class:`~repro.serve.batcher.MicroBatcher` tick by tick, so partial
batches, deadline releases, and queue build-up during bursts all happen
exactly as they would under live traffic.

Traces are deterministic value objects: the schedule is a pure function of
the trace's own parameters (including its seed), never of global RNG
state, so a fixed-seed serving run is reproducible end to end — the
property ``tests/test_serve_lifecycle.py`` locks in.

* :class:`UniformTrace` — a constant deterministic rate (the closed-loop
  baseline);
* :class:`PoissonTrace` — i.i.d. exponential inter-arrival gaps (classic
  open-loop traffic);
* :class:`BurstyTrace` — an on/off modulated Poisson process (MMPP-style):
  quiet periods at ``rate`` interrupted by bursts at ``burst_rate``, the
  shape that actually stresses a batching deadline;
* :class:`ReplayTrace` — replay explicit per-request arrival ticks
  captured from a production log or a previous run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pim.drift import require_real
from repro.serve.faults import require_int


class ArrivalTrace:
    """Assigns arrival ticks (and optionally deadlines) to a request stream."""

    name = "base"

    def schedule(self, count: int) -> list[int]:
        """Non-decreasing arrival tick for each of ``count`` requests."""
        raise NotImplementedError

    def deadline_schedule(self, count: int) -> list:
        """Per-request absolute deadline ticks (``None`` = no deadline).

        Deadlines are relative to the trace's own tick 0, exactly like
        :meth:`schedule`; ``InferenceEngine.run_trace`` shifts both by the
        engine's current tick.  The base trace carries no deadlines — wrap
        any trace in a :class:`DeadlineTrace` to attach a per-request SLO,
        or hand :class:`ReplayTrace` explicit deadlines.
        """
        return [None] * count


@dataclass(frozen=True)
class UniformTrace(ArrivalTrace):
    """Deterministic constant arrival rate (``rate`` requests per tick)."""

    rate: float = 8.0

    def __post_init__(self) -> None:
        require_real("rate", self.rate, minimum=0.0, strict=True)

    name = "uniform"

    def schedule(self, count: int) -> list[int]:
        return [int(i / self.rate) for i in range(count)]


@dataclass(frozen=True)
class PoissonTrace(ArrivalTrace):
    """Memoryless open-loop traffic: exponential inter-arrival gaps."""

    rate: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_real("rate", self.rate, minimum=0.0, strict=True)

    name = "poisson"

    def schedule(self, count: int) -> list[int]:
        rng = np.random.default_rng((int(self.seed), 0x9015504))
        gaps = rng.exponential(1.0 / self.rate, size=count)
        return np.floor(np.cumsum(gaps)).astype(int).tolist()


@dataclass(frozen=True)
class BurstyTrace(ArrivalTrace):
    """On/off modulated Poisson traffic.

    The cycle is ``period`` ticks long; the first ``duty`` fraction of it
    runs hot at ``burst_rate``, the rest idles at ``rate``.  The mean rate
    is ``duty * burst_rate + (1 - duty) * rate``; bursts above the fleet's
    service rate build queue depth and light up the latency tail.
    """

    rate: float = 2.0
    burst_rate: float = 24.0
    period: int = 16
    duty: float = 0.25
    seed: int = 0

    name = "bursty"

    def __post_init__(self) -> None:
        require_real("rate", self.rate, minimum=0.0)
        require_real("burst_rate", self.burst_rate, minimum=0.0, strict=True)
        require_int("period", self.period, minimum=1)
        require_real("duty", self.duty, minimum=0.0, strict=True)
        if self.duty > 1.0:
            raise ValueError(f"duty must be <= 1, got {self.duty!r}")

    def _rate_at(self, tick: int) -> float:
        return self.burst_rate if (tick % self.period) < self.duty * self.period else self.rate

    def schedule(self, count: int) -> list[int]:
        rng = np.random.default_rng((int(self.seed), 0xB0857))
        ticks: list[int] = []
        tick = 0
        while len(ticks) < count:
            arrivals = rng.poisson(self._rate_at(tick))
            ticks.extend([tick] * min(arrivals, count - len(ticks)))
            tick += 1
        return ticks


@dataclass(frozen=True)
class DeadlineTrace(ArrivalTrace):
    """Attach a per-request SLO to any arrival trace.

    Every request of the wrapped trace gets the absolute deadline
    ``arrival tick + slo_ticks`` — the uniform-SLO workload the
    ``serve-bench --slo`` gate measures.  The wrapped trace's arrival
    schedule is passed through untouched, so a deadline-bearing run sees
    exactly the traffic of its deadline-free twin.
    """

    inner: ArrivalTrace
    slo_ticks: int

    name = "deadline"

    def __post_init__(self) -> None:
        if self.slo_ticks < 1:
            raise ValueError(f"slo_ticks must be >= 1, got {self.slo_ticks}")

    def schedule(self, count: int) -> list[int]:
        return self.inner.schedule(count)

    def deadline_schedule(self, count: int) -> list:
        return [tick + self.slo_ticks for tick in self.inner.schedule(count)]


@dataclass(frozen=True)
class ReplayTrace(ArrivalTrace):
    """Replay explicit arrival ticks (e.g. captured from a request log).

    ``deadlines``, when given, replays per-request absolute deadline ticks
    alongside the arrivals — the shape the :class:`repro.serve.api.Gateway`
    compiles an accepted live run into, so an async session can be re-run
    offline bit-for-bit.
    """

    ticks: tuple[int, ...]
    deadlines: tuple | None = None

    name = "replay"

    def __post_init__(self) -> None:
        if any(b < a for a, b in zip(self.ticks, self.ticks[1:])):
            raise ValueError("replayed arrival ticks must be non-decreasing")
        if any(t < 0 for t in self.ticks):
            raise ValueError("arrival ticks must be non-negative")
        if self.deadlines is not None:
            if len(self.deadlines) != len(self.ticks):
                raise ValueError(
                    f"got {len(self.deadlines)} deadlines for {len(self.ticks)} arrivals"
                )

    def schedule(self, count: int) -> list[int]:
        if count > len(self.ticks):
            raise ValueError(
                f"trace has {len(self.ticks)} arrivals, {count} requests submitted"
            )
        return list(self.ticks[:count])

    def deadline_schedule(self, count: int) -> list:
        if self.deadlines is None:
            return [None] * count
        if count > len(self.deadlines):
            raise ValueError(
                f"trace has {len(self.deadlines)} deadlines, {count} requests submitted"
            )
        return list(self.deadlines[:count])

    @classmethod
    def from_trace(cls, trace: ArrivalTrace, count: int) -> "ReplayTrace":
        """The first ``count`` arrivals of ``trace`` as an explicit list.

        The replay schedules exactly the ticks ``trace`` does; it adds no
        determinism, since every trace here already draws the same
        schedule on each call (a seeded trace seeds a fresh generator
        from its own seed).  What it adds is a plain tuple of ticks that
        can be edited (shifted, spliced, saved with a run) and replayed
        through a new :class:`ReplayTrace`.  Deadlines (a wrapped
        :class:`DeadlineTrace`, a deadline-bearing replay) are frozen too.
        """
        deadlines = trace.deadline_schedule(count)
        frozen = (
            None
            if all(deadline is None for deadline in deadlines)
            else tuple(
                None if deadline is None else int(deadline) for deadline in deadlines
            )
        )
        return cls(
            tuple(int(tick) for tick in trace.schedule(count)), deadlines=frozen
        )


TRACES = {
    UniformTrace.name: UniformTrace,
    PoissonTrace.name: PoissonTrace,
    BurstyTrace.name: BurstyTrace,
}


def make_trace(name: str, **kwargs) -> ArrivalTrace:
    """Instantiate a trace by registry name (``uniform``/``poisson``/``bursty``)."""
    if name not in TRACES:
        raise KeyError(f"unknown trace {name!r}; available: {sorted(TRACES)}")
    return TRACES[name](**kwargs)
