"""Live fault injection and the retry/dead-letter machinery.

:mod:`repro.variability.faults` models stuck-at defects offline — sample a
fault map, measure accuracy, repeat.  This module drives the same defect
model (and two failure modes the offline protocol cannot express:
transient dispatch errors and hard chip deaths) into a *running* fleet, so
the serving stack's fault tolerance is exercised end to end:

* :class:`FaultPlan` — the seeded chaos scenario: how many chips die, how
  many acquire stuck-at fault maps (a
  :class:`~repro.variability.faults.FaultSpec` applied through each chip's
  owning backend, so both fake-quant and circuit fleets are coverable),
  the per-dispatch transient error rate and latency-spike rate;
* :class:`FaultInjector` — compiles the plan into a deterministic
  :class:`FaultEvent` schedule at :meth:`~FaultInjector.install` time and
  applies due events each engine tick; per-dispatch hazards (transients,
  latency spikes) are drawn from a dedicated seeded stream in
  :meth:`~FaultInjector.before_forward`;
* :class:`RetryPolicy` — bounded retry with exponential backoff, an
  optional same-tick hedge to a second chip, and an optional timeout;
* :class:`DeadLetter` — the terminal record of a request that exhausted
  its retry budget; the engine returns results for completed requests and
  dead-letter records for the rest *instead of raising*.

Everything is reproducible from ``(engine seed, fault seed, trace)``: the
event schedule is a pure function of the plan and the fleet roster, the
per-dispatch hazard stream is consumed in dispatch order, and dispatch
order is itself deterministic — the property ``tests/test_serve_faults.py``
locks in.

Stuck-at maps are *sticky*: the engine remembers which chips carry one and
re-applies it whenever the chip is reprogrammed (cache eviction,
recalibration) — stuck cells are physical damage, a rewrite does not heal
them.  Only spare provisioning (fresh silicon under a new chip id) sheds
the fault map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.validation import require_int, require_real
from repro.variability.faults import FaultSpec


class ChipFault(RuntimeError):
    """A dispatch-time chip failure the engine's retry machinery absorbs.

    ``kind`` is ``"transient"`` (this dispatch failed, the chip may be
    fine) or ``"dead"`` (the chip is gone for good).
    """

    def __init__(self, kind: str, chip_id: str = "") -> None:
        super().__init__(f"{kind} fault on chip {chip_id or '<unknown>'}")
        self.kind = kind
        self.chip_id = chip_id


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff, hedging, and a timeout.

    A batch whose dispatch fails is not lost: each of its requests is
    parked and resubmitted ``backoff_base * backoff_factor**(cycle-1)``
    ticks later (capped at ``max_backoff``), for at most ``max_attempts``
    dispatch cycles; within a cycle, ``hedge`` allows one immediate
    fail-over attempt on the least-loaded alternate chip before the batch
    counts as failed.  ``timeout_ticks`` (``None`` disables) bounds a
    request's total queue residency: a request that failed a cycle after
    sitting that long is dead-lettered even with attempts left.  Requests
    out of budget land in a :class:`DeadLetter` record, never an exception.

    The budgets are checked at construction: ``max_attempts``,
    ``backoff_base`` and ``max_backoff`` are ints >= 1, ``timeout_ticks``
    is ``None`` or an int >= 1, and ``backoff_factor`` is a finite number
    >= 1.
    """

    max_attempts: int = 3
    backoff_base: int = 1
    backoff_factor: float = 2.0
    max_backoff: int = 8
    hedge: bool = True
    timeout_ticks: int | None = None

    def __post_init__(self) -> None:
        require_int("max_attempts", self.max_attempts, minimum=1)
        require_int("backoff_base", self.backoff_base, minimum=1)
        require_int("max_backoff", self.max_backoff, minimum=1)
        if self.timeout_ticks is not None:
            require_int("timeout_ticks", self.timeout_ticks, minimum=1)
        require_real("backoff_factor", self.backoff_factor, minimum=1.0)

    def backoff_for(self, cycle: int) -> int:
        """Park duration (ticks) after the ``cycle``-th failed dispatch."""
        try:
            ticks = self.backoff_base * self.backoff_factor ** max(0, cycle - 1)
        except OverflowError:  # the power left the float range, far past the cap
            return self.max_backoff
        return max(1, int(min(ticks, self.max_backoff)))


@dataclass(frozen=True)
class DeadLetter:
    """Terminal record of a request the fleet could not serve.

    ``reason`` says which budget ran out (``"retries-exhausted"`` or
    ``"timeout"``); ``cause`` records the last failure the request saw
    (``"transient"``, ``"dead"``, or ``"no-capacity"`` when no serving
    chip existed at all).
    """

    id: str
    reason: str
    cause: str
    attempts: int
    tick: int


@dataclass(frozen=True)
class FaultPlan:
    """One seeded chaos scenario for a serving run.

    The default mix is the chaos-smoke acceptance scenario: one hard chip
    death, two stuck-at degradations (``stuck`` rates applied through the
    chip's backend), and a 5% transient dispatch error rate.  Scheduled
    events (deaths, stuck-at maps) land on distinct victim chips at ticks
    drawn uniformly from ``[1, horizon]``; per-dispatch hazards
    (``transient_rate``, ``latency_rate``) apply for the whole run.
    ``latency_seconds`` is the service-time penalty of one latency spike —
    spikes slow a dispatch down, they do not fail it.

    The sizes are checked at construction: ``deaths`` and ``stuck_chips``
    are ints >= 0, ``horizon`` an int >= 1, ``latency_seconds`` a finite
    real >= 0, and both rates finite reals in ``[0, 1)``.
    """

    transient_rate: float = 0.05
    latency_rate: float = 0.0
    latency_seconds: float = 0.05
    deaths: int = 1
    stuck_chips: int = 2
    stuck: FaultSpec = field(default_factory=lambda: FaultSpec(0.02, 0.01))
    horizon: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("transient_rate", "latency_rate"):
            rate = getattr(self, name)
            require_real(name, rate, minimum=0.0)
            if rate >= 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        require_real("latency_seconds", self.latency_seconds, minimum=0.0)
        require_int("deaths", self.deaths, minimum=0)
        require_int("stuck_chips", self.stuck_chips, minimum=0)
        require_int("horizon", self.horizon, minimum=1)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: when, what, and the victim chip."""

    tick: int
    kind: str  # "death" | "stuck-at"
    chip_id: str


class FaultInjector:
    """Compiles a :class:`FaultPlan` against a fleet and fires it tick by tick.

    Attach before traffic::

        injector = FaultInjector(engine, FaultPlan(seed=7))
        injector.install()
        engine.run_trace(workload, trace, ids=ids)

    ``install`` draws the victim chips and event ticks (one deterministic
    stream per plan seed, independent of traffic), registers the injector
    on the engine, and returns the schedule.  The engine then calls
    :meth:`on_tick` once per tick (scheduled events) and
    :meth:`before_forward` once per dispatch attempt (transient/latency
    hazards — raising :class:`ChipFault` hands the failure to the retry
    machinery).
    """

    def __init__(self, engine, plan: FaultPlan | None = None) -> None:
        self.engine = engine
        self.plan = plan if plan is not None else FaultPlan()
        self._schedule: list[FaultEvent] = []
        self._cursor = 0
        self._dead: set[str] = set()
        self._installed = False
        self._hazard_rng = np.random.default_rng((int(self.plan.seed), 0x7A15))

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def install(self) -> list[FaultEvent]:
        """Draw the fault schedule against the engine's current roster."""
        if self._installed:
            raise RuntimeError("fault injector already installed on this engine")
        plan = self.plan
        fleet = list(self.engine.fleet)
        victims_needed = plan.deaths + plan.stuck_chips
        if victims_needed > len(fleet):
            raise ValueError(
                f"plan wants {victims_needed} victim chips, fleet has {len(fleet)}"
            )
        rng = np.random.default_rng((int(plan.seed), 0xFA0175))
        order = rng.permutation(len(fleet))
        death_victims = [fleet[i] for i in order[: plan.deaths]]
        stuck_victims = [fleet[i] for i in order[plan.deaths : victims_needed]]
        events = [
            FaultEvent(int(tick), "death", chip.chip_id)
            for chip, tick in zip(
                death_victims, rng.integers(1, plan.horizon + 1, size=plan.deaths)
            )
        ]
        events.extend(
            FaultEvent(int(tick), "stuck-at", chip.chip_id)
            for chip, tick in zip(
                stuck_victims, rng.integers(1, plan.horizon + 1, size=plan.stuck_chips)
            )
        )
        self._schedule = sorted(events, key=lambda e: (e.tick, e.kind, e.chip_id))
        self._cursor = 0
        self._installed = True
        self.engine.faults = self
        return list(self._schedule)

    @property
    def schedule(self) -> list[FaultEvent]:
        """The compiled fault schedule (empty before :meth:`install`)."""
        return list(self._schedule)

    # ------------------------------------------------------------------
    # Scheduled events
    # ------------------------------------------------------------------
    def on_tick(self, tick: int) -> list[FaultEvent]:
        """Apply every scheduled event due at ``tick``; returns them."""
        if not self._installed:
            raise RuntimeError("call install() before driving the injector")
        fired: list[FaultEvent] = []
        while self._cursor < len(self._schedule) and self._schedule[self._cursor].tick <= tick:
            event = self._schedule[self._cursor]
            self._cursor += 1
            self._apply(event, tick)
            fired.append(event)
        return fired

    def _apply(self, event: FaultEvent, tick: int) -> None:
        engine = self.engine
        chip = engine.chip_by_id(event.chip_id)
        if chip is None:  # victim already replaced under an earlier event
            return
        engine.obs.event("fault.scheduled")
        if event.kind == "death":
            self._dead.add(event.chip_id)
            engine.telemetry.record_fault("death", event.chip_id)
            engine.retire_dead(chip)
        elif event.kind == "stuck-at":
            engine.telemetry.record_fault("stuck-at", event.chip_id)
            stuck = engine.inject_chip_faults(
                chip, self.plan.stuck, seed=(int(self.plan.seed) * 1_000_003 + chip.index)
            )
            engine.health.on_fault_event(chip, tick, kind=f"stuck-at:{stuck}")
        else:  # pragma: no cover - schedule only contains the two kinds
            raise ValueError(f"unknown fault kind {event.kind!r}")

    # ------------------------------------------------------------------
    # Per-dispatch hazards
    # ------------------------------------------------------------------
    def before_forward(self, chip) -> float:
        """Hazard gate for one dispatch attempt on ``chip``.

        Raises :class:`ChipFault` when the attempt fails (dead chip,
        transient error); otherwise returns the latency penalty in seconds
        (0.0 almost always, ``plan.latency_seconds`` on a spike).  The
        hazard stream is consumed once per attempt in dispatch order, so
        outcomes are reproducible run to run.
        """
        if chip.chip_id in self._dead:
            raise ChipFault("dead", chip.chip_id)
        if self.plan.transient_rate > 0.0:
            if self._hazard_rng.random() < self.plan.transient_rate:
                raise ChipFault("transient", chip.chip_id)
        if self.plan.latency_rate > 0.0:
            if self._hazard_rng.random() < self.plan.latency_rate:
                # Spikes slow a dispatch rather than fail it, so the engine's
                # ChipFault handler never sees them — count the risk signal
                # for latency-aware scheduling here instead.
                chip.fault_events = getattr(chip, "fault_events", 0) + 1
                self.engine.telemetry.record_fault("latency-spike", chip.chip_id)
                self.engine.obs.event("fault.latency")
                return self.plan.latency_seconds
        return 0.0

    def __repr__(self) -> str:
        return (
            f"FaultInjector(events={len(self._schedule)}, fired={self._cursor}, "
            f"dead={sorted(self._dead)})"
        )
