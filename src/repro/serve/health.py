"""Per-chip health state machine: hysteresis between probes and dispatch.

A drifting chip degrades *gradually* and recalibration brings it back; a
faulted chip misbehaves *discretely* — a transient dispatch error, a burst
of stuck cells, a hard death.  The serving engine needs a memory between
those observations, otherwise one flaky dispatch would bounce a chip in
and out of rotation every tick.  :class:`HealthMonitor` is that memory:
every fleet chip carries one of five states,

    healthy -> degraded -> quarantined -> retired -> replaced

with hysteresis in both directions:

* a dispatch failure degrades a healthy chip immediately (one strike);
  ``quarantine_after`` *consecutive* failures quarantine it — the
  scheduler stops routing traffic to it entirely;
* a quarantined chip sits out ``quarantine_ticks`` ticks, then re-enters
  rotation on probation (``degraded``); ``recover_after`` consecutive
  successful dispatches promote it back to ``healthy``;
* a chip quarantined ``retire_after`` times is retired for good — flapping
  hardware is not worth the retry budget; a hard death retires it
  immediately;
* retired chips are (optionally) replaced by the engine's
  spare-provisioning policy (fresh silicon, fresh seed, same fleet slot),
  at which point the old chip's terminal state is ``replaced``.

Lifecycle probes feed the same machine through :meth:`HealthMonitor.on_probe`
(a probe below ``probe_floor`` counts as a failure signal), so slow quality
collapse and discrete faults drive one shared state.  Every transition is
recorded (and mirrored to telemetry + the ``health`` stage meter), making the
health history of a run auditable after the fact.

Only :const:`SERVING_STATES` receive traffic — the scheduler-side filter
is :func:`repro.serve.scheduler.dispatchable`.

Like the scheduling policies, the monitor reads and writes only the
bookkeeping fields of a :class:`~repro.serve.engine.FleetChip` handle
(``health``, counters) — never ``variation`` — so health tracking on a
lazy thousand-chip fleet (:class:`~repro.serve.engine.ChipDescriptor`)
never forces chip realization.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.validation import require_int


#: Every state a chip can be in, in degradation order.
HEALTH_STATES = ("healthy", "degraded", "quarantined", "retired", "replaced")

#: States the scheduler may dispatch to.
SERVING_STATES = frozenset({"healthy", "degraded"})


@dataclass(frozen=True)
class HealthConfig:
    """Hysteresis thresholds of the health state machine.

    ``quarantine_after`` consecutive dispatch failures quarantine a chip;
    ``recover_after`` consecutive successes promote a degraded chip back to
    healthy; ``quarantine_ticks`` is the sit-out period before a
    quarantined chip re-enters rotation on probation; ``retire_after``
    quarantines retire it permanently.  ``replace_retired`` turns on the
    engine's spare-provisioning policy (retired chips are swapped for
    fresh seeds); ``probe_floor``, when set, marks a chip degraded whenever
    a lifecycle probe reads below that absolute quality.  The four counts
    are ints >= 1 (numpy ints pass, bools do not); ``probe_floor`` is
    ``None`` or a real in [0, 1].
    """

    quarantine_after: int = 2
    recover_after: int = 4
    quarantine_ticks: int = 8
    retire_after: int = 2
    replace_retired: bool = True
    probe_floor: float | None = None

    def __post_init__(self) -> None:
        require_int("quarantine_after", self.quarantine_after, minimum=1)
        require_int("recover_after", self.recover_after, minimum=1)
        require_int("quarantine_ticks", self.quarantine_ticks, minimum=1)
        require_int("retire_after", self.retire_after, minimum=1)
        if self.probe_floor is not None and (
            isinstance(self.probe_floor, bool) or not 0.0 <= self.probe_floor <= 1.0
        ):
            raise ValueError(f"probe_floor must be in [0, 1], got {self.probe_floor!r}")


@dataclass(frozen=True)
class HealthTransition:
    """One recorded state change: when, which chip, from what, to what, why."""

    tick: int
    chip_id: str
    source: str
    target: str
    reason: str


@dataclass
class ChipHealth:
    """Mutable per-chip health record the monitor updates."""

    chip_id: str
    state: str = "healthy"
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    quarantines: int = 0
    quarantined_at: int | None = None
    failures: int = 0
    successes: int = 0


class HealthMonitor:
    """Drives the per-chip state machine from dispatch and probe outcomes.

    The engine owns one monitor and reports every dispatch outcome
    (:meth:`on_success` / :meth:`on_failure`), hard deaths
    (:meth:`on_death`), injected degradations (:meth:`on_fault_event`) and
    lifecycle probes (:meth:`on_probe`); :meth:`on_tick` releases served
    quarantines.  The monitor mirrors the resolved state onto
    ``chip.health`` (the attribute :func:`repro.serve.scheduler.dispatchable`
    filters on) and records every :class:`HealthTransition`.
    """

    def __init__(self, config: HealthConfig | None = None, telemetry=None, obs=None) -> None:
        self.config = config if config is not None else HealthConfig()
        self.telemetry = telemetry
        self.obs = obs
        self.records: dict[str, ChipHealth] = {}
        self.transitions: list[HealthTransition] = []

    # ------------------------------------------------------------------
    # Record plumbing
    # ------------------------------------------------------------------
    def record_for(self, chip) -> ChipHealth:
        """The chip's health record (created healthy on first touch)."""
        record = self.records.get(chip.chip_id)
        if record is None:
            record = ChipHealth(chip.chip_id, state=getattr(chip, "health", "healthy"))
            self.records[chip.chip_id] = record
        return record

    def adopt(self, chip) -> ChipHealth:
        """Start tracking a freshly provisioned chip (healthy, zeroed)."""
        record = ChipHealth(chip.chip_id)
        self.records[chip.chip_id] = record
        chip.health = record.state
        return record

    def _transition(self, chip, record: ChipHealth, target: str, tick: int, reason: str) -> None:
        if record.state == target:
            return
        transition = HealthTransition(
            tick=int(tick),
            chip_id=record.chip_id,
            source=record.state,
            target=target,
            reason=reason,
        )
        record.state = target
        chip.health = target
        self.transitions.append(transition)
        if self.telemetry is not None:
            self.telemetry.record_health_transition(transition)
        if self.obs is not None:
            self.obs.event("health")

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def on_success(self, chip, tick: int) -> None:
        """One successful dispatch: hysteresis toward recovery."""
        record = self.record_for(chip)
        record.successes += 1
        record.consecutive_failures = 0
        record.consecutive_successes += 1
        if (
            record.state == "degraded"
            and record.consecutive_successes >= self.config.recover_after
        ):
            self._transition(chip, record, "healthy", tick, "recovered")

    def on_failure(self, chip, tick: int, reason: str = "dispatch-error") -> None:
        """One failed dispatch: degrade immediately, quarantine on a streak."""
        record = self.record_for(chip)
        record.failures += 1
        record.consecutive_successes = 0
        record.consecutive_failures += 1
        if record.state in ("retired", "replaced"):
            return
        if record.consecutive_failures >= self.config.quarantine_after:
            self._quarantine(chip, record, tick, reason)
        elif record.state == "healthy":
            self._transition(chip, record, "degraded", tick, reason)

    def on_fault_event(self, chip, tick: int, kind: str) -> None:
        """An injected persistent degradation (e.g. a stuck-at fault map)."""
        record = self.record_for(chip)
        if record.state == "healthy":
            self._transition(chip, record, "degraded", tick, kind)

    def on_death(self, chip, tick: int) -> None:
        """Hard failure: the chip leaves rotation permanently."""
        record = self.record_for(chip)
        if record.state in ("retired", "replaced"):
            return
        self._transition(chip, record, "retired", tick, "dead")

    def on_probe(self, chip, quality: float, tick: int) -> None:
        """A lifecycle quality probe feeds the same hysteresis."""
        if self.config.probe_floor is None:
            return
        record = self.record_for(chip)
        if record.state in ("retired", "replaced"):
            return
        if quality < self.config.probe_floor:
            self.on_failure(chip, tick, reason="probe-floor")
        else:
            self.on_success(chip, tick)

    def mark_replaced(self, chip, tick: int, reason: str = "spare-provisioned") -> None:
        """Terminal state for a chip swapped out by spare provisioning."""
        record = self.record_for(chip)
        self._transition(chip, record, "replaced", tick, reason)

    def _quarantine(self, chip, record: ChipHealth, tick: int, reason: str) -> None:
        if record.state == "quarantined":
            return
        record.quarantines += 1
        if record.quarantines > self.config.retire_after:
            self._transition(chip, record, "retired", tick, "flapping")
            return
        record.quarantined_at = int(tick)
        self._transition(chip, record, "quarantined", tick, reason)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def on_tick(self, tick: int, fleet) -> None:
        """Release quarantined chips whose sit-out period has elapsed."""
        for chip in fleet:
            record = self.record_for(chip)
            if record.state != "quarantined" or record.quarantined_at is None:
                continue
            if tick - record.quarantined_at >= self.config.quarantine_ticks:
                record.consecutive_failures = 0
                record.consecutive_successes = 0
                record.quarantined_at = None
                self._transition(chip, record, "degraded", tick, "probation")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """``{state: [chip ids]}`` for every tracked chip (JSON-friendly)."""
        states: dict[str, list[str]] = {state: [] for state in HEALTH_STATES}
        for chip_id, record in sorted(self.records.items()):
            states[record.state].append(chip_id)
        return {state: chips for state, chips in states.items() if chips}

    def __repr__(self) -> str:
        return (
            f"HealthMonitor(chips={len(self.records)}, "
            f"transitions={len(self.transitions)})"
        )
