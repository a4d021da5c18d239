"""Chip lifecycle management: drift aging, quality monitoring, recalibration.

PR 1's fleet is frozen at fabrication time; real analog chips are not — their
programmed conductances decay (PCM-like log-time aging) or wander with
temperature, which is exactly the correlated time-varying variation the
paper's footnote 2 says self-tuning can chase.  :class:`ChipLifecycle`
closes that loop inside the serving engine:

1. **drift clock** — every pooled chip's fabrication-time
   :class:`~repro.variability.sampler.ChipVariation` is wrapped in a
   :class:`~repro.pim.drift.DriftingChip` driven by a per-chip
   :class:`~repro.pim.drift.DriftProcess` scaled by the technology's
   :attr:`~repro.pim.devices.DeviceModel.drift_scale`; each engine tick
   advances the virtual clock by ``dt`` and marks the chip's mapping
   stale — the engine re-installs the drifted variation in place, lazily,
   at the chip's next dispatch or probe (physical drift does not
   reprogram anything, so it never shows up as cache traffic);
2. **quality monitor** — every ``probe_every`` virtual time units a sweep
   probes the fleet's chips on a held-out labelled set; the measured top-k
   accuracy lands on the chip handle (feeding the accuracy-weighted and
   drift-aware schedulers) and in
   :class:`~repro.serve.telemetry.ServeTelemetry`'s accuracy-over-time
   series.  Under aging drift the sweep defers a healthy chip whose
   quality the aging law predicts will hold its floor through the next
   sweep (the probe gate, :meth:`ChipLifecycle._due`); its estimate carries
   on from its last probe;
3. **recalibration** — a chip probing below ``accuracy_floor`` is pulled:
   its cells are rewritten back to their program-and-verify targets (the
   fabrication-time pattern is restored and the drift clock restarts with a
   fresh process), cached self-tuning measurements are discarded so the
   next GTM read sees the recovered chip, and the chip is *surgically*
   rewritten via :meth:`~repro.serve.engine.InferenceEngine.reprogram` —
   its stale cache entry (and only that entry) is invalidated and the
   chip's owning :class:`~repro.backends.ChipBackend` programs a fresh
   mapping; healthy chips stay resident, no fleet-wide flush.

Drift moves only a chip's ``eps_B``, and aging drift is deterministic, so
a recalibrated chip retraces the exact states of its earlier drift cycles.
Every probe is therefore remembered under the chip's *state* — its id,
``eps_between``, sticky fault map and cached GTM reading — and a sweep or a
recalibration that finds a chip back in a remembered state books the
stored quality instead of re-running a bit-identical probe (the probe
memo, see :class:`ChipLifecycle`).

Everything is deterministic from the engine seed, the lifecycle seed, and
the trace: the same run reproduces the same recalibration schedule and the
same outputs (``tests/test_serve_lifecycle.py``).

On lazy large fleets (:class:`~repro.serve.engine.ChipDescriptor`),
installing the lifecycle realizes each chip's (tiny) variation object to
wrap it in drift state, but the heavy artifacts — per-layer patterns and
programmed mappings — are only materialized by probes, on demand, through
the engine's capacity-bounded mapping cache;
``ServeConfig.max_resident_chips`` keeps probing a thousand-chip fleet
within a fixed resident budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.pim.devices import device_by_name
from repro.pim.drift import (
    AgingDrift,
    DriftingChip,
    DriftProcess,
    TemperatureDrift,
    require_real,
)
from repro.serve.engine import FleetChip, InferenceEngine
from repro.serve.faults import require_int
from repro.serve.health import SERVING_STATES

DRIFT_KINDS = ("aging", "temperature")


@dataclass(frozen=True)
class LifecycleConfig:
    """Drift-process shape, probe cadence, and the recalibration trigger.

    ``dt`` is the virtual time that passes per engine tick.  ``accuracy_floor``
    is *relative*: a chip recalibrates when its probed quality falls below
    ``accuracy_floor`` times its own time-zero quality, so the trigger works
    for strong and weak models alike (an absolute floor would either never
    fire on an untrained model or always fire on a noisy chip).
    ``probe_subset`` bounds how many probe-set samples each quality probe
    consumes.  Probing is the lifecycle's one expensive operation: every
    probe round is one :meth:`~repro.serve.engine.InferenceEngine.probe_fleet`
    sweep.  It programs only the chips that were not resident and, with
    ``ServeConfig.fused``, computes the first layer's quantized patch
    matrix of the subset once per resident chunk, running only the
    remaining layers per chip.  Under aging drift with ``predict_quality``
    on, a sweep defers every healthy chip whose estimate the aging law
    predicts will still be at or above its floor at the next sweep (the
    probe gate, :meth:`ChipLifecycle._due`); degraded and quarantined
    chips, and every chip under temperature drift or without
    ``predict_quality``, are probed at every sweep.  With
    ``scale_by_technology`` (default) each chip's drift process is scaled
    by its device technology's severity
    (:attr:`repro.pim.devices.DeviceModel.drift_scale`), so a mixed fleet
    ages heterogeneously — the regime the drift-aware schedulers exist for.
    A sweep probes, and a recalibration runs its own probe, only for chips
    whose current state has no stored quality; the rest book the stored
    value (the probe memo, :class:`ChipLifecycle`).

    ``predict_quality`` turns on model-predictive quality estimation:
    between probes, each chip's ``quality`` estimate is decayed as
    ``probed * exp(-predict_beta * |eps_now - eps_at_probe|)``.  Log-time
    conductance decay is predictable from device characterization (the
    premise of practical PCM drift compensation), so an operator *can*
    extrapolate how much a probe has gone stale — without this, a probe
    taken right after recalibration reads near-perfect and a
    quality-weighted scheduler keeps trusting a chip that is already
    drifting away, which is how it loses to round-robin.  The raw probed
    values (not the extrapolation) are what telemetry records.  The same
    extrapolation, driven by the aging law
    (:meth:`~repro.pim.drift.AgingDrift.expected_at`) rather than the
    chip's ``eps_between``, is what the probe gate schedules by, so
    ``predict_quality=False`` (or ``predict_beta=0``) probes every chip at
    every sweep.

    Every real is finite: ``dt`` and ``probe_every`` (and the drift
    processes' ``t0`` and ``theta``) are > 0, ``nu``, ``sigma`` and
    ``predict_beta`` are >= 0; ``probe_subset`` and ``probe_k`` are ints
    >= 1 (numpy ints pass, bools do not).
    """

    drift: str = "aging"
    nu: float = 0.08
    t0: float = 1.0
    theta: float = 0.5
    sigma: float = 0.05
    dt: float = 1.0
    probe_every: float = 8.0
    probe_subset: int = 64
    probe_k: int = 1
    accuracy_floor: float = 0.85
    recalibrate: bool = True
    scale_by_technology: bool = True  # per-chip DeviceModel.drift_scale
    predict_quality: bool = True
    predict_beta: float = 6.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.drift not in DRIFT_KINDS:
            raise ValueError(f"drift must be one of {DRIFT_KINDS}, got {self.drift!r}")
        require_real("dt", self.dt, minimum=0.0, strict=True)
        require_real("probe_every", self.probe_every, minimum=0.0, strict=True)
        if isinstance(self.accuracy_floor, bool) or not 0.0 < self.accuracy_floor <= 1.0:
            raise ValueError(f"accuracy_floor must be in (0, 1], got {self.accuracy_floor!r}")
        require_int("probe_subset", self.probe_subset, minimum=1)
        require_int("probe_k", self.probe_k, minimum=1)
        require_real("predict_beta", self.predict_beta, minimum=0.0)
        # Both drift processes check their own parameters (nu, t0, theta,
        # sigma): fail here, not at install() or the first advance.
        AgingDrift(nu=self.nu, t0=self.t0)
        TemperatureDrift(theta=self.theta, sigma=self.sigma)

    def make_process(self, scale: float = 1.0) -> DriftProcess:
        """A fresh drift process instance (one per chip per program cycle)."""
        if self.drift == "aging":
            return AgingDrift(nu=scale * self.nu, t0=self.t0)
        return TemperatureDrift(theta=self.theta, sigma=scale * self.sigma)


class _Anchor(NamedTuple):
    """A chip's last booked quality and the state it was booked in."""

    eps: float  # variation.eps_between
    quality: float
    time: float  # the chip's drift-clock time (variation.time)
    faults: object  # the sticky fault map


@dataclass(frozen=True)
class RecalibrationEvent:
    """One recalibration: when, which chip, and the quality swing."""

    time: float
    chip_id: str
    quality_before: float
    quality_after: float
    invalidated: int


@dataclass
class ChipLifecycle:
    """Drives a fleet's drift clock, quality probes, and recalibrations.

    Attach to an engine *before* traffic::

        lifecycle = ChipLifecycle(engine, probe_set, LifecycleConfig(nu=0.1))
        lifecycle.install()
        engine.run_trace(workload, trace, ids=ids, lifecycle=lifecycle)

    ``install`` wraps every fleet chip in a drifting variation and records
    the time-zero quality baseline; :meth:`advance` (called once per tick
    by ``run_trace``, or manually) moves physics forward.

    **Probe memo.**  A programmed chip's forward is a function of its id
    (the frozen within-chip pattern), ``variation.eps_between`` (added to
    that pattern at query time), its sticky fault map (re-applied on every
    program) and, when self-tuned, the GTM reading cached in
    ``variation.measurements`` (kept until ``remeasure()``).  The memo
    stores a probed quality under that state, read after the probe, when

    * the probe's forward was deterministic
      (:attr:`~repro.serve.engine.FleetChip.probe_deterministic`), and
    * this lifecycle wrote the chip's current lineage — :meth:`install`
      for chips that were not resident before it, or the chip's latest
      :meth:`recalibrate` — under its current sticky fault map.

    Every sweep and recalibration looks each chip's state up first and
    books a stored quality instead of probing: the chip's ``quality`` is
    set and ``serve_probes_reused_total`` counts it, and the chip is not
    programmed, refreshed or stacked.  The value is what the probe would
    measure, so every decision, digest and output is unchanged.  A chip
    resident before :meth:`install`, a chip whose faults were pinned after
    its lineage was written, and a spare replacement are probed for real
    until their next recalibration; temperature drift never revisits an
    ``eps_between``, so its sweeps always probe.  The memo holds at most
    one entry per remembered probe, and a replaced chip's entries go with
    it.

    **Probe gate.**  Before the memo, a sweep asks :meth:`_due` whether it
    needs the chip at all.  A deferred chip is neither probed nor booked:
    it records no quality sample, sends no health signal, makes no memo
    lookup, and ``serve_probes_deferred_total`` counts it.  Unlike the
    memo, the gate changes decisions (the chip's quality is an estimate
    until it is due); ``tests/test_lifecycle_calibration.py`` measures how
    often against the same lifecycle probing every chip.  :meth:`install`
    and :meth:`recalibrate` always probe or book the chips they touch.
    """

    engine: InferenceEngine
    probe_set: object
    config: LifecycleConfig = field(default_factory=LifecycleConfig)

    def __post_init__(self) -> None:
        self.time = 0.0
        self.events: list[RecalibrationEvent] = []
        self._bases: dict[int, object] = {}
        self._baseline: dict[str, float] = {}
        self._anchor: dict[str, _Anchor] = {}
        #: The probe memo: chip id -> {state (see _state): probed quality}.
        self._memo: dict[str, dict[tuple, float]] = {}
        #: chip id -> the sticky fault map this lifecycle last wrote the
        #: chip under (install() for cold chips, else its latest
        #: recalibration); only these chips' probes are remembered.
        self._written: dict[str, object] = {}
        self._next_probe = float(self.config.probe_every)
        self._probe_data = (
            self.probe_set.subset(self.config.probe_subset)
            if hasattr(self.probe_set, "subset")
            else self.probe_set
        )
        self._installed = False

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def install(self) -> dict[str, float]:
        """Wrap the fleet in drifting chips; returns the t=0 quality baseline."""
        if self._installed:
            raise RuntimeError("lifecycle already installed on this engine")
        for chip in self.engine.fleet:
            self._bases[chip.index] = chip.variation
            chip.variation = DriftingChip(
                chip.variation,
                self.config.make_process(self.drift_scale(chip)),
                seed=self._drift_seed(chip, cycle=0),
            )
            chip.age = 0.0
            chip.mapping_stale = True
        self._installed = True
        # Spare provisioning swaps fresh silicon into the fleet mid-run;
        # adopt it into the drift clock so replacements age like everyone.
        self.engine.on_chip_replaced.append(self._adopt_replacement)
        chips = list(self.engine.fleet)
        # The sweep programs the chips that are not resident, at drift age
        # 0: their probe measures exactly what a recalibration rewrites.  A
        # resident chip keeps whatever was done to it before install().
        for chip in chips:
            if self.engine.cache.peek(self.engine.key_for(chip)) is None:
                self._written[chip.chip_id] = self.engine.sticky_faults(chip)
        qualities = self._sweep(chips)
        for chip in chips:
            self._baseline[chip.chip_id] = self._book(chip, qualities[chip.chip_id])
        return dict(self._baseline)

    def _adopt_replacement(self, old_chip: FleetChip, new_chip: FleetChip) -> None:
        """Wrap a provisioned replacement in its own fresh drift clock.

        The new chip gets its own base variation, a drift stream disjoint
        from every fabrication-time chip's (generation-offset cycle), and
        a quality baseline established at its *first* probe — the old
        chip's t=0 baseline describes silicon that no longer exists.
        """
        if not self._installed:
            return
        self._bases[new_chip.index] = new_chip.variation
        tail = new_chip.chip_id.rpartition("+")[2]
        generation = int(tail) if tail.isdigit() else 1
        new_chip.variation = DriftingChip(
            new_chip.variation,
            self.config.make_process(self.drift_scale(new_chip)),
            seed=self._drift_seed(new_chip, cycle=500_000 + generation),
        )
        new_chip.age = 0.0
        new_chip.mapping_stale = True
        self._anchor.pop(old_chip.chip_id, None)
        self._memo.pop(old_chip.chip_id, None)
        self._written.pop(old_chip.chip_id, None)

    def drift_scale(self, chip: FleetChip) -> float:
        """Technology severity multiplier for one chip's drift process.

        Read from :attr:`repro.pim.devices.DeviceModel.drift_scale`, so the
        physics lives with the device definition; chips without a registered
        technology (homogeneous fleets sampled straight from a
        ``VariabilitySpec``) drift at full severity.
        """
        if not self.config.scale_by_technology:
            return 1.0
        try:
            return device_by_name(chip.technology).drift_scale
        except KeyError:
            return 1.0

    def _drift_seed(self, chip: FleetChip, cycle: int) -> int:
        # One deterministic stream per (lifecycle, chip, program cycle):
        # recalibrating chip 2 must never replay chip 3's drift path.
        return (int(self.config.seed) * 1_000_003 + chip.index) * 97 + cycle

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def advance(self, dt: float | None = None) -> list[RecalibrationEvent]:
        """Advance the virtual drift clock; returns recalibrations triggered.

        A step that reaches a probe time runs one sweep, at the new time,
        however many ``probe_every`` periods it spans; the next sweep is
        due at the first multiple of ``probe_every`` after it.
        """
        if not self._installed:
            raise RuntimeError("call install() before advancing the lifecycle")
        step = self.config.dt if dt is None else float(dt)
        require_real("dt", step, minimum=0.0)
        self.time += step
        for chip in self.engine.fleet:
            variation = chip.variation
            variation.advance_to(variation.time + step)
            chip.age += step
            # Physical drift changed the chip in place; the engine refreshes
            # the resident mapping lazily at the chip's next dispatch/probe
            # (no cache traffic — drift does not reprogram anything).
            chip.mapping_stale = True
        triggered: list[RecalibrationEvent] = []
        if self.time >= self._next_probe - 1e-9:
            # One sweep per instant: a step spanning several probe periods
            # would otherwise probe the same chips again at the same time.
            triggered = self._probe_and_recalibrate()
            while self.time >= self._next_probe - 1e-9:
                self._next_probe += self.config.probe_every
        self._update_quality_estimates()
        return triggered

    # ------------------------------------------------------------------
    # Quality monitor + recalibration
    # ------------------------------------------------------------------
    def _sweep(self, chips: list[FleetChip]) -> dict[str, float]:
        """Every chip's current quality, ``{chip_id: quality}``.

        Chips whose state is in the probe memo are booked from it; the rest
        are probed in one engine sweep, and each probe is remembered.
        """
        qualities = {chip.chip_id: self._recall(chip) for chip in chips}
        unknown = [chip for chip in chips if qualities[chip.chip_id] is None]
        if unknown:
            with self.engine.obs.span(
                "lifecycle.probe", chips=len(unknown), time=self.time
            ):
                probed = self.engine.probe_fleet(
                    self._probe_data, k=self.config.probe_k, chips=unknown
                )
            for chip in unknown:
                qualities[chip.chip_id] = probed[chip.chip_id]
                self._remember(chip, probed[chip.chip_id])
        return qualities

    def _book(self, chip: FleetChip, quality: float) -> float:
        """Book one probed quality: telemetry, anchor, baseline, health.

        Sweeps book in fleet order, each chip's recalibration right after
        its own booking, so the telemetry digest does not depend on the
        order the sweep probed in.
        """
        self.engine.telemetry.record_quality(chip.chip_id, self.time, quality)
        variation = chip.variation
        self._anchor[chip.chip_id] = _Anchor(
            float(variation.eps_between),
            quality,
            variation.time,
            self.engine.sticky_faults(chip),
        )
        # Replacements get their baseline at first probe (install() already
        # set it for fabrication-time chips; setdefault is a no-op there).
        self._baseline.setdefault(chip.chip_id, quality)
        self.engine.health.on_probe(chip, quality, tick=self.engine.now)
        return quality

    def _state(self, chip: FleetChip) -> tuple:
        """The chip's memo key beside its id: what its forward depends on."""
        variation = chip.variation
        return (
            float(variation.eps_between),
            self.engine.sticky_faults(chip),
            tuple(sorted(variation.measurements.items())),
        )

    def _recall(self, chip: FleetChip) -> float | None:
        """Book the stored quality of the chip's current state, or None.

        A hit stands in for a probe: it lands on the chip handle and counts
        in ``serve_probes_reused_total``.  A self-tuned chip with no GTM
        reading yet misses, since every stored state carries one.
        """
        quality = self._memo.get(chip.chip_id, {}).get(self._state(chip))
        if quality is not None:
            chip.quality = quality
            self.engine.telemetry.record_probe_reused()
        return quality

    def _remember(self, chip: FleetChip, quality: float) -> None:
        """Store a real probe's quality under the chip's state, if it may be."""
        if (
            chip.probe_deterministic
            and chip.chip_id in self._written
            and self._written[chip.chip_id] == self.engine.sticky_faults(chip)
        ):
            self._memo.setdefault(chip.chip_id, {})[self._state(chip)] = quality

    def _update_quality_estimates(self) -> None:
        """Extrapolate each chip's quality from its last probe anchor.

        Between probes the recorded quality would otherwise stay frozen at
        the probe value while the chip keeps drifting; decaying it by the
        *known* eps excursion since the probe keeps quality-weighted
        dispatch honest about fast-drifting chips.
        """
        if not self.config.predict_quality:
            return
        for chip in self.engine.fleet:
            anchor = self._anchor.get(chip.chip_id)
            if anchor is None:
                continue
            excursion = abs(float(chip.variation.eps_between) - anchor.eps)
            chip.quality = anchor.quality * math.exp(-self.config.predict_beta * excursion)

    def floor_for(self, chip: FleetChip) -> float:
        """The absolute quality below which this chip recalibrates."""
        baseline = self._baseline.get(chip.chip_id, 1.0)
        return self.config.accuracy_floor * baseline

    def _due(self, chip: FleetChip) -> bool:
        """The probe gate: must this sweep probe (or book) the chip?

        A healthy chip is deferred when the aging law predicts that its
        quality estimate at the *next* sweep — its anchor decayed by the
        law's excursion since the anchor, ``probed * exp(-predict_beta *
        |law(t + probe_every) - law(t_anchor)|)`` on the chip's drift clock
        — is still at or above its floor (``floor_for``, or the health
        ``probe_floor`` when that is higher): this sweep is the last chance
        to probe before then.  The law is device characterization; the gate
        never reads the chip's ``eps_between``.  Everything else is due:
        temperature drift (random, so unpredictable) and lifecycles without
        ``predict_quality``, degraded and quarantined chips (the probe is
        their diagnosis), and chips with no anchor in their current lineage
        (a spare replacement) or whose fault map changed since it.
        """
        config = self.config
        anchor = self._anchor.get(chip.chip_id)
        if (
            config.drift != "aging"
            or not config.predict_quality
            or config.predict_beta <= 0.0
            or chip.health != "healthy"
            or anchor is None
            or anchor.faults != self.engine.sticky_faults(chip)
        ):
            return True
        variation = chip.variation
        law = variation.process.expected_at
        excursion = abs(law(variation.time + config.probe_every) - law(anchor.time))
        threshold = self.floor_for(chip)
        probe_floor = self.engine.config.health.probe_floor
        if probe_floor is not None:
            threshold = max(threshold, probe_floor)
        return anchor.quality * math.exp(-config.predict_beta * excursion) < threshold

    def _probe_and_recalibrate(self) -> list[RecalibrationEvent]:
        # Retired silicon is dead (or already swapped out): probing it
        # wastes forwards and recalibration cannot resurrect stuck cells.
        # Quarantined chips still get probed — the probe is the diagnosis
        # that feeds the health monitor's probation — but only serving
        # chips are worth the recalibration rewrite.  Chips the probe gate
        # defers are left as they are: no sample, no health signal, no
        # memo lookup; their anchor and estimate carry on.
        chips = []
        for chip in self.engine.fleet:
            if chip.health in ("retired", "replaced"):
                continue
            if self._due(chip):
                chips.append(chip)
            else:
                self.engine.telemetry.record_probe_deferred()
        qualities = self._sweep(chips)
        events = []
        for chip in chips:
            quality = self._book(chip, qualities[chip.chip_id])
            if (
                chip.health in SERVING_STATES
                and self.config.recalibrate
                and quality < self.floor_for(chip)
            ):
                events.append(self.recalibrate(chip, quality_before=quality))
        return events

    def recalibrate(
        self, chip: FleetChip, quality_before: float | None = None
    ) -> RecalibrationEvent:
        """Rewrite the chip's cells and re-tune: the drift-recovery path.

        Physically: program-and-verify restores every cell to its
        fabrication-time target (the frozen within-chip pattern is the
        physical chip, so it comes back bit-identical), the drift clock
        restarts, and stale GTM/LTM measurements are discarded.  In the
        serving layer: :meth:`~repro.serve.engine.InferenceEngine.reprogram`
        drops the chip's cache entry — and only that entry — and rewrites
        the chip through its owning backend, whichever fidelity that is.

        The rewrite starts a lineage this lifecycle wrote, at drift age 0:
        the same frozen within-chip pattern under the same sticky fault
        map, with the GTM reading taken as it is programmed — the state the
        chip's previous recalibration, or :meth:`install`, wrote.  So the
        quality after is the probe memo's lookup at that state (see
        :class:`ChipLifecycle`): booked when the state was remembered,
        probed — and remembered — otherwise.  Both ways book the same
        number, so every decision, digest and output is the same; only
        ``serve_probes_reused_total`` tells them apart.
        """
        if quality_before is None:
            quality_before = chip.quality if chip.quality is not None else float("nan")
        chip.recalibrations += 1
        chip.variation = DriftingChip(
            self._bases[chip.index],
            self.config.make_process(self.drift_scale(chip)),
            seed=self._drift_seed(chip, cycle=chip.recalibrations),
        )
        chip.age = 0.0
        with self.engine.obs.span(
            "lifecycle.recalibrate", chip=chip.chip_id, time=self.time
        ) as span:
            invalidated = self.engine.reprogram(chip)
            span.set(invalidated=invalidated)
        self._written[chip.chip_id] = self.engine.sticky_faults(chip)
        quality_after = self._recall(chip)
        if quality_after is None:
            quality_after = self.engine.probe_chip(
                chip, self._probe_data, k=self.config.probe_k
            )
            self._remember(chip, quality_after)
        self._book(chip, quality_after)
        self.engine.telemetry.record_recalibration(chip.chip_id, self.time)
        event = RecalibrationEvent(
            time=self.time,
            chip_id=chip.chip_id,
            quality_before=float(quality_before),
            quality_after=float(quality_after),
            invalidated=invalidated,
        )
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def baseline(self) -> dict[str, float]:
        """Per-chip t=0 probed quality (the recalibration reference)."""
        return dict(self._baseline)

    def recalibration_schedule(self) -> list[tuple[float, str]]:
        """``(time, chip_id)`` for every recalibration, in event order."""
        return [(event.time, event.chip_id) for event in self.events]

    def __repr__(self) -> str:
        return (
            f"ChipLifecycle(t={self.time:.1f}, drift={self.config.drift}, "
            f"events={len(self.events)})"
        )
