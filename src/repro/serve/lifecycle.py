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
2. **quality monitor** — every ``probe_every`` virtual time units each
   chip's mapping is probed on a held-out labelled set; the measured top-k
   accuracy lands on the chip handle (feeding the accuracy-weighted and
   drift-aware schedulers) and in
   :class:`~repro.serve.telemetry.ServeTelemetry`'s accuracy-over-time
   series;
3. **recalibration** — a chip probing below ``accuracy_floor`` is pulled:
   its cells are rewritten back to their program-and-verify targets (the
   fabrication-time pattern is restored and the drift clock restarts with a
   fresh process), cached self-tuning measurements are discarded so the
   next GTM read sees the recovered chip, and the chip is *surgically*
   rewritten via :meth:`~repro.serve.engine.InferenceEngine.reprogram` —
   its stale cache entry (and only that entry) is invalidated and the
   chip's owning :class:`~repro.backends.ChipBackend` programs a fresh
   mapping; healthy chips stay resident, no fleet-wide flush.  The
   rewritten chip is bit-identical to the state the lifecycle last wrote
   to it, so when that state's probed quality is on record (and the
   chip's forward is deterministic) the recalibration books it instead of
   re-running the probe — see :meth:`ChipLifecycle.recalibrate`.

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

from repro.pim.devices import device_by_name
from repro.pim.drift import AgingDrift, DriftingChip, DriftProcess, TemperatureDrift
from repro.serve.engine import FleetChip, InferenceEngine
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
    remaining layers per chip.  With
    ``scale_by_technology`` (default) each chip's drift process is scaled
    by its device technology's severity
    (:attr:`repro.pim.devices.DeviceModel.drift_scale`), so a mixed fleet
    ages heterogeneously — the regime the drift-aware schedulers exist for.
    A recalibration runs its own probe only when it cannot book the
    rewritten chip's stored fresh-state quality
    (:meth:`ChipLifecycle.recalibrate`).

    ``predict_quality`` turns on model-predictive quality estimation:
    between probes, each chip's ``quality`` estimate is decayed as
    ``probed * exp(-predict_beta * |eps_now - eps_at_probe|)``.  Log-time
    conductance decay is predictable from device characterization (the
    premise of practical PCM drift compensation), so an operator *can*
    extrapolate how much a probe has gone stale — without this, a probe
    taken right after recalibration reads near-perfect and a
    quality-weighted scheduler keeps trusting a chip that is already
    drifting away, which is how it loses to round-robin.  The raw probed
    values (not the extrapolation) are what telemetry records.
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
        if self.dt <= 0.0 or self.probe_every <= 0.0:
            raise ValueError("dt and probe_every must be positive")
        if not 0.0 < self.accuracy_floor <= 1.0:
            raise ValueError("accuracy_floor must be in (0, 1]")
        if self.probe_subset < 1:
            raise ValueError("probe_subset must be >= 1")
        if self.probe_k < 1:
            raise ValueError("probe_k must be >= 1")
        if self.predict_beta < 0.0:
            raise ValueError("predict_beta must be >= 0")
        # The drift process checks its own parameters (nu, t0, theta):
        # fail here, not at install() or the first advance.
        self.make_process()

    def make_process(self, scale: float = 1.0) -> DriftProcess:
        """A fresh drift process instance (one per chip per program cycle)."""
        if self.drift == "aging":
            return AgingDrift(nu=scale * self.nu, t0=self.t0)
        return TemperatureDrift(theta=self.theta, sigma=scale * self.sigma)


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
    """

    engine: InferenceEngine
    probe_set: object
    config: LifecycleConfig = field(default_factory=LifecycleConfig)

    def __post_init__(self) -> None:
        self.time = 0.0
        self.events: list[RecalibrationEvent] = []
        self._bases: dict[int, object] = {}
        self._baseline: dict[str, float] = {}
        self._anchor: dict[str, tuple[float, float]] = {}
        #: chip id -> (sticky fault map, probed quality) of the state this
        #: lifecycle last wrote to the chip at drift age 0.
        self._fresh: dict[str, tuple[object, float]] = {}
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
        cold = [
            chip for chip in chips
            if self.engine.cache.peek(self.engine.key_for(chip)) is None
        ]
        qualities = self._sweep(chips)
        for chip in chips:
            self._baseline[chip.chip_id] = self._book(chip, qualities[chip.chip_id])
        for chip in cold:
            self._remember_fresh(chip, qualities[chip.chip_id])
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
        self._fresh.pop(old_chip.chip_id, None)

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
        if step < 0.0:
            raise ValueError("dt must be >= 0")
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
        """Probe ``chips`` in one engine sweep: ``{chip_id: quality}``."""
        with self.engine.obs.span("lifecycle.probe", chips=len(chips), time=self.time):
            return self.engine.probe_fleet(
                self._probe_data, k=self.config.probe_k, chips=chips
            )

    def _book(self, chip: FleetChip, quality: float) -> float:
        """Book one probed quality: telemetry, anchor, baseline, health.

        Sweeps book in fleet order, each chip's recalibration right after
        its own booking, so the telemetry digest does not depend on the
        order the sweep probed in.
        """
        self.engine.telemetry.record_quality(chip.chip_id, self.time, quality)
        self._anchor[chip.chip_id] = (float(chip.variation.eps_between), quality)
        # Replacements get their baseline at first probe (install() already
        # set it for fabrication-time chips; setdefault is a no-op there).
        self._baseline.setdefault(chip.chip_id, quality)
        self.engine.health.on_probe(chip, quality, tick=self.engine.now)
        return quality

    def _remember_fresh(self, chip: FleetChip, quality: float) -> None:
        """Store ``quality`` as the chip's fresh-state quality.

        Call only with a probe of a state this lifecycle just wrote: the
        chip programmed at drift age 0 under its current sticky fault map.
        """
        self._fresh[chip.chip_id] = (self.engine.sticky_faults(chip), quality)

    def _fresh_quality(self, chip: FleetChip) -> float | None:
        """The stored fresh-state quality of a just-rewritten chip, or None.

        Valid when the chip's forward is deterministic and no stuck-at map
        was pinned (or changed) since the value was measured.
        """
        entry = self._fresh.get(chip.chip_id)
        if entry is None or entry[0] != self.engine.sticky_faults(chip):
            return None
        programmed = self.engine.cache.peek(self.engine.key_for(chip))
        if programmed is None or not programmed.deterministic:
            return None
        return entry[1]

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
            eps_probe, probed = anchor
            excursion = abs(float(chip.variation.eps_between) - eps_probe)
            chip.quality = probed * math.exp(-self.config.predict_beta * excursion)

    def floor_for(self, chip: FleetChip) -> float:
        """The absolute quality below which this chip recalibrates."""
        baseline = self._baseline.get(chip.chip_id, 1.0)
        return self.config.accuracy_floor * baseline

    def _probe_and_recalibrate(self) -> list[RecalibrationEvent]:
        # Retired silicon is dead (or already swapped out): probing it
        # wastes forwards and recalibration cannot resurrect stuck cells.
        # Quarantined chips still get probed — the probe is the diagnosis
        # that feeds the health monitor's probation — but only serving
        # chips are worth the recalibration rewrite.
        chips = [
            chip for chip in self.engine.fleet if chip.health not in ("retired", "replaced")
        ]
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

        The rewritten chip is the state the lifecycle last wrote to it: the
        same frozen within-chip pattern at drift age 0 under the same
        sticky fault map.  So the recalibration books that state's stored
        probed quality (the *fresh-state quality*) when

        * the programmed chip is
          :attr:`~repro.backends.ProgrammedChip.deterministic`, and
        * the value was measured by this lifecycle on a state it wrote —
          by :meth:`install`'s sweep for chips that were not resident
          before it, or by an earlier recalibration's probe — under the
          chip's current sticky fault map.

        Otherwise it probes the chip, and that probe becomes the stored
        value.  Both ways book the same number, so every decision, digest
        and output is the same; only ``serve_probes_reused_total`` tells
        them apart.
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
        quality_after = self._fresh_quality(chip)
        if quality_after is None:
            quality_after = self.engine.probe_chip(
                chip, self._probe_data, k=self.config.probe_k
            )
            self._remember_fresh(chip, quality_after)
        else:
            chip.quality = quality_after
            self.engine.telemetry.record_probe_reused()
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
