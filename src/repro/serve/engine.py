"""Batched multi-chip inference serving engine.

The deployment reality of analog PIM (the paper's Sec. IV) is a *fleet* of
non-identical accelerators: every fabricated chip carries its own sampled
variation, and self-tuning corrects each one individually.  The
:class:`InferenceEngine` simulates exactly that: it samples a pool of
chips from a :class:`~repro.variability.sampler.VariabilitySpec`, programs
a dedicated mapping per chip through a pluggable
:class:`~repro.backends.ChipBackend` (fake-quant replica or circuit-level
``PimChip`` — cached as :class:`~repro.backends.ProgrammedChip` objects in
an LRU :class:`~repro.serve.cache.MappingCache`), fuses incoming
single-sample requests into crossbar-friendly batches with a
:class:`~repro.serve.batcher.MicroBatcher`, and dispatches the batches
across the fleet under a pluggable
:class:`~repro.serve.scheduler.SchedulingPolicy`.

Everything is deterministic from ``ServeConfig.seed``: the same fleet,
the same request ids, and the same arrival ticks reproduce bit-identical
outputs.  Per-row results are *not* invariant to batch composition: BLAS
may sum a one-row product in another order than a many-row one, so a
row's logits can move by a few ulps when its batch changes size (on one
chip at ``serve-bench``'s default shape, batches of 1 and 2 differ on
most rows by at most 9e-16, with no predicted class changed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.backends import (
    ChipBackend,
    FusedFleetForward,
    ProgrammedChip,
    UnstackableError,
    make_backend,
)
from repro.datasets.loaders import batch_iterator
from repro.eval.metrics import topk_accuracy
from repro.obs import Observability
from repro.pim.devices import device_by_name
from repro.quant.ptq import quantized_layers
from repro.selftuning.tuner import SelfTuningConfig
from repro.serve.batcher import Batch, MicroBatcher, Request
from repro.serve.cache import MappingCache
from repro.serve.faults import ChipFault, DeadLetter, RetryPolicy
from repro.serve.health import HealthConfig, HealthMonitor
from repro.serve.scheduler import dispatchable, make_policy
from repro.serve.telemetry import ServeTelemetry
from repro.serve.trace import ArrivalTrace
from repro.validation import require_int, require_real
from repro.variability.faults import FaultSpec
from repro.variability.models import variance_model_by_name
from repro.variability.sampler import ChipVariation, VariabilitySampler, VariabilitySpec


@dataclass(frozen=True)
class ServeConfig:
    """Engine knobs: batching, scheduling, cache sizing, self-tuning.

    ``max_batch=1`` with ``max_wait=0`` and ``continuous`` on is
    sequential per-request serving, the baseline
    ``benchmarks/bench_serving.py`` measures against: each request runs
    alone on its chip the moment it is submitted.  Without ``continuous``
    it is not sequential, because the one-request batches due on a tick
    run as one stacked forward.

    ``backend`` selects how chips are realized: a registered
    :mod:`repro.backends` name (``"fake-quant"``, ``"circuit"``) or a
    configured :class:`~repro.backends.ChipBackend` instance.

    ``retry`` bounds how a failed dispatch is recovered (attempts, backoff,
    hedging, timeout — see :class:`repro.serve.faults.RetryPolicy`);
    ``health`` parameterizes the per-chip health state machine
    (:class:`repro.serve.health.HealthConfig`).  Both only matter once
    something fails — a fault-free run never parks a request.

    ``continuous`` enables continuous batching: a batch that reaches
    ``max_batch`` dispatches *inside* :meth:`InferenceEngine.submit`, the
    moment its last member arrives, instead of waiting for the next tick
    barrier — the admission mode the :class:`repro.serve.api.Gateway`
    runs the engine in.  Off by default: the tick-barrier behaviour every
    pre-gateway trace/bench was recorded under is unchanged.

    ``max_resident_chips`` is the mapping cache's capacity: at most that
    many programmed :class:`~repro.backends.ProgrammedChip` objects stay
    resident, and an evicted chip also releases its realized variation
    patterns back to its seed descriptor — the LRU spill bound that lets
    ``num_chips=1000+`` fleets serve in O(``max_resident_chips``) heavy
    state (see ``docs/scale-out.md``).  Spilled chips re-realize
    deterministically on the next dispatch or probe.  ``None`` (the
    default) keeps every chip's mapping resident, programmed exactly once.

    The sizes are checked at construction: ``max_batch`` and
    ``max_resident_chips`` are ints >= 1 (or ``None`` for the latter),
    ``max_wait`` and ``seed`` ints >= 0.
    """

    max_batch: int = 32
    max_wait: int = 4
    policy: str = "round-robin"
    seed: int = 0
    self_tuning: SelfTuningConfig | None = None
    backend: str | ChipBackend = "fake-quant"
    retry: RetryPolicy = RetryPolicy()
    health: HealthConfig = HealthConfig()
    continuous: bool = False
    max_resident_chips: int | None = None

    def __post_init__(self) -> None:
        require_int("max_batch", self.max_batch, minimum=1)
        require_int("max_wait", self.max_wait, minimum=0)
        require_int("seed", self.seed, minimum=0)
        if self.max_resident_chips is not None:
            require_int("max_resident_chips", self.max_resident_chips, minimum=1)


@dataclass(frozen=True)
class TechnologyGroup:
    """One homogeneous slice of a heterogeneous fleet.

    ``device`` names a :mod:`repro.pim.devices` preset; the group's chips
    are sampled from the variability spec that technology implies — its
    program/verify sigma becomes the spec's sigma and its residual-error
    shape (weight-proportional vs layer-fixed) picks the variance model.
    ``sigma_scale`` rescales the preset sigma (process maturity knob).
    ``count`` must be an int >= 1 and ``sigma_scale`` a finite real > 0.
    """

    device: str
    count: int
    sigma_scale: float = 1.0

    def __post_init__(self) -> None:
        device_by_name(self.device)  # fail fast on typos
        require_int("count", self.count, minimum=1)
        require_real("sigma_scale", self.sigma_scale, minimum=0.0, strict=True)

    def variability_spec(self, scenario: str = "mixed") -> VariabilitySpec:
        """The spec this technology's chips are sampled from."""
        device = device_by_name(self.device)
        sigma = self.sigma_scale * device.effective_sigma()
        variance_model = variance_model_by_name(device.variance_model_name)
        if scenario == "within":
            return VariabilitySpec.within_only(sigma, variance_model)
        if scenario == "mixed":
            return VariabilitySpec.mixed(sigma / np.sqrt(2.0), variance_model)
        raise ValueError(f"scenario must be 'within' or 'mixed', got {scenario!r}")


@dataclass(frozen=True)
class FleetSpec:
    """A mixed-technology fleet: ordered technology groups.

    Parsed from the CLI syntax ``"rram:2,flash:2"`` (optionally
    ``rram:2@0.5`` to scale the preset sigma).  Chip ids carry the
    technology (``rram00``, ``flash02``, …) so telemetry and cache keys
    stay self-describing.
    """

    groups: tuple[TechnologyGroup, ...]
    scenario: str = "mixed"

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("fleet needs at least one technology group")

    @property
    def num_chips(self) -> int:
        """Total fleet size across every technology group."""
        return sum(group.count for group in self.groups)

    @classmethod
    def parse(cls, text: str, scenario: str = "mixed") -> "FleetSpec":
        """Parse ``"rram:2,flash:2"`` / ``"rram:4@0.5"`` into a spec."""
        groups = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            device, _, tail = part.partition(":")
            count_text, _, scale_text = tail.partition("@")
            try:
                count = int(count_text) if count_text else 1
                scale = float(scale_text) if scale_text else 1.0
                groups.append(TechnologyGroup(device.strip(), count, scale))
            except ValueError as error:
                raise ValueError(f"bad fleet group {part!r}: {error}") from None
        return cls(tuple(groups), scenario=scenario)


@dataclass(frozen=True)
class ChipDescriptor:
    """Seed-addressed recipe for one chip's :class:`ChipVariation`.

    Everything a chip's fabrication state derives from: the sampled
    between-chip epsilon, the within-chip sigma, and the per-layer pattern
    seed.  A thousand-chip fleet stores only these triples
    (O(descriptors) memory) and realizes the heavy per-layer arrays on
    first traffic — :meth:`realize` is a pure function, so spilling and
    re-realizing a cold chip reproduces it bit-exactly.
    """

    eps_between: float
    sigma_within: float
    seed: int

    @classmethod
    def sample(cls, sampler: VariabilitySampler) -> "ChipDescriptor":
        """Draw one descriptor, consuming exactly ``sample_chip``'s RNG stream."""
        return cls(*sampler.sample_chip_params())

    def realize(self) -> ChipVariation:
        """Materialize the chip's variation (deterministic from the triple)."""
        return ChipVariation(self.eps_between, self.sigma_within, self.seed)


class FleetChip:
    """One pool member: a sampled chip plus its serving bookkeeping.

    ``technology``/``spec`` pin the chip's device class in a heterogeneous
    fleet (``spec=None`` means "use the engine-wide spec").  ``age`` is the
    virtual time since the chip was last (re)programmed and
    ``recalibrations`` counts lifecycle recalibration events — both stay at
    zero on static fleets and are maintained by
    :class:`~repro.serve.lifecycle.ChipLifecycle` on drifting ones.
    ``energy_uj`` accumulates the estimated physical energy of every batch
    dispatched to this chip (zero when the backend has no cost estimator)
    — the signal the ``energy-aware`` policy reads.  ``health`` is the
    chip's current state in the :mod:`repro.serve.health` machine; only
    serving states receive traffic
    (:func:`repro.serve.scheduler.dispatchable`).  ``fault_events`` counts
    every fault this chip has thrown (transients, latency spikes, its
    death) — the deterministic risk signal the ``latency-aware`` policy
    steers urgent batches away from.  ``probe_deterministic`` records
    whether the chip's last :meth:`InferenceEngine.probe_chip` ran a
    deterministic forward (:attr:`~repro.backends.ProgrammedChip.deterministic`),
    i.e. whether probing the same state again returns the same ``quality``.

    Chips are lazy: constructed from a :class:`ChipDescriptor`, the
    handle is pure bookkeeping until the first :attr:`variation` access
    realizes the :class:`~repro.variability.sampler.ChipVariation` — which
    is how ``num_chips=1000+`` fleets construct in O(descriptors) memory.
    Scheduling policies and the health machine read only counters, so
    routing never forces realization; :attr:`realized` says whether it
    happened and :meth:`spill` releases the realized per-layer patterns
    back to the seed (the engine calls it when
    ``ServeConfig.max_resident_chips`` evicts a cold chip).
    """

    def __init__(
        self,
        index: int,
        chip_id: str,
        variation: ChipVariation | None = None,
        technology: str = "generic",
        spec: VariabilitySpec | None = None,
        descriptor: ChipDescriptor | None = None,
    ) -> None:
        if variation is None and descriptor is None:
            raise ValueError("FleetChip needs a variation or a descriptor")
        self.index = int(index)
        self.chip_id = str(chip_id)
        self._variation = variation
        self.descriptor = descriptor
        self.technology = technology
        self.spec = spec
        self.served_samples = 0
        self.served_batches = 0
        self.quality: float | None = None
        self.age = 0.0
        self.recalibrations = 0
        self.mapping_stale = False
        self.energy_uj = 0.0
        self.health = "healthy"
        self.fault_events = 0
        self.probe_deterministic = False

    @property
    def variation(self) -> ChipVariation:
        """The chip's fabrication state, realized from the descriptor on
        first access (lifecycle layers may later swap in a
        :class:`~repro.pim.drift.DriftingChip` via the setter)."""
        if self._variation is None:
            self._variation = self.descriptor.realize()
        return self._variation

    @variation.setter
    def variation(self, value: ChipVariation) -> None:
        self._variation = value

    @property
    def realized(self) -> bool:
        """Whether the variation has been materialized (no side effects)."""
        return self._variation is not None

    def spill(self) -> None:
        """Release the realized variation's cached per-layer patterns.

        The memory-bound half of lazy fleets: drops the heavy eps_W
        arrays (re-derived bit-exactly from the seed on next use) while
        keeping the variation object itself — drift state, measurements,
        and any :class:`~repro.pim.drift.DriftingChip` wrapper survive.
        No-op on a never-realized chip.
        """
        if self._variation is not None:
            self._variation.release_patterns()

    def __repr__(self) -> str:
        quality = f"{self.quality:.3f}" if self.quality is not None else "unprobed"
        return (
            f"FleetChip({self.chip_id}, tech={self.technology}, "
            f"served={self.served_samples}, quality={quality})"
        )


@dataclass
class ServedRequest:
    """Completed request: output logits plus serving provenance.

    ``deadline`` echoes the absolute deadline tick the request carried
    (``None`` = best effort) and ``completed_tick`` is the tick it was
    served at, so ``completed_tick <= deadline`` is the SLO-met predicate
    without consulting the engine.
    """

    id: str
    output: np.ndarray
    chip_id: str
    queue_ticks: int
    deadline: int | None = None
    completed_tick: int = 0


class InferenceEngine:
    """Serve a quantized model across a simulated fleet of PIM chips.

    ``model`` must already be converted (:func:`repro.quant.convert_to_quantized`)
    and calibrated (:func:`repro.quant.calibrate_model`); it is treated as
    the golden digital copy and never mutated — per-chip mappings are
    programmed through the configured :class:`~repro.backends.ChipBackend`
    onto structure-shared replicas (fake-quant) or crossbar tiles (circuit).

    Typical use::

        engine = InferenceEngine(model, spec, num_chips=4,
                                 config=ServeConfig(max_batch=32, policy="least-loaded"))
        results = engine.run(test.images)          # {request id: logits row}

    or streaming: ``submit`` requests as they arrive, call ``step`` per
    tick, and collect :class:`ServedRequest` objects as they complete.
    """

    def __init__(
        self,
        model,
        spec: VariabilitySpec,
        num_chips: int = 4,
        config: ServeConfig = ServeConfig(),
        fleet_spec: FleetSpec | None = None,
        obs: Observability | None = None,
    ) -> None:
        if fleet_spec is None:
            require_int("num_chips", num_chips, minimum=1)
        self.model = model
        self.spec = spec
        self.config = config
        self._validate_model(model)
        self.backend = make_backend(config.backend)
        self.fleet_spec = fleet_spec
        if fleet_spec is None:
            sampler = VariabilitySampler(spec, seed=config.seed)
            width = max(2, len(str(num_chips - 1)))
            self.fleet = [
                FleetChip(
                    i,
                    f"chip{i:0{width}d}",
                    descriptor=ChipDescriptor.sample(sampler),
                )
                for i in range(num_chips)
            ]
        else:
            self.fleet = self._sample_heterogeneous(fleet_spec, config.seed)
        # One observability bundle per engine: the injectable clock every
        # latency measurement reads, and the metrics registry telemetry and
        # the per-stage meters live in.
        self.obs = obs if obs is not None else Observability()
        self.cache = MappingCache(
            capacity=config.max_resident_chips,
            clock=self.obs.clock.now,
            on_evict=self._on_evict,
        )
        self.batcher = MicroBatcher(
            config.max_batch, config.max_wait, observer=self._on_batch_formed
        )
        self.policy = make_policy(config.policy)
        self.telemetry = ServeTelemetry(
            max_batch=config.max_batch, registry=self.obs.registry
        )
        self.telemetry.attach_cache(self.cache)
        self.health = HealthMonitor(
            config.health, telemetry=self.telemetry, obs=self.obs
        )
        #: The installed :class:`~repro.serve.faults.FaultInjector` (or None);
        #: set by ``FaultInjector.install``.
        self.faults = None
        #: Chips swapped out by spare provisioning, in replacement order.
        self.retired: list[FleetChip] = []
        #: Hooks fired as ``hook(old_chip, new_chip)`` after a replacement
        #: (the lifecycle registers one to adopt the fresh silicon).
        self.on_chip_replaced: list = []
        self.now = 0
        self._auto_id = 0
        self._completed: dict[str, ServedRequest] = {}
        self._submit_walls: dict[str, float] = {}
        self._dead_letters: dict[str, DeadLetter] = {}
        self._parked: list[tuple[int, Request]] = []
        self._attempts: dict[str, int] = {}
        self._first_arrival: dict[str, int] = {}
        self._sticky_faults: dict[str, tuple[FaultSpec, int]] = {}
        self._generations: dict[int, int] = {}
        self._last_fault_kind = "dispatch-failed"
        #: Lazily-built fused forward over the whole fleet (or None).
        self._fused: FusedFleetForward | None = None

    # ------------------------------------------------------------------
    # Fleet programming
    # ------------------------------------------------------------------
    @staticmethod
    def _sample_heterogeneous(fleet_spec: FleetSpec, seed: int) -> list[FleetChip]:
        """Sample a mixed-technology fleet, one sampler per technology group.

        Each group gets its own deterministic sampler stream, so adding a
        group (or reordering groups) never perturbs another group's chips.
        """
        fleet = []
        for group_index, group in enumerate(fleet_spec.groups):
            group_spec = group.variability_spec(fleet_spec.scenario)
            sampler = VariabilitySampler(group_spec, seed=(int(seed), group_index))
            for member in range(group.count):
                fleet.append(
                    FleetChip(
                        index=len(fleet),
                        chip_id=f"{group.device}{member:02d}",
                        descriptor=ChipDescriptor.sample(sampler),
                        technology=group.device,
                        spec=group_spec,
                    )
                )
        return fleet

    @staticmethod
    def _validate_model(model) -> None:
        layers = [layer for _, layer in quantized_layers(model)]
        if not layers:
            raise ValueError(
                "model has no quantized layers; run convert_to_quantized first"
            )
        for layer in layers:
            if layer.qconfig.quantize_activations and float(layer.act_scale) == 0.0:
                raise RuntimeError(
                    "model is not calibrated; run calibrate_model before serving"
                )

    def _on_evict(self, chip_id: str, programmed) -> None:
        """Cache spill hook: a chip's mapping left the cache under
        capacity pressure, so release its realized variation patterns too.

        This is what makes ``max_resident_chips`` a bound on *heavy* chip
        state, not just on programmed mappings: the evicted chip's cached
        per-layer eps_W arrays are dropped (drift state and measurements
        survive) and re-derive bit-exactly from the seed when traffic
        returns.
        """
        chip = self.chip_by_id(chip_id)
        if chip is None or not chip.realized:
            return
        chip.spill()
        self.cache.stats.spills += 1
        self.obs.event("chip.spill")

    def _on_batch_formed(self, batch: Batch) -> None:
        """Batcher observer hook: one ``batch`` event per cut batch."""
        self.obs.event("batch")

    def _program(self, chip: FleetChip) -> ProgrammedChip:
        """Write the chip through the backend: the expensive step the
        mapping cache amortizes.

        Per-layer epsilon draws are cached inside the
        :class:`ChipVariation`, so reprogramming after an eviction
        reproduces the exact same physical chip — on either backend.  The
        ``program`` stage meter times all of it, sticky faults included.
        """
        with self.obs.span("program"):
            programmed = self.backend.program(
                self.model,
                chip.variation,
                spec=self.spec_for(chip),
                chip_id=chip.chip_id,
                self_tuning=self.config.self_tuning,
            )
            sticky = self.sticky_faults(chip)
            if sticky is not None:
                # Stuck cells are physical damage: reprogramming (recalibration,
                # cache eviction) rewrites the healthy cells but the stuck ones
                # stay pinned, so the fault map is re-applied on every program.
                fault_spec, fault_seed = sticky
                programmed.apply_faults(fault_spec, seed=fault_seed)
                programmed.refresh(chip.variation)
        chip.mapping_stale = False  # programmed from the chip's current state
        return programmed

    def spec_for(self, chip: FleetChip) -> VariabilitySpec:
        """The variability spec governing one chip (per-technology on
        heterogeneous fleets, the engine-wide spec otherwise)."""
        return chip.spec if chip.spec is not None else self.spec

    def programmed_for(self, chip: FleetChip) -> ProgrammedChip:
        """The chip's :class:`~repro.backends.ProgrammedChip`, (re)programming
        through the cache on demand."""
        programmed = self.cache.get_or_program(chip.chip_id, lambda: self._program(chip))
        if chip.mapping_stale:
            # The physical chip changed since this mapping was last installed
            # (drift advanced by the lifecycle).  Refresh in place, lazily, so
            # only chips that are actually dispatched or probed pay the
            # re-installation cost — and without any cache traffic, because
            # drift does not reprogram anything.
            programmed.refresh(chip.variation)
            chip.mapping_stale = False
        return programmed

    def reprogram(self, chip: FleetChip) -> int:
        """Rewrite one chip's mapping through its owning backend.

        The recalibration entry point: drops the chip's cache entry (and
        only that entry) and programs a fresh mapping from the chip's
        *current* variation.  Returns how many cache entries were
        invalidated (0 when the chip was not resident).
        """
        invalidated = int(self.cache.invalidate(chip.chip_id))
        self.programmed_for(chip)
        return invalidated

    def warm_up(self) -> None:
        """Program every chip ahead of traffic (cold-start avoidance)."""
        for chip in self.fleet:
            self.programmed_for(chip)

    # ------------------------------------------------------------------
    # Faults, retirement, spare provisioning
    # ------------------------------------------------------------------
    def chip_by_id(self, chip_id: str) -> FleetChip | None:
        """The in-rotation chip with this id, or ``None`` (e.g. replaced)."""
        for chip in self.fleet:
            if chip.chip_id == chip_id:
                return chip
        return None

    def inject_chip_faults(self, chip: FleetChip, spec: FaultSpec, seed: int = 0) -> int:
        """Pin a sampled stuck-at fault map onto one chip's programmed state.

        Applied through the chip's owning backend
        (:meth:`repro.backends.ProgrammedChip.apply_faults`), so fake-quant
        and circuit fleets degrade the same way.  The map is *sticky*: it
        is remembered per chip id and re-applied whenever the chip is
        reprogrammed — stuck cells survive recalibration; only spare
        provisioning (a new chip id) sheds them.  Returns the number of
        stuck cells.
        """
        # Materialize first, then mark sticky: a cold chip programmed inside
        # this call must not have the map applied twice (once by ``_program``
        # seeing the sticky entry, once below).
        programmed = self.programmed_for(chip)
        self._sticky_faults[chip.chip_id] = (spec, int(seed))
        with self.obs.span("faults.inject"):
            stuck = programmed.apply_faults(spec, seed=int(seed))
        # Re-install the chip's variation on top of the mutated programmed
        # state (the circuit backend rewrites its tiles here).
        programmed.refresh(chip.variation)
        chip.mapping_stale = False
        return stuck

    def sticky_faults(self, chip: FleetChip) -> tuple[FaultSpec, int] | None:
        """The ``(spec, seed)`` stuck-at map pinned on this chip id, or ``None``.

        Every program of the chip re-applies it, so together with the
        chip's variation it determines what a reprogram writes.
        """
        return self._sticky_faults.get(chip.chip_id)

    def retire_dead(self, chip: FleetChip) -> FleetChip | None:
        """Take a hard-failed chip out of rotation; returns its replacement.

        The chip is retired in the health machine immediately; when
        ``config.health.replace_retired`` is on, spare provisioning swaps
        in fresh silicon in the same fleet slot.
        """
        self.health.on_death(chip, self.now)
        if self.config.health.replace_retired:
            return self.replace_chip(chip, reason="dead")
        return None

    def replace_chip(self, chip: FleetChip, reason: str = "retired") -> FleetChip:
        """Spare provisioning: swap ``chip`` for fresh silicon, same slot.

        The replacement is sampled from the same technology's variability
        spec under a fresh deterministic seed (generation-keyed, so every
        replacement in a run is a distinct chip and reruns reproduce it).
        Its id is ``<base>+<generation>`` — a new physical identity, so
        cache keys, sticky fault maps, and health history never leak from
        the dead chip.  The old chip's cache entry is surgically
        invalidated, exactly like recalibration.
        """
        generation = self._generations.get(chip.index, 0) + 1
        self._generations[chip.index] = generation
        base_id = chip.chip_id.partition("+")[0]
        sampler = VariabilitySampler(
            self.spec_for(chip),
            seed=(int(self.config.seed), 0x5BA6E, chip.index, generation),
        )
        replacement = FleetChip(
            index=chip.index,
            chip_id=f"{base_id}+{generation}",
            descriptor=ChipDescriptor.sample(sampler),
            technology=chip.technology,
            spec=chip.spec,
        )
        slot = self.fleet.index(chip)
        self.fleet[slot] = replacement
        self.retired.append(chip)
        self.cache.invalidate(chip.chip_id)
        self._sticky_faults.pop(chip.chip_id, None)
        self.health.mark_replaced(chip, self.now, reason=reason)
        self.health.adopt(replacement)
        self.telemetry.record_replacement(chip.chip_id, replacement.chip_id, self.now)
        self.obs.event("chip.replaced")
        for hook in self.on_chip_replaced:
            hook(chip, replacement)
        return replacement

    def probe_fleet(
        self, dataset, k: int = 1, batch_size: int = 64, chips=None
    ) -> dict[str, float]:
        """The probe sweep: per-chip quality on a labelled probe set.

        Runs the probe set through every chip in ``chips`` (default: the
        whole fleet) and stores top-``k`` accuracy on each chip handle —
        the signal the quality-aware scheduling policies read.  Returns
        ``{chip_id: quality}`` in ``chips`` order.

        The walk probes cache-resident chips first, then the rest, in
        chunks of at most ``max_resident_chips``, so a sweep programs only
        the chips that were not resident.  Each chunk is stacked into one
        :class:`~repro.backends.FusedFleetForward` whose first layer works
        on the probe batch once per chunk; each chip then runs as its own
        one-chip group (bit-identical to :meth:`probe_chip` alone).  A
        chunk that cannot be stacked (self-tuning, noisy ADCs) is probed
        chip by chip.
        """
        chips = list(self.fleet if chips is None else chips)
        # Resident first; the stable sort keeps fleet order within each group.
        walk = sorted(chips, key=lambda chip: self.cache.peek(chip.chip_id) is None)
        size = self.config.max_resident_chips or max(1, len(walk))
        qualities = {}
        for start in range(0, len(walk), size):
            chunk = walk[start : start + size]
            stack = self._probe_stack(chunk)
            for chip in chunk:
                qualities[chip.chip_id] = self.probe_chip(
                    chip, dataset, k=k, batch_size=batch_size, stack=stack
                )
            # Release the chunk's programmed chips before the next chunk
            # programs: the resident budget bounds live mappings too.
            stack = None
        return {chip.chip_id: qualities[chip.chip_id] for chip in chips}

    def _probe_stack(self, chunk: list[FleetChip]) -> FusedFleetForward | None:
        """Program a probe chunk and stack it; None when it cannot be stacked."""
        try:
            return FusedFleetForward.build([self.programmed_for(chip) for chip in chunk])
        except UnstackableError:
            return None

    def probe_chip(
        self,
        chip: FleetChip,
        dataset,
        k: int = 1,
        batch_size: int = 64,
        stack: FusedFleetForward | None = None,
    ) -> float:
        """Probe one chip's current quality and store it on the handle.

        ``stack`` is a probe sweep's chunk stack: when it covers the chip,
        the chip runs through :meth:`FusedFleetForward.forward_shared`,
        reusing the stack's first-layer work on the probe batch.  The
        handle also records whether the probed forward was deterministic
        (:attr:`FleetChip.probe_deterministic`), so a caller can tell a
        repeatable measurement without the programmed chip in hand.
        """
        self.telemetry.record_probe()
        with self.obs.span("probe"):
            programmed = self.programmed_for(chip)
            shared = stack is not None and stack.covers([programmed])
            forward = (
                partial(stack.forward_shared, programmed) if shared else programmed.forward
            )
            logits, targets = [], []
            for inputs, labels in batch_iterator(dataset, batch_size, shuffle=False):
                logits.append(forward(inputs))
                targets.append(labels)
            chip.quality = topk_accuracy(
                np.concatenate(logits), np.concatenate(targets), k=k
            )
            chip.probe_deterministic = programmed.deterministic
        return chip.quality

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        payload: np.ndarray,
        request_id: str | None = None,
        deadline: int | None = None,
    ) -> Request:
        """Enqueue one single-sample request at the current tick.

        ``deadline`` is the absolute tick the request must complete by
        (``None`` = best effort).  A request whose deadline has *already*
        lapsed at admission is dead-lettered on the spot (reason
        ``"deadline"``, cause ``"expired-at-admit"``) instead of wasting
        fleet time — it still appears in :attr:`dead_letters` and in SLO
        telemetry, never in :attr:`completed`.

        With ``ServeConfig.continuous`` on, a submission that fills a
        batch dispatches it immediately (continuous batching); otherwise
        batches are only released at the next :meth:`step` tick barrier.
        Returns the enqueued :class:`~repro.serve.batcher.Request`.
        """
        if request_id is None:
            request_id = f"req{self._auto_id:06d}"
            self._auto_id += 1
        request = Request(
            str(request_id), np.asarray(payload), arrival=self.now, deadline=deadline
        )
        if deadline is not None and deadline < self.now:
            self._dead_letter(request, "deadline", "expired-at-admit")
            return request
        self._submit_walls[request.id] = self.obs.clock.now()
        self._first_arrival.setdefault(request.id, self.now)
        self.obs.event("enqueue")
        self.batcher.submit(request)
        if self.config.continuous:
            self._dispatch_tick(self.batcher.ready(self.now))
        return request

    # ------------------------------------------------------------------
    # Dispatch: stage -> execute -> complete
    # ------------------------------------------------------------------
    def _fused_for(self) -> FusedFleetForward | None:
        """The fleet-wide fused forward, rebuilt lazily; None if unstackable.

        Built from the *cache-resident* fleet only, through the cache's
        stats-neutral :meth:`~repro.serve.cache.MappingCache.peek`: the
        stack is a derived view, so building it must not program chips,
        refresh drifted mappings, or perturb hit/miss accounting.

        Freshness is ``(identity, version)`` via
        :meth:`~repro.backends.FusedFleetForward.covers`: recalibration and
        spare provisioning swap chip objects, ``refresh``/``apply_faults``
        bump versions in place — any of those invalidates the stack.  A
        build that refuses (a noisy-ADC circuit fleet) refuses at its
        converter check, before any weight is stacked.
        """
        members = []
        for chip in self.fleet:
            programmed = self.cache.peek(chip.chip_id)
            if programmed is not None:
                members.append(programmed)
        if not members:
            return None
        if self._fused is not None and self._fused.covers(members):
            return self._fused
        self._fused = None
        try:
            with self.obs.span("dispatch.fuse"):
                self._fused = FusedFleetForward.build(members)
        except UnstackableError:
            return None
        return self._fused

    def _dispatch_tick(self, batches) -> list[ServedRequest]:
        """Dispatch one tick's due batches: ``stage -> execute -> complete``.

        Every batch is admitted by :meth:`_stage` and settled by
        :meth:`_complete`; one fact picks the executor.  With a fault
        injector installed, each batch runs on its own through the
        retrying executor (:meth:`_execute_per_chip`), so the next batch's
        scheduling sees this one's failure.  Without one, the staged
        executor (:meth:`_execute_staged`) stages and books every batch
        and runs them together or, on a tick that cannot stack, each as
        soon as it is booked.  Both give bit-identical outputs and
        telemetry digests.
        """
        batches = list(batches)
        if not batches:
            return []
        if self.faults is None:
            return self._execute_staged(batches)
        served = []
        for batch in batches:
            served.extend(self._execute_per_chip(batch))
        return served

    def _stage(self, batch: Batch) -> tuple[Batch, FleetChip] | None:
        """Admit one due batch to the fleet: shed, report, schedule.

        Requests whose deadline lapsed in the queue are dead-lettered —
        serving them cannot meet the SLO, and their crossbar time is better
        spent on requests that can still make it.  The survivors report
        their ``queue_wait`` and the policy picks a chip from the
        dispatchable fleet.  Returns ``(live batch, chip)``, or ``None``
        when nothing is left to execute: every request was shed, or no chip
        can serve (the batch is parked for retry).
        """
        obs = self.obs
        live = []
        for request in batch.requests:
            if request.deadline is not None and request.deadline < self.now:
                self._dead_letter(
                    request,
                    "deadline",
                    "expired-queued",
                    attempts=self._attempts.get(request.id, 0),
                )
            else:
                live.append(request)
        if not live:
            return None
        if len(live) != len(batch.requests):
            batch = Batch(live, formed=batch.formed)
        obs.event("queue_wait")
        with obs.span("schedule"):
            candidates = dispatchable(self.fleet)
            if not candidates:
                self._handle_failed_batch(batch, cause="no-capacity")
                return None
            chip = self.policy.choose(batch, candidates)
        return batch, chip

    def _execute_per_chip(self, batch: Batch) -> list[ServedRequest]:
        """Retrying executor: one batch on its chip, hedged on failure.

        Runs while a fault injector is installed.  Batches run one at a
        time, so the next batch's scheduling sees this one's outcome — a
        failure, a hedge, or a dead chip's replacement.  :meth:`_attempt`
        books the chip's served counters only after a successful forward.
        """
        with self.obs.span("dispatch"):
            staged = self._stage(batch)
            if staged is None:
                return []
            batch, chip = staged
            inputs = batch.inputs()
            outcome = self._attempt(chip, batch, inputs)
            if outcome is None and self.config.retry.hedge:
                backup = self._hedge_candidate(chip)
                if backup is not None:
                    self.telemetry.record_hedge(chip.chip_id, backup.chip_id)
                    outcome = self._attempt(backup, batch, inputs)
                    if outcome is not None:
                        chip = backup
            if outcome is None:
                self._handle_failed_batch(batch, cause=self._last_fault_kind)
                return []
            outputs, seconds, energy_uj = outcome
        return self._complete(batch, chip, outputs, seconds, energy_uj)

    def _execute_staged(self, batches: list[Batch]) -> list[ServedRequest]:
        """Staged executor: stage and book every batch, then run them.

        Each batch's chip state is booked right after it is staged, before
        the next batch is scheduled, so load- and energy-aware policies
        make exactly the choices a batch-by-batch sequence would.  Booking
        ahead of the forward is sound because this executor only runs
        without a fault injector: the forward cannot fail.

        Two or more staged batches run as one stacked forward when no chip
        is self-tuned and the fleet stack (:meth:`_fused_for`) covers their
        chips; otherwise each runs on its own chip.  A tick that cannot
        stack runs each batch as soon as it is booked, so it holds at most
        one programmed chip beyond the cache's.  Staging more distinct
        chips than the cache's capacity evicts one of them, and no stack
        built from the resident fleet covers an evicted chip, so such a
        tick runs what it has staged and goes on batch by batch.
        """
        clock = self.obs.clock
        served: list[ServedRequest] = []
        capacity = self.cache.capacity
        stackable = len(batches) > 1 and self.config.self_tuning is None
        with self.obs.span("dispatch.tick"):
            staged = []
            chip_ids = set()
            for batch in batches:
                admitted = self._stage(batch)
                if admitted is None:
                    continue
                batch, chip = admitted
                with self.obs.span("mapping"):
                    programmed = self.programmed_for(chip)
                inputs = batch.inputs()
                energy_uj = self._book(chip, programmed, batch, inputs)
                staged.append((batch, chip, programmed, inputs, energy_uj))
                if stackable and capacity is not None:
                    chip_ids.add(chip.chip_id)
                    stackable = len(chip_ids) <= capacity
                if not stackable:
                    served.extend(self._run_each(staged))
                    staged = []
            fused = self._fused_for() if len(staged) > 1 else None
            if fused is not None and fused.covers([entry[2] for entry in staged]):
                started = clock.now()
                outputs = fused.forward(
                    [(programmed, inputs) for _, _, programmed, inputs, _ in staged]
                )
                total_seconds = clock.now() - started
                self.telemetry.record_fused_group(len(staged))
                total_rows = sum(batch.size for batch, _, _, _, _ in staged)
                for (batch, chip, _, _, energy_uj), out in zip(staged, outputs):
                    # Attribute wall time by row share: service-time
                    # histograms are report-only (digest excludes wall).
                    seconds = total_seconds * (batch.size / total_rows)
                    served.extend(
                        self._complete(batch, chip, out, seconds, energy_uj)
                    )
            else:
                served.extend(self._run_each(staged))
        return served

    def _run_each(self, staged: list[tuple]) -> list[ServedRequest]:
        """Run booked batches one by one, each on its own chip."""
        clock = self.obs.clock
        served: list[ServedRequest] = []
        for batch, chip, programmed, inputs, energy_uj in staged:
            started = clock.now()
            out = programmed.forward(inputs)
            seconds = clock.now() - started
            served.extend(self._complete(batch, chip, out, seconds, energy_uj))
        return served

    def _book(
        self, chip: FleetChip, programmed: ProgrammedChip, batch: Batch, inputs
    ) -> float | None:
        """Book one served batch on its chip; returns its energy (uJ) or None.

        The health success mark, the batch's deterministic energy cost, and
        the served counters: the fleet state the next batch's scheduling
        reads.  The retrying executor books after a successful forward, the
        staged executor at stage time.
        """
        self.health.on_success(chip, self.now)
        cost = programmed.cost(inputs.shape)
        energy_uj = cost.energy_uj if cost is not None else None
        if energy_uj is not None:
            chip.energy_uj += energy_uj
        chip.served_samples += batch.size
        chip.served_batches += 1
        return energy_uj

    def _complete(
        self, batch: Batch, chip: FleetChip, outputs, seconds, energy_uj
    ) -> list[ServedRequest]:
        """Settle a served batch: complete its requests, record the batch.

        The one place requests complete — whichever executor ran the
        forward.  The chip's own state (served counters, energy, health)
        was already booked by :meth:`_book`.
        """
        completed_wall = self.obs.clock.now()
        served = []
        for row, request in enumerate(batch.requests):
            done = ServedRequest(
                id=request.id,
                output=outputs[row],
                chip_id=chip.chip_id,
                queue_ticks=batch.formed - request.arrival,
                deadline=request.deadline,
                completed_tick=self.now,
            )
            if request.deadline is not None:
                self.telemetry.record_deadline(self.now, request.deadline - self.now)
            self._completed[request.id] = done
            self._attempts.pop(request.id, None)
            self._first_arrival.pop(request.id, None)
            submitted_wall = self._submit_walls.pop(request.id, None)
            if submitted_wall is not None:
                self.telemetry.record_request_latency(completed_wall - submitted_wall)
            served.append(done)
        self.telemetry.record_batch(
            chip.chip_id,
            [item.queue_ticks for item in served],
            seconds,
            energy_uj=energy_uj,
            request_ids=[item.id for item in served],
            outputs=outputs,
        )
        return served

    def _attempt(self, chip: FleetChip, batch: Batch, inputs) -> tuple | None:
        """One dispatch attempt on one chip; ``None`` means it failed.

        The fault-injection point: the installed
        :class:`~repro.serve.faults.FaultInjector` gates every attempt.
        Failures (only :class:`~repro.serve.faults.ChipFault` — anything
        else is a bug and propagates) are absorbed into telemetry and the
        health machine; a dead chip is retired (and replaced) on the spot.
        A success books the batch on the chip (:meth:`_book`).
        """
        clock = self.obs.clock
        try:
            with self.obs.span("mapping"):
                programmed = self.programmed_for(chip)
            penalty = self.faults.before_forward(chip)
            started = clock.now()
            outputs = programmed.forward(inputs)
            seconds = clock.now() - started + penalty
        except ChipFault as fault:
            self._last_fault_kind = fault.kind
            chip.fault_events += 1
            self.telemetry.record_fault(fault.kind, chip.chip_id)
            if fault.kind == "dead":
                self.retire_dead(chip)
            else:
                self.health.on_failure(chip, self.now, reason=fault.kind)
            return None
        return outputs, seconds, self._book(chip, programmed, batch, inputs)

    def _hedge_candidate(self, primary: FleetChip) -> FleetChip | None:
        """The backup chip a failed dispatch hedges to (least-loaded other)."""
        others = [chip for chip in dispatchable(self.fleet) if chip is not primary]
        if not others:
            return None
        return min(others, key=lambda chip: (chip.served_samples, chip.index))

    # ------------------------------------------------------------------
    # Retries, dead letters, and the tick loop
    # ------------------------------------------------------------------
    def _dead_letter(
        self, request: Request, reason: str, cause: str, attempts: int = 0
    ) -> None:
        """Record one request as undeliverable and drop its bookkeeping.

        The single funnel for every give-up path (retry budget exhausted,
        timeout, lapsed deadline): files the
        :class:`~repro.serve.faults.DeadLetter`, clears the request's
        attempt/arrival/latency state, and — when the reason is a lapsed
        ``deadline`` — books the miss as an SLO violation with its lateness
        at the tick it was shed.  The engine never raises for a failed
        request.
        """
        letter = DeadLetter(
            id=request.id,
            reason=reason,
            cause=cause,
            attempts=attempts,
            tick=self.now,
        )
        self._dead_letters[request.id] = letter
        self._attempts.pop(request.id, None)
        self._first_arrival.pop(request.id, None)
        self._submit_walls.pop(request.id, None)
        self.telemetry.record_dead_letter(reason)
        if reason == "deadline" and request.deadline is not None:
            self.telemetry.record_deadline(self.now, request.deadline - self.now)

    def _handle_failed_batch(self, batch: Batch, cause: str) -> None:
        """Park each request for a backoff retry, or dead-letter it.

        Every request in a failed batch spent one dispatch cycle; requests
        with budget left re-enter the queue ``retry.backoff_for(cycle)``
        ticks later, the rest land in :attr:`dead_letters` — the engine
        never raises for a failed request.
        """
        retry = self.config.retry
        for request in batch.requests:
            cycles = self._attempts.get(request.id, 0) + 1
            self._attempts[request.id] = cycles
            first = self._first_arrival.get(request.id, self.now)
            timed_out = (
                retry.timeout_ticks is not None
                and self.now - first >= retry.timeout_ticks
            )
            if cycles >= retry.max_attempts or timed_out:
                reason = "timeout" if timed_out else "retries-exhausted"
                self._dead_letter(request, reason, cause, attempts=cycles)
            else:
                release = self.now + retry.backoff_for(cycles)
                self._parked.append((release, request))
                self.telemetry.record_retry()

    def _unpark(self) -> None:
        """Resubmit parked requests whose backoff has elapsed.

        A parked request whose deadline lapses *while waiting out its
        backoff* is dead-lettered here (reason ``"deadline"``, cause
        ``"expired-parked"``) rather than resubmitted or hedged — its SLO
        is already lost, so another dispatch cycle would only steal
        crossbar time from requests that can still meet theirs.
        """
        if not self._parked:
            return
        kept: list[tuple[int, Request]] = []
        expired: list[tuple[int, Request]] = []
        for release, request in self._parked:
            if request.deadline is not None and request.deadline < self.now:
                expired.append((release, request))
            else:
                kept.append((release, request))
        self._parked = kept
        for _, request in sorted(expired, key=lambda item: (item[0], item[1].id)):
            self._dead_letter(
                request,
                "deadline",
                "expired-parked",
                attempts=self._attempts.get(request.id, 0),
            )
        due = [item for item in self._parked if item[0] <= self.now]
        if not due:
            return
        self._parked = [item for item in self._parked if item[0] > self.now]
        self._resubmit(due)

    def _resubmit(self, parked: list[tuple[int, Request]]) -> None:
        """Re-enter parked requests into the queue at the current tick, in
        ``(release tick, id)`` order."""
        for _, request in sorted(parked, key=lambda item: (item[0], item[1].id)):
            self.batcher.submit(
                Request(
                    request.id,
                    request.payload,
                    arrival=self.now,
                    deadline=request.deadline,
                )
            )

    def step(self, ticks: int = 1) -> list[ServedRequest]:
        """Advance the clock and dispatch every batch that becomes due.

        Per-tick order: scheduled fault events fire, the health machine
        releases served quarantines, due retries re-enter the queue, then
        due batches dispatch.
        """
        served = []
        for _ in range(max(1, ticks)):
            if self.faults is not None:
                self.faults.on_tick(self.now)
            self.health.on_tick(self.now, self.fleet)
            self._unpark()
            served.extend(self._dispatch_tick(self.batcher.poll(self.now)))
            self.now += 1
        return served

    def drain(self) -> list[ServedRequest]:
        """Step the clock until queue and retry backlog are empty.

        Terminates even under permanent faults: every parked request has a
        bounded number of retry cycles before it dead-letters.
        """
        served = []
        while len(self.batcher) or self._parked:
            served.extend(self.step())
        return served

    def flush(self) -> list[ServedRequest]:
        """Dispatch everything pending immediately (shutdown path).

        Parked retries are force-released first; a batch that fails here
        re-enters the retry machinery (drain afterwards to settle it).
        """
        parked, self._parked = self._parked, []
        self._resubmit(parked)
        return self._dispatch_tick(self.batcher.flush(self.now))

    def run(self, inputs, ids=None) -> dict[str, np.ndarray]:
        """Convenience: submit ``inputs`` now, drain, return ``{id: logits}``.

        ``ids`` defaults to auto-assigned sequential ids; pass explicit ids
        to make results arrival-order-invariant (the canonical batching
        order is by id within a tick — see :mod:`repro.serve.batcher`).

        Requests that exhaust their retry budget under faults are absent
        from the result and recorded in :attr:`dead_letters` instead.
        """
        inputs = np.asarray(inputs)
        self._check_ids(ids, inputs)
        if ids is None:
            ids = [None] * len(inputs)
        requests = [self.submit(sample, request_id) for sample, request_id in zip(inputs, ids)]
        self.drain()
        return self._outputs(requests)

    @staticmethod
    def _check_ids(ids, inputs) -> None:
        """Reject explicit ids that do not name each input exactly once."""
        if ids is None:
            return
        if len(ids) != len(inputs):
            raise ValueError("ids and inputs length mismatch")
        if len(set(ids)) != len(ids):
            raise ValueError("ids must be unique; duplicates would overwrite results")

    def _outputs(self, requests: list[Request]) -> dict[str, np.ndarray]:
        """``{id: logits}`` for the requests that completed, in submit order."""
        return {
            request.id: self._completed[request.id].output
            for request in requests
            if request.id in self._completed
        }

    def run_trace(
        self,
        inputs,
        trace: ArrivalTrace,
        ids=None,
        lifecycle=None,
    ) -> dict[str, np.ndarray]:
        """Serve ``inputs`` under an arrival trace; returns ``{id: logits}``.

        Unlike :meth:`run` (everything arrives at once), requests are
        submitted on the ticks the trace assigns, so batching deadlines and
        queue build-up behave as under live traffic.  If a
        :class:`~repro.serve.lifecycle.ChipLifecycle` is passed, its drift
        clock advances once per tick *before* dispatch — chips age, get
        probed, and recalibrate while traffic is in flight.  With a
        :class:`~repro.serve.faults.FaultInjector` installed, scheduled
        fault events fire inside :meth:`step`; requests that exhaust
        their retry budget are absent from the result and recorded in
        :attr:`dead_letters`.

        Deadline-bearing traces (a :class:`~repro.serve.trace.DeadlineTrace`
        wrapper, a :class:`~repro.serve.trace.ReplayTrace` with explicit
        deadlines — e.g. one compiled by the
        :class:`repro.serve.api.Gateway`) submit each request with its
        absolute deadline, shifted by the engine's current tick exactly
        like the arrival schedule, so SLO accounting and deadline
        dead-lettering replay bit-identically.
        """
        inputs = np.asarray(inputs)
        self._check_ids(ids, inputs)
        schedule = trace.schedule(len(inputs))
        if any(b < a for a, b in zip(schedule, schedule[1:])):
            raise ValueError("trace schedule must be non-decreasing")
        deadlines = trace.deadline_schedule(len(inputs))
        offset = self.now
        submitted: list[Request] = []
        cursor = 0
        while cursor < len(schedule) or len(self.batcher) or self._parked:
            tick = self.now - offset
            while cursor < len(schedule) and schedule[cursor] <= tick:
                request_id = None if ids is None else ids[cursor]
                deadline = deadlines[cursor]
                submitted.append(
                    self.submit(
                        inputs[cursor],
                        request_id,
                        deadline=None if deadline is None else offset + int(deadline),
                    )
                )
                cursor += 1
            if lifecycle is not None:
                lifecycle.advance()
            self.step()
        return self._outputs(submitted)

    def close(self) -> None:
        """Release external resources; a no-op, since the engine holds none.

        Kept so callers that close every engine they build keep working.
        """

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def completed(self) -> dict[str, ServedRequest]:
        """Every completed request so far, keyed by request id."""
        return dict(self._completed)

    @property
    def queue_depth(self) -> int:
        """Requests in flight but not finished: queued plus retry-parked.

        The backpressure signal the :class:`repro.serve.api.Gateway`'s
        admission control reads — once it exceeds the gateway's bound, new
        submissions are rejected with ``Overloaded`` instead of queued.
        """
        return len(self.batcher) + len(self._parked)

    @property
    def dead_letters(self) -> dict[str, DeadLetter]:
        """Requests that exhausted their retry budget, keyed by request id."""
        return dict(self._dead_letters)

    def assignments(self) -> dict[str, str]:
        """``{request id: chip id}`` for every completed request."""
        return {rid: done.chip_id for rid, done in self._completed.items()}

    def __repr__(self) -> str:
        return (
            f"InferenceEngine(model={type(self.model).__name__}, chips={len(self.fleet)}, "
            f"backend={self.backend.name!r}, policy={self.policy.name!r}, "
            f"max_batch={self.config.max_batch})"
        )
