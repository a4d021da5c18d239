"""Fleet scheduling policies: which chip serves the next batch.

Every policy is deterministic — given the same batch sequence and the same
fleet it makes the same choices — which keeps end-to-end serving
reproducible from a single seed.  Policies see lightweight
:class:`~repro.serve.engine.FleetChip` handles (counters + calibration
quality), never the programmed mappings themselves — and never the
chip's ``variation`` either, so choosing a chip on a lazy thousand-chip
fleet (see :class:`~repro.serve.engine.ChipDescriptor`) does not force
realization; a policy that needs new per-chip state must read it from
bookkeeping the engine maintains on the handle.

* ``round-robin`` — cycle through the pool regardless of state;
* ``least-loaded`` — send the batch to the chip that has served the
  fewest samples so far (balances heterogeneous batch sizes);
* ``accuracy-weighted`` — weighted fair queueing on each chip's measured
  calibration quality (see ``InferenceEngine.probe_fleet``), so better
  chips serve proportionally more traffic without starving the rest;
* ``drift-aware`` — greedy accuracy-first dispatch on each chip's
  *current* quality estimate with an age discount (see
  :mod:`repro.serve.lifecycle`): near-equal chips are balanced
  least-loaded, measurably degraded chips get no traffic until they
  recover — the fairness-free behaviour a drifting fleet needs;
* ``energy-aware`` — among the chips whose quality estimate ties the best
  (same contention rule as ``drift-aware``), dispatch to the one with the
  least energy spent so far.  Energy is the per-batch
  :meth:`repro.backends.ProgrammedChip.cost` estimate the engine
  accumulates on each chip handle.  Today's engines program every chip
  through one backend (one cost estimator), so per-batch costs are
  uniform and the tie-break reduces to least-loaded among the quality
  contenders; the ordering becomes load-bearing once fleets mix design
  points with distinct per-batch costs (per-group backends, per-device
  energy models) — the seed of the ROADMAP's energy-aware-scheduling
  follow-up;
* ``latency-aware`` — deadline-racing dispatch: a batch with thin
  deadline headroom (:meth:`repro.serve.batcher.Batch.headroom`) goes to
  the chip least likely to cost a retry park (fewest observed fault
  events), everything else dispatches quality-first like ``drift-aware``
  — the policy the SLO-bearing gateway path (:mod:`repro.serve.api`) is
  meant to run under.

Policies never see unhealthy hardware: the engine filters the fleet
through :func:`dispatchable` first, so quarantined/retired/replaced chips
(see :mod:`repro.serve.health`) are routed around without any policy
needing to know the state machine exists.
"""

from __future__ import annotations

from repro.serve.health import SERVING_STATES


def dispatchable(chips):
    """The subset of ``chips`` the scheduler may route traffic to.

    Health-aware routing: only chips in a serving state
    (:const:`repro.serve.health.SERVING_STATES` — ``healthy`` or
    ``degraded``) are candidates; quarantined, retired, and replaced chips
    receive no traffic.  Chips without a ``health`` attribute (bare
    handles in tests) count as healthy, so every policy keeps working on
    pre-health fleets.  The engine applies this filter *before*
    ``policy.choose``, so policies stay health-agnostic.
    """
    return [
        chip for chip in chips if getattr(chip, "health", "healthy") in SERVING_STATES
    ]


class SchedulingPolicy:
    """Interface: pick one chip from the pool for a released batch."""

    name = "base"

    def choose(self, batch, chips):
        """Return the chip that should serve ``batch``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget any internal dispatch state (new serving session)."""

    def describe(self) -> dict:
        """JSON-friendly policy identity + configuration.

        Used by observability (``schedule`` span attributes, the
        ``BENCH_*.json`` scale block) so a recorded run names the exact
        dispatch configuration it measured.  Public scalar attributes are
        included generically; private dispatch state (``_cursor`` etc.)
        is not — it is run state, not configuration.
        """
        config = {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_") and isinstance(value, (int, float, str, bool))
        }
        return {"policy": self.name, **config}


class RoundRobinPolicy(SchedulingPolicy):
    """Cycle through the pool in chip-index order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, batch, chips):
        chip = chips[self._cursor % len(chips)]
        self._cursor += 1
        return chip

    def reset(self) -> None:
        self._cursor = 0


class LeastLoadedPolicy(SchedulingPolicy):
    """Pick the chip with the fewest served samples (ties: lowest index)."""

    name = "least-loaded"

    def choose(self, batch, chips):
        return min(chips, key=lambda chip: (chip.served_samples, chip.index))


class AccuracyWeightedPolicy(SchedulingPolicy):
    """Serve traffic proportionally to per-chip calibration quality.

    Deterministic weighted fair queueing: choose the chip maximizing
    ``quality / (served_samples + 1)``, i.e. the chip furthest behind its
    quality-proportional share.  Chips without a measured quality fall back
    to weight 1.0 (uniform); a fleet that was never probed therefore
    degrades to least-loaded behavior rather than failing.
    """

    name = "accuracy-weighted"

    def __init__(self, floor: float = 1e-3) -> None:
        # A floor keeps pathologically bad chips schedulable (weight > 0),
        # mirroring the engine's promise that no request is ever dropped.
        self.floor = float(floor)

    def _weight(self, chip) -> float:
        quality = chip.quality if chip.quality is not None else 1.0
        return max(float(quality), self.floor)

    def choose(self, batch, chips):
        return max(
            chips,
            key=lambda chip: (self._weight(chip) / (chip.served_samples + 1), -chip.index),
        )


class DriftAwarePolicy(SchedulingPolicy):
    """Greedy accuracy-first dispatch for drifting fleets.

    Accuracy-weighted fair queueing is the right call on a *static* fleet:
    quality is constant, so deferring a weak chip's share and paying it
    back later costs nothing.  Under drift that catch-up is poison — the
    debt owed to a down-weighted chip comes due exactly when the chip has
    degraded furthest.  This policy therefore holds no traffic debt at
    all: every batch goes to the chip with the best *current* quality
    estimate (as maintained by
    :class:`~repro.serve.lifecycle.ChipLifecycle`'s probes and
    model-predictive extrapolation), discounted by
    ``1 + age_discount * age`` so a chip long past its last recalibration
    is trusted less.  Chips within ``tie_margin`` of the best are treated
    as equals and balanced least-loaded-first, which keeps a healthy
    homogeneous fleet load-balanced; a chip that stays measurably worse
    receives no traffic until it recovers — deliberate: under drift,
    starving a degraded chip *is* the accuracy-preserving behaviour.
    """

    name = "drift-aware"

    def __init__(
        self,
        floor: float = 1e-3,
        age_discount: float = 0.1,
        tie_margin: float = 0.01,
    ) -> None:
        if age_discount < 0.0:
            raise ValueError("age_discount must be >= 0")
        if tie_margin < 0.0:
            raise ValueError("tie_margin must be >= 0")
        self.floor = float(floor)
        self.age_discount = float(age_discount)
        self.tie_margin = float(tie_margin)

    def _weight(self, chip) -> float:
        quality = chip.quality if chip.quality is not None else 1.0
        age = max(0.0, float(getattr(chip, "age", 0.0)))
        return max(float(quality) / (1.0 + self.age_discount * age), self.floor)

    def choose(self, batch, chips):
        best = max(self._weight(chip) for chip in chips)
        contenders = [
            chip for chip in chips if self._weight(chip) >= best - self.tie_margin
        ]
        return min(contenders, key=lambda chip: (chip.served_samples, chip.index))


class EnergyAwarePolicy(SchedulingPolicy):
    """Cheapest-adequate dispatch: best quality first, then least energy.

    Quality still gates dispatch exactly like :class:`DriftAwarePolicy`'s
    contender rule (chips within ``tie_margin`` of the best estimate are
    interchangeable), but ties break on *cumulative dispatched energy*
    rather than served samples.  When every chip costs the same per batch
    — which is the case on today's single-backend engines, where one
    estimator prices the whole fleet — energy is proportional to served
    samples and the ordering coincides with least-loaded; the policy pays
    off once per-chip costs diverge (fleets mixing array sizes or ADC
    resolutions via per-group backends, per-device energy models), where
    traffic drains toward chips that answer at the lowest physical cost
    without surrendering accuracy.  Chips served by a cost-less backend
    accumulate zero energy and likewise degrade to least-loaded.
    """

    name = "energy-aware"

    def __init__(self, floor: float = 1e-3, tie_margin: float = 0.01) -> None:
        if tie_margin < 0.0:
            raise ValueError("tie_margin must be >= 0")
        self.floor = float(floor)
        self.tie_margin = float(tie_margin)

    def _weight(self, chip) -> float:
        quality = chip.quality if chip.quality is not None else 1.0
        return max(float(quality), self.floor)

    def choose(self, batch, chips):
        best = max(self._weight(chip) for chip in chips)
        contenders = [
            chip for chip in chips if self._weight(chip) >= best - self.tie_margin
        ]
        return min(
            contenders,
            key=lambda chip: (
                float(getattr(chip, "energy_uj", 0.0)),
                chip.served_samples,
                chip.index,
            ),
        )


class LatencyAwarePolicy(SchedulingPolicy):
    """Race deadline misses against accuracy: urgency flips the dispatch rule.

    A deadline in this stack is lost to *queueing*, not to raw forward
    speed — and the queueing a policy can still influence at dispatch time
    is the retry path: a chip that throws a transient fault costs the whole
    batch a backoff park of several ticks, which is exactly what a batch
    with thin deadline headroom cannot afford.  So the policy reads
    :meth:`repro.serve.batcher.Batch.headroom`:

    * **urgent** (headroom ``<= urgent_ticks``) — dispatch to the chip
      least likely to burn the remaining headroom: fewest observed fault
      events (transients, latency spikes — the engine counts them on the
      chip handle), ties broken least-loaded.  Accuracy is deliberately
      not consulted: a slightly-worse answer inside the deadline beats a
      better answer after it.
    * **relaxed** (ample or no headroom constraint) — quality-first with
      the same contender rule as ``drift-aware``: chips within
      ``tie_margin`` of the best quality estimate are interchangeable and
      balanced least-loaded.

    Both arms read only deterministic counters (fault events, served
    samples, probed quality), never wall-clock service times, so a
    deadline-bearing run stays bit-reproducible under replay.
    """

    name = "latency-aware"

    def __init__(
        self,
        urgent_ticks: int = 2,
        floor: float = 1e-3,
        tie_margin: float = 0.01,
    ) -> None:
        if urgent_ticks < 0:
            raise ValueError("urgent_ticks must be >= 0")
        if tie_margin < 0.0:
            raise ValueError("tie_margin must be >= 0")
        self.urgent_ticks = int(urgent_ticks)
        self.floor = float(floor)
        self.tie_margin = float(tie_margin)

    def _weight(self, chip) -> float:
        quality = chip.quality if chip.quality is not None else 1.0
        return max(float(quality), self.floor)

    def choose(self, batch, chips):
        headroom = batch.headroom() if hasattr(batch, "headroom") else None
        if headroom is not None and headroom <= self.urgent_ticks:
            return min(
                chips,
                key=lambda chip: (
                    getattr(chip, "fault_events", 0),
                    chip.served_samples,
                    chip.index,
                ),
            )
        best = max(self._weight(chip) for chip in chips)
        contenders = [
            chip for chip in chips if self._weight(chip) >= best - self.tie_margin
        ]
        return min(contenders, key=lambda chip: (chip.served_samples, chip.index))


POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    AccuracyWeightedPolicy.name: AccuracyWeightedPolicy,
    DriftAwarePolicy.name: DriftAwarePolicy,
    EnergyAwarePolicy.name: EnergyAwarePolicy,
    LatencyAwarePolicy.name: LatencyAwarePolicy,
}


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a policy by registry name."""
    if name not in POLICIES:
        raise KeyError(f"unknown policy {name!r}; available: {sorted(POLICIES)}")
    return POLICIES[name]()
