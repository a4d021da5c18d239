"""Streaming serving telemetry: latency quantiles, throughput, occupancy.

Built on :mod:`repro.obs.metrics`: every meter is a :class:`Counter` or a
log-bucketed streaming :class:`Histogram` registered in a
:class:`MetricsRegistry`, so the counters stay O(1) no matter how much
traffic flows through, and latency reports interpolated p50/p95/p99
tails alongside mean/min/max/std (an SLO is a quantile, not a mean).
The registry is shared with the engine's :class:`~repro.obs.Observability`,
which is what lets one Prometheus dump cover the whole stack.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

import numpy as np

from repro.obs.metrics import Histogram, MetricsRegistry

#: The quantile points every latency-shaped report carries.
QUANTILES = (50.0, 95.0, 99.0)
#: Per-batch output hashes are summed modulo this, so the running total
#: does not depend on the order a tick's batches complete in.
_SERVED_MODULUS = 1 << 256


class ServeTelemetry:
    """Counters the :class:`~repro.serve.engine.InferenceEngine` maintains.

    * ``queue_ticks`` — per-request queueing delay in scheduler ticks
      (batching latency; the cost of waiting for a fuller batch);
    * ``service_seconds`` — wall-clock seconds per batched forward pass;
    * ``request_seconds`` — wall-clock submit-to-completion latency per
      request (the engine measures it through its injectable clock);
    * ``batch_size`` / ``occupancy`` — how full released batches are
      relative to ``max_batch``;
    * ``per_chip_samples`` — samples served by each chip (load balance);
    * served values — one SHA-256 per batch over its chip, request ids
      and output rows (:meth:`record_batch`), summed into :meth:`digest`;
    * ``batch_energy_uj`` / ``per_chip_energy_uj`` — estimated physical
      energy of each dispatched batch (from
      :meth:`repro.backends.ProgrammedChip.cost`), total and per chip, in
      microjoules — the signal energy-aware scheduling weighs against
      quality;
    * ``recalibrations`` / ``quality_series`` — lifecycle events: per-chip
      recalibration counts and the probed accuracy-over-(virtual)-time
      series, which is what a drift/recovery curve is plotted from;
    * ``probes`` / ``probes_reused`` / ``probes_deferred`` — chip quality
      probes run, probes the lifecycle booked from the stored quality of a
      state already probed instead of running them, and sweep probes its
      probe gate deferred (the ``probes`` section of :meth:`report`);
    * fault tolerance — fault events by kind and by chip, retry/hedge/
      dead-letter counters, recorded health transitions, spare-provisioning
      replacements, and ``goodput`` (served / (served + dead-lettered)),
      the chaos bench's acceptance metric.  All land in the ``faults``
      section of :meth:`report`;
    * SLO accounting — deadline outcomes (:meth:`record_deadline`:
      met/violated counters, headroom and lateness tick histograms, the
      violations-over-time ``slo_series``) and admission rejections
      (:meth:`record_rejection`), the ``slo`` section the ``serve-bench
      --slo`` gate and the :class:`~repro.serve.api.Gateway` read.

    ``attach_cache`` links the engine's :class:`~repro.serve.cache.MappingCache`
    so its hit/miss/invalidation stats appear in :meth:`report` and
    :meth:`format` — operators should not need the cache object in hand to
    see the hit rate.
    """

    def __init__(self, max_batch: int = 1, registry: MetricsRegistry | None = None) -> None:
        self.max_batch = max(1, int(max_batch))
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = self.registry.counter(
            "serve_requests_total", "requests served to completion"
        )
        self._batches = self.registry.counter(
            "serve_batches_total", "batches dispatched to chips"
        )
        # Ticks are small integers; a tighter low edge keeps single-digit
        # quantiles inside log buckets instead of one underflow bin.
        self.queue_ticks = self.registry.histogram(
            "serve_queue_ticks", "per-request queueing delay (ticks)",
            lo=0.5, hi=1e5, buckets_per_decade=20,
        )
        self.service_seconds = self.registry.histogram(
            "serve_batch_service_seconds", "wall seconds per batched forward",
            lo=1e-6, hi=1e3,
        )
        self.request_seconds = self.registry.histogram(
            "serve_request_latency_seconds", "submit-to-completion wall seconds",
            lo=1e-6, hi=1e3,
        )
        self.batch_size = self.registry.histogram(
            "serve_batch_size", "requests fused per batch", lo=0.5, hi=1e5,
            buckets_per_decade=20,
        )
        self.occupancy = self.registry.histogram(
            "serve_batch_occupancy", "batch size / max_batch", lo=1e-3, hi=10.0,
            buckets_per_decade=20,
        )
        self.batch_energy_uj = self.registry.histogram(
            "serve_batch_energy_uj", "estimated energy per dispatched batch (uJ)",
            lo=1e-6, hi=1e9,
        )
        self._retries = self.registry.counter(
            "serve_retries_total", "requests parked for a backoff retry"
        )
        self._hedges = self.registry.counter(
            "serve_hedges_total", "failed dispatches hedged to a second chip"
        )
        self._dead_letters = self.registry.counter(
            "serve_dead_letters_total", "requests that exhausted their retry budget"
        )
        self._faults = self.registry.counter(
            "serve_faults_total", "chip fault events (all kinds)"
        )
        self._slo_met = self.registry.counter(
            "serve_slo_met_total", "deadline-bearing requests served in time"
        )
        self._slo_violations = self.registry.counter(
            "serve_slo_violations_total",
            "deadline-bearing requests served late or expired",
        )
        self._rejections = self.registry.counter(
            "serve_rejections_total", "requests rejected at admission (backpressure)"
        )
        self._fused_groups = self.registry.counter(
            "serve_fused_groups_total", "fused dispatch groups executed"
        )
        self._fused_batches = self.registry.counter(
            "serve_fused_batches_total", "batches served through the fused fleet path"
        )
        self._probes = self.registry.counter(
            "serve_probes_total", "chip quality probes run"
        )
        self._probes_reused = self.registry.counter(
            "serve_probes_reused_total",
            "chip quality probes booked from the stored quality of the same state",
        )
        self._probes_deferred = self.registry.counter(
            "serve_probes_deferred_total",
            "sweep probes deferred because the aging law predicts the chip holds its floor",
        )
        # Tick-valued like queue_ticks: a tight low edge plus an underflow
        # bucket for the zero-headroom / zero-lateness edge.
        self.deadline_headroom = self.registry.histogram(
            "serve_deadline_headroom_ticks",
            "ticks of slack left when a deadline-bearing request completed",
            lo=0.5, hi=1e5, buckets_per_decade=20,
        )
        self.deadline_lateness = self.registry.histogram(
            "serve_deadline_lateness_ticks",
            "ticks past deadline for requests that missed their SLO",
            lo=0.5, hi=1e5, buckets_per_decade=20,
        )
        self.per_chip_samples: dict[str, int] = defaultdict(int)
        self.per_chip_energy_uj: dict[str, float] = defaultdict(float)
        self.recalibrations: dict[str, int] = defaultdict(int)
        self.recalibration_events: list[tuple[float, str]] = []
        self.quality_series: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.fault_counts: dict[str, int] = defaultdict(int)
        self.per_chip_faults: dict[str, int] = defaultdict(int)
        self.dead_letter_reasons: dict[str, int] = defaultdict(int)
        self.health_transitions: list = []
        self.replacements: list[tuple[float, str, str]] = []
        #: ``(tick, met_total, violations_total)`` after every deadline
        #: outcome — the SLO-violation-over-time series the ``--slo`` bench
        #: plots and gates on.
        self.slo_series: list[tuple[int, int, int]] = []
        #: Sum, modulo 2**256, of one SHA-256 per recorded batch over its
        #: chip, request ids and output rows: what :meth:`digest` knows of
        #: the served values themselves.
        self._served = 0
        self._cache = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def batches(self) -> int:
        return self._batches.value

    def attach_cache(self, cache) -> None:
        """Surface ``cache.stats`` in :meth:`report`/:meth:`format`."""
        self._cache = cache

    def record_batch(
        self,
        chip_id: str,
        queue_ticks,
        seconds: float,
        energy_uj: float | None = None,
        *,
        request_ids,
        outputs,
    ) -> None:
        """Account one dispatched batch.

        ``queue_ticks`` is the per-request queueing delay of every request
        fused into the batch, so the latency meter sees true tails rather
        than batch averages.  ``energy_uj`` is the chip's estimated physical
        cost of the batch (``None`` when the backend has no cost estimator).
        ``request_ids`` and ``outputs`` (one output row per request, in the
        same order) are what the batch served: a SHA-256 of them and the
        chip id is added into :meth:`digest`'s record of served values.
        """
        rows = np.ascontiguousarray(outputs)
        batch_hash = hashlib.sha256(
            "\n".join([chip_id, *map(str, request_ids), rows.dtype.str, str(rows.shape)]).encode()
        )
        batch_hash.update(rows)
        self._served = (
            self._served + int.from_bytes(batch_hash.digest(), "big")
        ) % _SERVED_MODULUS
        size = len(queue_ticks)
        self._requests.inc(size)
        self._batches.inc()
        self.per_chip_samples[chip_id] += size
        self.batch_size.observe(size)
        self.occupancy.observe(size / self.max_batch)
        for ticks in queue_ticks:
            self.queue_ticks.observe(ticks)
        self.service_seconds.observe(seconds)
        if energy_uj is not None:
            self.batch_energy_uj.observe(float(energy_uj))
            self.per_chip_energy_uj[chip_id] += float(energy_uj)

    def record_request_latency(self, seconds: float) -> None:
        """Account one request's submit-to-completion wall latency."""
        self.request_seconds.observe(seconds)

    def record_quality(self, chip_id: str, time: float, quality: float) -> None:
        """Append one probed quality sample to a chip's accuracy-over-time series."""
        self.quality_series[chip_id].append((float(time), float(quality)))

    def record_recalibration(self, chip_id: str, time: float) -> None:
        """Account one recalibration event (GTM re-measure + reprogram)."""
        self.recalibrations[chip_id] += 1
        self.recalibration_events.append((float(time), chip_id))

    def record_fault(self, kind: str, chip_id: str) -> None:
        """Account one chip fault event (death, stuck-at, transient, ...)."""
        self._faults.inc()
        self.fault_counts[kind] += 1
        self.per_chip_faults[chip_id] += 1

    def record_retry(self) -> None:
        """Account one request parked for a backoff retry."""
        self._retries.inc()

    def record_hedge(self, primary: str, backup: str) -> None:
        """Account one failed dispatch hedged to a second chip."""
        self._hedges.inc()

    def record_dead_letter(self, reason: str) -> None:
        """Account one request that exhausted its retry budget."""
        self._dead_letters.inc()
        self.dead_letter_reasons[reason] += 1

    def record_deadline(self, tick: int, headroom: int) -> None:
        """Account one deadline outcome at ``tick``.

        ``headroom`` is ``deadline - completion tick``: non-negative counts
        as SLO met (with that many ticks of slack), negative as an SLO
        violation ``-headroom`` ticks late.  Requests dead-lettered for an
        expired deadline are violations too — the engine reports their
        lateness at the tick they were shed.
        """
        if headroom >= 0:
            self._slo_met.inc()
            self.deadline_headroom.observe(headroom)
        else:
            self._slo_violations.inc()
            self.deadline_lateness.observe(-headroom)
        self.slo_series.append((int(tick), self.slo_met, self.slo_violations))

    def record_rejection(self) -> None:
        """Account one request refused at admission (queue full)."""
        self._rejections.inc()

    def record_fused_group(self, batches: int) -> None:
        """Account one fused dispatch group covering ``batches`` batches."""
        self._fused_groups.inc()
        self._fused_batches.inc(int(batches))

    def record_probe(self) -> None:
        """Account one chip quality probe (one probe-set pass through a chip)."""
        self._probes.inc()

    def record_probe_reused(self) -> None:
        """Account one probe booked from the lifecycle's probe memo."""
        self._probes_reused.inc()

    def record_probe_deferred(self) -> None:
        """Account one sweep probe the lifecycle's probe gate deferred."""
        self._probes_deferred.inc()

    def record_health_transition(self, transition) -> None:
        """Append one :class:`~repro.serve.health.HealthTransition`."""
        self.health_transitions.append(transition)

    def record_replacement(self, old_chip: str, new_chip: str, time: float) -> None:
        """Account one spare-provisioning swap (retired -> fresh silicon)."""
        self.replacements.append((float(time), str(old_chip), str(new_chip)))

    def quality_timeline(self, chip_id: str) -> list[tuple[float, float]]:
        """One chip's ``(time, probed accuracy)`` series, oldest first."""
        return list(self.quality_series.get(chip_id, []))

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_service_seconds(self) -> float:
        return self.service_seconds.total

    @property
    def total_energy_uj(self) -> float:
        """Estimated energy of all dispatched batches, in microjoules."""
        return self.batch_energy_uj.total

    @property
    def energy_per_request_uj(self) -> float:
        """Mean estimated energy per served request, in microjoules."""
        return self.total_energy_uj / self.requests if self.requests else 0.0

    @property
    def throughput(self) -> float:
        """Samples per second of service time (excludes queueing ticks)."""
        seconds = self.total_service_seconds
        return self.requests / seconds if seconds > 0.0 else 0.0

    @property
    def retries(self) -> int:
        return self._retries.value

    @property
    def hedges(self) -> int:
        return self._hedges.value

    @property
    def dead_letters(self) -> int:
        return self._dead_letters.value

    @property
    def faults(self) -> int:
        return self._faults.value

    @property
    def slo_met(self) -> int:
        return self._slo_met.value

    @property
    def slo_violations(self) -> int:
        return self._slo_violations.value

    @property
    def rejections(self) -> int:
        return self._rejections.value

    @property
    def fused_groups(self) -> int:
        return self._fused_groups.value

    @property
    def fused_batches(self) -> int:
        return self._fused_batches.value

    @property
    def probes(self) -> int:
        return self._probes.value

    @property
    def probes_reused(self) -> int:
        return self._probes_reused.value

    @property
    def probes_deferred(self) -> int:
        return self._probes_deferred.value

    @property
    def slo_attainment(self) -> float:
        """Fraction of deadline-bearing requests that met their deadline.

        1.0 when no request carried a deadline — a deadline-free run
        trivially violates nothing, which keeps the ``--slo`` ceiling gate
        meaningful only on deadline-bearing workloads.
        """
        finished = self.slo_met + self.slo_violations
        return self.slo_met / finished if finished else 1.0

    @property
    def goodput(self) -> float:
        """Fraction of finished requests actually served (vs dead-lettered).

        The chaos bench's acceptance metric: 1.0 on a fault-free run,
        degrading as requests exhaust their retry budget.
        """
        finished = self.requests + self.dead_letters
        return self.requests / finished if finished else 1.0

    def digest(self) -> str:
        """SHA-256 over the run's *deterministic* accounting.

        The fused-parity contract in one hash: a ``fused=True`` and a
        ``fused=False`` run of the same seeded workload must produce the
        same digest, because fusion may change wall-clock timing and which
        stage meters fire but never what was served, by whom, in which batches,
        with what queueing, energy, SLO, or fault outcomes.  Wall-time
        histograms (service/request seconds), the fused counters and the
        probe counters (how a quality was measured, not what it was) are
        therefore excluded; everything else — the served outputs (every
        recorded batch's chip, request ids and output bytes, summed
        per batch so the order a tick's batches complete in does not
        matter), request and batch counts, per-chip load and energy,
        tick-valued histograms, fault/retry/dead-letter accounting, SLO
        series, lifecycle events — is included.
        """
        import json

        def hist(histogram: Histogram) -> dict:
            return histogram.as_dict()

        # Collapse the cumulative SLO series to its last entry per tick:
        # the staged executor stages every same-tick batch before
        # completing any, so *within* a tick its deadline events interleave
        # differently from a batch-by-batch run, but the per-tick end
        # state is the same multiset of events.
        slo_by_tick: dict[int, tuple[int, int]] = {}
        for tick, met, violations in self.slo_series:
            slo_by_tick[int(tick)] = (met, violations)

        payload = {
            "served": f"{self._served:064x}",
            "requests": self.requests,
            "batches": self.batches,
            "per_chip_samples": dict(self.per_chip_samples),
            "per_chip_energy_uj": dict(self.per_chip_energy_uj),
            "queue_ticks": hist(self.queue_ticks),
            "batch_size": hist(self.batch_size),
            "occupancy": hist(self.occupancy),
            "batch_energy_uj": hist(self.batch_energy_uj),
            "deadline_headroom": hist(self.deadline_headroom),
            "deadline_lateness": hist(self.deadline_lateness),
            "slo": [self.slo_met, self.slo_violations, self.rejections],
            "slo_series": sorted(slo_by_tick.items()),
            "faults": [self.faults, self.retries, self.hedges, self.dead_letters],
            "fault_counts": dict(self.fault_counts),
            "per_chip_faults": dict(self.per_chip_faults),
            "dead_letter_reasons": dict(self.dead_letter_reasons),
            "recalibrations": dict(self.recalibrations),
            "recalibration_events": self.recalibration_events,
            "quality_series": dict(self.quality_series),
            "replacements": self.replacements,
            "health_transitions": [
                (t.tick, t.chip_id, t.source, t.target, t.reason)
                for t in self.health_transitions
            ],
        }
        encoded = json.dumps(payload, sort_keys=True, default=str).encode()
        return hashlib.sha256(encoded).hexdigest()

    @staticmethod
    def _meter_section(histogram: Histogram) -> dict:
        """mean/min/max/std (the pre-quantile surface) + p50/p95/p99."""
        return {
            "mean": float(histogram.mean),
            "min": float(histogram.min),
            "max": float(histogram.max),
            "std": float(histogram.std),
            **{key: float(value) for key, value in histogram.percentiles(QUANTILES).items()},
        }

    def report(self) -> dict:
        """Plain-dict snapshot (JSON-friendly, used by the CLI result store).

        Counts, meter sections with p50/p95/p99 (``queue_ticks``,
        ``service_seconds_per_batch``, ``latency``), energy, lifecycle,
        SLO, fused, probe and fault sections and, when a cache is
        attached, ``cache``.
        """
        report = {
            "requests": self.requests,
            "batches": self.batches,
            "throughput_sps": float(self.throughput),
            "service_seconds": float(self.total_service_seconds),
            "batch_size_mean": float(self.batch_size.mean),
            "occupancy_mean": float(self.occupancy.mean),
            "queue_ticks": self._meter_section(self.queue_ticks),
            "service_seconds_per_batch": self._meter_section(self.service_seconds),
            "latency": {
                "count": self.request_seconds.count,
                **self._meter_section(self.request_seconds),
            },
            "per_chip_samples": dict(self.per_chip_samples),
            "energy_uj": {
                "total": float(self.total_energy_uj),
                "mean_per_batch": float(self.batch_energy_uj.mean),
                "per_request": float(self.energy_per_request_uj),
                "per_chip": {
                    chip: float(value)
                    for chip, value in self.per_chip_energy_uj.items()
                },
            },
            "recalibrations": dict(self.recalibrations),
            "recalibration_events": [
                {"time": float(time), "chip": chip}
                for time, chip in self.recalibration_events
            ],
            "quality_series": {
                chip: [{"time": float(time), "accuracy": float(q)} for time, q in series]
                for chip, series in self.quality_series.items()
            },
            "slo": {
                "met": self.slo_met,
                "violations": self.slo_violations,
                "attainment": float(self.slo_attainment),
                "rejections": self.rejections,
                "headroom_ticks": self._meter_section(self.deadline_headroom),
                "lateness_ticks": self._meter_section(self.deadline_lateness),
                "series": [
                    {"tick": tick, "met": met, "violations": violations}
                    for tick, met, violations in self.slo_series
                ],
            },
            "fused": {
                "groups": self.fused_groups,
                "batches": self.fused_batches,
            },
            "probes": {
                "run": self.probes,
                "reused": self.probes_reused,
                "deferred": self.probes_deferred,
            },
            "faults": {
                "total": self.faults,
                "by_kind": dict(self.fault_counts),
                "per_chip": dict(self.per_chip_faults),
                "retries": self.retries,
                "hedges": self.hedges,
                "dead_letters": self.dead_letters,
                "dead_letter_reasons": dict(self.dead_letter_reasons),
                "goodput": float(self.goodput),
                "replacements": [
                    {"time": float(time), "old": old, "new": new}
                    for time, old, new in self.replacements
                ],
                "health_transitions": [
                    {
                        "tick": transition.tick,
                        "chip": transition.chip_id,
                        "source": transition.source,
                        "target": transition.target,
                        "reason": transition.reason,
                    }
                    for transition in self.health_transitions
                ],
            },
        }
        if self._cache is not None:
            report["cache"] = {
                key: (float(value) if isinstance(value, float) else value)
                for key, value in self._cache.stats.as_dict().items()
            }
        return report

    def format(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"requests: {self.requests}  batches: {self.batches}  "
            f"throughput: {self.throughput:.1f} samples/s",
            f"batch size: mean {self.batch_size.mean:.2f}  "
            f"occupancy: {100 * self.occupancy.mean:.0f}%",
            f"queue ticks: mean {self.queue_ticks.mean:.2f}  "
            f"p50 {self.queue_ticks.quantile(0.50):.1f}  "
            f"p95 {self.queue_ticks.quantile(0.95):.1f}  "
            f"p99 {self.queue_ticks.quantile(0.99):.1f}  "
            f"max {self.queue_ticks.max:.0f}",
            f"service ms/batch: mean {1e3 * self.service_seconds.mean:.2f}  "
            f"p95 {1e3 * self.service_seconds.quantile(0.95):.2f}  "
            f"max {1e3 * self.service_seconds.max:.2f}",
            "chip load: "
            + "  ".join(
                f"{chip}={count}" for chip, count in sorted(self.per_chip_samples.items())
            ),
        ]
        if self.request_seconds.count:
            lines.insert(
                3,
                f"request latency ms: p50 {1e3 * self.request_seconds.quantile(0.50):.2f}  "
                f"p95 {1e3 * self.request_seconds.quantile(0.95):.2f}  "
                f"p99 {1e3 * self.request_seconds.quantile(0.99):.2f}  "
                f"max {1e3 * self.request_seconds.max:.2f}",
            )
        if self._cache is not None:
            stats = self._cache.stats
            lines.append(
                f"mapping cache: {stats.hits} hits / {stats.misses} misses "
                f"(hit rate {100 * stats.hit_rate:.0f}%)  "
                f"evictions {stats.evictions}  invalidations {stats.invalidations}"
            )
        if self.batch_energy_uj.count:
            lines.append(
                f"energy: total {self.total_energy_uj:.1f} uJ  "
                f"mean {self.batch_energy_uj.mean:.1f} uJ/batch  "
                f"{self.energy_per_request_uj:.2f} uJ/request"
            )
        if self.slo_met or self.slo_violations or self.rejections:
            lines.append(
                f"slo: {self.slo_met} met / {self.slo_violations} violated "
                f"(attainment {100 * self.slo_attainment:.1f}%)  "
                f"rejections {self.rejections}  "
                f"headroom p50 {self.deadline_headroom.quantile(0.50):.1f} ticks"
            )
        if self.faults or self.dead_letters or self.retries:
            lines.append(
                f"faults: {self.faults} ("
                + "  ".join(
                    f"{kind}={count}" for kind, count in sorted(self.fault_counts.items())
                )
                + f")  retries {self.retries}  hedges {self.hedges}  "
                f"dead-letters {self.dead_letters}  "
                f"goodput {100 * self.goodput:.1f}%"
            )
        if self.replacements:
            lines.append(
                "replacements: "
                + "  ".join(f"{old}->{new}" for _, old, new in self.replacements)
            )
        if self.health_transitions:
            terminal: dict[str, str] = {}
            for transition in self.health_transitions:
                terminal[transition.chip_id] = transition.target
            lines.append(
                "health: "
                + "  ".join(
                    f"{chip}={state}" for chip, state in sorted(terminal.items())
                )
            )
        if self.recalibrations:
            lines.append(
                "recalibrations: "
                + "  ".join(
                    f"{chip}={count}"
                    for chip, count in sorted(self.recalibrations.items())
                )
            )
        if self.quality_series:
            lines.append(
                "quality now: "
                + "  ".join(
                    f"{chip}={100 * series[-1][1]:.0f}%"
                    for chip, series in sorted(self.quality_series.items())
                    if series
                )
            )
        return "\n".join(lines)
