"""``repro.serve`` — batched multi-chip inference serving.

Deployment-scale counterpart of the single-chip evaluation utilities: a
pool of sampled chips (each programmed through a pluggable
:mod:`repro.backends` fidelity — fake-quant replica or circuit-level
``PimChip`` — optionally self-tuned), dynamic micro-batching of
single-sample requests, pluggable fleet scheduling, an LRU mapping cache,
and streaming telemetry.  On top of the static fleet, :mod:`repro.serve.lifecycle`
drives drift aging, quality monitoring, and recalibration-triggered
cache invalidation over mixed-technology fleets
(:class:`~repro.serve.engine.FleetSpec`), and :mod:`repro.serve.trace`
supplies Poisson/bursty/replayed arrival traces.  :mod:`repro.serve.health`
tracks per-chip health (``healthy -> degraded -> quarantined -> retired ->
replaced``) from dispatch outcomes and lifecycle probes, and
:mod:`repro.serve.faults` is the deterministic chaos harness — stuck-at
fault maps, transient dispatch errors, latency spikes, and hard chip
deaths injected into a *running* fleet, absorbed by retry/hedging,
dead-letter records, and spare provisioning.  :mod:`repro.serve.api`
puts a client-facing asyncio front end over all of it — the
:class:`~repro.serve.api.Gateway`: awaitable per-request submission with
deadlines/SLOs, continuous batching, bounded-queue admission control
(:class:`~repro.serve.api.Overloaded`), and compilation of every accepted
session into a bit-replayable
:class:`~repro.serve.trace.ReplayTrace`.  Fleets construct lazily from
seed descriptors (:class:`~repro.serve.engine.ChipDescriptor`):
``num_chips=1000+`` fits in O(descriptors) memory, and
``ServeConfig.max_resident_chips`` bounds how many chips are resident at
once, spilling cold ones (``docs/scale-out.md``).  See
:class:`~repro.serve.engine.InferenceEngine` for the entry point and
``examples/serving_fleet.py`` / ``examples/lifecycle_serving.py`` /
``examples/chaos_serving.py`` for end-to-end tours.
"""

from repro.serve.api import Gateway, GatewayConfig, Overloaded, RequestFailed
from repro.serve.batcher import Batch, MicroBatcher, Request
from repro.serve.cache import CacheStats, MappingCache
from repro.serve.engine import (
    ChipDescriptor,
    FleetChip,
    FleetSpec,
    InferenceEngine,
    ServeConfig,
    ServedRequest,
    TechnologyGroup,
)
from repro.serve.faults import (
    ChipFault,
    DeadLetter,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.serve.health import (
    HEALTH_STATES,
    SERVING_STATES,
    ChipHealth,
    HealthConfig,
    HealthMonitor,
    HealthTransition,
)
from repro.serve.lifecycle import ChipLifecycle, LifecycleConfig, RecalibrationEvent
from repro.serve.scheduler import (
    POLICIES,
    AccuracyWeightedPolicy,
    DriftAwarePolicy,
    EnergyAwarePolicy,
    LatencyAwarePolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
    dispatchable,
    make_policy,
)
from repro.serve.telemetry import ServeTelemetry
from repro.serve.trace import (
    TRACES,
    ArrivalTrace,
    BurstyTrace,
    DeadlineTrace,
    PoissonTrace,
    ReplayTrace,
    UniformTrace,
    make_trace,
)

__all__ = [
    "Gateway",
    "GatewayConfig",
    "Overloaded",
    "RequestFailed",
    "EnergyAwarePolicy",
    "InferenceEngine",
    "ServeConfig",
    "ChipDescriptor",
    "FleetChip",
    "FleetSpec",
    "TechnologyGroup",
    "ServedRequest",
    "Request",
    "Batch",
    "MicroBatcher",
    "MappingCache",
    "CacheStats",
    "SchedulingPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "AccuracyWeightedPolicy",
    "DriftAwarePolicy",
    "LatencyAwarePolicy",
    "POLICIES",
    "make_policy",
    "dispatchable",
    "ServeTelemetry",
    "ChipLifecycle",
    "LifecycleConfig",
    "RecalibrationEvent",
    "ChipFault",
    "RetryPolicy",
    "DeadLetter",
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "HEALTH_STATES",
    "SERVING_STATES",
    "HealthConfig",
    "ChipHealth",
    "HealthTransition",
    "HealthMonitor",
    "ArrivalTrace",
    "UniformTrace",
    "PoissonTrace",
    "BurstyTrace",
    "DeadlineTrace",
    "ReplayTrace",
    "TRACES",
    "make_trace",
]
