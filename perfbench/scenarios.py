"""The benchmark's workloads: one trained model, three serving sessions.

Every workload serves the same model: a tiny-scale QAVAT LeNet-5 at
A4W2, trained under within-chip variation of sigma_tot / sqrt(2) and
served under the paper's mixed scenario (within- plus between-chip
halves of sigma_tot = 0.3), exactly as ``serve-bench --scenario mixed``
sets it up.  The model is trained with a fixed seed; the run seed drives fleet
sampling, drift, arrivals and faults.  Everything the program receives is
generated here.

Each workload is open-loop in simulated time: the seed fixes the arrival
ticks and they never wait on completions.  Engine options a workload
does not name stay at their defaults, so a change of default is
measured as users get it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA_TOT = 0.3
NOTATION = "A4W2"
#: Training seed of the served model, the same for every run seed.  Across
#: training seeds the tiny model's served accuracy ranges 0.74-0.96, a
#: spread no regression bound could hold; the run seed drives the fleet,
#: drift, arrivals and faults.
MODEL_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One traffic mix: fleet shape, arrival process and pass size.

    ``requests`` is the size of one pass (one set-up plus one serving
    session); a run repeats passes until its time is up.  ``expect`` holds
    the layer split the traced run must confirm, as
    ``(metric, lowest, highest)``.
    """

    name: str
    why: str
    requests: int
    expect: tuple[tuple[str, float, float], ...]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="steady-fleet",
            why="the fused serving hot path: 16 fake-quant chips, Poisson 96 req/tick, "
            "no lifecycle and no faults",
            requests=16_384,
            expect=(("dispatch.fused_share", 0.9, 1.0),),
        ),
        Workload(
            name="drift-lifetime",
            why="the lifetime headline at 1/16 scale: drift, probe sweeps and "
            "recalibration over 64 chips with 16 resident",
            requests=1_024,
            expect=(("lifecycle.advance.share", 0.5, 1.0),),
        ),
        Workload(
            name="circuit-chaos",
            why="per-chip dispatch on the circuit backend with faults, retries, hedges "
            "and a spare replacement under bursty deadline traffic",
            requests=16_384,
            expect=(("dispatch.fused_share", 0.0, 0.0),),
        ),
    )
}


def specs():
    """(train_spec, eval_spec) of the paper's mixed scenario."""
    from repro.variability.models import variance_model_by_name
    from repro.variability.sampler import VariabilitySpec

    variance_model = variance_model_by_name("weight-proportional")
    sigma_each = SIGMA_TOT / np.sqrt(2.0)
    return (
        VariabilitySpec.within_only(sigma_each, variance_model),
        VariabilitySpec.mixed(sigma_each, variance_model),
    )


def train_model():
    """QAVAT-train the tiny LeNet-5; returns ``(model, test_set, eval_spec)``."""
    from repro.experiments import runner
    from repro.experiments.configs import EXPERIMENT_SCALES, MethodConfig
    from repro.quant.qconfig import QConfig

    train_spec, eval_spec = specs()
    # Called through the module so the traced run's wrapper sees the call.
    model, test = runner.train_method(
        "qavat",
        "lenet5",
        "mnist",
        QConfig.from_notation(NOTATION),
        train_spec,
        EXPERIMENT_SCALES["tiny"],
        MethodConfig(seed=MODEL_SEED),
    )
    model.eval()
    return model, test, eval_spec


def arrival_trace(name: str, seed: int):
    """The workload's seeded open-loop arrival process."""
    from repro.serve import BurstyTrace, DeadlineTrace, PoissonTrace, UniformTrace

    if name == "steady-fleet":
        return PoissonTrace(rate=96.0, seed=seed)
    if name == "drift-lifetime":
        # Uniform by design: one batch every 4 ticks; the seed drives the
        # fleet, its drift and the model instead.
        return UniformTrace(rate=8.0)
    if name == "circuit-chaos":
        # 1 req/tick quiet, 48 in bursts (period 16, duty 0.25): mean 12.75,
        # each request with the CLI's default 12-tick deadline.
        return DeadlineTrace(
            BurstyTrace(rate=1.0, burst_rate=48.0, period=16, duty=0.25, seed=seed),
            slo_ticks=12,
        )
    raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")


@dataclass
class Session:
    """A built serving session, ready for its first submit."""

    engine: object
    lifecycle: object
    schedule: list
    deadlines: list


def build_session(name: str, seed: int, model, test, eval_spec) -> Session:
    """Construct the fleet, warm it up and install faults or the lifecycle."""
    from repro.serve import (
        ChipLifecycle,
        FaultInjector,
        FaultPlan,
        FleetSpec,
        InferenceEngine,
        LifecycleConfig,
        ServeConfig,
    )

    count = WORKLOADS[name].requests
    trace = arrival_trace(name, seed)
    lifecycle = None
    if name == "steady-fleet":
        engine = InferenceEngine(
            model, eval_spec, 16,
            ServeConfig(max_batch=32, max_wait=4, policy="round-robin", seed=seed),
        )
        engine.warm_up()
    elif name == "drift-lifetime":
        engine = InferenceEngine(
            model, eval_spec,
            config=ServeConfig(
                max_batch=32, max_wait=4, policy="drift-aware", seed=seed,
                max_resident_chips=16,
            ),
            fleet_spec=FleetSpec.parse("rram:32,flash:32", scenario="mixed"),
        )
        lifecycle = ChipLifecycle(
            engine, test,
            LifecycleConfig(drift="aging", nu=0.1, probe_every=8.0, seed=seed),
        )
        lifecycle.install()
    elif name == "circuit-chaos":
        engine = InferenceEngine(
            model, eval_spec, 8,
            ServeConfig(
                max_batch=16, max_wait=4, policy="round-robin", seed=seed,
                backend="circuit",
            ),
        )
        engine.warm_up()
        FaultInjector(engine, FaultPlan(seed=seed)).install()
    else:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    return Session(
        engine=engine,
        lifecycle=lifecycle,
        schedule=trace.schedule(count),
        deadlines=trace.deadline_schedule(count),
    )
