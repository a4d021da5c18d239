"""Chaos serving: a 16-chip fleet under live faults, end to end.

``examples/lifecycle_serving.py`` covers graceful aging; this example
covers the ungraceful failures a real analog PIM deployment eats — and
the machinery that turns them into degraded service instead of crashes:

1. calibrate a LeNet-class model and stand up a 16-chip fleet with the
   full fault-tolerance stack on (retry + hedging, health state machine,
   spare provisioning);
2. install a seeded :class:`~repro.serve.FaultInjector` with the default
   chaos mix — one hard chip death, two stuck-at degradations applied
   through the chip backend, 5% transient dispatch errors, plus a dash
   of latency spikes;
3. replay a bursty trace; watch the schedule fire, retries absorb
   transients, the dead chip get quarantine-free retirement and a fresh
   deterministic spare (``chipNN+1``), and anything unservable land in
   dead-letter records rather than exceptions;
4. print the fault section of the telemetry report — goodput, fault
   counts by kind/chip, health transitions, replacements — and re-run
   the identical scenario to show it is bit-reproducible.

Run:  python examples/chaos_serving.py
"""

import numpy as np

from repro.datasets.loaders import batch_iterator
from repro.datasets.synthetic import synthetic_mnist
from repro.models import build_model
from repro.nn import init
from repro.quant import QConfig, calibrate_model, convert_to_quantized
from repro.serve import (
    BurstyTrace,
    FaultInjector,
    FaultPlan,
    HealthConfig,
    InferenceEngine,
    RetryPolicy,
    ServeConfig,
)
from repro.variability import FaultSpec, VariabilitySpec, WeightProportionalVariance

NUM_CHIPS = 16
REQUESTS = 192


def build_engine(model, spec, seed=7):
    engine = InferenceEngine(
        model,
        spec,
        num_chips=NUM_CHIPS,
        config=ServeConfig(
            max_batch=16,
            max_wait=2,
            policy="least-loaded",
            seed=seed,
            retry=RetryPolicy(max_attempts=4, hedge=True, timeout_ticks=64),
            health=HealthConfig(replace_retired=True),
        ),
    )
    engine.warm_up()
    return engine


def chaos_run(model, spec, workload, ids, trace, fault_seed=0):
    engine = build_engine(model, spec)
    injector = FaultInjector(
        engine,
        FaultPlan(
            seed=fault_seed,
            deaths=1,
            stuck_chips=2,
            stuck=FaultSpec(0.02, 0.01),
            transient_rate=0.05,
            latency_rate=0.02,
            horizon=16,
        ),
    )
    schedule = injector.install()
    outputs = engine.run_trace(workload, trace, ids=ids)
    return engine, schedule, outputs


def main() -> None:
    train, test = synthetic_mnist(train_per_class=16, test_per_class=8)
    init.seed(1)
    model = build_model("lenet5-mini")
    convert_to_quantized(model, QConfig.from_notation("A4W2"))
    calibrate_model(model, batch_iterator(train, 32, shuffle=False), max_batches=4)
    model.eval()

    spec = VariabilitySpec.mixed(0.2, WeightProportionalVariance())
    reps = 1 + (REQUESTS - 1) // len(test)
    workload = np.concatenate([test.images] * reps)[:REQUESTS]
    ids = [f"r{i:05d}" for i in range(REQUESTS)]
    trace = BurstyTrace(rate=2.0, burst_rate=24.0, period=16, duty=0.25, seed=3)

    print(f"{NUM_CHIPS}-chip fleet, {REQUESTS} requests, default chaos mix")
    engine, schedule, outputs = chaos_run(model, spec, workload, ids, trace)

    print("\nfault schedule (compiled at install, fired on tick):")
    for event in schedule:
        print(f"  t={event.tick:<3d} {event.kind:<9s} {event.chip_id}")

    faults = engine.telemetry.report()["faults"]
    served = [rid for rid in ids if rid in outputs]
    print(f"\nserved {len(served)}/{REQUESTS}  goodput {faults['goodput']:.3f}  "
          f"retries {faults['retries']}  hedges {faults['hedges']}")
    print(f"faults by kind: {faults['by_kind']}")
    for letter in engine.dead_letters.values():
        print(f"  dead letter {letter.id}: {letter.reason} "
              f"(last cause {letter.cause}, {letter.attempts} attempts)")
    for move in faults["replacements"]:
        print(f"  replacement t={move['time']:.0f}: "
              f"{move['old']} -> {move['new']}")
    print("health transitions:")
    for hop in faults["health_transitions"]:
        print(f"  t={hop['tick']:<3d} {hop['chip']:<10s} "
              f"{hop['source']} -> {hop['target']}  ({hop['reason']})")
    print("end-of-run health: " + "  ".join(
        f"{state}={len(cids)}" for state, cids in engine.health.summary().items()))

    # Same engine seed + fault seed + trace => the same run, bit for bit.
    engine2, schedule2, outputs2 = chaos_run(model, spec, workload, ids, trace)
    identical = (
        schedule == schedule2
        and set(engine.dead_letters) == set(engine2.dead_letters)
        and set(outputs) == set(outputs2)
        and all(np.array_equal(outputs[rid], outputs2[rid]) for rid in outputs)
    )
    print(f"\nre-run with identical seeds: "
          f"{'bit-identical' if identical else 'DIVERGED'}")

    print("\ntakeaway: faults stop being exceptional — deaths retire into "
          "deterministic spares, stuck cells stay stuck through reprogramming, "
          "transients are retried and hedged away, and whatever cannot be "
          "served is a recorded dead letter, not a crash.")


if __name__ == "__main__":
    main()
