"""Drift-aware fleet serving: chips age, get probed, and recalibrate live.

``examples/serving_fleet.py`` stops at a static fleet; this example runs the
full lifecycle story the paper's footnote 2 points at — conductance drift as
just another correlated variation that self-tuning (plus reprogramming)
chases over a chip's service life:

1. train QAVAT and calibrate as usual;
2. stand up a *mixed-technology* fleet (noisy multi-level RRAM next to
   tighter Flash — each technology sampled from the variability spec its
   device physics implies);
3. wrap the fleet in a :class:`~repro.serve.ChipLifecycle`: every tick of
   serving advances a virtual aging clock, a quality monitor probes each
   chip against its time-zero accuracy, and chips that sag below the floor
   are recalibrated — cells rewritten, GTM re-measured, and only that
   chip's cached mapping invalidated;
4. replay the same bursty arrival trace under round-robin and drift-aware
   scheduling and compare end-of-trace accuracy;
5. print the drift-aware run's per-stage breakdown
   (``engine.obs.breakdown()``) — where a request's time actually went,
   probes and recalibrations included.

Run:  python examples/lifecycle_serving.py
"""

import numpy as np

from repro import QConfig, VariabilitySpec, evaluate_clean, train_qavat
from repro.datasets import batch_source, synthetic_mnist
from repro.eval.metrics import top1_accuracy
from repro.models import build_model
from repro.nn import init
from repro.serve import (
    BurstyTrace,
    ChipLifecycle,
    FleetSpec,
    InferenceEngine,
    LifecycleConfig,
    ServeConfig,
)
from repro.variability import WeightProportionalVariance

REQUESTS = 160
SIGMA_TRAIN = 0.3


def main() -> None:
    train, test = synthetic_mnist(train_per_class=32, test_per_class=8)

    init.seed(1)
    model = build_model("lenet5-mini")
    train_spec = VariabilitySpec.within_only(SIGMA_TRAIN, WeightProportionalVariance())
    train_qavat(
        model,
        batch_source(train, 32, seed=0),
        QConfig.from_notation("A4W2"),
        train_spec,
        epochs=10,
        lr=0.02,
        float_pretrain_epochs=5,
        n_variation_samples=4,
    )
    model.eval()
    print(f"clean accuracy: {100 * evaluate_clean(model, test):.1f}%")

    fleet = FleetSpec.parse("rram:2,flash:2")
    reps = 1 + (REQUESTS - 1) // len(test)
    workload = np.concatenate([test.images] * reps)[:REQUESTS]
    labels = np.concatenate([test.labels] * reps)[:REQUESTS]
    ids = [f"r{i:05d}" for i in range(REQUESTS)]
    trace = BurstyTrace(rate=1.0, burst_rate=16.0, period=16, duty=0.25, seed=3)

    print(f"\nmixed fleet ({fleet.num_chips} chips), {REQUESTS} requests, "
          "bursty arrivals, aging drift:")
    for policy in ("round-robin", "drift-aware"):
        engine = InferenceEngine(
            model,
            VariabilitySpec.null(),  # per-technology specs come from the fleet
            config=ServeConfig(max_batch=16, max_wait=2, policy=policy, seed=7),
            fleet_spec=fleet,
        )
        lifecycle = ChipLifecycle(
            engine,
            test,
            LifecycleConfig(nu=0.1, probe_every=5.0, accuracy_floor=0.9, seed=7),
        )
        baseline = lifecycle.install()
        outputs = engine.run_trace(workload, trace, ids=ids, lifecycle=lifecycle)
        logits = np.stack([outputs[rid] for rid in ids])
        correct = logits.argmax(axis=1) == labels
        tail = REQUESTS // 4
        print(f"\n  policy={policy}")
        print("    t=0 quality:  " + "  ".join(
            f"{cid}={100 * q:.0f}%" for cid, q in sorted(baseline.items())))
        print("    chip load:    " + "  ".join(
            f"{cid}={n}"
            for cid, n in sorted(engine.telemetry.per_chip_samples.items())))
        print(f"    recalibrations: {len(lifecycle.events)} "
              + " ".join(f"[t={e.time:.0f} {e.chip_id} "
                         f"{100 * e.quality_before:.0f}->{100 * e.quality_after:.0f}%]"
                         for e in lifecycle.events))
        print(f"    served accuracy {100 * top1_accuracy(logits, labels):.1f}%  "
              f"end-of-trace {100 * correct[-tail:].mean():.1f}%  "
              f"cache invalidations {engine.cache.stats.invalidations}")
        latency = engine.telemetry.request_seconds
        print(f"    request latency ms: p50 {1e3 * latency.quantile(0.5):.2f}  "
              f"p95 {1e3 * latency.quantile(0.95):.2f}  "
              f"p99 {1e3 * latency.quantile(0.99):.2f}")
        last_engine = engine

    # The drift-aware run's stage meters: every enqueue, batch cut,
    # dispatch, probe, and recalibration, counted exactly.
    print("\nper-stage breakdown (drift-aware run):")
    breakdown = last_engine.obs.breakdown()
    for name in sorted(breakdown, key=lambda n: -breakdown[n]["total_s"]):
        stats = breakdown[name]
        print(f"    {name:<22s} x{stats['count']:<5d} "
              f"total {1e3 * stats['total_s']:8.2f} ms  "
              f"mean {1e3 * stats['mean_s']:7.3f} ms")

    print("\ntakeaway: the lifecycle layer turns drift from a plotted curve "
          "into an operational event stream — quality sags, a probe catches it, "
          "recalibration rewrites one chip and surgically replaces its cached "
          "mapping, and drift-aware scheduling keeps traffic on trustworthy "
          "chips in between.")


if __name__ == "__main__":
    main()
