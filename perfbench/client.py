"""One workload process: set up, serve, measure, and print one JSON line.

``run.py`` starts this file in a fresh interpreter with BLAS pinned to
one thread; it acts as the load generator.  A run is a sequence of
passes, each a full user session: train the model, build the fleet,
warm it up, install the lifecycle or the fault plan (set-up), then serve
a fixed-size seeded request schedule until the queue is empty (the timed
phase).  Per tick the client submits the requests due, advances the
lifecycle, then steps the engine: ``InferenceEngine.run_trace``'s order.
Pass ``k`` of a run with seed ``s`` draws its fleet, drift, arrivals and
faults from seed ``s * PASS_STRIDE + k``, so a run pools several
independent sessions.

``--trace 0`` repeats passes until ``--seconds`` have passed and reports
the end-to-end metrics.  ``--trace 1`` runs pass 0 untraced, installs the
layer wrappers of :mod:`spantrace`, runs passes 0, 1, ... traced until the
time is up, and reports the per-layer metrics.  Every timing is
host-corrected (:mod:`hostclock`).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import numpy as np

import hostclock
import quantiles
import scenarios
import spantrace

#: Served accuracy must reach this: five times the 10-class chance level,
#: so an untrained or degenerate model cannot pass.
ACCURACY_FLOOR = 0.5
#: Share of the timed phase the top-level spans must cover.
COVERAGE_FLOOR = 0.95
#: Passes per run at least: set-up time is a median of this many set-ups,
#: and the deterministic metrics pool exactly this many sessions.
MIN_PASSES = 3
#: Seeds ``s * PASS_STRIDE + k`` of distinct runs and passes never collide.
PASS_STRIDE = 1000


def run_pass(name: str, seed: int, clock: hostclock.HostClock, tracer=None) -> dict:
    """One set-up plus one serving session; returns raw timestamps and outputs."""
    # The previous session's engine sits in reference cycles; free it now
    # so peak RSS is one session's, not a function of the pass count.
    gc.collect()
    clock.sample()
    setup_start = clock.now()
    model, test, eval_spec = scenarios.train_model()
    clock.maybe_sample()
    session = scenarios.build_session(name, seed, model, test, eval_spec)
    engine, lifecycle = session.engine, session.lifecycle
    if tracer is not None:
        tracer.tick = lambda: engine.now
    # The load generator's own state is built before the timed phase.
    # Payloads index the test set instead of copying it, so RSS measures
    # the program rather than the generator.
    images, labels = test.images, test.labels
    schedule, deadlines = session.schedule, session.deadlines
    count = len(schedule)
    ids = [f"r{i:06d}" for i in range(count)]
    position = {rid: i for i, rid in enumerate(ids)}
    due = np.zeros(count)
    done = np.zeros(count)
    arrival = np.zeros(count, dtype=np.int64)
    completed = np.full(count, -1, dtype=np.int64)
    predicted = np.full(count, -1, dtype=np.int64)
    queue_max = 0
    offset = engine.now
    cursor = 0
    now = clock.now
    clock.sample()
    first_submit = now()
    while cursor < count or engine.queue_depth:
        clock.maybe_sample()
        tick_start = now()
        tick = engine.now - offset
        while cursor < count and schedule[cursor] <= tick:
            deadline = deadlines[cursor]
            engine.submit(
                images[cursor % len(labels)],
                ids[cursor],
                deadline=None if deadline is None else offset + int(deadline),
            )
            due[cursor] = tick_start
            arrival[cursor] = engine.now
            cursor += 1
        queue_max = max(queue_max, engine.queue_depth)
        if lifecycle is not None:
            lifecycle.advance()
        served = engine.step()
        tick_end = now()
        for request in served:
            i = position[request.id]
            done[i] = tick_end
            completed[i] = request.completed_tick
            predicted[i] = int(np.argmax(request.output))
    last_served = now()
    clock.sample()
    engine.close()

    mask = completed >= 0
    truth = labels[np.arange(count) % len(labels)]
    telemetry = engine.telemetry
    record = {
        "setup": (setup_start, first_submit),
        "serve": (first_submit, last_served),
        "latency": (due[mask], done[mask]),
        "submitted": count,
        "served": int(mask.sum()),
        "dead_lettered": len(engine.dead_letters),
        "correct": int((predicted[mask] == truth[mask]).sum()),
        "energy_uj": float(telemetry.total_energy_uj),
        "wait_ticks": completed[mask] - arrival[mask],
        "digest": telemetry.digest(),
        "classes": hashlib.sha256(predicted.tobytes()).hexdigest(),
        "queue_max": queue_max,
        "batches": telemetry.batches,
        "hedges": telemetry.hedges,
        "replacements": len(engine.retired),
    }
    return record


def sample_inside_long_calls(clock: hostclock.HostClock) -> None:
    """Let the host sampler run between training epochs and between probes.

    Training and a lifecycle probe sweep are each one call into the
    program, lasting seconds; without these hooks they would be corrected
    only by the samples around them.  The samples' own time is excluded
    from every corrected measurement.
    """
    from repro.serve import engine
    from repro.training import loop, qavat

    for owner, attr in (
        (loop, "train_epoch"),
        (qavat.QavatTrainer, "train_epoch"),
        (engine.InferenceEngine, "probe_chip"),
    ):
        original = getattr(owner, attr)

        def hooked(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            clock.maybe_sample()
            return result

        setattr(owner, attr, hooked)


def deterministic(passes: list[dict]) -> dict:
    """The end-to-end metrics that are a pure function of the passes' seeds."""
    served = sum(p["served"] for p in passes)
    return {
        "accuracy": sum(p["correct"] for p in passes) / served,
        "served_share": served / sum(p["submitted"] for p in passes),
        "energy_uj_per_request": sum(p["energy_uj"] for p in passes) / served,
        "wait_ticks_p99": quantiles.percentile(
            np.concatenate([p["wait_ticks"] for p in passes]), 0.99
        ),
    }


def identity(record: dict) -> tuple:
    """What must repeat exactly for a seed: digest, predictions, det. metrics."""
    return record["digest"], record["classes"], tuple(sorted(deterministic([record]).items()))


def end_to_end(passes: list[dict], clock: hostclock.HostClock) -> tuple[dict, dict]:
    """Corrected end-to-end metrics and their raw twins."""
    def summarize(convert):
        serve = sum(float(np.diff(convert(p["serve"]))[0]) for p in passes)
        setup = [float(np.diff(convert(p["setup"]))[0]) for p in passes]
        latency = np.concatenate([convert(p["latency"][1]) - convert(p["latency"][0])
                                  for p in passes])
        return {
            "sps": sum(p["served"] for p in passes) / serve,
            "latency_p50_ms": 1e3 * quantiles.percentile(latency, 0.50),
            "latency_p99_ms": 1e3 * quantiles.percentile(latency, 0.99),
            "latency_samples": int(latency.size),
            "setup_s": statistics.median(setup),
            "serve_s": serve,
        }

    corrected = summarize(clock.corrected)
    raw = summarize(lambda times: np.asarray(times, dtype=np.float64))
    metrics = {
        "sps": corrected["sps"],
        "latency_p50_ms": corrected["latency_p50_ms"],
        "latency_p99_ms": corrected["latency_p99_ms"],
        "setup_s": corrected["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **deterministic(passes[:MIN_PASSES]),
    }
    return metrics, {"corrected": corrected, "raw": raw}


def per_layer(record: dict, spans: dict, clock: hostclock.HostClock) -> dict:
    """The per-layer metrics of one traced pass."""
    starts = clock.corrected(spans["starts"])
    ends = clock.corrected(spans["ends"])
    setup = clock.corrected(record["setup"])
    serve = clock.corrected(record["serve"])
    columns = (spans["names"], spans["parents"], starts, ends, spans["values"], spans["values2"])
    timed = spantrace.aggregate(*columns, window=tuple(serve))
    built = spantrace.aggregate(*columns, window=tuple(setup))
    timed_s = float(serve[1] - serve[0])
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0.0, "value2": 0.0, "top_s": 0.0}

    def t(name):
        return timed.get(name, empty)

    probes = t("lifecycle.probe")["calls"]
    lookups = t("cache.lookup")["calls"]
    programs = t("backend.program")["calls"]
    failures = t("faults.attempt")["value"]
    batches = record["batches"]
    return {
        "lifecycle.advance.calls": t("lifecycle.advance")["calls"],
        "lifecycle.advance.s": t("lifecycle.advance")["s"],
        "lifecycle.advance.self_s": t("lifecycle.advance")["self_s"],
        "lifecycle.advance.share": t("lifecycle.advance")["s"] / timed_s,
        "lifecycle.probe.calls": probes,
        "lifecycle.probe.rows": t("lifecycle.probe")["value"],
        "lifecycle.probe.s": t("lifecycle.probe")["s"],
        "lifecycle.recalibrate.calls": t("lifecycle.recalibrate")["calls"],
        "lifecycle.recalibrate.s": t("lifecycle.recalibrate")["s"],
        "lifecycle.trigger_ratio": (
            t("lifecycle.recalibrate")["calls"] / probes if probes else 0.0
        ),
        "lifecycle.install.s": built.get("lifecycle.install", empty)["s"],
        "cache.lookups": lookups,
        "cache.programs": programs,
        "cache.hit_ratio": (lookups - programs) / lookups if lookups else 0.0,
        "backend.program.s": t("backend.program")["s"],
        "chip.refresh.calls": t("chip.refresh")["calls"],
        "chip.refresh.s": t("chip.refresh")["s"],
        "chip.spill.calls": t("chip.spill")["calls"],
        "variability.epsilon_for.calls": t("variability.epsilon_for")["calls"],
        "variability.epsilon_for.s": t("variability.epsilon_for")["s"],
        "fused.forward.calls": t("fused.forward")["calls"],
        "fused.forward.batches": t("fused.forward")["value2"],
        "fused.forward.rows": t("fused.forward")["value"],
        "fused.forward.s": t("fused.forward")["s"],
        "fused.build.calls": t("fused.build")["calls"],
        "fused.build.s": t("fused.build")["s"],
        "dispatch.fused_share": t("fused.forward")["value2"] / batches if batches else 0.0,
        "dispatch.forward.calls": t("chip.forward")["calls"],
        "dispatch.forward.rows": t("chip.forward")["value"],
        "dispatch.forward.s": t("chip.forward")["s"],
        "nn.im2col.calls": t("nn.im2col")["calls"],
        "nn.im2col.bytes": t("nn.im2col")["value"],
        "nn.im2col.s": t("nn.im2col")["s"],
        "layer.conv.self_s": t("layer.conv")["self_s"],
        "layer.linear.self_s": t("layer.linear")["self_s"],
        "layer.pool.self_s": t("layer.pool")["self_s"],
        "layer.act.self_s": t("layer.act")["self_s"],
        "pim.dac.s": t("pim.dac")["s"],
        "pim.crossbar_mvm.calls": t("pim.crossbar_mvm")["calls"],
        "pim.crossbar_mvm.self_s": t("pim.crossbar_mvm")["self_s"],
        "pim.adc.s": t("pim.adc")["s"],
        "layer.circuit.self_s": t("layer.circuit")["self_s"],
        "engine.step.calls": t("engine.step")["calls"],
        "engine.step.self_s": t("engine.step")["self_s"],
        "engine.submit.self_s": t("engine.submit")["self_s"],
        "engine.queue_depth.max": record["queue_max"],
        "batcher.poll.self_s": t("batcher.poll")["self_s"],
        "scheduler.choose.self_s": t("scheduler.choose")["self_s"],
        "telemetry.record.self_s": t("telemetry.record")["self_s"],
        "faults.attempts": batches + failures,
        "faults.failures": failures,
        "dispatch.success_ratio": batches / (batches + failures) if batches else 0.0,
        "faults.hedges": record["hedges"],
        "faults.replacements": record["replacements"],
        "training.train.s": built.get("training.train", empty)["s"],
        "training.epochs": built.get("training.epoch", empty)["calls"],
        "engine.warm_up.s": built.get("engine.warm_up", empty)["s"],
        "trace.coverage": sum(entry["top_s"] for entry in timed.values()) / timed_s,
        "trace.spans": len(spans["names"]),
    }


def host_record(seed: int) -> dict:
    """Everything needed to re-run a number: interpreter, BLAS, threads, cores."""
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # NumPy older than 1.25 prints instead of returning
        pass
    return {
        "argv": sys.argv,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "env": {
            key: os.environ.get(key)
            for key in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
            )
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ref-ms", type=float, required=True)
    parser.add_argument("--spans", type=Path, default=None, help="JSONL file for the spans")
    args = parser.parse_args(argv)

    # Import the program before timing: set-up starts at the first call.
    import repro.experiments.runner  # noqa: F401
    import repro.serve  # noqa: F401

    clock = hostclock.HostClock(args.ref_ms / 1e3)
    sample_inside_long_calls(clock)
    began = clock.now()
    checks = {}
    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    def session(index: int, tracer=None) -> dict:
        return run_pass(args.workload, args.seed * PASS_STRIDE + index, clock, tracer)

    def time_left() -> bool:
        return clock.now() - began < args.seconds

    if args.trace == 0:
        passes = []
        while len(passes) < MIN_PASSES or time_left():
            passes.append(session(len(passes)))
        metrics, timings = end_to_end(passes, clock)
        checked = passes
        out["timings"] = timings
        out["pass_times"] = [[*p["setup"], p["serve"][1], p["served"]] for p in passes]
    else:
        untraced = session(0)
        untraced_sps = untraced["served"] / float(np.diff(clock.corrected(untraced["serve"]))[0])
        tracer = spantrace.Tracer(clock=clock.now)
        spantrace.install(tracer)
        passes, layer_passes, traced_sps = [], [], []
        while not passes or time_left():
            tracer.reset()
            record = session(len(passes), tracer=tracer)
            spans = {
                "names": tracer.names, "parents": tracer.parents, "starts": tracer.starts,
                "ends": tracer.ends, "values": tracer.values, "values2": tracer.values2,
            }
            passes.append(record)
            layer_passes.append(per_layer(record, spans, clock))
            traced_sps.append(
                record["served"] / float(np.diff(clock.corrected(record["serve"]))[0])
            )
        checks["traced_matches_untraced"] = identity(passes[0]) == identity(untraced)
        metrics = {
            name: statistics.median(p[name] for p in layer_passes) for name in layer_passes[0]
        }
        metrics["trace.overhead"] = untraced_sps / traced_sps[0] - 1.0
        checks["top_level_coverage"] = metrics["trace.coverage"] >= COVERAGE_FLOOR
        for metric, lowest, highest in scenarios.WORKLOADS[args.workload].expect:
            checks[f"expect:{metric}"] = lowest <= metrics[metric] <= highest
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(
                args.spans, clock.corrected(tracer.starts), clock.corrected(tracer.ends)
            )
        tracer.restore()
        checked = [untraced, *passes]

    references = clock.reference_times()
    metrics["host.ref_ms"] = 1e3 * float(np.median(references))
    metrics["host.speed_factor"] = clock.nominal_s / float(np.median(references))
    checks["accounting"] = all(
        p["served"] + p["dead_lettered"] == p["submitted"] for p in checked
    )
    first = deterministic(checked[:1])
    checks["accuracy_above_chance"] = first["accuracy"] >= ACCURACY_FLOOR
    out.update(
        metrics={name: float(value) for name, value in metrics.items()},
        checks={name: bool(ok) for name, ok in checks.items()},
        passes=len(checked),
        attempted=sum(p["submitted"] for p in checked),
        failed=sum(p["dead_lettered"] for p in checked),
        digests=[p["digest"] for p in checked],
        classes=[p["classes"] for p in checked],
        det=first,
        host=host_record(args.seed),
        reference_ms={
            "median": metrics["host.ref_ms"],
            "min": 1e3 * float(references.min()),
            "max": 1e3 * float(references.max()),
            "samples": int(references.size),
            "parts_median": [1e3 * float(v) for v in np.median(np.array(clock.parts), axis=0)],
        },
        samples=[[*sample, *parts] for sample, parts in zip(clock.samples, clock.parts)],
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
