"""Benchmark of the PIM fleet serving simulator: one command per workload.

Run from the repository root::

    python3 perfbench/run.py --workload steady-fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload drift-lifetime --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload circuit-chaos --seed 1 --seconds 20 --repeat 5

Each run starts ``client.py`` in a fresh single-process interpreter with
BLAS pinned to one thread, checks its outputs, writes a host record, and
prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  It exits
non-zero when a check fails, and without a result when the workload
process fails.  ``--repeat N`` runs the workload N times (seeds
``seed, seed + step, ...``) and prints each metric's median, quartiles
and IQR/median next to the bound ``BENCHMARK.json`` fixes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from quantiles import spread
from scenarios import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
#: The workload process must finish well inside the 180 s run limit.
CHILD_TIMEOUT_S = 170
#: The workload process's environment.  One BLAS thread: the default two
#: keep the host's second core busy.  Fixed glibc malloc thresholds: with
#: the default adaptive mmap threshold every large temporary (im2col
#: patches, crossbar drive matrices) is mapped and unmapped per call until
#: the threshold adapts, so the same pass paid 860k page faults and 1.6 s
#: of system time early in a process and 70k and 0.2 s five passes later.
#: Fixed thresholds keep large blocks in the heap from the first pass on.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}

#: ``(name, unit, better)`` of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("sps", "req/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy", "fraction", "higher"),
    ("served_share", "fraction", "higher"),
    ("energy_uj_per_request", "uJ", "lower"),
    ("wait_ticks_p99", "ticks", "lower"),
)


def _per_layer():
    """``(name, unit, better)`` of the per-layer metrics (``--trace 1``)."""
    counts_lower = (
        "lifecycle.advance.calls", "lifecycle.probe.calls", "lifecycle.recalibrate.calls",
        "cache.programs", "chip.refresh.calls", "chip.spill.calls",
        "variability.epsilon_for.calls", "fused.forward.calls", "fused.build.calls",
        "dispatch.forward.calls", "nn.im2col.calls", "pim.crossbar_mvm.calls",
        "engine.step.calls", "engine.queue_depth.max", "faults.attempts",
        "faults.failures", "faults.hedges", "faults.replacements", "training.epochs",
        "cache.lookups", "trace.spans",
    )
    seconds = (
        "lifecycle.advance.s", "lifecycle.advance.self_s", "lifecycle.probe.s",
        "lifecycle.recalibrate.s", "lifecycle.install.s", "backend.program.s",
        "chip.refresh.s", "variability.epsilon_for.s", "fused.forward.s", "fused.build.s",
        "dispatch.forward.s", "nn.im2col.s", "layer.conv.self_s", "layer.linear.self_s",
        "layer.pool.self_s", "layer.act.self_s", "pim.dac.s", "pim.crossbar_mvm.self_s",
        "pim.adc.s", "layer.circuit.self_s", "engine.step.self_s", "engine.submit.self_s",
        "batcher.poll.self_s", "scheduler.choose.self_s", "telemetry.record.self_s",
        "training.train.s", "engine.warm_up.s",
    )
    metrics = [(name, "count", "lower") for name in counts_lower]
    metrics += [(name, "s", "lower") for name in seconds]
    metrics += [
        ("lifecycle.probe.rows", "rows", "lower"),
        ("fused.forward.rows", "rows", "higher"),
        ("fused.forward.batches", "count", "higher"),
        ("dispatch.forward.rows", "rows", "lower"),
        ("nn.im2col.bytes", "bytes", "lower"),
        ("lifecycle.advance.share", "fraction", "lower"),
        ("lifecycle.trigger_ratio", "fraction", "lower"),
        ("cache.hit_ratio", "fraction", "higher"),
        ("dispatch.fused_share", "fraction", "higher"),
        ("dispatch.success_ratio", "fraction", "higher"),
        ("host.ref_ms", "ms", "lower"),
        ("host.speed_factor", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.coverage", "fraction", "higher"),
    ]
    return tuple(sorted(metrics))


PER_LAYER = _per_layer()


def benchmark_file() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def nominal_ref_ms() -> float:
    """The nominal reference-kernel time, fixed once in BENCHMARK.json's command."""
    command = benchmark_file()["command"]
    return float(command[command.index("--ref-ms") + 1])


def git_sha() -> str | None:
    """The checkout's commit, or None outside a git work tree.

    The ceiling stops git from searching directories above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_once(workload: str, seed: int, seconds: float, trace: int, ref_ms: float) -> dict:
    """Run the workload process once; returns its result plus the checks.

    Raises ``RuntimeError`` when the process fails or prints no result.
    """
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    argv = [
        sys.executable, str(HERE / "client.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--ref-ms", str(ref_ms),
    ]
    if trace:
        argv += ["--spans", str(OUT / f"{stem}.spans.jsonl")]
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **PINNED_ENV)
    started = time.perf_counter()
    try:
        done = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as expired:
        raise RuntimeError(f"workload process exceeded {CHILD_TIMEOUT_S} s") from expired
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"workload process exited with {done.returncode}:\n{done.stderr[-4000:]}"
        )
    result = json.loads(lines[-1])
    result["host"].update(
        argv=sys.argv, workload_argv=argv[1:], git_sha=git_sha(),
        wall_s=time.perf_counter() - started,
    )
    wanted = PER_LAYER if trace else END_TO_END
    missing = [name for name, _, _ in wanted if name not in result["metrics"]]
    result["checks"]["all_metrics_reported"] = not missing
    result["correct"] = all(result["checks"].values())
    result["metric_units"] = {name: unit for name, unit, _ in wanted}
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def final_line(result: dict) -> dict:
    """The last stdout line: exactly correct, attempted, failed and metrics."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in result["metric_units"].items()
            if name in result["metrics"]
        },
    }


def repeat(args, ref_ms: float) -> int:
    """Run one workload N times and print each metric's spread."""
    bounds = {m["name"]: m.get("bound") for m in benchmark_file()["end_to_end"]}
    runs = []
    for index in range(args.repeat):
        seed = args.seed + index * args.seed_step
        result = run_once(args.workload, seed, args.seconds, args.trace, ref_ms)
        runs.append(result)
        print(
            f"run {index + 1}/{args.repeat} seed {seed}: correct={result['correct']} "
            + " ".join(f"{k}={v:.6g}" for k, v in result["metrics"].items()),
            flush=True,
        )
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    steady = True
    for name in runs[0]["metric_units"]:
        stats = spread([run["metrics"][name] for run in runs])
        bound = bounds.get(name) if not args.trace else None
        flag = ""
        if bound is not None and name != "setup_s" and stats["iqr_over_median"] > bound / 3:
            flag, steady = "  > bound/3", False
        print(
            f"{name:28s} {stats['median']:12.6g} {stats['q1']:12.6g} {stats['q3']:12.6g} "
            f"{stats['iqr_over_median']:8.4f} {bound if bound is not None else '':>6}{flag}"
        )
    correct = all(run["correct"] for run in runs)
    if args.seed_step == 0:
        identical = len({(tuple(run["digests"]), tuple(run["classes"])) for run in runs}) == 1
        print(f"same seed, identical digest and predictions: {identical}")
        correct = correct and identical
    print(f"all runs correct: {correct}; every spread within a third of its bound: {steady}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ref-ms", type=float, default=None,
                        help="nominal reference-kernel time (default: BENCHMARK.json's)")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N times and print each metric's spread")
    parser.add_argument("--seed-step", type=int, default=1,
                        help="seed increment between repeats (0 repeats one seed)")
    args = parser.parse_args(argv)
    ref_ms = args.ref_ms if args.ref_ms is not None else nominal_ref_ms()
    try:
        if args.repeat:
            return repeat(args, ref_ms)
        result = run_once(args.workload, args.seed, args.seconds, args.trace, ref_ms)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    failed = [name for name, ok in result["checks"].items() if not ok]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
    print("host " + json.dumps(result["host"]))
    print(json.dumps(final_line(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
