"""Command-line interface: train/evaluate paper configurations.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run --method qavat --model lenet5 \\
        --notation A4W2 --sigma 0.3 --scenario within --scale tiny
    python -m repro.experiments run --method qavat --model vgg11 \\
        --notation A8W4 --sigma 0.3 --scenario mixed --self-tuning global
    python -m repro.experiments compare --model lenet5 --notation A2W2 \\
        --sigma 0.5 --scenario within
    python -m repro.experiments serve-bench --model lenet5 --num-chips 4 \\
        --max-batch 32 --policy least-loaded --skip-training
    python -m repro.experiments serve-bench --drift --policy accuracy-weighted \\
        --fleet rram:2,flash:2 --trace bursty --skip-training
    python -m repro.experiments serve-bench --backend circuit --num-chips 2 \\
        --requests 48 --skip-training
    python -m repro.experiments serve-bench --chaos --num-chips 16 \\
        --requests 256 --skip-training
    python -m repro.experiments serve-bench --slo --slo-ticks 12 \\
        --policy latency-aware --requests 128 --skip-training
    python -m repro.experiments lifetime-bench --fleet rram:2,flash:2 \\
        --requests 192 --skip-training

``run`` trains one method and prints the Monte Carlo robustness summary;
``compare`` runs QAVAT vs QAT vs PTQ-VAT on one configuration (one column
of Table I); ``serve-bench`` drives a simulated chip fleet through the
:mod:`repro.serve` engine and reports batched-vs-sequential throughput —
with ``--drift`` the fleet ages under a drift process and the chosen
policy is raced against round-robin on end-of-trace accuracy, and with
``--chaos`` a deterministic fault schedule (chip deaths, stuck-at maps,
transient errors) hits the fleet mid-trace and the bench reports goodput
under faults plus a bit-reproducibility check, and with ``--slo`` every
request carries a deadline and policies race on SLO attainment under a
reproducibility + violation-ceiling gate;
``lifetime-bench`` runs the full lifecycle story (drift, probes,
recalibrations) across several policies and prints the drift/recovery
curves.  Results are also appended as JSON under ``--results-dir``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.backends import BACKENDS
from repro.eval.statistics import summarize
from repro.experiments.configs import EXPERIMENT_SCALES, MethodConfig, WORKLOADS
from repro.experiments.runner import METHODS, run_method
from repro.experiments.store import ResultStore
from repro.experiments.tables import format_table
from repro.quant.qconfig import QConfig
from repro.selftuning.tuner import SelfTuningConfig
from repro.serve.scheduler import POLICIES as SERVE_POLICIES
from repro.variability.models import variance_model_by_name
from repro.variability.sampler import VariabilitySpec


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _nonnegative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Train and evaluate QAVAT / QAT / PTQ-VAT configurations.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list models, scales, methods, scenarios")

    for name in ("run", "compare", "sweep"):
        helps = {
            "run": "train one method",
            "compare": "run all three methods on one configuration",
            "sweep": "one method across a sigma sweep (one figure panel)",
        }
        sub = commands.add_parser(name, help=helps[name])
        if name in ("run", "sweep"):
            sub.add_argument("--method", choices=METHODS, default="qavat")
        if name == "sweep":
            sub.add_argument(
                "--sigmas",
                type=float,
                nargs="+",
                default=[0.1, 0.3, 0.5],
                help="sigma_tot values to sweep",
            )
        sub.add_argument("--model", choices=sorted(WORKLOADS), default="lenet5")
        sub.add_argument("--notation", default="A4W2", help="AxWy bit widths")
        sub.add_argument("--sigma", type=float, default=0.3, help="sigma_tot")
        sub.add_argument(
            "--scenario",
            choices=("within", "mixed"),
            default="within",
            help="within-chip only, or equal within+between (paper Sec. IV)",
        )
        sub.add_argument(
            "--variance-model",
            choices=("weight-proportional", "layer-fixed"),
            default="weight-proportional",
        )
        sub.add_argument("--scale", choices=sorted(EXPERIMENT_SCALES), default="tiny")
        sub.add_argument("--samples", type=int, default=1, help="variation samples/step")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--self-tuning",
            choices=("none", "global", "layer"),
            default="none",
            help="attach a self-tuning architecture before evaluation",
        )
        sub.add_argument("--gtm-cells", type=int, default=1000)
        sub.add_argument("--ltm-columns", type=int, default=1)
        sub.add_argument(
            "--backend",
            choices=sorted(BACKENDS),
            default="fake-quant",
            help="chip-programming fidelity for the Monte Carlo evaluation "
            "(fake-quant replicas, or circuit-level PimChips)",
        )
        sub.add_argument("--results-dir", default="results")
        sub.add_argument(
            "--accuracy-spec",
            type=float,
            default=0.5,
            help="accuracy floor for the parametric-yield summary",
        )

    def add_serving_args(sub, default_policy: str) -> None:
        sub.add_argument("--model", choices=sorted(WORKLOADS), default="lenet5")
        sub.add_argument("--notation", default="A4W2", help="AxWy bit widths")
        sub.add_argument("--sigma", type=float, default=0.3, help="sigma_tot")
        sub.add_argument("--scenario", choices=("within", "mixed"), default="mixed")
        sub.add_argument(
            "--variance-model",
            choices=("weight-proportional", "layer-fixed"),
            default="weight-proportional",
        )
        sub.add_argument("--scale", choices=sorted(EXPERIMENT_SCALES), default="tiny")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--skip-training",
            action="store_true",
            help="calibrate an untrained model (throughput-only runs, seconds not minutes)",
        )
        sub.add_argument(
            "--self-tuning",
            choices=("none", "global", "layer"),
            default="none",
            help="attach self-tuning to every programmed chip mapping",
        )
        sub.add_argument("--gtm-cells", type=int, default=1000)
        sub.add_argument("--ltm-columns", type=int, default=1)
        sub.add_argument(
            "--backend",
            choices=sorted(BACKENDS),
            default="fake-quant",
            help="how fleet chips are realized: fake-quant replicas or "
            "circuit-level PimChips (DAC -> crossbar MVM -> ADC)",
        )
        sub.add_argument("--num-chips", type=_positive_int, default=4)
        sub.add_argument(
            "--fused",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="batched cross-chip dispatch (bit-identical to per-chip "
            "dispatch; --no-fused is a debugging/parity aid)",
        )
        sub.add_argument(
            "--policy", choices=sorted(SERVE_POLICIES), default=default_policy
        )
        sub.add_argument("--max-batch", type=_positive_int, default=32)
        sub.add_argument(
            "--max-wait", type=_nonnegative_int, default=4,
            help="batching deadline, ticks",
        )
        sub.add_argument("--requests", type=_positive_int, default=256)
        sub.add_argument(
            "--max-resident-chips",
            type=_positive_int,
            default=None,
            metavar="N",
            help="mapping-cache capacity: at most N programmed chips stay "
            "resident, and evicted chips spill and re-realize deterministically "
            "from their seeds (default: the whole fleet)",
        )
        sub.add_argument(
            "--probe-k", type=_positive_int, default=1, help="top-k of the quality probe"
        )
        sub.add_argument(
            "--fleet",
            default=None,
            help="mixed-technology fleet, e.g. 'rram:2,flash:2' "
            "(overrides --num-chips/--sigma/--variance-model)",
        )
        sub.add_argument(
            "--trace",
            choices=("uniform", "poisson", "bursty"),
            default=None,
            help="arrival trace feeding the micro-batcher (default: all at tick 0)",
        )
        sub.add_argument(
            "--trace-rate", type=float, default=8.0, help="mean arrivals per tick"
        )
        sub.add_argument(
            "--drift-kind", choices=("aging", "temperature"), default="aging"
        )
        sub.add_argument(
            "--drift-nu", type=float, default=0.1, help="aging drift coefficient"
        )
        sub.add_argument(
            "--probe-every", type=float, default=8.0,
            help="virtual time between quality probes",
        )
        sub.add_argument(
            "--accuracy-floor", type=float, default=0.85,
            help="recalibrate when quality falls below floor x t=0 quality",
        )
        sub.add_argument(
            "--dt", type=float, default=1.0, help="virtual drift time per tick"
        )
        sub.add_argument("--results-dir", default="results")
        sub.add_argument(
            "--bench-json",
            default=None,
            metavar="PATH",
            help="append this run to a schema-versioned perf-trajectory file "
            "(e.g. BENCH_serving.json); see repro.obs.BenchRecorder",
        )

    serve = commands.add_parser(
        "serve-bench",
        help="benchmark batched fleet serving against sequential inference",
    )
    add_serving_args(serve, default_policy="round-robin")
    serve.add_argument(
        "--drift",
        action="store_true",
        help="age the fleet while it serves; race --policy against round-robin "
        "on end-of-trace accuracy (implies --fleet rram:2,flash:2 and "
        "--trace uniform unless given)",
    )
    serve.add_argument(
        "--chaos",
        action="store_true",
        help="inject a deterministic fault schedule (chip deaths, stuck-at "
        "maps, transient errors) while serving and report goodput under "
        "faults; the run is executed twice to assert bit-reproducibility",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the chaos schedule and hazard stream (--chaos)",
    )
    serve.add_argument(
        "--transient-rate", type=float, default=0.05,
        help="per-dispatch-attempt transient failure probability (--chaos)",
    )
    serve.add_argument(
        "--latency-rate", type=float, default=0.0,
        help="per-dispatch-attempt latency-spike probability (--chaos)",
    )
    serve.add_argument(
        "--deaths", type=_nonnegative_int, default=1,
        help="hard chip deaths scheduled over the fault horizon (--chaos)",
    )
    serve.add_argument(
        "--stuck-chips", type=_nonnegative_int, default=2,
        help="chips receiving a stuck-at fault map (--chaos)",
    )
    serve.add_argument(
        "--fault-horizon", type=_positive_int, default=16,
        help="ticks over which scheduled fault events land (--chaos)",
    )
    serve.add_argument(
        "--goodput-floor", type=float, default=0.95,
        help="exit non-zero when served/(served+dead-lettered) falls below "
        "this fraction (--chaos)",
    )
    serve.add_argument(
        "--slo",
        action="store_true",
        help="deadline-bearing workload: every request carries an "
        "arrival+--slo-ticks deadline; races --policy against "
        "latency-aware and round-robin on SLO attainment, runs the best "
        "policy twice to assert bit-reproducibility, and gates on "
        "--slo-ceiling",
    )
    serve.add_argument(
        "--slo-ticks", type=_positive_int, default=12,
        help="per-request deadline budget in ticks from arrival (--slo)",
    )
    serve.add_argument(
        "--slo-ceiling", type=float, default=0.15,
        help="exit non-zero when the best policy's SLO-violation fraction "
        "exceeds this ceiling (--slo)",
    )

    lifetime = commands.add_parser(
        "lifetime-bench",
        help="drift/probe/recalibrate lifecycle across scheduling policies",
    )
    add_serving_args(lifetime, default_policy="drift-aware")
    lifetime.add_argument(
        "--policies",
        nargs="+",
        choices=sorted(SERVE_POLICIES),
        default=["round-robin", "accuracy-weighted", "drift-aware"],
        help="policies to race over the same drifting fleet",
    )
    return parser


def _specs(args) -> tuple[VariabilitySpec, VariabilitySpec]:
    """(train_spec, eval_spec) for the chosen scenario.

    Training always sees within-chip variation only (the paper's deployment
    flow); the mixed scenario adds the correlated component at eval time.
    """
    variance_model = variance_model_by_name(args.variance_model)
    if args.scenario == "within":
        train = VariabilitySpec.within_only(args.sigma, variance_model)
        return train, train
    sigma_each = args.sigma / np.sqrt(2.0)
    train = VariabilitySpec.within_only(sigma_each, variance_model)
    return train, VariabilitySpec.mixed(sigma_each, variance_model)


def _self_tuning(args) -> SelfTuningConfig | None:
    if args.self_tuning == "none":
        return None
    if getattr(args, "backend", "fake-quant") == "circuit":
        raise SystemExit(
            "error: --self-tuning is not available on --backend circuit yet "
            "(the circuit backend has no GTM/LTM columns); "
            "use --backend fake-quant for self-tuned fleets"
        )
    return SelfTuningConfig(
        kind=args.self_tuning,
        gtm_cells=args.gtm_cells,
        ltm_columns=args.ltm_columns,
    )


def _result_row(method: str, result, args) -> list:
    summary = summarize(result.robustness, accuracy_spec=args.accuracy_spec)
    return [
        method,
        100 * result.clean_accuracy,
        100 * summary["mean"],
        100 * summary["p05"],
        100 * summary["worst"],
        100 * summary["yield_at_spec"],
    ]


def _record(result, args, method: str) -> dict:
    summary = summarize(result.robustness, accuracy_spec=args.accuracy_spec)
    return {
        "method": method,
        "model": args.model,
        "notation": args.notation,
        "sigma": args.sigma,
        "scenario": args.scenario,
        "variance_model": args.variance_model,
        "scale": args.scale,
        "self_tuning": args.self_tuning,
        "backend": getattr(args, "backend", "fake-quant"),
        "clean_accuracy": result.clean_accuracy,
        "summary": summary,
        "accuracies": result.robustness.accuracies,
    }


def _run_one(args, method: str):
    model_name, workload = WORKLOADS[args.model]
    train_spec, eval_spec = _specs(args)
    return run_method(
        method,
        model_name,
        workload,
        QConfig.from_notation(args.notation),
        train_spec,
        eval_spec,
        EXPERIMENT_SCALES[args.scale],
        MethodConfig(n_variation_samples=args.samples, seed=args.seed),
        self_tuning=_self_tuning(args),
        backend=args.backend,
    )


def _cmd_list() -> int:
    print("models:    " + ", ".join(sorted(WORKLOADS)))
    print("methods:   " + ", ".join(METHODS))
    print("scales:    " + ", ".join(sorted(EXPERIMENT_SCALES)))
    print("scenarios: within (Sec. IV-A), mixed (Sec. IV-B)")
    print("variance:  weight-proportional, layer-fixed")
    print("policies:  " + ", ".join(sorted(SERVE_POLICIES)) + " (serve-bench)")
    print("backends:  " + ", ".join(sorted(BACKENDS)) + " (chip programming)")
    return 0


_HEADERS = ["method", "clean %", "mean %", "p05 %", "worst %", "yield %"]


def _cmd_run(args) -> int:
    result = _run_one(args, args.method)
    print(
        format_table(
            _HEADERS,
            [_result_row(args.method, result, args)],
            title=(
                f"{args.model}/{args.notation} sigma={args.sigma} "
                f"{args.scenario} ({args.variance_model}), scale={args.scale}"
            ),
        )
    )
    store = ResultStore(args.results_dir)
    path = store.save(f"run-{args.method}-{args.model}", _record(result, args, args.method))
    print(f"\nsaved: {path}")
    return 0


def _cmd_compare(args) -> int:
    rows = []
    store = ResultStore(args.results_dir)
    for method in METHODS:
        result = _run_one(args, method)
        rows.append(_result_row(method, result, args))
        store.save(f"compare-{method}-{args.model}", _record(result, args, method))
    print(
        format_table(
            _HEADERS,
            rows,
            title=(
                f"{args.model}/{args.notation} sigma={args.sigma} "
                f"{args.scenario} ({args.variance_model}), scale={args.scale}"
            ),
        )
    )
    return 0


def _cmd_sweep(args) -> int:
    rows = []
    store = ResultStore(args.results_dir)
    for sigma in args.sigmas:
        args.sigma = sigma
        result = _run_one(args, args.method)
        rows.append([sigma] + _result_row(args.method, result, args)[1:])
        store.save(
            f"sweep-{args.method}-{args.model}", _record(result, args, args.method)
        )
    print(
        format_table(
            ["sigma"] + _HEADERS[1:],
            rows,
            title=(
                f"{args.method} sweep: {args.model}/{args.notation} "
                f"{args.scenario} ({args.variance_model}), scale={args.scale}"
            ),
        )
    )
    return 0


def _serve_model(args):
    """The calibrated quantized model + test set the fleet will serve."""
    from repro.datasets.loaders import batch_iterator
    from repro.experiments.configs import dataset_for, model_for
    from repro.experiments.runner import train_method
    from repro.quant.calibration import calibrate_model
    from repro.quant.ptq import convert_to_quantized

    model_name, workload = WORKLOADS[args.model]
    scale = EXPERIMENT_SCALES[args.scale]
    train_spec, eval_spec = _specs(args)
    if args.skip_training:
        train, test = dataset_for(workload, scale)
        model = model_for(model_name, workload, scale, seed=1 + args.seed)
        convert_to_quantized(model, QConfig.from_notation(args.notation))
        calibrate_model(model, batch_iterator(train, scale.batch_size, shuffle=False),
                        max_batches=4)
    else:
        model, test = train_method(
            "qavat",
            model_name,
            workload,
            QConfig.from_notation(args.notation),
            train_spec,
            scale,
            MethodConfig(seed=args.seed),
        )
    model.eval()
    return model, test, eval_spec


def _fleet_spec(args, require: bool = False):
    """The mixed-technology fleet spec, or None for a homogeneous fleet."""
    from repro.serve import FleetSpec

    text = args.fleet
    if text is None and require:
        text = "rram:2,flash:2"
    if text is None:
        return None
    try:
        return FleetSpec.parse(text, scenario=args.scenario)
    except (KeyError, ValueError) as error:
        raise SystemExit(
            f"error: invalid --fleet {text!r}: {error} "
            "(expected e.g. 'rram:2,flash:2' or 'rram:4@0.5')"
        ) from None


def _cli_trace(args, default: str = "uniform"):
    from repro.serve import BurstyTrace, PoissonTrace, UniformTrace

    name = args.trace or default
    rate = args.trace_rate
    if name == "uniform":
        return UniformTrace(rate=rate)
    if name == "poisson":
        return PoissonTrace(rate=rate, seed=args.seed)
    # Same mean rate as the others: hot quarter at 4x, quiet rest near zero.
    return BurstyTrace(
        rate=rate / 16.0, burst_rate=4.0 * rate, period=16, duty=0.25, seed=args.seed
    )


def _lifecycle_config(args):
    from repro.serve import LifecycleConfig

    return LifecycleConfig(
        drift=args.drift_kind,
        nu=args.drift_nu,
        dt=args.dt,
        probe_every=args.probe_every,
        probe_k=args.probe_k,
        accuracy_floor=args.accuracy_floor,
        seed=args.seed,
    )


def _serving_workload(args, test):
    reps = 1 + (args.requests - 1) // len(test)
    workload = np.concatenate([test.images] * reps)[: args.requests]
    labels = np.concatenate([test.labels] * reps)[: args.requests]
    ids = [f"r{i:06d}" for i in range(args.requests)]
    return workload, labels, ids


def _drift_serving_run(model, test, eval_spec, args, policy: str) -> dict:
    """One drifting serving session under ``policy``; returns run artifacts.

    Every run shares the engine/lifecycle seeds, so the fleet, the drift
    paths, and the probe/recalibration schedule are identical across
    policies — only dispatch (and therefore served accuracy) differs.
    """
    from repro.serve import ChipLifecycle, InferenceEngine, ReplayTrace, ServeConfig

    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        policy=policy,
        seed=args.seed,
        self_tuning=_self_tuning(args),
        backend=args.backend,
        fused=args.fused,
        max_resident_chips=args.max_resident_chips,
    )
    engine = InferenceEngine(
        model, eval_spec, args.num_chips, config,
        fleet_spec=_fleet_spec(args, require=True),
    )
    lifecycle = ChipLifecycle(engine, test, _lifecycle_config(args))
    lifecycle.install()
    workload, labels, ids = _serving_workload(args, test)
    # Freeze the arrival schedule into a replay trace: the lifetime bench
    # is defined over a pinned request timeline, so every policy (and
    # every rerun) replays the exact same arrivals.
    trace = ReplayTrace.from_trace(_cli_trace(args), args.requests)
    started = time.perf_counter()
    outputs = engine.run_trace(workload, trace, ids=ids, lifecycle=lifecycle)
    seconds = time.perf_counter() - started
    logits = np.stack([outputs[rid] for rid in ids])
    correct = logits.argmax(axis=1) == labels
    # "End of trace" = the second half of the request stream: long enough to
    # span several batches and probe rounds, late enough that drift has bitten.
    tail = max(1, args.requests // 2)
    return {
        "policy": policy,
        "engine": engine,
        "lifecycle": lifecycle,
        "accuracy": float(correct.mean()),
        "end_accuracy": float(correct[-tail:].mean()),
        "recalibrations": len(lifecycle.events),
        "seconds": seconds,
    }


def _print_quality_timeline(engine, max_chips: int = 16) -> None:
    """Drift/recovery curves: probed accuracy per chip over virtual time.

    One column per chip only works for fleets a terminal can hold; past
    ``max_chips`` the table collapses to fleet-wide quantiles per probe
    round (the thousand-chip regime of ``--fleet rram:500,flash:500``).
    """
    series = engine.telemetry.quality_series
    if not series:
        return
    chips = sorted(series)
    if len(chips) > max_chips:
        times = sorted({time for chip in chips for time, _ in series[chip]})
        rows = []
        for probe_time in times:
            values = [
                100 * qualities[-1]
                for chip in chips
                if (qualities := [q for t, q in series[chip] if t == probe_time])
            ]
            rows.append([
                f"{probe_time:.0f}", len(values),
                f"{np.percentile(values, 10):.1f}", f"{np.median(values):.1f}",
                f"{np.percentile(values, 90):.1f}", f"{min(values):.1f}",
            ])
        print(format_table(
            ["t", "probed", "p10", "median", "p90", "min"], rows,
            title=f"probed accuracy over time (%, fleet of {len(chips)})",
        ))
        events = engine.telemetry.recalibration_events
        if events:
            print(f"recalibration events: {len(events)}")
        return
    times = sorted({time for chip in chips for time, _ in series[chip]})
    rows = []
    for probe_time in times:
        row = [f"{probe_time:.0f}"]
        for chip in chips:
            # Last probe at this time wins: a recalibration probe at the same
            # timestamp overwrites the triggering (degraded) probe.
            values = [q for t, q in series[chip] if t == probe_time]
            row.append(f"{100 * values[-1]:.1f}" if values else "-")
        rows.append(row)
    print(format_table(["t"] + chips, rows, title="probed accuracy over time (%)"))
    events = engine.telemetry.recalibration_events
    if events:
        print("recalibration events: " + "  ".join(
            f"t={event_time:.0f}:{chip}" for event_time, chip in events
        ))


def _drift_record(args, runs: list[dict]) -> dict:
    return {
        "model": args.model,
        "notation": args.notation,
        "backend": args.backend,
        "fleet": args.fleet or "rram:2,flash:2",
        "trace": args.trace or "uniform",
        "trace_rate": args.trace_rate,
        "drift_kind": args.drift_kind,
        "drift_nu": args.drift_nu,
        "probe_every": args.probe_every,
        "accuracy_floor": args.accuracy_floor,
        "requests": args.requests,
        "seed": args.seed,
        "policies": [
            {
                "policy": run["policy"],
                "accuracy": run["accuracy"],
                "end_accuracy": run["end_accuracy"],
                "recalibrations": run["recalibrations"],
                "seconds": run["seconds"],
                "telemetry": run["engine"].telemetry.report(),
                "cache": run["engine"].cache.stats.as_dict(),
            }
            for run in runs
        ],
    }


def _print_span_breakdown(engine, title: str = "per-stage span breakdown") -> None:
    """Where serving wall time went, stage by stage (tracing spans)."""
    breakdown = engine.obs.recorder.breakdown()
    if not breakdown:
        return
    rows = [
        [name, stats["count"], f"{1e3 * stats['total_s']:.2f}",
         f"{1e3 * stats['mean_s']:.3f}", f"{1e3 * stats['max_s']:.3f}"]
        for name, stats in sorted(
            breakdown.items(), key=lambda item: -item[1]["total_s"]
        )
    ]
    print(format_table(
        ["stage", "count", "total ms", "mean ms", "max ms"], rows, title=title
    ))


def _bench_metrics(engine, seconds: float) -> dict:
    """The BENCH-file metric block for one serving run."""
    report = engine.telemetry.report()
    latency = report["latency"]
    return {
        "throughput_sps": report["requests"] / seconds if seconds > 0 else 0.0,
        "latency_p50_ms": 1e3 * latency["p50"],
        "latency_p95_ms": 1e3 * latency["p95"],
        "latency_p99_ms": 1e3 * latency["p99"],
        "occupancy": report["occupancy_mean"],
        "cache_hit_rate": report.get("cache", {}).get("hit_rate", 0.0),
        "energy_uj_per_request": report["energy_uj"]["per_request"],
    }


def _bench_scale(args, engine) -> dict:
    """The BENCH-file scale block: what workload the metrics measured."""
    return {
        "model": args.model,
        "notation": args.notation,
        "backend": args.backend,
        "num_chips": len(engine.fleet),
        "fleet": args.fleet,
        "max_batch": args.max_batch,
        "max_wait": args.max_wait,
        "requests": args.requests,
        "trace": args.trace,
        "seed": args.seed,
        "fused": bool(getattr(args, "fused", True)),
        "max_resident_chips": getattr(args, "max_resident_chips", None),
        **engine.policy.describe(),
    }


def _record_bench(args, bench: str, metrics: dict, scale: dict) -> None:
    if not args.bench_json:
        return
    from repro.obs import BenchRecorder

    recorder = BenchRecorder(args.bench_json, bench=bench)
    run = recorder.record(metrics, scale=scale)
    print(
        f"bench trajectory: {args.bench_json} "
        f"({len(recorder.runs())} runs, sha {run['git_sha'][:12]})"
    )


def _cmd_serve_bench_drift(args) -> int:
    model, test, eval_spec = _serve_model(args)
    policies = list(dict.fromkeys([args.policy, "drift-aware", "round-robin"]))
    runs = [_drift_serving_run(model, test, eval_spec, args, p) for p in policies]
    rows = [
        [run["policy"], f"{100 * run['accuracy']:.1f}",
         f"{100 * run['end_accuracy']:.1f}", run["recalibrations"],
         f"{run['engine'].telemetry.queue_ticks.max:.0f}",
         f"{run['engine'].telemetry.total_energy_uj:.1f}",
         f"{args.requests / run['seconds']:.1f}"]
        for run in runs
    ]
    print(
        format_table(
            ["policy", "accuracy %", "end-of-trace %", "recals", "queue max",
             "energy uJ", "req/s"],
            rows,
            title=(
                f"serve-bench --drift {args.model}/{args.notation} "
                f"backend={args.backend} fleet={args.fleet or 'rram:2,flash:2'} "
                f"trace={args.trace or 'uniform'} nu={args.drift_nu}"
            ),
        )
    )
    print()
    _print_quality_timeline(runs[0]["engine"])
    print(f"\nmapping cache: {runs[0]['engine'].cache.stats.as_dict()}")
    baseline = next(run for run in runs if run["policy"] == "round-robin")
    for run in runs:
        if run is baseline:
            continue
        lead = run["end_accuracy"] - baseline["end_accuracy"]
        print(
            f"{run['policy']} vs round-robin end-of-trace accuracy: "
            f"{100 * run['end_accuracy']:.1f}% vs "
            f"{100 * baseline['end_accuracy']:.1f}% ({100 * lead:+.1f} pts)"
        )
    store = ResultStore(args.results_dir)
    path = store.save(f"serve-bench-drift-{args.model}", _drift_record(args, runs))
    print(f"\nsaved: {path}")
    primary = runs[0]
    _record_bench(
        args, "serving",
        {
            **_bench_metrics(primary["engine"], primary["seconds"]),
            "end_accuracy": primary["end_accuracy"],
        },
        _bench_scale(args, primary["engine"]),
    )
    return 0


def _cmd_lifetime_bench(args) -> int:
    model, test, eval_spec = _serve_model(args)
    runs = [
        _drift_serving_run(model, test, eval_spec, args, policy)
        for policy in args.policies
    ]
    rows = [
        [run["policy"], f"{100 * run['accuracy']:.1f}",
         f"{100 * run['end_accuracy']:.1f}", run["recalibrations"],
         f"{run['engine'].telemetry.queue_ticks.mean:.2f}",
         f"{run['engine'].telemetry.queue_ticks.max:.0f}",
         f"{run['engine'].telemetry.total_energy_uj:.1f}"]
        for run in runs
    ]
    print(
        format_table(
            ["policy", "accuracy %", "end-of-trace %", "recals",
             "queue mean", "queue max", "energy uJ"],
            rows,
            title=(
                f"lifetime-bench {args.model}/{args.notation} "
                f"backend={args.backend} fleet={args.fleet or 'rram:2,flash:2'} "
                f"trace={args.trace or 'uniform'} {args.drift_kind} drift"
            ),
        )
    )
    print()
    _print_quality_timeline(runs[0]["engine"])
    best = max(runs, key=lambda run: run["end_accuracy"])
    print(f"\nbest end-of-trace policy: {best['policy']} "
          f"({100 * best['end_accuracy']:.1f}%)")
    for run in runs:
        telemetry = run["engine"].telemetry
        print(f"telemetry digest: {telemetry.digest()} ({run['policy']})")
        print(
            f"probes: {telemetry.probes} run, {telemetry.probes_reused} reused, "
            f"{telemetry.probes_deferred} deferred, "
            f"{run['recalibrations']} recalibrations ({run['policy']})"
        )
    store = ResultStore(args.results_dir)
    path = store.save(f"lifetime-bench-{args.model}", _drift_record(args, runs))
    print(f"saved: {path}")
    _record_bench(
        args, "lifetime",
        {
            **_bench_metrics(best["engine"], best["seconds"]),
            "accuracy": best["accuracy"],
            "end_accuracy": best["end_accuracy"],
            "recalibrations": best["recalibrations"],
        },
        _bench_scale(args, best["engine"]),
    )
    return 0


def _chaos_serving_run(model, test, eval_spec, args, trace) -> dict:
    """One chaos serving session; returns everything determinism compares."""
    from repro.serve import FaultInjector, FaultPlan, InferenceEngine, ServeConfig

    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        policy=args.policy,
        seed=args.seed,
        self_tuning=_self_tuning(args),
        backend=args.backend,
        fused=args.fused,
        max_resident_chips=args.max_resident_chips,
    )
    engine = InferenceEngine(
        model, eval_spec, args.num_chips, config, fleet_spec=_fleet_spec(args)
    )
    engine.warm_up()
    plan = FaultPlan(
        transient_rate=args.transient_rate,
        latency_rate=args.latency_rate,
        deaths=args.deaths,
        stuck_chips=args.stuck_chips,
        horizon=args.fault_horizon,
        seed=args.fault_seed,
    )
    injector = FaultInjector(engine, plan)
    injector.install()
    workload, labels, ids = _serving_workload(args, test)
    started = time.perf_counter()
    outputs = engine.run_trace(workload, trace, ids=ids)
    seconds = time.perf_counter() - started
    served = [rid for rid in ids if rid in outputs]
    correct = sum(
        int(outputs[rid].argmax() == label)
        for rid, label in zip(ids, labels)
        if rid in outputs
    )
    return {
        "engine": engine,
        "injector": injector,
        "outputs": outputs,
        "ids": ids,
        "served": served,
        "accuracy": correct / len(served) if served else 0.0,
        "seconds": seconds,
    }


def _cmd_serve_bench_chaos(args) -> int:
    """Goodput-under-faults bench: chaos schedule in, dead letters out.

    The session runs *twice* from the same (engine seed, fault seed, trace)
    and the whole observable story — fault schedule, retry/hedge counts,
    dead-letter set, and every served logit row — must be bit-identical;
    any divergence (or goodput below ``--goodput-floor``) is a non-zero
    exit, so CI can hold the line.
    """
    from repro.serve import ReplayTrace

    model, test, eval_spec = _serve_model(args)
    # Pin the arrival schedule so both runs (and any rerun of this command)
    # replay the identical trace regardless of trace-internal RNG state.
    trace = ReplayTrace.from_trace(_cli_trace(args), args.requests)
    first = _chaos_serving_run(model, test, eval_spec, args, trace)
    second = _chaos_serving_run(model, test, eval_spec, args, trace)

    engine, injector, ids = first["engine"], first["injector"], first["ids"]
    telemetry = engine.telemetry
    reproducible = (
        injector.schedule == second["injector"].schedule
        and telemetry.retries == second["engine"].telemetry.retries
        and telemetry.hedges == second["engine"].telemetry.hedges
        and set(engine.dead_letters) == set(second["engine"].dead_letters)
        and first["served"] == second["served"]
        and all(
            np.array_equal(first["outputs"][rid], second["outputs"][rid])
            for rid in first["served"]
        )
    )
    goodput = telemetry.goodput
    health_counts: dict[str, int] = {}
    for chip in engine.fleet:
        health_counts[chip.health] = health_counts.get(chip.health, 0) + 1
    rows = [
        ["requests", args.requests],
        ["served", len(first["served"])],
        ["dead-lettered", len(engine.dead_letters)],
        ["goodput", f"{100 * goodput:.2f}%"],
        ["served accuracy", f"{100 * first['accuracy']:.1f}%"],
        ["faults fired", telemetry.faults],
        ["retries", telemetry.retries],
        ["hedges", telemetry.hedges],
        ["replacements", len(engine.retired)],
        ["fleet health", ", ".join(f"{k}:{v}" for k, v in sorted(health_counts.items()))],
        ["reproducible", "yes" if reproducible else "NO"],
        ["req/s", f"{args.requests / first['seconds']:.1f}"],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"serve-bench --chaos {args.model}/{args.notation} "
                f"{args.num_chips} chips, backend={args.backend}, "
                f"deaths={args.deaths} stuck={args.stuck_chips} "
                f"transient={args.transient_rate} fault-seed={args.fault_seed}"
            ),
        )
    )
    print("\nfault schedule: " + (
        "  ".join(
            f"t={event.tick}:{event.kind}@{event.chip_id}"
            for event in injector.schedule
        ) or "(empty)"
    ))
    if engine.dead_letters:
        print("dead letters:")
        for letter in sorted(engine.dead_letters.values(), key=lambda l: l.id):
            print(
                f"  {letter.id}: {letter.reason} after {letter.attempts} "
                f"attempts (cause: {letter.cause}, tick {letter.tick})"
            )
    print("\nchaos engine telemetry:")
    print(telemetry.format())
    store = ResultStore(args.results_dir)
    path = store.save(
        f"serve-bench-chaos-{args.model}",
        {
            "model": args.model,
            "notation": args.notation,
            "backend": args.backend,
            "policy": args.policy,
            "num_chips": args.num_chips,
            "fleet": args.fleet,
            "requests": args.requests,
            "seed": args.seed,
            "fault_seed": args.fault_seed,
            "plan": {
                "transient_rate": args.transient_rate,
                "latency_rate": args.latency_rate,
                "deaths": args.deaths,
                "stuck_chips": args.stuck_chips,
                "horizon": args.fault_horizon,
            },
            "goodput": goodput,
            "served": len(first["served"]),
            "dead_letters": sorted(engine.dead_letters),
            "accuracy": first["accuracy"],
            "reproducible": reproducible,
            "schedule": [
                {"tick": e.tick, "kind": e.kind, "chip_id": e.chip_id}
                for e in injector.schedule
            ],
            "telemetry": telemetry.report(),
        },
    )
    print(f"\nsaved: {path}")
    _record_bench(
        args, "chaos",
        {
            **_bench_metrics(engine, first["seconds"]),
            "goodput": goodput,
            "dead_letters": len(engine.dead_letters),
            "retries": telemetry.retries,
            "hedges": telemetry.hedges,
            "faults": telemetry.faults,
            "replacements": len(engine.retired),
            "served_accuracy": first["accuracy"],
        },
        {
            **_bench_scale(args, engine),
            "fault_seed": args.fault_seed,
            "deaths": args.deaths,
            "stuck_chips": args.stuck_chips,
            "transient_rate": args.transient_rate,
        },
    )
    if not reproducible:
        print("ERROR: chaos run is not bit-reproducible across reruns")
        return 1
    if goodput < args.goodput_floor:
        print(
            f"ERROR: goodput {100 * goodput:.2f}% below floor "
            f"{100 * args.goodput_floor:.2f}%"
        )
        return 1
    return 0


def _slo_serving_run(model, test, eval_spec, args, trace, policy: str) -> dict:
    """One deadline-bearing serving session under ``policy``.

    The engine runs in continuous-batching mode (the gateway's admission
    mode) with every request carrying an ``arrival + --slo-ticks``
    deadline; per-dispatch transient/latency hazards (``--transient-rate``
    / ``--latency-rate``) supply the retry-parking pressure that makes
    deadlines losable at all — scheduled deaths/stuck-at events stay with
    ``--chaos``.
    """
    from repro.serve import FaultInjector, FaultPlan, InferenceEngine, ServeConfig

    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        policy=policy,
        seed=args.seed,
        self_tuning=_self_tuning(args),
        backend=args.backend,
        continuous=True,
        fused=args.fused,
        max_resident_chips=args.max_resident_chips,
    )
    engine = InferenceEngine(
        model, eval_spec, args.num_chips, config, fleet_spec=_fleet_spec(args)
    )
    engine.warm_up()
    if policy in ("accuracy-weighted", "drift-aware", "energy-aware", "latency-aware"):
        engine.probe_fleet(test, k=args.probe_k)
    if args.transient_rate > 0.0 or args.latency_rate > 0.0:
        plan = FaultPlan(
            transient_rate=args.transient_rate,
            latency_rate=args.latency_rate,
            deaths=0,
            stuck_chips=0,
            seed=args.fault_seed,
        )
        FaultInjector(engine, plan).install()
    workload, labels, ids = _serving_workload(args, test)
    started = time.perf_counter()
    outputs = engine.run_trace(workload, trace, ids=ids)
    seconds = time.perf_counter() - started
    served = [rid for rid in ids if rid in outputs]
    correct = sum(
        int(outputs[rid].argmax() == label)
        for rid, label in zip(ids, labels)
        if rid in outputs
    )
    telemetry = engine.telemetry
    finished = telemetry.slo_met + telemetry.slo_violations
    return {
        "policy": policy,
        "engine": engine,
        "outputs": outputs,
        "ids": ids,
        "served": served,
        "accuracy": correct / len(served) if served else 0.0,
        "attainment": telemetry.slo_attainment,
        "violation_fraction": (
            telemetry.slo_violations / finished if finished else 0.0
        ),
        "seconds": seconds,
    }


def _cmd_serve_bench_slo(args) -> int:
    """Deadline/SLO bench: goodput race plus a reproducibility gate.

    Every request carries an ``arrival + --slo-ticks`` deadline (frozen
    into a :class:`~repro.serve.trace.ReplayTrace`, so reruns replay
    literally the same arrivals and deadlines).  ``--policy``,
    ``latency-aware``, and ``round-robin`` race on SLO attainment; the
    best policy then runs a second time and its whole observable story —
    served set, logits, deadline outcomes, dead letters — must be
    bit-identical.  Divergence, or a violation fraction above
    ``--slo-ceiling``, is a non-zero exit.
    """
    from repro.serve import DeadlineTrace, ReplayTrace

    model, test, eval_spec = _serve_model(args)
    trace = ReplayTrace.from_trace(
        DeadlineTrace(_cli_trace(args), slo_ticks=args.slo_ticks), args.requests
    )
    policies = list(dict.fromkeys([args.policy, "latency-aware", "round-robin"]))
    runs = [
        _slo_serving_run(model, test, eval_spec, args, trace, policy)
        for policy in policies
    ]
    best = max(runs, key=lambda run: (run["attainment"], run["policy"] == args.policy))
    rerun = _slo_serving_run(model, test, eval_spec, args, trace, best["policy"])
    best_t, rerun_t = best["engine"].telemetry, rerun["engine"].telemetry
    reproducible = (
        best["served"] == rerun["served"]
        and best_t.slo_met == rerun_t.slo_met
        and best_t.slo_violations == rerun_t.slo_violations
        and best_t.slo_series == rerun_t.slo_series
        and set(best["engine"].dead_letters) == set(rerun["engine"].dead_letters)
        and all(
            np.array_equal(best["outputs"][rid], rerun["outputs"][rid])
            for rid in best["served"]
        )
    )
    rows = [
        [run["policy"], len(run["served"]),
         len(run["engine"].dead_letters),
         run["engine"].telemetry.slo_met,
         run["engine"].telemetry.slo_violations,
         f"{100 * run['attainment']:.1f}",
         f"{run['engine'].telemetry.deadline_headroom.quantile(0.50):.1f}",
         f"{100 * run['accuracy']:.1f}",
         f"{args.requests / run['seconds']:.1f}"]
        for run in runs
    ]
    print(
        format_table(
            ["policy", "served", "dead-let", "slo met", "violated",
             "attainment %", "headroom p50", "accuracy %", "req/s"],
            rows,
            title=(
                f"serve-bench --slo {args.model}/{args.notation} "
                f"{args.num_chips} chips, backend={args.backend}, "
                f"slo={args.slo_ticks} ticks, trace={args.trace or 'uniform'}, "
                f"transient={args.transient_rate}"
            ),
        )
    )
    print(
        f"\nbest policy: {best['policy']} "
        f"(attainment {100 * best['attainment']:.1f}%, "
        f"violations {100 * best['violation_fraction']:.1f}% "
        f"vs ceiling {100 * args.slo_ceiling:.1f}%)  "
        f"reproducible: {'yes' if reproducible else 'NO'}"
    )
    print("\nbest-policy telemetry:")
    print(best_t.format())
    store = ResultStore(args.results_dir)
    path = store.save(
        f"serve-bench-slo-{args.model}",
        {
            "model": args.model,
            "notation": args.notation,
            "backend": args.backend,
            "num_chips": args.num_chips,
            "fleet": args.fleet,
            "requests": args.requests,
            "seed": args.seed,
            "slo_ticks": args.slo_ticks,
            "slo_ceiling": args.slo_ceiling,
            "transient_rate": args.transient_rate,
            "latency_rate": args.latency_rate,
            "fault_seed": args.fault_seed,
            "best_policy": best["policy"],
            "reproducible": reproducible,
            "policies": [
                {
                    "policy": run["policy"],
                    "served": len(run["served"]),
                    "dead_letters": sorted(run["engine"].dead_letters),
                    "attainment": run["attainment"],
                    "violation_fraction": run["violation_fraction"],
                    "accuracy": run["accuracy"],
                    "seconds": run["seconds"],
                    "telemetry": run["engine"].telemetry.report(),
                }
                for run in runs
            ],
        },
    )
    print(f"\nsaved: {path}")
    # Recorded under the "serving" bench so --slo runs append to the same
    # BENCH_serving.json trajectory as the other serving benches instead
    # of resetting it (the recorder drops runs on a bench-name mismatch);
    # scale.slo_ticks/best_policy mark the entries as SLO runs.
    _record_bench(
        args, "serving",
        {
            **_bench_metrics(best["engine"], best["seconds"]),
            "slo_attainment": best["attainment"],
            "slo_violations": best_t.slo_violations,
            "slo_met": best_t.slo_met,
            "rejections": best_t.rejections,
            "dead_letters": len(best["engine"].dead_letters),
            "served_accuracy": best["accuracy"],
        },
        {
            **_bench_scale(args, best["engine"]),
            "slo_ticks": args.slo_ticks,
            "transient_rate": args.transient_rate,
            "best_policy": best["policy"],
        },
    )
    if not reproducible:
        print("ERROR: slo run is not bit-reproducible across reruns")
        return 1
    if best["violation_fraction"] > args.slo_ceiling:
        print(
            f"ERROR: SLO violation fraction {100 * best['violation_fraction']:.1f}% "
            f"above ceiling {100 * args.slo_ceiling:.1f}%"
        )
        return 1
    return 0


def _cmd_serve_bench(args) -> int:
    from repro.serve import InferenceEngine, ServeConfig

    if sum((args.chaos, args.drift, args.slo)) > 1:
        raise SystemExit(
            "error: --chaos, --drift, and --slo are separate benches; pick one"
        )
    if args.chaos:
        return _cmd_serve_bench_chaos(args)
    if args.drift:
        return _cmd_serve_bench_drift(args)
    if args.slo:
        return _cmd_serve_bench_slo(args)
    model, test, eval_spec = _serve_model(args)
    workload, _, ids = _serving_workload(args, test)

    def serve(max_batch: int, max_wait: int, fused: bool):
        config = ServeConfig(
            max_batch=max_batch,
            max_wait=max_wait,
            policy=args.policy,
            seed=args.seed,
            self_tuning=_self_tuning(args),
            backend=args.backend,
            fused=fused,
            max_resident_chips=args.max_resident_chips,
        )
        engine = InferenceEngine(
            model, eval_spec, args.num_chips, config, fleet_spec=_fleet_spec(args)
        )
        engine.warm_up()  # program outside the timed region
        if args.policy in ("accuracy-weighted", "drift-aware", "energy-aware"):
            engine.probe_fleet(test, k=args.probe_k)
        started = time.perf_counter()
        if args.trace is not None:
            outputs = engine.run_trace(workload, _cli_trace(args), ids=ids)
        else:
            outputs = engine.run(workload, ids=ids)
        return engine, outputs, time.perf_counter() - started

    # The sequential reference is per-request by definition: fusing its
    # single-sample batches would measure a different baseline.
    sequential, seq_out, seq_seconds = serve(max_batch=1, max_wait=0, fused=False)
    batched, batch_out, batch_seconds = serve(
        args.max_batch, args.max_wait, fused=args.fused
    )
    mismatched = sum(
        not np.array_equal(seq_out[rid], batch_out[rid]) for rid in ids
    )
    speedup = seq_seconds / batch_seconds if batch_seconds > 0 else float("inf")
    rows = [
        ["sequential", args.requests, sequential.telemetry.batches,
         f"{sequential.telemetry.batch_size.mean:.1f}",
         f"{args.requests / seq_seconds:.1f}", "1.00"],
        ["batched", args.requests, batched.telemetry.batches,
         f"{batched.telemetry.batch_size.mean:.1f}",
         f"{args.requests / batch_seconds:.1f}", f"{speedup:.2f}"],
    ]
    print(
        format_table(
            ["mode", "requests", "batches", "batch mean", "throughput sps", "speedup"],
            rows,
            title=(
                f"serve-bench {args.model}/{args.notation} sigma={args.sigma} "
                f"{args.scenario}, {args.num_chips} chips, "
                f"backend={args.backend}, policy={args.policy}"
            ),
        )
    )
    print("\nbatched engine telemetry:")
    print(batched.telemetry.format())
    fused_stats = batched.telemetry
    print(f"fused dispatch: {fused_stats.fused_groups} groups, "
          f"{fused_stats.fused_batches} batches, "
          f"{fused_stats.fused_fallback_batches} fallbacks")
    print(f"telemetry digest: {batched.telemetry.digest()}")
    print()
    _print_span_breakdown(batched, title="per-stage span breakdown (batched)")
    if mismatched:
        print(f"WARNING: {mismatched} requests differ between modes "
              "(policies may route them to different chips)")
    store = ResultStore(args.results_dir)
    path = store.save(
        f"serve-bench-{args.model}",
        {
            "model": args.model,
            "notation": args.notation,
            "sigma": args.sigma,
            "scenario": args.scenario,
            "backend": args.backend,
            "policy": args.policy,
            "num_chips": args.num_chips,
            "max_batch": args.max_batch,
            "max_wait": args.max_wait,
            "requests": args.requests,
            "max_resident_chips": args.max_resident_chips,
            "sequential_seconds": seq_seconds,
            "batched_seconds": batch_seconds,
            "speedup": speedup,
            "telemetry": batched.telemetry.report(),
            "cache": batched.cache.stats.as_dict(),
        },
    )
    print(f"\nsaved: {path}")
    _record_bench(
        args, "serving",
        {**_bench_metrics(batched, batch_seconds), "speedup": float(speedup)},
        _bench_scale(args, batched),
    )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "lifetime-bench":
        return _cmd_lifetime_bench(args)
    return _cmd_compare(args)
