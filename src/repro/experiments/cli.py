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
of Table I).  ``serve-bench`` and ``lifetime-bench`` drive a simulated
chip fleet through the :mod:`repro.serve` engine.  Every mode of both is
a sequence of sessions from one runner, :func:`_serve`: it builds the
engine, programs the fleet and, when the policy routes on chip quality
(:data:`QUALITY_POLICIES`), probes it before traffic, then serves the
requests and returns a :class:`_Session`.

* Plain ``serve-bench`` serves a sequential reference and a batched
  session and reports the batching speedup.
* ``--drift`` ages the fleet under a chip lifecycle (drift, probes,
  recalibrations) and races the chosen policy against drift-aware and
  round-robin on end-of-trace accuracy; ``lifetime-bench`` runs the same
  race (:func:`_drift_race`) over ``--policies``.
* ``--chaos`` hits the fleet with a deterministic fault schedule (chip
  deaths, stuck-at maps, transient errors) and gates on goodput.
* ``--slo`` gives every request a deadline, races policies on SLO
  attainment and gates on a violation ceiling.

``--chaos`` and ``--slo`` rerun a session and exit non-zero unless the
rerun reproduces it bit for bit (:func:`_reproducible`).  Every mode
prints ``telemetry digest:`` lines and saves one JSON record under
``--results-dir``, headed by the session shape (:data:`RECORD_HEADER`).
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from repro.serve import FaultInjector, InferenceEngine


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


def _fraction(value: str) -> float:
    number = float(value)
    if not 0.0 <= number <= 1.0:  # also rejects nan, which compares false
        raise argparse.ArgumentTypeError(f"must be a fraction in [0, 1], got {value}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Train and evaluate QAVAT / QAT / PTQ-VAT configurations.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list models, scales, methods, scenarios")

    def add_chip_args(sub, scenario: str) -> None:
        """The model, variation and chip-programming flags of every command."""
        sub.add_argument("--model", choices=sorted(WORKLOADS), default="lenet5")
        sub.add_argument("--notation", default="A4W2", help="AxWy bit widths")
        sub.add_argument("--sigma", type=float, default=0.3, help="sigma_tot")
        sub.add_argument(
            "--scenario", choices=("within", "mixed"), default=scenario,
            help="within-chip only, or equal within+between (paper Sec. IV)",
        )
        sub.add_argument(
            "--variance-model", choices=("weight-proportional", "layer-fixed"),
            default="weight-proportional",
        )
        sub.add_argument("--scale", choices=sorted(EXPERIMENT_SCALES), default="tiny")
        sub.add_argument("--seed", type=_nonnegative_int, default=0)
        sub.add_argument(
            "--self-tuning", choices=("none", "global", "layer"), default="none",
            help="attach a self-tuning architecture to every programmed chip",
        )
        sub.add_argument("--gtm-cells", type=_positive_int, default=1000)
        sub.add_argument("--ltm-columns", type=_positive_int, default=1)
        sub.add_argument(
            "--backend", choices=sorted(BACKENDS), default="fake-quant",
            help="how chips are programmed: fake-quant replicas or "
            "circuit-level PimChips (DAC -> crossbar MVM -> ADC)",
        )
        sub.add_argument("--results-dir", default="results")

    helps = {
        "run": "train one method",
        "compare": "run all three methods on one configuration",
        "sweep": "one method across a sigma sweep (one figure panel)",
    }
    for name, text in helps.items():
        sub = commands.add_parser(name, help=text)
        add_chip_args(sub, scenario="within")
        if name in ("run", "sweep"):
            sub.add_argument("--method", choices=METHODS, default="qavat")
        if name == "sweep":
            sub.add_argument(
                "--sigmas", type=float, nargs="+", default=[0.1, 0.3, 0.5],
                help="sigma_tot values to sweep",
            )
        sub.add_argument("--samples", type=int, default=1, help="variation samples/step")
        sub.add_argument(
            "--accuracy-spec", type=float, default=0.5,
            help="accuracy floor for the parametric-yield summary",
        )

    def add_serving_args(sub) -> None:
        add_chip_args(sub, scenario="mixed")
        sub.add_argument(
            "--skip-training",
            action="store_true",
            help="calibrate an untrained model (throughput-only runs, seconds not minutes)",
        )
        sub.add_argument("--num-chips", type=_positive_int, default=4)
        sub.add_argument(
            "--fused",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="stack a tick's staged batches into one forward (bit-identical "
            "to running each on its own chip; --no-fused is the parity baseline)",
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

    serve = commands.add_parser(
        "serve-bench",
        help="benchmark batched fleet serving against sequential inference",
    )
    add_serving_args(serve)
    serve.add_argument(
        "--policy", choices=sorted(SERVE_POLICIES), default="round-robin"
    )
    serve.add_argument(
        "--drift",
        action="store_true",
        help="age the fleet while it serves; race --policy, drift-aware and "
        "round-robin on end-of-trace accuracy (implies --fleet rram:2,flash:2 "
        "and --trace uniform unless given)",
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
        help="seed of the chaos schedule and hazard stream (--chaos, --slo)",
    )
    serve.add_argument(
        "--transient-rate", type=float, default=0.05,
        help="per-dispatch-attempt transient failure probability (--chaos, --slo)",
    )
    serve.add_argument(
        "--latency-rate", type=float, default=0.0,
        help="per-dispatch-attempt latency-spike probability (--chaos, --slo)",
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
        "--goodput-floor", type=_fraction, default=0.95,
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
        "--slo-ceiling", type=_fraction, default=0.15,
        help="exit non-zero when the best policy's SLO-violation fraction "
        "exceeds this ceiling (--slo)",
    )

    lifetime = commands.add_parser(
        "lifetime-bench",
        help="drift/probe/recalibrate lifecycle across scheduling policies",
    )
    add_serving_args(lifetime)
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


#: The policies that route on ``chip.quality``.  Every session probes the
#: fleet for them before traffic (a drifting session's lifecycle does it at
#: install), so none routes on an unprobed chip, which reads as quality 1.0.
QUALITY_POLICIES = ("accuracy-weighted", "drift-aware", "energy-aware", "latency-aware")

#: The session shape every saved serving record starts with.
RECORD_HEADER = (
    "model", "notation", "sigma", "scenario", "backend", "num_chips", "fleet",
    "max_batch", "max_wait", "max_resident_chips", "requests", "seed", "trace",
    "trace_rate",
)


def _serve_model(args):
    """The calibrated quantized model + test set the fleet will serve."""
    from repro.datasets.loaders import batch_iterator
    from repro.experiments.configs import dataset_for, model_for
    from repro.experiments.runner import train_method
    from repro.quant.calibration import calibrate_model
    from repro.quant.ptq import convert_to_quantized

    model_name, workload = WORKLOADS[args.model]
    scale = EXPERIMENT_SCALES[args.scale]
    qconfig = QConfig.from_notation(args.notation)
    train_spec, eval_spec = _specs(args)
    if args.skip_training:
        train, test = dataset_for(workload, scale)
        model = model_for(model_name, workload, scale, seed=1 + args.seed)
        convert_to_quantized(model, qconfig)
        calibrate_model(model, batch_iterator(train, scale.batch_size, shuffle=False),
                        max_batches=4)
    else:
        model, test = train_method("qavat", model_name, workload, qconfig, train_spec,
                                   scale, MethodConfig(seed=args.seed))
    model.eval()
    return model, test, eval_spec


def _fleet_spec(args):
    """The mixed-technology fleet spec, or None for a homogeneous fleet."""
    from repro.serve import FleetSpec

    if args.fleet is None:
        return None
    try:
        return FleetSpec.parse(args.fleet, scenario=args.scenario)
    except (KeyError, ValueError) as error:
        raise SystemExit(
            f"error: invalid --fleet {args.fleet!r}: {error} "
            "(expected e.g. 'rram:2,flash:2' or 'rram:4@0.5')"
        ) from None


def _cli_trace(args):
    """The ``--trace`` arrival trace, or None to submit everything at tick 0.

    A trace's schedule is a pure function of its own parameters, so one
    trace object feeds every session of a bench, reruns included.
    """
    from repro.serve import BurstyTrace, PoissonTrace, UniformTrace

    if args.trace is None:
        return None
    rate = args.trace_rate
    if args.trace == "uniform":
        return UniformTrace(rate=rate)
    if args.trace == "poisson":
        return PoissonTrace(rate=rate, seed=args.seed)
    # Same mean rate as the others: hot quarter at 4x, quiet rest near zero.
    return BurstyTrace(
        rate=rate / 16.0, burst_rate=4.0 * rate, period=16, duty=0.25, seed=args.seed
    )


@dataclass
class _Session:
    """One finished serving session: its engine, what it served, how fast."""

    policy: str
    engine: InferenceEngine
    injector: FaultInjector | None
    outputs: dict[str, np.ndarray]
    ids: list[str]
    labels: np.ndarray
    seconds: float

    @property
    def served(self) -> list[str]:
        """The served request ids, in submission order."""
        return [rid for rid in self.ids if rid in self.outputs]

    @property
    def recalibrations(self) -> int:
        """How many chips the session's lifecycle recalibrated."""
        return len(self.engine.telemetry.recalibration_events)

    def accuracy(self, tail: int | None = None) -> float:
        """Top-1 accuracy of the served requests among the last ``tail``
        submitted (all of them by default); 0.0 when none was served."""
        ids, labels = (self.ids[-tail:], self.labels[-tail:]) if tail else (self.ids, self.labels)
        hits = [
            int(self.outputs[rid].argmax() == label)
            for rid, label in zip(ids, labels)
            if rid in self.outputs
        ]
        return sum(hits) / len(hits) if hits else 0.0

    def entry(self) -> dict:
        """The fields every bench records for a session."""
        return {
            "policy": self.policy,
            "accuracy": self.accuracy(),
            "telemetry": self.engine.telemetry.report(),
        }


def _serve(args, model, test, eval_spec, policy: str, mode: str, trace) -> _Session:
    """Serve ``--requests`` test images through a fresh engine under ``policy``.

    ``mode`` is what rides along: ``"sequential"`` is the per-request
    reference (batches of one, no wait, no fusion, since fusing
    single-sample batches would measure a different baseline);
    ``"batched"`` is the configured engine alone; ``"drift"`` ages, probes
    and recalibrates the fleet under a chip lifecycle; ``"chaos"`` installs
    the full fault plan; ``"slo"`` batches continuously under the plan's
    per-dispatch hazards alone (if a rate is set), which supply the retry
    pressure that makes a deadline losable.  Only the request loop is
    timed; ``trace=None`` submits every request at tick 0.
    """
    from repro.serve import (
        ChipLifecycle, FaultInjector, FaultPlan, InferenceEngine, LifecycleConfig, ServeConfig,
    )

    sequential = mode == "sequential"
    config = ServeConfig(
        max_batch=1 if sequential else args.max_batch,
        max_wait=0 if sequential else args.max_wait,
        policy=policy,
        seed=args.seed,
        self_tuning=_self_tuning(args),
        backend=args.backend,
        continuous=mode == "slo",
        fused=args.fused and not sequential,
        max_resident_chips=args.max_resident_chips,
    )
    engine = InferenceEngine(
        model, eval_spec, args.num_chips, config, fleet_spec=_fleet_spec(args)
    )
    lifecycle = injector = None
    if mode == "drift":  # the lifecycle programs and probes every chip at install
        lifecycle = ChipLifecycle(engine, test, LifecycleConfig(
            drift=args.drift_kind, nu=args.drift_nu, dt=args.dt,
            probe_every=args.probe_every, probe_k=args.probe_k,
            accuracy_floor=args.accuracy_floor, seed=args.seed,
        ))
        lifecycle.install()
    else:
        engine.warm_up()
        if policy in QUALITY_POLICIES:
            engine.probe_fleet(test, k=args.probe_k)
    chaos = mode == "chaos"
    if chaos or (mode == "slo" and (args.transient_rate > 0.0 or args.latency_rate > 0.0)):
        injector = FaultInjector(engine, FaultPlan(
            transient_rate=args.transient_rate, latency_rate=args.latency_rate,
            deaths=args.deaths if chaos else 0,
            stuck_chips=args.stuck_chips if chaos else 0,
            horizon=args.fault_horizon, seed=args.fault_seed,
        ))
        injector.install()
    reps = 1 + (args.requests - 1) // len(test)
    workload = np.concatenate([test.images] * reps)[: args.requests]
    labels = np.concatenate([test.labels] * reps)[: args.requests]
    ids = [f"r{i:06d}" for i in range(args.requests)]
    started = time.perf_counter()
    if trace is None:
        outputs = engine.run(workload, ids=ids)
    else:
        outputs = engine.run_trace(workload, trace, ids=ids, lifecycle=lifecycle)
    seconds = time.perf_counter() - started
    return _Session(policy, engine, injector, outputs, ids, labels, seconds)


def _reproducible(first: _Session, rerun: _Session) -> bool:
    """Whether ``rerun`` told ``first``'s whole observable story bit for bit.

    Compares the telemetry digest, the fault schedule, retry and hedge
    counts, SLO met and violated counts and their full series, the
    dead-letter ids, the served ids and every served output row.
    """
    a, b = first.engine.telemetry, rerun.engine.telemetry
    return (
        a.digest() == b.digest()
        and getattr(first.injector, "schedule", None)
        == getattr(rerun.injector, "schedule", None)
        and (a.retries, a.hedges, a.slo_met, a.slo_violations, a.slo_series)
        == (b.retries, b.hedges, b.slo_met, b.slo_violations, b.slo_series)
        and set(first.engine.dead_letters) == set(rerun.engine.dead_letters)
        and first.served == rerun.served
        and all(
            np.array_equal(first.outputs[rid], rerun.outputs[rid])
            for rid in first.served
        )
    )


def _save(args, name: str, record: dict) -> None:
    header = {key: getattr(args, key) for key in RECORD_HEADER}
    path = ResultStore(args.results_dir).save(name, {**header, **record})
    print(f"\nsaved: {path}")


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
    # Last probe at a time wins: a recalibration probe at the same
    # timestamp overwrites the triggering (degraded) probe.
    latest = {chip: {t: 100 * q for t, q in series[chip]} for chip in chips}
    times = sorted({t for chip in chips for t in latest[chip]})
    events = engine.telemetry.recalibration_events
    if len(chips) > max_chips:
        rows = []
        for t in times:
            values = [latest[chip][t] for chip in chips if t in latest[chip]]
            quantiles = (np.percentile(values, 10), np.median(values),
                         np.percentile(values, 90), min(values))
            rows.append([f"{t:.0f}", len(values), *(f"{v:.1f}" for v in quantiles)])
        print(format_table(
            ["t", "probed", "p10", "median", "p90", "min"], rows,
            title=f"probed accuracy over time (%, fleet of {len(chips)})",
        ))
        if events:
            print(f"recalibration events: {len(events)}")
        return
    rows = [
        [f"{t:.0f}", *(f"{latest[chip][t]:.1f}" if t in latest[chip] else "-"
                       for chip in chips)]
        for t in times
    ]
    print(format_table(["t"] + chips, rows, title="probed accuracy over time (%)"))
    if events:
        print("recalibration events: " + "  ".join(
            f"t={event_time:.0f}:{chip}" for event_time, chip in events
        ))


def _print_stage_breakdown(engine, title: str) -> None:
    """Where serving wall time went, stage by stage (the stage meters)."""
    breakdown = engine.obs.breakdown()
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


def _end_accuracy(args, run: _Session) -> float:
    # "End of trace" = the second half of the request stream: long enough to
    # span several batches and probe rounds, late enough that drift has bitten.
    return run.accuracy(tail=max(1, args.requests // 2))


def _drift_race(args, policies) -> list[_Session]:
    """One drifting session per policy, over the same fleet and arrivals.

    ``serve-bench --drift`` and ``lifetime-bench`` both run this race.
    The sessions share the engine and lifecycle seeds, so the fleet, the
    drift paths and the probe schedule are the same for every policy:
    only dispatch, and therefore served accuracy, differs.
    """
    args.fleet = args.fleet or "rram:2,flash:2"
    args.trace = args.trace or "uniform"
    model, test, eval_spec = _serve_model(args)
    trace = _cli_trace(args)
    return [_serve(args, model, test, eval_spec, p, "drift", trace) for p in policies]


def _finish_drift_race(args, runs: list[_Session], name: str) -> int:
    """Print each run's digest and probe counts; save the race's record."""
    for run in runs:
        telemetry = run.engine.telemetry
        print(f"telemetry digest: {telemetry.digest()} ({run.policy})")
        print(f"probes: {telemetry.probes} run, {telemetry.probes_reused} reused, "
              f"{telemetry.probes_deferred} deferred, "
              f"{run.recalibrations} recalibrations ({run.policy})")
    _save(args, name, {
        "drift_kind": args.drift_kind,
        "drift_nu": args.drift_nu,
        "probe_every": args.probe_every,
        "accuracy_floor": args.accuracy_floor,
        "policies": [
            {**run.entry(), "end_accuracy": _end_accuracy(args, run),
             "recalibrations": run.recalibrations, "seconds": run.seconds,
             "cache": run.engine.cache.stats.as_dict()}
            for run in runs
        ],
    })
    return 0


def _cmd_serve_bench_drift(args) -> int:
    runs = _drift_race(args, dict.fromkeys([args.policy, "drift-aware", "round-robin"]))
    rows = [
        [run.policy, f"{100 * run.accuracy():.1f}",
         f"{100 * _end_accuracy(args, run):.1f}", run.recalibrations,
         f"{run.engine.telemetry.queue_ticks.max:.0f}",
         f"{run.engine.telemetry.total_energy_uj:.1f}",
         f"{args.requests / run.seconds:.1f}"]
        for run in runs
    ]
    print(format_table(
        ["policy", "accuracy %", "end-of-trace %", "recals", "queue max",
         "energy uJ", "req/s"],
        rows,
        title=(
            f"serve-bench --drift {args.model}/{args.notation} "
            f"backend={args.backend} fleet={args.fleet} "
            f"trace={args.trace} nu={args.drift_nu}"
        ),
    ))
    print()
    _print_quality_timeline(runs[0].engine)
    print(f"\nmapping cache: {runs[0].engine.cache.stats.as_dict()}")
    baseline = next(run for run in runs if run.policy == "round-robin")
    base = _end_accuracy(args, baseline)
    for run in runs:
        if run is not baseline:
            end = _end_accuracy(args, run)
            print(f"{run.policy} vs round-robin end-of-trace accuracy: "
                  f"{100 * end:.1f}% vs {100 * base:.1f}% ({100 * (end - base):+.1f} pts)")
    return _finish_drift_race(args, runs, f"serve-bench-drift-{args.model}")


def _cmd_lifetime_bench(args) -> int:
    runs = _drift_race(args, args.policies)
    rows = [
        [run.policy, f"{100 * run.accuracy():.1f}",
         f"{100 * _end_accuracy(args, run):.1f}", run.recalibrations,
         f"{run.engine.telemetry.queue_ticks.mean:.2f}",
         f"{run.engine.telemetry.queue_ticks.max:.0f}",
         f"{run.engine.telemetry.total_energy_uj:.1f}"]
        for run in runs
    ]
    print(format_table(
        ["policy", "accuracy %", "end-of-trace %", "recals",
         "queue mean", "queue max", "energy uJ"],
        rows,
        title=(
            f"lifetime-bench {args.model}/{args.notation} "
            f"backend={args.backend} fleet={args.fleet} "
            f"trace={args.trace} {args.drift_kind} drift"
        ),
    ))
    print()
    _print_quality_timeline(runs[0].engine)
    best = max(runs, key=lambda run: _end_accuracy(args, run))
    print(f"\nbest end-of-trace policy: {best.policy} "
          f"({100 * _end_accuracy(args, best):.1f}%)")
    return _finish_drift_race(args, runs, f"lifetime-bench-{args.model}")


def _cmd_serve_bench_chaos(args, model, test, eval_spec, trace) -> int:
    """Goodput-under-faults bench: chaos schedule in, dead letters out.

    The session runs *twice* from the same (engine seed, fault seed,
    trace) and the rerun must reproduce it bit for bit
    (:func:`_reproducible`); any divergence, or goodput below
    ``--goodput-floor``, is a non-zero exit, so CI can hold the line.
    """
    first, rerun = (
        _serve(args, model, test, eval_spec, args.policy, "chaos", trace)
        for _ in range(2)
    )
    reproducible = _reproducible(first, rerun)
    engine, schedule = first.engine, first.injector.schedule
    telemetry = engine.telemetry
    goodput = telemetry.goodput
    health_counts: dict[str, int] = {}
    for chip in engine.fleet:
        health_counts[chip.health] = health_counts.get(chip.health, 0) + 1
    rows = [
        ["requests", args.requests],
        ["served", len(first.served)],
        ["dead-lettered", len(engine.dead_letters)],
        ["goodput", f"{100 * goodput:.2f}%"],
        ["served accuracy", f"{100 * first.accuracy():.1f}%"],
        ["faults fired", telemetry.faults],
        ["retries", telemetry.retries],
        ["hedges", telemetry.hedges],
        ["replacements", len(engine.retired)],
        ["fleet health", ", ".join(f"{k}:{v}" for k, v in sorted(health_counts.items()))],
        ["reproducible", "yes" if reproducible else "NO"],
        ["req/s", f"{args.requests / first.seconds:.1f}"],
    ]
    print(format_table(
        ["metric", "value"],
        rows,
        title=(
            f"serve-bench --chaos {args.model}/{args.notation} "
            f"{args.num_chips} chips, backend={args.backend}, "
            f"deaths={args.deaths} stuck={args.stuck_chips} "
            f"transient={args.transient_rate} fault-seed={args.fault_seed}"
        ),
    ))
    print("\nfault schedule: " + (
        "  ".join(f"t={e.tick}:{e.kind}@{e.chip_id}" for e in schedule) or "(empty)"
    ))
    if engine.dead_letters:
        print("dead letters:")
        for letter in sorted(engine.dead_letters.values(), key=lambda dead: dead.id):
            print(
                f"  {letter.id}: {letter.reason} after {letter.attempts} "
                f"attempts (cause: {letter.cause}, tick {letter.tick})"
            )
    print("\nchaos engine telemetry:")
    print(telemetry.format())
    print(f"telemetry digest: {telemetry.digest()}")
    _save(args, f"serve-bench-chaos-{args.model}", {
        **first.entry(),
        "fault_seed": args.fault_seed,
        "plan": {
            "transient_rate": args.transient_rate, "latency_rate": args.latency_rate,
            "deaths": args.deaths, "stuck_chips": args.stuck_chips,
            "horizon": args.fault_horizon,
        },
        "goodput": goodput,
        "served": len(first.served),
        "dead_letters": sorted(engine.dead_letters),
        "reproducible": reproducible,
        "schedule": [
            {"tick": e.tick, "kind": e.kind, "chip_id": e.chip_id} for e in schedule
        ],
    })
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


def _violation_fraction(telemetry) -> float:
    finished = telemetry.slo_met + telemetry.slo_violations
    return telemetry.slo_violations / finished if finished else 0.0


def _cmd_serve_bench_slo(args, model, test, eval_spec, trace) -> int:
    """Deadline/SLO bench: goodput race plus a reproducibility gate.

    Every request carries an ``arrival + --slo-ticks`` deadline.
    ``--policy``, ``latency-aware``, and ``round-robin`` race on SLO
    attainment; the best policy then runs a second time and must
    reproduce its first run bit for bit (:func:`_reproducible`).
    Divergence, or a violation fraction above ``--slo-ceiling``, is a
    non-zero exit.
    """
    from repro.serve import DeadlineTrace

    trace = DeadlineTrace(trace, slo_ticks=args.slo_ticks)
    runs = [
        _serve(args, model, test, eval_spec, policy, "slo", trace)
        for policy in dict.fromkeys([args.policy, "latency-aware", "round-robin"])
    ]
    best = max(runs, key=lambda run: (
        run.engine.telemetry.slo_attainment, run.policy == args.policy
    ))
    reproducible = _reproducible(
        best, _serve(args, model, test, eval_spec, best.policy, "slo", trace)
    )
    rows = []
    for run in runs:
        telemetry = run.engine.telemetry
        rows.append([
            run.policy, len(run.served), len(run.engine.dead_letters),
            telemetry.slo_met, telemetry.slo_violations,
            f"{100 * telemetry.slo_attainment:.1f}",
            f"{telemetry.deadline_headroom.quantile(0.50):.1f}",
            f"{100 * run.accuracy():.1f}", f"{args.requests / run.seconds:.1f}",
        ])
    print(format_table(
        ["policy", "served", "dead-let", "slo met", "violated",
         "attainment %", "headroom p50", "accuracy %", "req/s"],
        rows,
        title=(
            f"serve-bench --slo {args.model}/{args.notation} "
            f"{args.num_chips} chips, backend={args.backend}, "
            f"slo={args.slo_ticks} ticks, trace={args.trace}, "
            f"transient={args.transient_rate}"
        ),
    ))
    telemetry = best.engine.telemetry
    violations = _violation_fraction(telemetry)
    print(
        f"\nbest policy: {best.policy} "
        f"(attainment {100 * telemetry.slo_attainment:.1f}%, "
        f"violations {100 * violations:.1f}% "
        f"vs ceiling {100 * args.slo_ceiling:.1f}%)  "
        f"reproducible: {'yes' if reproducible else 'NO'}"
    )
    print("\nbest-policy telemetry:")
    print(telemetry.format())
    for run in runs:
        print(f"telemetry digest: {run.engine.telemetry.digest()} ({run.policy})")
    _save(args, f"serve-bench-slo-{args.model}", {
        "slo_ticks": args.slo_ticks,
        "slo_ceiling": args.slo_ceiling,
        "transient_rate": args.transient_rate,
        "latency_rate": args.latency_rate,
        "fault_seed": args.fault_seed,
        "best_policy": best.policy,
        "reproducible": reproducible,
        "policies": [
            {**run.entry(), "served": len(run.served),
             "dead_letters": sorted(run.engine.dead_letters),
             "attainment": run.engine.telemetry.slo_attainment,
             "violation_fraction": _violation_fraction(run.engine.telemetry),
             "seconds": run.seconds}
            for run in runs
        ],
    })
    if not reproducible:
        print("ERROR: slo run is not bit-reproducible across reruns")
        return 1
    if violations > args.slo_ceiling:
        print(
            f"ERROR: SLO violation fraction {100 * violations:.1f}% "
            f"above ceiling {100 * args.slo_ceiling:.1f}%"
        )
        return 1
    return 0


def _print_batching_delta(sequential: _Session, batched: _Session) -> None:
    """How far batching moved the requests both runs served on one chip.

    Batch composition can move a logit by a few ulps (BLAS may sum a
    one-row product in another order than a many-row one); this line
    says whether any such move changed a predicted class.
    """
    chips = sequential.engine.assignments()
    same = [rid for rid, chip in batched.engine.assignments().items()
            if chips.get(rid) == chip]
    pairs = [(sequential.outputs[rid], batched.outputs[rid]) for rid in same]
    changed = sum(int(a.argmax() != b.argmax()) for a, b in pairs)
    delta = max((float(np.abs(a - b).max()) for a, b in pairs), default=0.0)
    print(f"batched vs sequential on the same chip: {len(same)} requests, "
          f"{changed} changed class, max |dlogit| {delta:.1e}")


def _cmd_serve_bench(args) -> int:
    if sum((args.chaos, args.drift, args.slo)) > 1:
        raise SystemExit(
            "error: --chaos, --drift, and --slo are separate benches; pick one"
        )
    if args.drift:
        return _cmd_serve_bench_drift(args)
    if args.chaos or args.slo:
        # Faults and deadlines land on ticks, so these benches spread
        # arrivals over time; plain serve-bench submits all at tick 0.
        args.trace = args.trace or "uniform"
    model, test, eval_spec = _serve_model(args)
    trace = _cli_trace(args)
    if args.chaos:
        return _cmd_serve_bench_chaos(args, model, test, eval_spec, trace)
    if args.slo:
        return _cmd_serve_bench_slo(args, model, test, eval_spec, trace)
    sequential, batched = (
        _serve(args, model, test, eval_spec, args.policy, mode, trace)
        for mode in ("sequential", "batched")
    )
    speedup = sequential.seconds / batched.seconds if batched.seconds > 0 else float("inf")
    rows = [
        [mode, args.requests, run.engine.telemetry.batches,
         f"{run.engine.telemetry.batch_size.mean:.1f}",
         f"{args.requests / run.seconds:.1f}", ratio]
        for mode, run, ratio in (
            ("sequential", sequential, "1.00"), ("batched", batched, f"{speedup:.2f}")
        )
    ]
    print(format_table(
        ["mode", "requests", "batches", "batch mean", "throughput sps", "speedup"],
        rows,
        title=(
            f"serve-bench {args.model}/{args.notation} sigma={args.sigma} "
            f"{args.scenario}, {args.num_chips} chips, "
            f"backend={args.backend}, policy={args.policy}"
        ),
    ))
    telemetry = batched.engine.telemetry
    print("\nbatched engine telemetry:")
    print(telemetry.format())
    print(f"fused dispatch: {telemetry.fused_groups} groups, "
          f"{telemetry.fused_batches} batches")
    print(f"telemetry digest: {telemetry.digest()}")
    print()
    _print_stage_breakdown(batched.engine, title="per-stage breakdown (batched)")
    _print_batching_delta(sequential, batched)
    _save(args, f"serve-bench-{args.model}", {
        "policy": args.policy,
        "sequential_seconds": sequential.seconds,
        "batched_seconds": batched.seconds,
        "speedup": speedup,
        "telemetry": telemetry.report(),
        "cache": batched.engine.cache.stats.as_dict(),
    })
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
