"""Tests of the benchmark's own code: correction, percentiles, seeds, tracer, names."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import client
import hostclock
import quantiles
import run
import scenarios
import spantrace

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


class FakeKernel:
    """A reference kernel whose two parts take fixed time on a fake clock."""

    def __init__(self, clock: FakeClock, slowdown: float) -> None:
        self.clock, self.slowdown = clock, slowdown

    def compute(self) -> None:
        self.clock.advance(0.002 * self.slowdown)

    def memory(self) -> None:
        self.clock.advance(0.001 * self.slowdown)


def _timed_session(slowdown: float) -> tuple[float, float]:
    """Corrected and raw duration of a fake session on a host ``slowdown`` x slower."""
    clock = FakeClock()
    host = hostclock.HostClock(0.003, cadence=0.05, kernel=FakeKernel(clock, slowdown), clock=clock)
    host.sample()
    start = clock()
    for _ in range(40):  # 40 ticks of 10 ms work at nominal speed
        host.maybe_sample()
        clock.advance(0.010 * slowdown)
    end = clock()
    host.sample()
    corrected = host.corrected([start, end])
    return float(corrected[1] - corrected[0]), end - start


@pytest.mark.parametrize("slowdown", [1.0, 1.3, 1.8])
def test_host_correction_cancels_a_uniform_slowdown(slowdown):
    corrected, raw = _timed_session(slowdown)
    nominal, _ = _timed_session(1.0)
    assert corrected == pytest.approx(nominal, rel=1e-9)
    # The kernel's own time is excluded: 40 ticks of 10 ms at nominal speed.
    assert corrected == pytest.approx(0.400, rel=1e-9)
    assert raw > corrected if slowdown > 1.0 else raw >= corrected


def test_corrected_clock_uses_the_bracketing_samples():
    # Gap 1 runs between samples of 1 ms and 3 ms: slope 2 ms / mean 2 ms = 1.
    samples = [(0.0, 1.0, 0.001), (2.0, 3.0, 0.003)]
    out = hostclock.corrected_clock(samples, 0.002, [1.0, 1.5, 2.0, 2.5, 4.0])
    assert out.tolist() == pytest.approx([0.0, 0.5, 1.0, 1.0, 1.0 + 2.0 / 3.0])
    with pytest.raises(ValueError):
        hostclock.corrected_clock([], 0.002, [0.0])


def test_percentile_refuses_p99_without_ten_samples_beyond():
    assert quantiles.min_samples(0.99) == 1000
    assert quantiles.min_samples(0.5) == 20
    with pytest.raises(quantiles.TooFewSamples):
        quantiles.percentile(range(999), 0.99)
    assert quantiles.percentile(range(1000), 0.99) == pytest.approx(989.01)
    assert quantiles.percentile(range(21), 0.5) == 10.0
    with pytest.raises(quantiles.TooFewSamples):
        quantiles.percentile([1.0] * 19, 0.5)


def test_spread_matches_statistics_quantiles():
    stats = quantiles.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats["median"] == 3.0
    assert (stats["q1"], stats["q3"]) == (1.5, 4.5)
    assert stats["iqr_over_median"] == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["steady-fleet", "circuit-chaos"])
def test_seeded_schedules_repeat_for_a_seed_and_differ_across_seeds(name):
    count = 2048
    first = scenarios.arrival_trace(name, 1)
    again = scenarios.arrival_trace(name, 1)
    other = scenarios.arrival_trace(name, 2)
    assert first.schedule(count) == again.schedule(count)
    assert first.deadline_schedule(count) == again.deadline_schedule(count)
    assert first.schedule(count) != other.schedule(count)


def test_drift_lifetime_arrivals_are_uniform_by_design():
    schedule = scenarios.arrival_trace("drift-lifetime", 1).schedule(64)
    assert schedule == scenarios.arrival_trace("drift-lifetime", 2).schedule(64)
    assert schedule == [i // 8 for i in range(64)]


def test_every_pass_has_enough_requests_for_p99():
    for workload in scenarios.WORKLOADS.values():
        assert workload.requests >= quantiles.min_samples(0.99)


def _spans(tracer: spantrace.Tracer, clock: FakeClock, plan) -> None:
    """Record ``plan``: ``("open", name)``, ``("close",)`` or ``("wait", seconds)``."""
    stack = []
    for step in plan:
        if step[0] == "open":
            stack.append(tracer.open(step[1]))
        elif step[0] == "close":
            tracer.close(stack.pop())
        else:
            clock.advance(step[1])


def _totals(tracer: spantrace.Tracer, window) -> dict:
    return spantrace.aggregate(
        tracer.names, tracer.parents, tracer.starts, tracer.ends,
        tracer.values, tracer.values2, window=window,
    )


def test_tracer_self_time_on_a_fake_clock():
    clock = FakeClock()
    tracer = spantrace.Tracer(clock=clock)
    _spans(tracer, clock, [
        ("open", "outer"), ("wait", 1),                          # outer [0, 10]
        ("open", "child"), ("wait", 3), ("close",), ("wait", 1),  # child [1, 4]
        ("open", "child"), ("wait", 0.5),                        # child [5, 7]
        ("open", "leaf"), ("wait", 1), ("close",),               # leaf [5.5, 6.5]
        ("wait", 0.5), ("close",), ("wait", 3), ("close",),
        ("open", "late"), ("wait", 2), ("close",),               # late [10, 12]
    ])
    totals = _totals(tracer, (0.0, 10.0))
    assert totals["outer"]["s"] == 10 and totals["outer"]["self_s"] == 5
    assert totals["outer"]["top_s"] == 10
    assert totals["child"]["calls"] == 2
    assert totals["child"]["s"] == 5 and totals["child"]["self_s"] == 4
    assert totals["leaf"]["self_s"] == 1 and totals["leaf"]["top_s"] == 0
    assert "late" not in totals
    assert tracer.parents == [-1, 0, 0, 2, -1]


def test_chip_forward_inside_a_probe_is_booked_as_a_probe_forward():
    clock = FakeClock()
    tracer = spantrace.Tracer(clock=clock)
    _spans(tracer, clock, [
        ("open", "lifecycle.probe"), ("open", "chip.forward"), ("close",), ("close",),
        ("open", "chip.forward"), ("close",),
    ])
    totals = _totals(tracer, (0.0, 1.0))
    assert totals["probe.forward"]["calls"] == 1
    assert totals["chip.forward"]["calls"] == 1


class _Toy:
    def work(self, x, request_id=None):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    @classmethod
    def make(cls):
        return cls()


def test_wrap_records_spans_values_and_errors_then_restores():
    tracer = spantrace.Tracer(clock=FakeClock())
    original = _Toy.__dict__["work"]
    tracer.wrap(
        _Toy, "work", "toy.work",
        rid_of=lambda args, kwargs: kwargs.get("request_id"),
        measure=lambda i, args, kwargs, result, error: tracer.values.__setitem__(
            i, -1.0 if error else result
        ),
    )
    tracer.wrap(_Toy, "make", "toy.make")
    toy = _Toy.make()
    assert toy.work(3, request_id="r1") == 6
    with pytest.raises(ValueError):
        toy.work(-1)
    assert tracer.names == ["toy.make", "toy.work", "toy.work"]
    assert tracer.rids == [None, "r1", None]
    assert tracer.values == [0.0, 6.0, -1.0]
    tracer.restore()
    assert _Toy.__dict__["work"] is original
    assert isinstance(_Toy.__dict__["make"], classmethod)


def test_install_wraps_every_layer_and_restore_undoes_it():
    from repro.nn import conv
    from repro.serve import engine

    before = engine.InferenceEngine.__dict__["submit"], conv.im2col
    tracer = spantrace.Tracer()
    spantrace.install(tracer)
    try:
        assert engine.InferenceEngine.__dict__["submit"] is not before[0]
        assert conv.im2col.__wrapped__ is before[1]
    finally:
        tracer.restore()
    assert (engine.InferenceEngine.__dict__["submit"], conv.im2col) == before


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_match_the_pattern_and_benchmark_json():
    bench = _benchmark()
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        assert sorted(listed) == sorted(declared)
        for name, unit, _ in declared:
            assert NAME.fullmatch(name) and len(name) <= 64
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))


def test_client_reports_exactly_the_declared_metrics():
    samples = [(0.0, 0.001, 0.002), (0.2, 0.201, 0.002), (5.5, 5.501, 0.002)]
    clock = hostclock.HostClock(0.002)
    clock.samples = samples
    record = {
        "setup": (0.5, 1.0), "serve": (1.0, 5.0), "batches": 4, "queue_max": 3,
        "hedges": 0, "replacements": 0,
    }
    spans = {"names": [], "parents": [], "starts": [], "ends": [], "values": [], "values2": []}
    reported = set(client.per_layer(record, spans, clock))
    reported |= {"host.ref_ms", "host.speed_factor", "trace.overhead"}
    assert reported == {name for name, _, _ in run.PER_LAYER}

    times = np.linspace(1.1, 4.9, 1000)
    passes = [
        {
            "setup": (0.5, 1.0), "serve": (1.0, 5.0), "served": 1000, "submitted": 1000,
            "latency": (times - 0.05, times), "correct": 900, "energy_uj": 100.0,
            "wait_ticks": np.arange(1000) % 3,
        }
    ] * 2
    metrics, timings = client.end_to_end(passes, clock)
    assert set(metrics) == {name for name, _, _ in run.END_TO_END}
    # A steady host at the nominal speed: corrected equals raw.
    assert metrics["sps"] == pytest.approx(timings["raw"]["sps"]) == pytest.approx(250.0)
    assert metrics["latency_p50_ms"] == pytest.approx(50.0)
    assert (metrics["accuracy"], metrics["served_share"]) == (0.9, 1.0)
    assert (metrics["energy_uj_per_request"], metrics["wait_ticks_p99"]) == (0.1, 2.0)


def test_benchmark_json_follows_its_contract():
    bench = _benchmark()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in scenarios.WORKLOADS.values()
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0.0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert run.nominal_ref_ms() > 0.0


def test_reference_kernel_is_deterministic():
    kernel = hostclock.ReferenceKernel()
    assert kernel.compute() == hostclock.ReferenceKernel().compute()
    assert np.isfinite(kernel.memory())
