"""Engine-level parity tests for fused cross-chip dispatch.

``ServeConfig(fused=True)`` vs ``fused=False`` must be *indistinguishable*
in everything the engine accounts for: per-request logits (bit-equal),
chip assignments, and the telemetry digest — across tick-barrier and
replay-trace admission, under mid-run recalibration, drift, fault maps,
and spare provisioning, on both backends.  Chaos runs take the retrying
executor whatever ``fused`` says, so parity there is structural, and
asserted too.
"""

import numpy as np
import pytest

from repro.backends import FusedFleetForward
from repro.datasets.loaders import batch_iterator
from repro.datasets.synthetic import make_pattern_dataset
from repro.models import build_model
from repro.nn import init
from repro.quant.calibration import calibrate_model
from repro.quant.ptq import convert_to_quantized
from repro.quant.qconfig import QConfig
from repro.selftuning.tuner import SelfTuningConfig
from repro.serve import (
    ChipLifecycle,
    FaultInjector,
    FaultPlan,
    FleetSpec,
    InferenceEngine,
    LifecycleConfig,
    ReplayTrace,
    ServeConfig,
    UniformTrace,
)
from repro.variability.faults import FaultSpec
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySpec


@pytest.fixture(scope="module")
def served_model():
    init.seed(0)
    dataset = make_pattern_dataset(5, 16, (1, 28, 28), seed=7, max_shift=1, noise=0.2)
    model = build_model("lenet5-mini", num_classes=5, in_channels=1)
    convert_to_quantized(model, QConfig.from_notation("A4W2"))
    calibrate_model(model, batch_iterator(dataset, 16, shuffle=False), max_batches=3)
    model.eval()
    return model, dataset


def _spec(sigma=0.2):
    return VariabilitySpec.mixed(sigma, WeightProportionalVariance())


def _engine(model, fused, num_chips=3, **config):
    config.setdefault("max_batch", 4)
    config.setdefault("max_wait", 2)
    config.setdefault("seed", 5)
    return InferenceEngine(
        model,
        _spec(),
        num_chips=num_chips,
        config=ServeConfig(fused=fused, **config),
    )


def _workload(dataset, requests):
    reps = 1 + (requests - 1) // len(dataset.images)
    return np.concatenate([dataset.images] * reps)[:requests]


def _serve_bursty(engine, workload, per_tick=12, deadline_ticks=20):
    """Submit ``per_tick`` requests between steps: several due batches per
    tick, which is what gives the fused path groups to stack."""
    for i, sample in enumerate(workload):
        engine.submit(
            sample, request_id=f"r{i:04d}", deadline=engine.now + deadline_ticks
        )
        if (i + 1) % per_tick == 0:
            engine.step()
    engine.drain()
    return engine


def _snapshot(engine):
    outputs = {rid: done.output for rid, done in engine.completed.items()}
    chips = {rid: done.chip_id for rid, done in engine.completed.items()}
    return outputs, chips, engine.telemetry.digest()


def _assert_equivalent(fused_engine, plain_engine):
    out_f, chips_f, digest_f = _snapshot(fused_engine)
    out_p, chips_p, digest_p = _snapshot(plain_engine)
    assert set(out_f) == set(out_p)
    assert chips_f == chips_p
    assert all(np.array_equal(out_f[rid], out_p[rid]) for rid in out_p)
    assert digest_f == digest_p


@pytest.mark.parametrize("backend", ["fake-quant", "circuit"])
def test_fused_serving_is_bit_identical(served_model, backend):
    model, dataset = served_model
    workload = _workload(dataset, 36)
    fused = _serve_bursty(_engine(model, True, backend=backend), workload)
    plain = _serve_bursty(_engine(model, False, backend=backend), workload)
    _assert_equivalent(fused, plain)
    assert fused.telemetry.fused_groups > 0
    assert fused.telemetry.fused_batches > fused.telemetry.fused_groups
    assert plain.telemetry.fused_groups == 0


@pytest.mark.parametrize("policy", ["round-robin", "least-loaded", "energy-aware"])
def test_fused_parity_across_policies(served_model, policy):
    """Staged counter/energy bumps reproduce every policy's choices."""
    model, dataset = served_model
    workload = _workload(dataset, 36)
    fused = _serve_bursty(_engine(model, True, policy=policy), workload)
    plain = _serve_bursty(_engine(model, False, policy=policy), workload)
    _assert_equivalent(fused, plain)
    assert fused.telemetry.fused_groups > 0


def test_fused_parity_on_replay_trace(served_model):
    model, dataset = served_model
    workload = _workload(dataset, 40)
    ids = [f"t{i:04d}" for i in range(len(workload))]
    trace = ReplayTrace.from_trace(UniformTrace(rate=10.0), len(ids))
    fused = _engine(model, True)
    plain = _engine(model, False)
    out_f = fused.run_trace(workload, trace, ids=ids)
    out_p = plain.run_trace(workload, trace, ids=ids)
    assert set(out_f) == set(out_p)
    assert all(np.array_equal(out_f[rid], out_p[rid]) for rid in out_p)
    assert fused.telemetry.digest() == plain.telemetry.digest()


def test_cold_fleet_first_tick_stacks(served_model):
    """The stack is built after staging, from the chips staging programmed,
    so a cold fleet's first multi-batch tick already runs as one group."""
    model, dataset = served_model
    workload = _workload(dataset, 16)
    engines = []
    for fused in (True, False):
        engine = _engine(model, fused, num_chips=4)
        assert len(engine.cache) == 0
        for i, sample in enumerate(workload):
            engine.submit(sample, request_id=f"k{i:04d}")
        engine.step()
        engines.append(engine)
    cold, plain = engines
    assert cold.telemetry.batches == 4
    assert cold.telemetry.fused_groups == 1
    assert cold.telemetry.fused_batches == 4
    assert plain.telemetry.fused_groups == 0
    _assert_equivalent(cold, plain)


@pytest.mark.parametrize(
    "fused, config",
    [(True, {}), (False, {}), (True, {"self_tuning": SelfTuningConfig()})],
    ids=["fused", "unfused", "self-tuned"],
)
def test_unstackable_tick_holds_no_more_chips_than_the_cache(served_model, fused, config):
    """A tick of twelve batches on six chips with two resident cannot stack:
    each batch runs as soon as it is booked, so no more programmed chips
    wait for a forward than the cache holds plus the one being staged."""
    model, dataset = served_model
    engine = _engine(model, fused, num_chips=6, max_resident_chips=2, **config)
    waiting, peak = [], []
    book, run_each = engine._book, engine._run_each

    def booked(chip, programmed, batch, inputs):
        waiting.append(programmed)
        peak.append(len({id(p) for p in waiting}))
        return book(chip, programmed, batch, inputs)

    def ran(staged):
        for entry in staged:
            waiting.remove(entry[2])
        return run_each(staged)

    engine._book, engine._run_each = booked, ran
    for i, sample in enumerate(_workload(dataset, 48)):
        engine.submit(sample, request_id=f"m{i:04d}")
    engine.step()
    assert engine.telemetry.batches == 12
    assert engine.cache.stats.evictions > 0
    assert engine.telemetry.fused_groups == 0
    assert waiting == []
    assert max(peak) <= engine.cache.capacity + 1


def test_fused_parity_under_chaos(served_model):
    """An installed fault injector routes every batch through the retrying
    executor, so a chaos run is identical with fusion on or off — schedule,
    dead letters, bits."""
    model, dataset = served_model
    workload = _workload(dataset, 40)
    ids = [f"c{i:04d}" for i in range(len(workload))]
    trace = ReplayTrace.from_trace(UniformTrace(rate=10.0), len(ids))
    engines = []
    for fused in (True, False):
        engine = _engine(model, fused, num_chips=6)
        engine.warm_up()
        FaultInjector(engine, FaultPlan(seed=3)).install()
        engine.run_trace(workload, trace, ids=ids)
        engines.append(engine)
    chaos_fused, chaos_plain = engines
    assert chaos_fused.faults.schedule == chaos_plain.faults.schedule
    assert set(chaos_fused.dead_letters) == set(chaos_plain.dead_letters)
    _assert_equivalent(chaos_fused, chaos_plain)
    assert chaos_fused.telemetry.fused_groups == 0  # the retrying executor never stacks


def test_fused_parity_across_recalibration(served_model):
    """Mid-run reprogramming creates new chip objects; the stack rebuilds
    and stays bit-identical."""
    model, dataset = served_model
    workload = _workload(dataset, 48)
    engines = []
    for fused in (True, False):
        engine = _engine(model, fused)
        _serve_bursty(engine, workload[:24])
        engine.reprogram(engine.fleet[0])
        _serve_bursty(engine, workload[24:])
        engines.append(engine)
    _assert_equivalent(*engines)
    assert engines[0].telemetry.fused_groups > 0


def test_fused_parity_across_fault_map_and_replacement(served_model):
    """apply_faults (sticky stuck-at map) and spare provisioning both
    invalidate the stack; serving stays bit-identical through both."""
    model, dataset = served_model
    workload = _workload(dataset, 48)
    engines = []
    for fused in (True, False):
        engine = _engine(model, fused)
        _serve_bursty(engine, workload[:16])
        engine.inject_chip_faults(
            engine.fleet[1], FaultSpec(p_stuck_off=0.05, p_stuck_on=0.02), seed=9
        )
        _serve_bursty(engine, workload[16:32])
        engine.replace_chip(engine.fleet[1], reason="test")
        _serve_bursty(engine, workload[32:])
        engines.append(engine)
    _assert_equivalent(*engines)
    assert engines[0].telemetry.fused_groups > 0



@pytest.mark.parametrize(
    "backend, max_resident_chips",
    [("fake-quant", None), ("circuit", None), ("fake-quant", 2), ("circuit", 2)],
    ids=["fake-quant", "circuit", "fake-quant-2-resident", "circuit-2-resident"],
)
def test_fused_parity_under_drifting_lifecycle(served_model, backend, max_resident_chips):
    """The lifecycle drifts every chip between ticks, so mappings refresh
    in place and the stack rebuilds; serving stays bit-identical.  With two
    resident chips the probe sweeps run in chunks that spill and
    re-realize chips."""
    model, dataset = served_model
    workload = _workload(dataset, 60)
    ids = [f"d{i:04d}" for i in range(len(workload))]
    trace = ReplayTrace.from_trace(UniformTrace(rate=12.0), len(ids))
    lifecycle_config = LifecycleConfig(
        dt=1.0, probe_every=6.0, accuracy_floor=0.95, probe_subset=16, seed=3
    )
    results = []
    for fused in (True, False):
        engine = InferenceEngine(
            model,
            _spec(),
            config=ServeConfig(
                max_batch=4, max_wait=2, seed=5, backend=backend, fused=fused,
                max_resident_chips=max_resident_chips,
            ),
            fleet_spec=FleetSpec.parse("rram:2,flash:2"),
        )
        lifecycle = ChipLifecycle(engine, dataset, lifecycle_config)
        lifecycle.install()
        outputs = engine.run_trace(workload, trace, ids=ids, lifecycle=lifecycle)
        results.append((engine, lifecycle, outputs))
    (fused, life_f, out_f), (plain, life_p, out_p) = results
    if max_resident_chips is None:
        assert fused.telemetry.fused_groups > 0
    else:
        # Three due batches per tick on two resident chips never share one
        # stack, so each staged batch runs on its own chip; the sweeps
        # still chunk.
        assert fused.cache.stats.spills > 0
    assert set(out_f) == set(out_p)
    assert all(np.array_equal(out_f[rid], out_p[rid]) for rid in out_p)
    assert fused.telemetry.digest() == plain.telemetry.digest()
    assert fused.telemetry.quality_series == plain.telemetry.quality_series
    assert len(life_f.events) == len(life_p.events)


PROBE_FLEETS = {
    "fake-quant": {},
    "circuit": {"backend": "circuit"},
    "self-tuned": {"self_tuning": SelfTuningConfig()},
    "sticky-faults": {},
}


def _probe_engine(model, fleet):
    """Five chips, two resident: sweeps chunk, spill and re-realize."""
    engine = _engine(model, True, num_chips=5, max_resident_chips=2, **PROBE_FLEETS[fleet])
    if fleet == "sticky-faults":
        for index in (1, 3):
            engine.inject_chip_faults(
                engine.fleet[index], FaultSpec(p_stuck_off=0.2, p_stuck_on=0.1), seed=index
            )
    return engine


@pytest.mark.parametrize("fleet", sorted(PROBE_FLEETS))
def test_probe_sweep_matches_probe_chip_loop(served_model, fleet, monkeypatch):
    """The chunked, stem-sharing sweep returns exactly the qualities of
    probing each chip on its own; self-tuned chips cannot be stacked and
    take the per-chip path."""
    model, dataset = served_model
    shared = []
    real = FusedFleetForward.forward_shared

    def spy(self, chip, inputs):
        shared.append(chip.chip_id)
        return real(self, chip, inputs)

    monkeypatch.setattr(FusedFleetForward, "forward_shared", spy)
    swept = _probe_engine(model, fleet).probe_fleet(dataset, k=2, batch_size=32)
    engine = _probe_engine(model, fleet)
    looped = {
        chip.chip_id: engine.probe_chip(chip, dataset, k=2, batch_size=32)
        for chip in engine.fleet
    }
    assert list(swept) == list(looped)
    assert swept == looped
    batches = len(list(batch_iterator(dataset, 32, shuffle=False)))
    assert len(shared) == (0 if fleet == "self-tuned" else len(engine.fleet) * batches)


def test_probe_sweep_programs_only_cold_chips(served_model):
    """Resident chips are probed first, so a sweep over 6 chips with 2
    resident programs the 4 others once each."""
    model, dataset = served_model
    engine = _engine(model, True, num_chips=6, max_resident_chips=2)
    engine.warm_up()
    assert len(engine.cache) == 2
    before = engine.cache.stats.misses
    engine.probe_fleet(dataset)
    assert engine.cache.stats.misses - before == 4
    assert engine.cache.stats.peak_resident == 2


def test_self_tuning_disables_fusion(served_model):
    model, dataset = served_model
    workload = _workload(dataset, 24)
    engine = _engine(
        model, True, backend="fake-quant", self_tuning=SelfTuningConfig()
    )
    _serve_bursty(engine, workload)
    assert engine.telemetry.fused_groups == 0
    assert len(engine.completed) == len(workload)


def test_fused_counters_in_report(served_model):
    model, dataset = served_model
    engine = _serve_bursty(_engine(model, True), _workload(dataset, 24))
    section = engine.telemetry.report()["fused"]
    assert section["groups"] == engine.telemetry.fused_groups
    assert section["batches"] == engine.telemetry.fused_batches


def test_digest_is_deterministic_and_workload_sensitive(served_model):
    model, dataset = served_model
    workload = _workload(dataset, 24)
    first = _serve_bursty(_engine(model, True), workload)
    second = _serve_bursty(_engine(model, True), workload)
    assert first.telemetry.digest() == second.telemetry.digest()
    shorter = _serve_bursty(_engine(model, True), workload[:12])
    assert shorter.telemetry.digest() != first.telemetry.digest()


@pytest.mark.parametrize("backend", ["fake-quant", "circuit"])
def test_digest_covers_served_outputs(served_model, monkeypatch, backend):
    """One logit of one chip moved by one ulp changes the digest; the
    routing, and every other accounted quantity, does not change."""
    model, dataset = served_model
    workload = _workload(dataset, 24)
    plain = _serve_bursty(_engine(model, False, backend=backend), workload)
    programmed_type = type(plain.programmed_for(plain.fleet[0]))
    forward = programmed_type.forward

    def nudged(self, inputs):
        out = forward(self, inputs)
        if self.chip_id == plain.fleet[1].chip_id:
            out = out.copy()
            out[0, 0] = np.nextafter(out[0, 0], np.inf)
        return out

    monkeypatch.setattr(programmed_type, "forward", nudged)
    perturbed = _serve_bursty(_engine(model, False, backend=backend), workload)
    out_p, chips_p, digest_p = _snapshot(plain)
    out_n, chips_n, digest_n = _snapshot(perturbed)
    assert chips_n == chips_p
    differ = [rid for rid in out_p if not np.array_equal(out_p[rid], out_n[rid])]
    assert differ and all(chips_p[rid] == plain.fleet[1].chip_id for rid in differ)
    assert digest_n != digest_p


def test_served_hash_ignores_batch_completion_order():
    """The fused path completes a tick's batches after staging them all:
    the digest must not depend on the order batches are recorded in."""
    from repro.serve.telemetry import ServeTelemetry

    batches = [
        ("chip-0", ["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]])),
        ("chip-1", ["c"], np.array([[5.0, -0.0]])),
        ("chip-0", ["d"], np.array([[7.0, 8.0]])),
    ]

    def digest(order, rows=None):
        telemetry = ServeTelemetry(max_batch=2)
        for chip, ids, outputs in (batches[i] for i in order):
            telemetry.record_batch(
                chip, [0] * len(ids), 1e-3, 1.0, request_ids=ids,
                outputs=outputs if rows is None or ids[0] != "c" else rows,
            )
        return telemetry.digest()

    assert digest([0, 1, 2]) == digest([2, 1, 0]) == digest([1, 0, 2])
    assert digest([0, 1, 2], rows=np.array([[5.0, 0.0]])) != digest([0, 1, 2])
