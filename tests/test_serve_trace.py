"""Tests for arrival traces and trace-driven serving."""

import numpy as np
import pytest

from repro.serve.trace import (
    BurstyTrace,
    PoissonTrace,
    ReplayTrace,
    UniformTrace,
    make_trace,
)


class TestUniform:
    def test_constant_rate(self):
        assert UniformTrace(rate=2.0).schedule(6) == [0, 0, 1, 1, 2, 2]

    def test_fractional_rate_spreads_arrivals(self):
        ticks = UniformTrace(rate=0.5).schedule(3)
        assert ticks == [0, 2, 4]


class TestPoisson:
    def test_schedule_is_sorted_and_nonnegative(self):
        ticks = PoissonTrace(rate=4.0, seed=1).schedule(200)
        assert ticks == sorted(ticks)
        assert ticks[0] >= 0

    def test_deterministic_from_seed(self):
        assert PoissonTrace(rate=4.0, seed=7).schedule(50) == \
            PoissonTrace(rate=4.0, seed=7).schedule(50)

    def test_different_seeds_differ(self):
        assert PoissonTrace(rate=4.0, seed=1).schedule(50) != \
            PoissonTrace(rate=4.0, seed=2).schedule(50)

    def test_mean_rate_roughly_matches(self):
        ticks = PoissonTrace(rate=5.0, seed=0).schedule(1000)
        observed = len(ticks) / (ticks[-1] + 1)
        assert 3.5 < observed < 7.0


class TestBursty:
    def test_arrivals_cluster_in_burst_phase(self):
        trace = BurstyTrace(rate=0.0, burst_rate=16.0, period=8, duty=0.25, seed=0)
        ticks = trace.schedule(100)
        # duty=0.25 of period 8 => only ticks 0,1 mod 8 are hot; quiet rate 0
        # means every arrival lands in a burst phase.
        assert all(t % 8 < 2 for t in ticks)

    def test_deterministic_from_seed(self):
        kwargs = dict(rate=2.0, burst_rate=24.0, period=16, duty=0.25, seed=3)
        assert BurstyTrace(**kwargs).schedule(80) == BurstyTrace(**kwargs).schedule(80)

    def test_schedule_non_decreasing(self):
        ticks = BurstyTrace(seed=5).schedule(64)
        assert ticks == sorted(ticks)


@pytest.mark.parametrize(
    "trace, kwargs, message",
    [
        (UniformTrace, {"rate": 0.0}, "rate"),
        (UniformTrace, {"rate": -1.0}, "rate"),
        (UniformTrace, {"rate": float("nan")}, "rate"),
        (UniformTrace, {"rate": float("inf")}, "rate"),
        (PoissonTrace, {"rate": 0.0}, "rate"),
        (PoissonTrace, {"rate": float("nan")}, "rate"),
        (PoissonTrace, {"rate": float("inf")}, "rate"),
        (BurstyTrace, {"rate": -1.0}, "rate"),
        (BurstyTrace, {"rate": float("nan")}, "rate"),
        (BurstyTrace, {"burst_rate": 0.0}, "burst_rate"),
        (BurstyTrace, {"burst_rate": float("inf")}, "burst_rate"),
        (BurstyTrace, {"period": 0}, "period"),
        (BurstyTrace, {"period": 2.5}, "period"),
        (BurstyTrace, {"duty": 0.0}, "duty"),
        (BurstyTrace, {"duty": 1.5}, "duty"),
        (BurstyTrace, {"duty": float("nan")}, "duty"),
    ],
)
def test_rejects_nonpositive_rate(trace, kwargs, message):
    """Rates, the burst period and the duty cycle are checked at construction,
    so a NaN rate cannot schedule arrivals at a wrapped-around tick."""
    with pytest.raises(ValueError, match=message):
        trace(**kwargs)


class TestReplay:
    def test_replays_exact_ticks(self):
        assert ReplayTrace((0, 0, 3, 7)).schedule(3) == [0, 0, 3]

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            ReplayTrace((3, 1))

    def test_rejects_overflow(self):
        with pytest.raises(ValueError, match="arrivals"):
            ReplayTrace((0, 1)).schedule(3)


class TestRegistry:
    def test_make_trace_by_name(self):
        assert isinstance(make_trace("poisson", rate=2.0, seed=1), PoissonTrace)
        assert isinstance(make_trace("uniform", rate=2.0), UniformTrace)
        assert isinstance(make_trace("bursty"), BurstyTrace)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_trace("diurnal")


class TestRunTrace:
    @pytest.fixture(scope="class")
    def engine_factory(self):
        from repro.datasets.loaders import batch_iterator
        from repro.datasets.synthetic import make_pattern_dataset
        from repro.models import build_model
        from repro.nn import init
        from repro.quant.calibration import calibrate_model
        from repro.quant.ptq import convert_to_quantized
        from repro.quant.qconfig import QConfig
        from repro.serve import InferenceEngine, ServeConfig
        from repro.variability.models import WeightProportionalVariance
        from repro.variability.sampler import VariabilitySpec

        init.seed(0)
        dataset = make_pattern_dataset(4, 10, (1, 28, 28), seed=3, max_shift=1)
        model = build_model("lenet5-mini", num_classes=4, in_channels=1)
        convert_to_quantized(model, QConfig.from_notation("A4W2"))
        calibrate_model(model, batch_iterator(dataset, 16, shuffle=False), max_batches=2)
        model.eval()
        spec = VariabilitySpec.mixed(0.2, WeightProportionalVariance())

        def factory(num_chips=2, **config):
            config.setdefault("max_batch", 4)
            config.setdefault("max_wait", 2)
            return InferenceEngine(
                model, spec, num_chips=num_chips, config=ServeConfig(**config)
            ), dataset

        return factory

    def test_all_requests_served(self, engine_factory):
        engine, dataset = engine_factory()
        ids = [f"r{i:03d}" for i in range(20)]
        inputs = np.concatenate([dataset.images] * 2)[:20]
        results = engine.run_trace(inputs, UniformTrace(rate=3.0), ids=ids)
        assert sorted(results) == ids
        assert engine.telemetry.requests == 20

    def test_trace_matches_closed_loop_on_single_chip(self, engine_factory):
        """On one chip, a traced run serves what the chip computes for the
        batches the trace formed, and predicts the closed loop's classes.

        A single-chip fleet takes routing out: with several chips, timing
        moves batch boundaries and so *which chip* serves a request.  Per-row
        results are not invariant to batch composition (BLAS may sum a
        one-row product in another order than a many-row one, a few ulps
        apart), so the traced rows are compared bit for bit with the chip's
        own forward of each served batch, and with the closed loop's rows
        only by predicted class.
        """
        engine_a, dataset = engine_factory(num_chips=1, seed=4)
        engine_b, _ = engine_factory(num_chips=1, seed=4)
        ids = [f"r{i:03d}" for i in range(16)]
        inputs = np.concatenate([dataset.images] * 2)[:16]
        payloads = dict(zip(ids, inputs))
        closed = engine_a.run(inputs, ids=ids)
        batches = []
        observer = engine_b.batcher.observer

        def record(batch):
            batches.append([request.id for request in batch.requests])
            observer(batch)

        engine_b.batcher.observer = record
        traced = engine_b.run_trace(inputs, PoissonTrace(rate=2.0, seed=1), ids=ids)
        assert sorted(rid for batch in batches for rid in batch) == ids
        assert len(batches) > 1
        chip = engine_b.programmed_for(engine_b.fleet[0])
        for batch in batches:
            expected = chip.forward(np.stack([payloads[rid] for rid in batch]))
            for row, rid in enumerate(batch):
                assert np.array_equal(traced[rid], expected[row])
        for rid in ids:
            assert np.argmax(traced[rid]) == np.argmax(closed[rid])

    def test_traced_run_reproducible(self, engine_factory):
        """Same engine seed + same trace => identical outputs, twice."""
        ids = [f"r{i:03d}" for i in range(16)]
        trace = PoissonTrace(rate=2.0, seed=6)
        runs = []
        for _ in range(2):
            engine, dataset = engine_factory(seed=4)
            inputs = np.concatenate([dataset.images] * 2)[:16]
            runs.append(engine.run_trace(inputs, trace, ids=ids))
        for rid in ids:
            assert np.array_equal(runs[0][rid], runs[1][rid])

    def test_bursty_trace_builds_queue_depth(self, engine_factory):
        engine, dataset = engine_factory(max_batch=2, max_wait=4)
        ids = [f"r{i:03d}" for i in range(24)]
        inputs = np.concatenate([dataset.images] * 3)[:24]
        trace = BurstyTrace(rate=0.0, burst_rate=12.0, period=12, duty=0.25, seed=2)
        engine.run_trace(inputs, trace, ids=ids)
        assert engine.telemetry.queue_ticks.max >= 1

    def test_id_validation(self, engine_factory):
        engine, dataset = engine_factory()
        with pytest.raises(ValueError, match="mismatch"):
            engine.run_trace(dataset.images[:3], UniformTrace(), ids=["a", "b"])
        with pytest.raises(ValueError, match="unique"):
            engine.run_trace(dataset.images[:2], UniformTrace(), ids=["a", "a"])
