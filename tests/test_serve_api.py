"""Tests for the async request gateway and the deadline/SLO machinery.

The determinism discipline extends to the async path: everything a
gateway session observes — which submissions are accepted or rejected,
which chips serve them, which deadlines are met — must be a pure
function of the submission sequence and the engine seed, and every
accepted session must replay bit-for-bit through
``engine.run_trace(gateway.compiled_trace())``.
"""

import asyncio

import numpy as np
import pytest

from repro.datasets.loaders import batch_iterator
from repro.datasets.synthetic import make_pattern_dataset
from repro.models import build_model
from repro.nn import init
from repro.quant.calibration import calibrate_model
from repro.quant.ptq import convert_to_quantized
from repro.quant.qconfig import QConfig
from repro.serve import (
    DeadlineTrace,
    FaultInjector,
    FaultPlan,
    Gateway,
    GatewayConfig,
    InferenceEngine,
    LatencyAwarePolicy,
    MicroBatcher,
    Overloaded,
    ReplayTrace,
    Request,
    RequestFailed,
    RetryPolicy,
    ServeConfig,
    UniformTrace,
    make_policy,
)
from repro.serve.batcher import Batch
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


def _engine(model, num_chips=2, **config):
    config.setdefault("max_batch", 4)
    config.setdefault("max_wait", 2)
    return InferenceEngine(
        model, _spec(), num_chips=num_chips, config=ServeConfig(**config)
    )


class TestBatcherDeadlines:
    def test_deadline_forces_partial_release(self):
        batcher = MicroBatcher(max_batch=8, max_wait=100)
        batcher.submit(Request("a", np.zeros((1, 2, 2)), arrival=0, deadline=2))
        assert batcher.poll(1) == []
        batches = batcher.poll(2)
        assert len(batches) == 1 and batches[0].ids == ["a"]

    def test_ready_releases_only_full_batches(self):
        batcher = MicroBatcher(max_batch=2, max_wait=100)
        batcher.submit(Request("a", np.zeros((1, 2, 2)), arrival=0))
        assert batcher.ready(0) == []
        batcher.submit(Request("b", np.zeros((1, 2, 2)), arrival=0))
        batches = batcher.ready(0)
        assert len(batches) == 1 and batches[0].ids == ["a", "b"]
        assert len(batcher) == 0

    def test_headroom_is_tightest_deadline_minus_formation(self):
        requests = [
            Request("a", np.zeros(2), arrival=0, deadline=9),
            Request("b", np.zeros(2), arrival=0, deadline=5),
            Request("c", np.zeros(2), arrival=0),
        ]
        batch = Batch(requests, formed=3)
        assert batch.min_deadline() == 5
        assert batch.headroom() == 2
        assert Batch(requests[2:], formed=3).headroom() is None


class _StubChip:
    def __init__(self, index, fault_events=0, served_samples=0, quality=None):
        self.index = index
        self.chip_id = f"chip{index:02d}"
        self.fault_events = fault_events
        self.served_samples = served_samples
        self.quality = quality
        self.age = 0.0


class TestLatencyAwarePolicy:
    def _batch(self, deadline, formed=0):
        return Batch([Request("a", np.zeros(2), arrival=0, deadline=deadline)], formed)

    def test_registered(self):
        assert isinstance(make_policy("latency-aware"), LatencyAwarePolicy)

    def test_urgent_batch_avoids_fault_prone_chips(self):
        policy = LatencyAwarePolicy(urgent_ticks=2)
        chips = [
            _StubChip(0, fault_events=3, quality=0.9),
            _StubChip(1, fault_events=0, quality=0.1),
        ]
        urgent = self._batch(deadline=2, formed=0)  # headroom 2 <= urgent_ticks
        assert policy.choose(urgent, chips) is chips[1]

    def test_relaxed_batch_dispatches_quality_first(self):
        policy = LatencyAwarePolicy(urgent_ticks=2)
        chips = [
            _StubChip(0, fault_events=3, quality=0.9),
            _StubChip(1, fault_events=0, quality=0.1),
        ]
        relaxed = self._batch(deadline=50, formed=0)
        assert policy.choose(relaxed, chips) is chips[0]

    def test_no_deadline_means_relaxed(self):
        policy = LatencyAwarePolicy()
        chips = [_StubChip(0, quality=0.9), _StubChip(1, quality=0.5)]
        batch = Batch([Request("a", np.zeros(2), arrival=0)], formed=0)
        assert policy.choose(batch, chips) is chips[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyAwarePolicy(urgent_ticks=-1)
        with pytest.raises(ValueError):
            LatencyAwarePolicy(tie_margin=-0.1)


class TestDeadlineTrace:
    def test_wraps_arrivals_and_attaches_slo(self):
        trace = DeadlineTrace(UniformTrace(rate=2.0), slo_ticks=6)
        assert trace.schedule(4) == UniformTrace(rate=2.0).schedule(4)
        assert trace.deadline_schedule(4) == [6, 6, 7, 7]

    def test_replay_freezes_deadlines(self):
        trace = ReplayTrace.from_trace(
            DeadlineTrace(UniformTrace(rate=2.0), slo_ticks=6), 4
        )
        assert trace.deadlines == (6, 6, 7, 7)
        assert trace.deadline_schedule(3) == [6, 6, 7]

    def test_deadline_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="deadlines"):
            ReplayTrace(ticks=(0, 1), deadlines=(5,))
        with pytest.raises(ValueError, match="slo_ticks"):
            DeadlineTrace(UniformTrace(), slo_ticks=0)


class TestEngineDeadlines:
    def test_expired_at_admit_dead_letters(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        engine.step(5)  # now = 5
        request = engine.submit(dataset.images[0], "late", deadline=3)
        assert request.id not in engine.completed
        letter = engine.dead_letters["late"]
        assert letter.reason == "deadline"
        assert letter.cause == "expired-at-admit"
        assert engine.telemetry.slo_violations == 1
        assert engine.queue_depth == 0  # never enqueued

    def test_met_deadline_is_accounted(self, served_model):
        model, dataset = served_model
        engine = _engine(model, max_wait=0)
        engine.submit(dataset.images[0], "ok", deadline=5)
        engine.drain()
        done = engine.completed["ok"]
        assert done.deadline == 5 and done.completed_tick <= 5
        assert engine.telemetry.slo_met == 1
        assert engine.telemetry.slo_violations == 0

    def test_deadline_expiring_while_parked_dead_letters_not_hedges(
        self, served_model
    ):
        model, dataset = served_model
        engine = _engine(
            model,
            num_chips=1,
            max_wait=0,
            retry=RetryPolicy(max_attempts=10, hedge=False),
        )
        engine.warm_up()
        FaultInjector(
            engine, FaultPlan(transient_rate=0.999, deaths=0, stuck_chips=0)
        ).install()
        engine.submit(dataset.images[0], "doomed", deadline=5)
        engine.drain()
        letter = engine.dead_letters["doomed"]
        assert letter.reason == "deadline"
        assert letter.cause in ("expired-parked", "expired-queued")
        assert engine.telemetry.hedges == 0
        assert engine.telemetry.slo_violations == 1
        assert not engine._parked

    def test_run_trace_carries_deadlines(self, served_model):
        model, dataset = served_model
        engine = _engine(model, max_wait=1)
        trace = DeadlineTrace(UniformTrace(rate=4.0), slo_ticks=8)
        outputs = engine.run_trace(dataset.images[:8], trace)
        assert len(outputs) == 8
        finished = engine.telemetry.slo_met + engine.telemetry.slo_violations
        assert finished == 8

    def test_continuous_batching_dispatches_at_submit(self, served_model):
        model, dataset = served_model
        continuous = _engine(model, continuous=True, max_batch=2, max_wait=50)
        continuous.submit(dataset.images[0], "a")
        continuous.submit(dataset.images[1], "b")
        assert set(continuous.completed) == {"a", "b"}  # no step() needed
        barrier = _engine(model, max_batch=2, max_wait=50)
        barrier.submit(dataset.images[0], "a")
        barrier.submit(dataset.images[1], "b")
        assert barrier.completed == {}
        barrier.step()
        assert set(barrier.completed) == {"a", "b"}


class TestGateway:
    def _gateway(self, model, **kwargs):
        engine = _engine(model, continuous=True, policy="latency-aware")
        return Gateway(engine, GatewayConfig(**kwargs))

    def test_submit_resolves_with_background_loop(self, served_model):
        model, dataset = served_model
        gateway = self._gateway(model, default_slo=12)

        async def main():
            async with gateway as gw:
                return await gw.submit(dataset.images[0])

        served = asyncio.run(main())
        assert served.id in gateway.engine.completed
        assert served.deadline == 12
        assert gateway.engine.telemetry.slo_met == 1

    def test_pump_mode_serves_deterministically(self, served_model):
        model, dataset = served_model

        def session():
            init.seed(0)
            gateway = self._gateway(model, default_slo=10)

            async def main():
                tasks = [
                    asyncio.create_task(gateway.submit(dataset.images[i], f"r{i:03d}"))
                    for i in range(6)
                ]
                await asyncio.sleep(0)
                await gateway.drain()
                return await asyncio.gather(*tasks)

            results = asyncio.run(main())
            return gateway, results

        first_gw, first = session()
        second_gw, second = session()
        assert [r.id for r in first] == [r.id for r in second]
        assert [r.chip_id for r in first] == [r.chip_id for r in second]
        assert all(
            np.array_equal(a.output, b.output) for a, b in zip(first, second)
        )
        assert first_gw.compiled_trace() == second_gw.compiled_trace()

    def test_overloaded_rejection_is_deterministic(self, served_model):
        model, dataset = served_model

        def session():
            init.seed(0)
            engine = _engine(model, max_batch=8, max_wait=0)
            gateway = Gateway(engine, GatewayConfig(max_queue=2))

            async def main():
                tasks = [
                    asyncio.create_task(gateway.submit(dataset.images[i], f"r{i:03d}"))
                    for i in range(5)
                ]
                await asyncio.sleep(0)  # all five reach admission before any tick
                await gateway.drain()
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                return [o for o in outcomes if isinstance(o, Overloaded)]

            rejected = asyncio.run(main())
            return gateway, rejected

        first_gw, first_rejected = session()
        second_gw, second_rejected = session()
        assert len(first_rejected) == 3  # queue bound 2: r000, r001 admitted
        assert len(second_rejected) == 3
        assert all(error.queue_depth == 2 for error in first_rejected)
        assert first_gw.accepted_ids == second_gw.accepted_ids == ["r000", "r001"]
        assert first_gw.engine.telemetry.rejections == 3
        assert first_gw.compiled_trace() == second_gw.compiled_trace()

    def test_request_failed_wraps_dead_letter(self, served_model):
        model, dataset = served_model
        engine = _engine(
            model,
            num_chips=1,
            max_wait=0,
            retry=RetryPolicy(max_attempts=1, hedge=False),
        )
        engine.warm_up()
        FaultInjector(
            engine, FaultPlan(transient_rate=0.999, deaths=0, stuck_chips=0)
        ).install()
        gateway = Gateway(engine)

        async def main():
            task = asyncio.create_task(gateway.submit(dataset.images[0], "doomed"))
            await asyncio.sleep(0)
            await gateway.drain()
            with pytest.raises(RequestFailed) as excinfo:
                await task
            return excinfo.value

        error = asyncio.run(main())
        assert error.letter.id == "doomed"
        assert error.letter.reason == "retries-exhausted"

    def test_compiled_trace_replays_bit_exactly(self, served_model):
        model, dataset = served_model
        init.seed(0)
        gateway = self._gateway(model, default_slo=10)
        engine = gateway.engine

        async def main():
            tasks = []
            for i in range(7):
                tasks.append(
                    asyncio.create_task(gateway.submit(dataset.images[i], f"r{i:03d}"))
                )
                if i % 3 == 2:  # spread arrivals across ticks
                    await asyncio.sleep(0)
                    gateway.pump()
            await asyncio.sleep(0)
            await gateway.drain()
            await asyncio.gather(*tasks)

        asyncio.run(main())
        trace = gateway.compiled_trace()
        ids = gateway.accepted_ids
        assert trace.deadlines is not None and len(trace.ticks) == 7

        init.seed(0)
        replay = _engine(model, continuous=True, policy="latency-aware")
        outputs = replay.run_trace(dataset.images[:7], trace, ids=ids)
        assert set(outputs) == set(ids)
        for rid in ids:
            assert np.array_equal(outputs[rid], engine.completed[rid].output)
        assert replay.assignments() == engine.assignments()
        assert replay.telemetry.slo_met == engine.telemetry.slo_met
        assert replay.telemetry.slo_violations == engine.telemetry.slo_violations

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"max_queue": 0}, "max_queue"),
            ({"max_queue": 2.5}, "max_queue"),
            ({"max_queue": True}, "max_queue"),
            ({"default_slo": 0}, "default_slo"),
            ({"default_slo": 2.5}, "default_slo"),
            ({"default_slo": True}, "default_slo"),
            ({"tick_seconds": -1.0}, "tick_seconds"),
            ({"tick_seconds": float("nan")}, "tick_seconds"),
            ({"tick_seconds": float("inf")}, "tick_seconds"),
            ({"tick_seconds": True}, "tick_seconds"),
        ],
    )
    def test_config_validation(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            GatewayConfig(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_queue": 1},
            {"max_queue": np.int64(4)},
            {"default_slo": None},
            {"default_slo": 1},
            {"tick_seconds": 0.0},
            {"tick_seconds": 0},
            {"tick_seconds": np.float64(0.01)},
        ],
    )
    def test_boundary_config_accepted(self, overrides):
        GatewayConfig(**overrides)


class TestSloTelemetry:
    def test_slo_section_round_trips(self, served_model):
        model, dataset = served_model
        engine = _engine(model, max_wait=0)
        engine.submit(dataset.images[0], "ok", deadline=5)
        engine.drain()
        report = engine.telemetry.report()["slo"]
        assert report["met"] == 1 and report["violations"] == 0
        assert report["attainment"] == 1.0
        assert report["series"][-1]["met"] == 1
        assert "slo:" in engine.telemetry.format()

    def test_violation_series_is_monotone(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        engine.step(3)
        for i in range(3):
            engine.submit(dataset.images[i], f"late{i}", deadline=1)
        series = engine.telemetry.slo_series
        assert [v for _, _, v in series] == [1, 2, 3]
