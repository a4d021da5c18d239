"""Unit tests for repro.obs.metrics: counters, gauges, histograms, registry."""

import json

import numpy as np
import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("requests")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("requests").inc(-1)

    def test_as_dict(self):
        counter = Counter("requests")
        counter.inc(3)
        assert counter.as_dict() == {"kind": "counter", "value": 3}


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(4.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 3.0

    def test_can_go_negative(self):
        gauge = Gauge("delta")
        gauge.dec(1.5)
        assert gauge.value == -1.5


class TestHistogramMeterSurface:
    """The AverageMeter-compatible subset telemetry call sites rely on."""

    def test_empty_histogram_reports_zeros(self):
        h = Histogram("latency")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.min == 0.0
        assert h.max == 0.0
        assert h.std == 0.0
        assert h.quantile(0.99) == 0.0

    def test_mean_min_max_match_numpy(self):
        h = Histogram("latency")
        values = [0.002, 0.017, 0.5, 3.0, 0.0004]
        for value in values:
            h.update(value)  # AverageMeter-compatible alias
        assert h.count == len(values)
        assert h.mean == pytest.approx(np.mean(values))
        assert h.min == min(values)
        assert h.max == max(values)
        assert h.std == pytest.approx(np.std(values))

    def test_weighted_observe(self):
        h = Histogram("ticks", lo=0.5, hi=100.0)
        h.observe(2.0, weight=3)
        assert h.count == 3
        assert h.total == 6.0

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError, match="weight"):
            Histogram("x").observe(1.0, weight=0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", lo=0.0)
        with pytest.raises(ValueError):
            Histogram("x", lo=1.0, hi=0.5)


class TestHistogramQuantiles:
    def test_exact_at_extremes(self):
        h = Histogram("latency")
        for value in (0.001, 0.02, 0.3, 4.0):
            h.observe(value)
        assert h.quantile(0.0) == 0.001
        assert h.quantile(1.0) == 4.0

    def test_quantiles_within_one_bucket_of_exact(self):
        """Interpolated quantiles land within bucket resolution of the
        exact order statistics (the documented error bound)."""
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=-4.0, sigma=1.5, size=5000)
        h = Histogram("latency", lo=1e-6, hi=1e3, buckets_per_decade=10)
        for value in values:
            h.observe(float(value))
        growth = 10.0 ** (1.0 / h.buckets_per_decade)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = float(np.quantile(values, q))
            estimate = h.quantile(q)
            # One bucket width in log space on either side.
            assert exact / growth <= estimate <= exact * growth

    def test_single_value_collapses_all_quantiles(self):
        h = Histogram("latency")
        h.observe(0.25)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 0.25

    def test_underflow_and_overflow_buckets(self):
        h = Histogram("latency", lo=1e-3, hi=1.0)
        h.observe(1e-9)  # underflow
        h.observe(100.0)  # overflow
        assert h.counts[0] == 1
        assert h.counts[-1] == 1
        # Quantiles stay clamped to the exact observed range.
        assert h.quantile(0.0) == 1e-9
        assert h.quantile(1.0) == 100.0

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            Histogram("x").quantile(1.5)

    def test_percentiles_mapping(self):
        h = Histogram("latency")
        for value in np.linspace(0.01, 1.0, 100):
            h.observe(float(value))
        points = h.percentiles((50.0, 95.0, 99.0))
        assert set(points) == {"p50", "p95", "p99"}
        assert points["p50"] <= points["p95"] <= points["p99"]

    def test_bucket_bounds_monotonic_and_prometheus_shaped(self):
        h = Histogram("latency", lo=1e-3, hi=1.0, buckets_per_decade=5)
        bounds = h.bucket_bounds()
        assert bounds[-1] == float("inf")
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert len(bounds) == len(h.counts)

    def test_memory_is_fixed(self):
        h = Histogram("latency", lo=1e-6, hi=1e6, buckets_per_decade=10)
        buckets = len(h.counts)
        for value in np.random.default_rng(1).uniform(1e-7, 1e7, size=2000):
            h.observe(float(value))
        assert len(h.counts) == buckets
        assert sum(h.counts) == h.count == 2000

    def test_as_dict_is_json_clean(self):
        h = Histogram("latency")
        h.observe(0.5)
        snapshot = json.loads(json.dumps(h.as_dict()))
        assert snapshot["count"] == 1
        assert snapshot["p99"] == 0.5


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        first = registry.counter("requests")
        second = registry.counter("requests")
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("requests")
        with pytest.raises(TypeError, match="already registered"):
            registry.histogram("requests")

    def test_iteration_and_names_sorted(self):
        registry = MetricsRegistry()
        registry.histogram("b_latency")
        registry.counter("a_total")
        assert registry.names == ["a_total", "b_latency"]
        assert [metric.name for metric in registry] == ["a_total", "b_latency"]
        assert len(registry) == 2

    def test_get_missing_returns_none(self):
        assert MetricsRegistry().get("nope") is None

    def test_as_dict_round_trips_json(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.histogram("b").observe(1.0)
        registry.gauge("c").set(0.5)
        snapshot = json.loads(json.dumps(registry.as_dict()))
        assert snapshot["a"]["value"] == 2
        assert snapshot["b"]["kind"] == "histogram"
        assert snapshot["c"]["value"] == 0.5
