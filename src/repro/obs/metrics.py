"""Metric primitives: counters, gauges, and streaming quantile histograms.

The serving telemetry previously reported mean/min/max/std only — enough
for load balance, useless for latency SLOs, which are stated in tail
quantiles (p95/p99).  :class:`Histogram` fills that gap with the standard
production trick: a fixed set of log-spaced buckets (O(1) memory however
much traffic flows through), with quantiles recovered by interpolating
inside the bucket the rank falls in.  Bucket resolution bounds the
quantile error: with the default 10 buckets per decade any reported
quantile is within one bucket width (~26%) of the exact order statistic,
and the min/max are tracked exactly so q=0/q=1 are always sharp.

A :class:`MetricsRegistry` names and owns metric instances so exporters
(:mod:`repro.obs.export`) can walk everything the stack recorded.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache


class Counter:
    """A monotonically increasing integer count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can go up and down (queue depth, resident mappings)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= float(amount)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value:.6g})"


@lru_cache(maxsize=64)
def _bucket_floors(lo: float, hi: float, per_decade: int, n_log: int) -> tuple[float, ...]:
    """The smallest double in ``[lo, hi)`` the log-bucket formula sends to
    log bucket ``i`` or above, for ``i = 1 .. n_log - 1``.

    The formula is ``int(log10(value / lo) * per_decade)``, clamped to
    ``[0, n_log - 1]``, and it never decreases as ``value`` grows.  Each
    floor starts from the nominal edge ``lo * 10 ** (i / per_decade)``
    and steps one double at a time to where the formula changes, a few
    steps once per geometry; in exchange each sample costs a
    :func:`~bisect.bisect_right` instead of a ``log10``.
    """

    def index(value: float) -> int:
        return int(math.log10(value / lo) * per_decade)

    floors = []
    for bucket in range(1, n_log):
        value = lo * 10.0 ** (bucket / per_decade)
        while value > lo and index(value) >= bucket:
            value = math.nextafter(value, 0.0)
        while value < hi and index(value) < bucket:
            value = math.nextafter(value, math.inf)
        floors.append(value)
    return tuple(floors)


class Histogram:
    """Streaming histogram over fixed log-spaced buckets with quantiles.

    Buckets cover ``[lo, hi)`` with ``buckets_per_decade`` log-spaced bins
    per decade, plus an underflow bucket ``[0, lo)`` and an overflow bucket
    ``[hi, inf)`` — memory is fixed at construction no matter how many
    values stream through.  Alongside the buckets the exact count / sum /
    sum-of-squares / min / max are kept, so the meter surface
    (``mean``/``min``/``max``/``std``/``total``/``count``) is exact.

    :meth:`quantile` finds the bucket the requested rank lands in and
    interpolates linearly inside it (clamped to the exact observed
    min/max), which makes p50/p95/p99 deterministic functions of the
    recorded distribution.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        lo: float = 1e-6,
        hi: float = 1e6,
        buckets_per_decade: int = 10,
    ) -> None:
        if lo <= 0.0 or hi <= lo:
            raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.name = name
        self.help = help
        self.lo = float(lo)
        self.hi = float(hi)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(self.hi / self.lo)
        self._n_log = max(1, int(math.ceil(decades * self.buckets_per_decade - 1e-9)))
        # counts[0] is the underflow bucket [0, lo); counts[-1] is overflow.
        self.counts = [0] * (self._n_log + 2)
        self._floors = _bucket_floors(self.lo, self.hi, self.buckets_per_decade, self._n_log)
        self.count = 0
        self.total = 0.0
        self._total_sq = 0.0
        self._min: float | None = None
        self._max: float | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _bucket_index(self, value: float) -> int:
        """Bucket of ``value``: log bucket ``i`` holds ``[floors[i-1], floors[i])``.

        The same bucket as ``min(max(int(log10(value / lo) * per_decade),
        0), n_log - 1) + 1``, found by bisecting the floors
        :func:`_bucket_floors` computed from that formula once per
        geometry.  A NaN raises, as the formula did.
        """
        if value < self.lo:
            return 0
        if value < self.hi:
            return bisect_right(self._floors, value) + 1
        if value >= self.hi:
            return self._n_log + 1
        raise ValueError(f"cannot bucket {value!r}")

    def observe(self, value: float, weight: int = 1) -> None:
        value = float(value)
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        self.counts[self._bucket_index(value)] += weight
        self.count += weight
        self.total += value * weight
        self._total_sq += value * value * weight
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    # ------------------------------------------------------------------
    # Meter surface
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    @property
    def std(self) -> float:
        if not self.count:
            return 0.0
        variance = self._total_sq / self.count - self.mean**2
        return math.sqrt(max(variance, 0.0))

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def _edges(self, index: int) -> tuple[float, float]:
        """The value range ``[left, right)`` of bucket ``index``."""
        if index == 0:
            return (0.0, self.lo)
        if index == self._n_log + 1:
            return (self.hi, self.max if self._max is not None else self.hi)
        growth = 10.0 ** (1.0 / self.buckets_per_decade)
        left = self.lo * growth ** (index - 1)
        return (left, min(left * growth, self.hi))

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) by linear interpolation in its bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        if q == 0.0:
            return float(self.min)
        if q == 1.0:
            return float(self.max)
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if seen + bucket_count >= rank:
                left, right = self._edges(index)
                inside = (rank - seen) / bucket_count
                value = left + (right - left) * inside
                return float(min(max(value, self.min), self.max))
            seen += bucket_count
        return float(self.max)

    def percentiles(self, points: tuple[float, ...] = (50.0, 95.0, 99.0)) -> dict:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for the given points."""
        return {f"p{point:g}": self.quantile(point / 100.0) for point in points}

    def as_dict(self) -> dict:
        """JSON-friendly snapshot: meter stats + standard quantiles."""
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "std": self.std,
            **self.percentiles(),
        }

    def bucket_bounds(self) -> list[float]:
        """Upper bounds of every bucket (the Prometheus ``le`` labels)."""
        return [self._edges(index)[1] for index in range(self._n_log + 1)] + [
            float("inf")
        ]

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}, count={self.count}, mean={self.mean:.4g}, "
            f"p99={self.quantile(0.99):.4g})"
        )


class MetricsRegistry:
    """Named metric store: get-or-create semantics, walkable by exporters."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
            return metric
        if metric.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, not {kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), "gauge")

    def histogram(self, name: str, help: str = "", **kwargs) -> Histogram:
        return self._get_or_create(name, lambda: Histogram(name, help, **kwargs), "histogram")

    def get(self, name: str):
        """The registered metric, or ``None``."""
        return self._metrics.get(name)

    @property
    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __iter__(self):
        for name in self.names:
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def as_dict(self) -> dict:
        """JSON-friendly snapshot of every registered metric."""
        return {name: self._metrics[name].as_dict() for name in self.names}

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} metrics)"
