"""Percentiles the benchmark is allowed to report.

A percentile is only reported when the sample supports it: p99 needs at
least ten samples beyond it, i.e. at least 1,000 samples.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample is too small to support the requested percentile."""


def min_samples(q: float) -> int:
    """Smallest sample size with ``MIN_BEYOND`` samples beyond quantile ``q``."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    return math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)


def percentile(values, q: float) -> float:
    """The ``q`` quantile (``0 < q < 1``) of ``values``, linearly interpolated.

    Raises :class:`TooFewSamples` when fewer than ``MIN_BEYOND`` samples
    lie beyond it.
    """
    values = sorted(float(v) for v in values)
    needed = min_samples(q)
    if len(values) < needed:
        raise TooFewSamples(
            f"p{100 * q:g} needs {needed} samples ({MIN_BEYOND} beyond it), got {len(values)}"
        )
    position = q * (len(values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def spread(values) -> dict:
    """Median, quartiles and IQR/median, as ``statistics.quantiles`` gives them."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "iqr_over_median": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / abs(median) if median else float("inf"),
    }
