"""Exporter: the Prometheus text dump.

:func:`to_prometheus` renders every registered metric — telemetry and
stage meters alike — in the standard text exposition format, so a scrape
endpoint (or a human) can read everything the stack recorded.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render every registered metric in Prometheus text format."""
    lines: list[str] = []
    for metric in registry:
        name = metric.name.replace("-", "_").replace(".", "_")
        if metric.help:
            lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            lines.append(f"{name} {_format_value(metric.value)}")
        elif isinstance(metric, Histogram):
            cumulative = 0
            for bound, count in zip(metric.bucket_bounds(), metric.counts):
                cumulative += count
                label = "+Inf" if bound == float("inf") else repr(float(bound))
                lines.append(f'{name}_bucket{{le="{label}"}} {cumulative}')
            lines.append(f"{name}_sum {_format_value(metric.total)}")
            lines.append(f"{name}_count {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")
