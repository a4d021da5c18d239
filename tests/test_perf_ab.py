"""The same-runner perf A/B gate's rule (``benchmarks/perf_ab.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_ab.py"
_spec = importlib.util.spec_from_file_location("perf_ab", SCRIPT)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

END_TO_END = [
    {"name": "sps", "better": "higher", "bound": 0.2},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
]
SPS = (98.0, 100.0, 102.0)
LATENCY = (9.0, 10.0, 11.0)


def _lines(sps=1.0, latency=1.0, correct=True, failed=0):
    """Three result lines, the parent's metrics scaled by ``sps``/``latency``."""
    return [
        json.dumps({
            "correct": correct, "attempted": 1000, "failed": failed,
            "metrics": {
                "sps": {"value": base_sps * sps, "unit": "req/s"},
                "latency_p50_ms": {"value": base_ms * latency, "unit": "ms"},
            },
        })
        for base_sps, base_ms in zip(SPS, LATENCY)
    ]


@pytest.mark.parametrize(
    "change, failure",
    [
        (_lines(), None),
        (_lines(sps=0.81), None),
        (_lines(sps=0.79), "sps"),
        (_lines(latency=1.26), "latency_p50_ms"),
        (_lines(sps=1.5, latency=0.5), None),
        (_lines()[:2] + _lines(correct=False)[2:], "correct: false"),
        (_lines()[:2] + [None], "no result"),
        (_lines(failed=1), "failed share"),
    ],
    ids=[
        "identical", "sps-19pct", "sps-21pct", "latency+26pct", "improvement",
        "incorrect", "missing", "failed-share",
    ],
)
def test_judge(change, failure):
    rows, failures = perf_ab.judge(END_TO_END, _lines(), change)
    assert [row["metric"] for row in rows] == ["sps", "latency_p50_ms"]
    if failure is None:
        assert failures == []
        assert all(row["verdict"] == "ok" for row in rows)
    else:
        assert len(failures) == 1 and failure in failures[0]
