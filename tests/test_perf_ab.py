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


def _identities(*labels):
    """One run's per-pass ``(digest, classes)`` pairs, one pair per label."""
    return [(f"digest-{label}", f"classes-{label}") for label in labels]


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([_identities("a", "b"), _identities("c")], [_identities("a", "b"), _identities("c")],
         (3, 3)),
        ([_identities("a", "b", "x")], [_identities("a", "b")], (2, 2)),
        ([_identities("a")], [_identities("a", "b", "x")], (1, 1)),
        ([_identities("a", "b")], [_identities("a", "z")], (2, 1)),
        ([_identities("a")], [[("digest-a", "classes-z")]], (1, 0)),
        ([_identities("a")], [[("digest-z", "classes-a")]], (1, 0)),
        ([_identities("a"), None], [_identities("a"), _identities("b")], (1, 1)),
        ([], [], (0, 0)),
    ],
    ids=[
        "identical", "parent-ran-more", "change-ran-more", "one-differs",
        "classes-differ", "digest-differs", "missing-record", "no-runs",
    ],
)
def test_compare_passes(parent, change, expected):
    assert perf_ab.compare_passes(parent, change) == expected


def test_passes_read_from_record(tmp_path):
    record = tmp_path / "steady-fleet-seed1-trace0.json"
    record.write_text(json.dumps({"digests": ["d0", "d1"], "classes": ["c0", "c1"]}))
    assert perf_ab._passes(record) == [("d0", "c0"), ("d1", "c1")]
    assert perf_ab._passes(tmp_path / "missing.json") is None
    record.write_text("{}")
    assert perf_ab._passes(record) is None
