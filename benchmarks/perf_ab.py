"""Same-runner A/B of the benchmark of record: a base revision against this checkout.

Run from the repository root::

    python benchmarks/perf_ab.py HEAD^1

The checkout is the change.  ``git archive BASE_REV``, unpacked into a
temporary directory, is the parent, with the checkout's ``perfbench/`` and
``BENCHMARK.json`` copied over its own so both sides run the same benchmark
code.  Each workload in ``BENCHMARK.json`` runs one pair per seed in
``SEEDS``, alternating which side runs first; a run is ``BENCHMARK.json``'s
command plus ``--workload W --seed S --seconds <run_seconds> --trace 0`` in
that side's root, and its result is its last stdout line.  The script
prints one row per workload and metric and exits 1 when :func:`judge`
fails any workload.  Both sides run on one host, so it compares commits,
not machines.

After each run the script also reads the record the run wrote,
``<root>/.perfbench/<workload>-seed<S>-trace0.json``, and keeps its
per-pass ``digests`` (telemetry digest) and ``classes`` (hash of the
predicted classes).  Per workload it prints how many passes both sides
ran and how many of them match in both (:func:`compare_passes`).  This is
a report, not a gate: a change that alters decisions, such as a probe
cut, legitimately changes digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: One pair per seed: three runs a side give a median and quartiles.
SEEDS = (1, 2, 3)
#: perfbench/run.py caps its workload process at 170 s.
RUN_TIMEOUT_S = 300
RESULT_KEYS = frozenset({"correct", "attempted", "failed", "metrics"})


def _result(line: str | None) -> dict | None:
    """A run's parsed result line, or None when it printed none."""
    try:
        result = json.loads(line) if line else None
    except ValueError:
        return None
    return result if isinstance(result, dict) and RESULT_KEYS <= result.keys() else None


def _spread(values: list[float]) -> dict:
    """Median and quartiles, as perfbench's ``--repeat`` reports them.

    Computed here rather than imported from ``perfbench/``: the gate relies
    on the benchmark only through ``BENCHMARK.json``'s command, the result
    line it prints and the record it writes.
    """
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def judge(end_to_end: list[dict], parent: list, change: list) -> tuple[list[dict], list[str]]:
    """The gate's rule for one workload: its metric rows and its failures.

    ``end_to_end`` is ``BENCHMARK.json``'s list of ``{name, better, bound}``
    metrics; ``parent`` and ``change`` hold each side's result lines (None
    for a run that printed nothing).  The workload fails when a run has no
    result or reports ``correct: false``, when the change's failed/attempted
    share is above the parent's, or when a metric's change median is worse
    than the parent's by more than its bound: below ``parent * (1 - bound)``
    for ``higher`` metrics, above ``parent * (1 + bound)`` for ``lower`` ones.
    """
    results, failures, share = {}, [], {}
    for side, lines in (("parent", parent), ("change", change)):
        results[side] = [result for result in map(_result, lines) if result is not None]
        if len(results[side]) < len(lines):
            failures.append(f"{side}: {len(lines) - len(results[side])} runs printed no result")
        wrong = sum(result["correct"] is not True for result in results[side])
        if wrong:
            failures.append(f"{side}: {wrong} runs reported correct: false")
        attempted = sum(result["attempted"] for result in results[side])
        share[side] = sum(result["failed"] for result in results[side]) / max(attempted, 1)
    if share["change"] > share["parent"]:
        failures.append(f"failed share rose from {share['parent']:.4g} to {share['change']:.4g}")
    rows = []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        values = {
            side: [r["metrics"][name]["value"] for r in side_results if name in r["metrics"]]
            for side, side_results in results.items()
        }
        if not values["parent"] or not values["change"]:
            failures.append(f"{name}: missing on one side")
            continue
        stats = {side: _spread(side_values) for side, side_values in values.items()}
        base, new = stats["parent"]["median"], stats["change"]["median"]
        if metric["better"] == "higher":
            worse = new < base * (1.0 - bound)
        else:
            worse = new > base * (1.0 + bound)
        if worse:
            failures.append(f"{name}: median {base:.6g} -> {new:.6g}, beyond its bound {bound:g}")
        rows.append({"metric": name, **stats, "bound": bound, "verdict": "WORSE" if worse else "ok"})
    return rows, failures


def compare_passes(parent: list, change: list) -> tuple[int, int]:
    """Passes both sides ran, and how many of them match.

    ``parent`` and ``change`` hold one entry per seed, in ``SEEDS`` order:
    that run's list of per-pass ``(digest, classes)`` pairs, or None when
    it wrote no record.  Pass ``k`` of a seed is compared with pass ``k``
    of the same seed on the other side; the faster side may fit more
    passes into its seconds, and those extra passes are not counted.
    """
    common = matching = 0
    for ours, theirs in zip(parent, change):
        pairs = list(zip(ours or [], theirs or []))
        common += len(pairs)
        matching += sum(a == b for a, b in pairs)
    return common, matching


def _passes(record: Path) -> list[tuple[str, str]] | None:
    """A run record's per-pass ``(digest, classes)`` pairs, or None."""
    try:
        data = json.loads(record.read_text(encoding="utf-8"))
        return list(zip(data["digests"], data["classes"]))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _unpack(rev: str, into: Path) -> None:
    """``git archive rev`` into ``into``, with the checkout's benchmark code."""
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    shutil.rmtree(into / "perfbench", ignore_errors=True)
    shutil.copytree(
        ROOT / "perfbench", into / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy2(ROOT / "BENCHMARK.json", into / "BENCHMARK.json")


def _run(
    benchmark: dict, root: Path, workload: str, seed: int, side: str
) -> tuple[str | None, list | None]:
    """One benchmark run in ``root``: its last stdout line and its per-pass
    identities (:func:`_passes`), each None when missing."""
    record = root / ".perfbench" / f"{workload}-seed{seed}-trace0.json"
    record.unlink(missing_ok=True)  # never read an earlier run's record
    argv = [
        *benchmark["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
    ]
    started = time.perf_counter()
    try:
        done = subprocess.run(
            argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"{workload} seed {seed} {side}: over {RUN_TIMEOUT_S} s", flush=True)
        return None, None
    print(f"{workload} seed {seed} {side}: exit {done.returncode} "
          f"after {time.perf_counter() - started:.0f} s", flush=True)
    if done.returncode != 0:
        print(done.stderr.strip()[-2000:], flush=True)
    lines = done.stdout.strip().splitlines()
    return (lines[-1] if lines else None), _passes(record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE_REV", help="the parent revision, e.g. HEAD^1")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = [f"{'workload':15s} {'metric':22s} {'parent [q1, q3]':>32s} "
             f"{'change [q1, q3]':>32s} {'bound':>5s}  verdict"]
    failures, identity = [], []
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as tmp:
        _unpack(args.base, Path(tmp))
        for workload in (entry["name"] for entry in benchmark["workloads"]):
            lines = {"parent": [], "change": []}
            passes = {"parent": [], "change": []}
            for pair, seed in enumerate(SEEDS):
                order = [("parent", Path(tmp)), ("change", ROOT)]
                for side, root in order[::-1] if pair % 2 else order:
                    line, identities = _run(benchmark, root, workload, seed, side)
                    lines[side].append(line)
                    passes[side].append(identities)
            common, matching = compare_passes(passes["parent"], passes["change"])
            identity.append(
                f"{workload}: {matching} of the {common} passes both sides ran "
                "match in digest and classes"
            )
            rows, reasons = judge(benchmark["end_to_end"], lines["parent"], lines["change"])
            failures += [f"{workload}: {reason}" for reason in reasons]
            for row in rows:
                cells = [f"{row[side]['median']:10.5g} [{row[side]['q1']:9.5g}, "
                         f"{row[side]['q3']:9.5g}]" for side in ("parent", "change")]
                table.append(f"{workload:15s} {row['metric']:22s} {' '.join(cells)} "
                             f"{row['bound']:5g}  {row['verdict']}")
    print("\n".join(table))
    print("per-pass identity (reported, not gated):")
    print("\n".join(identity))
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"perf A/B against {args.base}: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
