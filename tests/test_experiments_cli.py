"""Tests for the result store and the experiments CLI."""

import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments.cli import _reproducible, _Session, build_parser, main
from repro.experiments.store import ResultStore
from repro.serve import FaultEvent


def _digests(out: str) -> list[str]:
    """The ``telemetry digest:`` lines a bench command printed, in order."""
    return [line for line in out.splitlines() if line.startswith("telemetry digest: ")]


class TestResultStore:
    def test_save_and_load_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        path = store.save("exp", {"mean": 0.75, "accuracies": [0.7, 0.8]})
        assert os.path.exists(path)
        record = store.load("exp")
        assert record["mean"] == 0.75
        assert record["accuracies"] == [0.7, 0.8]

    def test_run_indexes_increment(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = store.save("exp", {"v": 1})
        second = store.save("exp", {"v": 2})
        assert first != second
        assert store.load("exp")["v"] == 2  # latest by default
        assert store.load("exp", run=0)["v"] == 1

    def test_numpy_values_serialized(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.save(
            "np", {"a": np.float64(0.5), "b": np.int64(3), "c": np.arange(3)}
        )
        record = store.load("np")
        assert record == {"a": 0.5, "b": 3, "c": [0, 1, 2]}

    def test_list_names(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.save("alpha", {})
        store.save("beta", {})
        store.save("alpha", {})
        assert store.list_names() == ["alpha", "beta"]
        assert len(store.list_runs("alpha")) == 2

    def test_missing_record_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ResultStore(str(tmp_path)).load("ghost")

    def test_unsafe_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(str(tmp_path)).save("../evil", {})

    def test_nested_objects_serialized(self, tmp_path):
        from repro.variability.sampler import VariabilitySpec

        store = ResultStore(str(tmp_path))
        store.save("spec", {"spec": VariabilitySpec(0.1, 0.2)})
        record = store.load("spec")
        assert record["spec"]["sigma_within"] == 0.1


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.method == "qavat"
        assert args.scenario == "within"
        assert args.self_tuning == "none"

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--method", "magic"])

    def test_compare_has_no_method_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--method", "qat"])

    def test_sweep_accepts_sigma_list(self):
        args = build_parser().parse_args(["sweep", "--sigmas", "0.1", "0.2"])
        assert args.sigmas == [0.1, 0.2]
        assert args.method == "qavat"

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.command == "serve-bench"
        assert args.num_chips == 4
        assert args.max_batch == 32
        assert args.policy == "round-robin"
        assert args.max_resident_chips is None
        assert not args.skip_training

    def test_serve_bench_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--policy", "chaos"])

    def test_serve_bench_rejects_bad_counts_at_parse_time(self):
        for flags in (
            ["--requests", "0"],
            ["--num-chips", "0"],
            ["--max-batch", "-3"],
            ["--max-wait", "-1"],
            ["--seed", "-1"],
            ["--fault-seed", "-3"],
            ["--max-resident-chips", "0"],
            ["--probe-k", "0"],
            ["--goodput-floor", "nan"],
            ["--goodput-floor", "inf"],
            ["--goodput-floor", "-0.1"],
            ["--goodput-floor", "1.5"],
            ["--slo-ceiling", "nan"],
            ["--slo-ceiling", "inf"],
            ["--slo-ceiling", "-0.1"],
            ["--slo-ceiling", "1.5"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve-bench", *flags])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-bench", "--sigma", "nan"],
            ["lifetime-bench", "--sigma", "-0.3"],
            ["run", "--sigma", "inf"],
            ["compare", "--sigma", "-0.3"],
            ["sweep", "--sigmas", "0.1", "nan"],
        ],
        ids=["serve-bench-nan", "lifetime-bench-negative", "run-inf", "compare-negative",
             "sweep-nan"],
    )
    def test_bad_sigma_rejected_at_parse_time(self, capsys, argv):
        """A NaN, negative or infinite sigma is a usage error: it would
        sample a variation-free fleet (or NaN logits) under a table titled
        with the bad value."""
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(argv)
        assert exited.value.code == 2
        assert "must be a finite real >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--gtm-cells", "0"), ("--ltm-columns", "-3")]
    )
    def test_self_tuning_sizes_rejected_at_parse_time(self, capsys, flag, value):
        """A bad self-tuning size is a usage error, not a traceback from
        chip programming after the model is set up."""
        argv = ["serve-bench", "--skip-training", "--self-tuning", "global", flag, value]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err

    def test_serve_bench_drift_flags(self):
        args = build_parser().parse_args(
            ["serve-bench", "--drift", "--policy", "accuracy-weighted",
             "--trace", "bursty", "--fleet", "rram:2,flash:2"]
        )
        assert args.drift
        assert args.trace == "bursty"
        assert args.fleet == "rram:2,flash:2"
        assert args.drift_kind == "aging"

    def test_drift_aware_policy_accepted(self):
        args = build_parser().parse_args(["serve-bench", "--policy", "drift-aware"])
        assert args.policy == "drift-aware"

    def test_lifetime_bench_defaults(self):
        args = build_parser().parse_args(["lifetime-bench"])
        assert args.command == "lifetime-bench"
        assert args.policies == ["round-robin", "accuracy-weighted", "drift-aware"]
        assert args.probe_every == 8.0

    def test_lifetime_bench_rejects_policy(self):
        # lifetime-bench races --policies; a single --policy would be ignored.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lifetime-bench", "--policy", "round-robin"])

    def test_lifetime_bench_rejects_unknown_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lifetime-bench", "--trace", "tsunami"])


class TestCliEndToEnd:
    def test_list_exit_code(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "qavat" in out and "tiny" in out

    @pytest.mark.slow
    def test_run_produces_record(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--method", "qat",
                "--model", "lenet5",
                "--notation", "A4W2",
                "--sigma", "0.1",
                "--scale", "tiny",
                "--results-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean %" in out
        store = ResultStore(str(tmp_path))
        record = store.load("run-qat-lenet5")
        assert record["notation"] == "A4W2"
        assert 0.0 <= record["summary"]["mean"] <= 1.0
        assert len(record["accuracies"]) > 0

    def test_serve_bench_skip_training(self, tmp_path, capsys):
        code = main(
            [
                "serve-bench",
                "--skip-training",
                "--requests", "48",
                "--max-batch", "16",
                "--num-chips", "2",
                "--results-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "batched" in out
        record = ResultStore(str(tmp_path)).load("serve-bench-lenet5")
        assert record["requests"] == 48
        assert record["speedup"] > 0
        assert record["telemetry"]["requests"] == 48
        assert record["cache"]["misses"] >= 2

    def test_serve_bench_drift_races_policies(self, tmp_path, capsys, refuse_stacking):
        argv = [
            "serve-bench",
            "--drift",
            "--policy", "accuracy-weighted",
            "--skip-training",
            "--requests", "64",
            "--max-batch", "8",
            "--trace-rate", "4",
        ]
        code = main([*argv, "--results-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "drift-aware vs round-robin" in out
        assert "probed accuracy over time" in out
        record = ResultStore(str(tmp_path)).load("serve-bench-drift-lenet5")
        assert record["fleet"] == "rram:2,flash:2"
        policies = [entry["policy"] for entry in record["policies"]]
        assert policies == ["accuracy-weighted", "drift-aware", "round-robin"]
        for entry in record["policies"]:
            assert 0.0 <= entry["end_accuracy"] <= 1.0
            assert entry["telemetry"]["quality_series"]
        digests = _digests(out)
        assert [line.rsplit(" ", 1)[1] for line in digests] == [
            "(accuracy-weighted)", "(drift-aware)", "(round-robin)",
        ]
        # Per-chip dispatch serves, probes and recalibrates the same story.
        refuse_stacking()
        code = main([*argv, "--results-dir", str(tmp_path / "unfused")])
        assert code == 0
        assert _digests(capsys.readouterr().out) == digests

    def test_serve_bench_chaos_end_to_end(self, tmp_path, capsys):
        code = main(
            [
                "serve-bench",
                "--chaos",
                "--skip-training",
                "--num-chips", "4",
                "--requests", "64",
                "--max-batch", "8",
                "--trace", "uniform",
                "--results-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"^reproducible +yes *$", out, re.MULTILINE)
        digests = _digests(out)
        assert len(digests) == 1
        assert re.fullmatch(r"telemetry digest: [0-9a-f]{64}", digests[0])
        record = ResultStore(str(tmp_path)).load("serve-bench-chaos-lenet5")
        assert record["reproducible"]
        assert record["schedule"]

    def test_serve_bench_slo_end_to_end(self, tmp_path, capsys):
        code = main(
            [
                "serve-bench",
                "--slo",
                "--skip-training",
                "--num-chips", "3",
                "--requests", "48",
                "--trace", "uniform",
                "--results-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reproducible: yes" in out
        digests = _digests(out)
        assert [line.rsplit(" ", 1)[1] for line in digests] == [
            "(round-robin)", "(latency-aware)",
        ]
        record = ResultStore(str(tmp_path)).load("serve-bench-slo-lenet5")
        assert record["reproducible"]
        assert [entry["policy"] for entry in record["policies"]] == [
            "round-robin", "latency-aware",
        ]

    def test_lifetime_bench_end_to_end(self, tmp_path, capsys):
        code = main(
            [
                "lifetime-bench",
                "--skip-training",
                "--requests", "64",
                "--max-batch", "8",
                "--trace-rate", "4",
                "--policies", "round-robin", "drift-aware",
                "--results-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best end-of-trace policy" in out
        digests = _digests(out)
        assert [line.rsplit(" ", 1)[1] for line in digests] == ["(round-robin)", "(drift-aware)"]
        # The per-policy probe line CI's lifecycle parity step parses.
        probes = re.compile(
            r"^probes: \d+ run, \d+ reused, \d+ deferred, \d+ recalibrations \((.+)\)$"
        )
        assert [
            match.group(1) for match in map(probes.match, out.splitlines()) if match
        ] == ["round-robin", "drift-aware"]
        record = ResultStore(str(tmp_path)).load("lifetime-bench-lenet5")
        assert [entry["policy"] for entry in record["policies"]] == [
            "round-robin", "drift-aware",
        ]

    def test_drift_race_and_lifetime_bench_are_one_runner(self, tmp_path, capsys):
        shape = ["--skip-training", "--requests", "64", "--max-batch", "8",
                 "--trace-rate", "4"]
        assert main(["serve-bench", "--drift", "--policy", "accuracy-weighted", *shape,
                     "--results-dir", str(tmp_path / "drift")]) == 0
        drift = _digests(capsys.readouterr().out)
        assert main(["lifetime-bench", *shape, "--policies", "accuracy-weighted",
                     "drift-aware", "round-robin",
                     "--results-dir", str(tmp_path / "lifetime")]) == 0
        assert _digests(capsys.readouterr().out) == drift
        assert len(drift) == 3

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["serve-bench", "--policy", "latency-aware", "--trace", "bursty"],
             "serve-bench-lenet5"),
            (["serve-bench", "--chaos", "--num-chips", "4", "--max-batch", "8",
              "--policy", "accuracy-weighted", "--trace", "uniform"],
             "serve-bench-chaos-lenet5"),
        ],
        ids=["plain-latency-aware", "chaos-accuracy-weighted"],
    )
    def test_quality_policies_probe_before_traffic(self, tmp_path, capsys, argv, name):
        # A quality policy routing on unprobed chips reads every chip as 1.0.
        code = main([*argv, "--skip-training", "--requests", "32",
                     "--results-dir", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        record = ResultStore(str(tmp_path)).load(name)
        assert record["telemetry"]["probes"]["run"] > 0

    @pytest.mark.parametrize("fleet", ["rram:2@nan", "rram:2@inf"])
    def test_serve_bench_rejects_non_finite_fleet_sigma(self, tmp_path, fleet):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-bench", "--skip-training", "--fleet", fleet,
                  "--requests", "8", "--results-dir", str(tmp_path)])
        message = excinfo.value.code
        assert isinstance(message, str)  # a message exits with status 1
        assert "sigma_scale" in message
        assert not any(tmp_path.iterdir())

    def test_serve_bench_compares_same_chip_requests_only(self, tmp_path, capsys):
        code = main(["serve-bench", "--skip-training", "--num-chips", "1",
                     "--requests", "48", "--results-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "WARNING" not in out
        match = re.search(
            r"^batched vs sequential on the same chip: (\d+) requests, "
            r"(\d+) changed class, max \|dlogit\| (\S+)$", out, re.MULTILINE,
        )
        assert match, out
        assert match.group(1) == "48"  # one chip serves every request twice
        assert match.group(2) == "0"
        assert float(match.group(3)) < 1e-9

    @pytest.mark.slow
    def test_run_with_self_tuning(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--model", "lenet5",
                "--sigma", "0.3",
                "--scenario", "mixed",
                "--self-tuning", "global",
                "--scale", "tiny",
                "--results-dir", str(tmp_path),
            ]
        )
        assert code == 0
        record = ResultStore(str(tmp_path)).load("run-qavat-lenet5")
        assert record["self_tuning"] == "global"


def _fake_session(**changes) -> _Session:
    """A finished session whose every compared field can be varied alone."""
    telemetry = SimpleNamespace(
        digest=lambda: "d" * 64, retries=2, hedges=1, slo_met=3, slo_violations=1,
        slo_series=[(0, 1, 0), (1, 3, 1)],
    )
    fields = {
        "policy": "round-robin",
        "engine": SimpleNamespace(telemetry=telemetry, dead_letters={"r000003": None}),
        "injector": SimpleNamespace(schedule=[
            FaultEvent(2, "death", "chip01"), FaultEvent(5, "stuck-at", "chip00"),
        ]),
        "outputs": {f"r{i:06d}": np.linspace(-1.0, 1.0, 4) + i for i in range(3)},
        "ids": [f"r{i:06d}" for i in range(4)],
        "labels": np.zeros(4, dtype=int),
        "seconds": 0.5,
    }
    return _Session(**{**fields, **changes})


def _one_ulp(outputs: dict) -> dict:
    moved = dict(outputs)
    row = moved["r000001"].copy()
    row[2] = np.nextafter(row[2], np.inf)
    moved["r000001"] = row
    return moved


def _with_telemetry(**fields) -> SimpleNamespace:
    base = _fake_session().engine
    telemetry = SimpleNamespace(**{**vars(base.telemetry), **fields})
    return SimpleNamespace(telemetry=telemetry, dead_letters=base.dead_letters)


class TestReproducible:
    """The one rerun predicate behind the --chaos and --slo gates."""

    def test_identical_rerun_is_reproducible(self):
        assert _reproducible(_fake_session(), _fake_session())

    @pytest.mark.parametrize(
        "rerun",
        [
            lambda: _fake_session(outputs=_one_ulp(_fake_session().outputs)),
            lambda: _fake_session(engine=SimpleNamespace(
                telemetry=_fake_session().engine.telemetry,
                dead_letters={"r000002": None},
            )),
            lambda: _fake_session(injector=SimpleNamespace(schedule=[
                FaultEvent(3, "death", "chip01"), FaultEvent(5, "stuck-at", "chip00"),
            ])),
            lambda: _fake_session(injector=None),
            lambda: _fake_session(engine=_with_telemetry(digest=lambda: "e" * 64)),
            lambda: _fake_session(engine=_with_telemetry(retries=3)),
            lambda: _fake_session(engine=_with_telemetry(hedges=0)),
            lambda: _fake_session(engine=_with_telemetry(slo_met=4)),
            lambda: _fake_session(engine=_with_telemetry(slo_violations=0)),
            lambda: _fake_session(engine=_with_telemetry(
                slo_series=[(0, 1, 0), (1, 2, 1), (1, 3, 1)],
            )),
            lambda: _fake_session(outputs={
                rid: row for rid, row in _fake_session().outputs.items()
                if rid != "r000002"
            }),
        ],
        ids=["output-row-one-ulp", "dead-letter-id", "fault-event", "no-injector",
             "digest", "retries", "hedges", "slo-met", "slo-violations",
             "slo-series", "served-ids"],
    )
    def test_one_difference_is_not_reproducible(self, rerun):
        assert not _reproducible(_fake_session(), rerun())
