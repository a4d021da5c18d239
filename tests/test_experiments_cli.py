"""Tests for the result store and the experiments CLI."""

import os
import re

import numpy as np
import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.store import ResultStore


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
            ["--max-resident-chips", "0"],
            ["--probe-k", "0"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve-bench", *flags])

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
        assert args.policy == "drift-aware"
        assert args.policies == ["round-robin", "accuracy-weighted", "drift-aware"]
        assert args.probe_every == 8.0

    def test_lifetime_bench_rejects_unknown_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lifetime-bench", "--trace", "tsunami"])


class TestBenchScale:
    def test_records_the_fleet_the_engine_built(self):
        """A ``--fleet`` run records its real fleet size, not ``--num-chips``."""
        from repro.datasets.loaders import batch_iterator
        from repro.datasets.synthetic import make_pattern_dataset
        from repro.experiments.cli import _bench_scale, _fleet_spec
        from repro.models import build_model
        from repro.quant.calibration import calibrate_model
        from repro.quant.ptq import convert_to_quantized
        from repro.quant.qconfig import QConfig
        from repro.serve import InferenceEngine, ServeConfig
        from repro.variability.models import WeightProportionalVariance
        from repro.variability.sampler import VariabilitySpec

        dataset = make_pattern_dataset(5, 8, (1, 28, 28), seed=7)
        model = build_model("lenet5-mini", num_classes=5, in_channels=1)
        convert_to_quantized(model, QConfig.from_notation("A4W2"))
        calibrate_model(model, batch_iterator(dataset, 8, shuffle=False), max_batches=1)
        args = build_parser().parse_args(
            ["lifetime-bench", "--fleet", "rram:2,flash:3"]
        )
        engine = InferenceEngine(
            model,
            VariabilitySpec.mixed(0.2, WeightProportionalVariance()),
            args.num_chips,
            ServeConfig(),
            fleet_spec=_fleet_spec(args),
        )
        scale = _bench_scale(args, engine)
        assert args.num_chips == 4
        assert scale["num_chips"] == 5


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

    def test_serve_bench_drift_races_policies(self, tmp_path, capsys):
        code = main(
            [
                "serve-bench",
                "--drift",
                "--policy", "accuracy-weighted",
                "--skip-training",
                "--requests", "64",
                "--max-batch", "8",
                "--trace-rate", "4",
                "--results-dir", str(tmp_path),
            ]
        )
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
        digests = [line for line in out.splitlines() if line.startswith("telemetry digest: ")]
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
