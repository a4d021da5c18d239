"""Experiment harness: configs, formatting, and a tiny end-to-end run."""

import numpy as np
import pytest

from repro.backends import FakeQuantBackend
from repro.eval import evaluate_robustness
from repro.experiments import (
    EXPERIMENT_SCALES,
    MethodConfig,
    dataset_for,
    format_series,
    format_table,
    model_for,
    run_method,
    train_method,
)
from repro.quant import QConfig
from repro.variability import VariabilitySpec, WeightProportionalVariance


class TestConfigs:
    def test_scales_exist(self):
        assert {"tiny", "small", "paper"} <= set(EXPERIMENT_SCALES)

    def test_paper_scale_uses_full_width_and_2000_chips(self):
        paper = EXPERIMENT_SCALES["paper"]
        assert paper.width_multiplier == 1.0
        assert paper.num_chips == 2000

    def test_dataset_for_shapes(self):
        scale = EXPERIMENT_SCALES["tiny"]
        train, test = dataset_for("mnist", scale)
        assert train.sample_shape == (1, 28, 28)
        train, _ = dataset_for("cifar100", scale)
        assert train.num_classes == 100

    def test_dataset_unknown_workload(self):
        with pytest.raises(KeyError):
            dataset_for("imagenet", EXPERIMENT_SCALES["tiny"])

    def test_model_for_builds_each_family(self):
        scale = EXPERIMENT_SCALES["tiny"]
        for model_name, workload in [("lenet5", "mnist"), ("vgg11", "cifar10"), ("resnet18", "cifar100")]:
            model = model_for(model_name, workload, scale)
            assert model.num_classes == (100 if workload == "cifar100" else 10)

    def test_model_seed_determinism(self):
        scale = EXPERIMENT_SCALES["tiny"]
        a = model_for("lenet5", "mnist", scale, seed=3)
        b = model_for("lenet5", "mnist", scale, seed=3)
        assert np.array_equal(
            a.features[0].weight.data, b.features[0].weight.data
        )


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["a", "bbbb"], [[1, 2.5], ["x", 3.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text
        assert "3.25" in text

    def test_format_series(self):
        text = format_series("sigma", [0.1, 0.5], {"qavat": [60.0, 50.0], "qat": [58.0, 13.0]})
        assert "sigma" in text
        assert "qavat" in text
        assert "13.00" in text


@pytest.mark.slow
class TestRunnerEndToEnd:
    def test_run_method_produces_result(self):
        scale = EXPERIMENT_SCALES["tiny"]
        spec = VariabilitySpec.within_only(0.2, WeightProportionalVariance())
        result = run_method(
            "qat",
            "lenet5",
            "mnist",
            QConfig.from_notation("A8W4"),
            spec,
            spec,
            scale,
            MethodConfig(seed=0),
        )
        assert 0.0 <= result.mean_accuracy <= 1.0
        assert result.clean_accuracy > 0.5  # QAT at A8W4 must learn the task
        assert result.notation == "A8W4"

    def test_bad_method_rejected(self):
        scale = EXPERIMENT_SCALES["tiny"]
        spec = VariabilitySpec.null()
        with pytest.raises(ValueError):
            run_method("dropout", "lenet5", "mnist", QConfig(), spec, spec, scale)

    def test_backend_evaluation_matches_legacy_in_place_path(self):
        """The fake-quant backend must reproduce in-place injection
        (``evaluate_robustness(backend=None)``) exactly on a trained model —
        experiments cannot drift when evaluation runs through repro.backends."""
        scale = EXPERIMENT_SCALES["tiny"]
        spec = VariabilitySpec.within_only(0.3, WeightProportionalVariance())
        model, test = train_method(
            "qat", "lenet5", "mnist", QConfig.from_notation("A8W4"), spec, scale,
            MethodConfig(seed=1),
        )
        kwargs = dict(num_chips=scale.num_chips, batch_size=scale.batch_size, seed=4322)
        in_place = evaluate_robustness(model, test, spec, backend=None, **kwargs)
        routed = evaluate_robustness(model, test, spec, backend=FakeQuantBackend(), **kwargs)
        assert len(routed.accuracies) == scale.num_chips
        assert routed.accuracies == in_place.accuracies

    def test_runner_rejects_missing_backend(self):
        """The runner always programs chips through a backend."""
        scale = EXPERIMENT_SCALES["tiny"]
        spec = VariabilitySpec.null()
        args = ("lenet5", "mnist", QConfig(), spec, spec, scale)
        with pytest.raises(KeyError, match="unknown backend"):
            run_method("qat", *args, backend=None)

    def test_circuit_backend_evaluation(self):
        """Scoring a trained method on crossbar-level hardware end to end."""
        from dataclasses import replace

        scale = replace(EXPERIMENT_SCALES["tiny"], num_chips=2)
        spec = VariabilitySpec.within_only(0.2, WeightProportionalVariance())
        result = run_method(
            "qat",
            "lenet5",
            "mnist",
            QConfig.from_notation("A8W4"),
            spec,
            spec,
            scale,
            MethodConfig(seed=0),
            backend="circuit",
        )
        assert result.extras["backend"] == "circuit"
        assert len(result.robustness.accuracies) == 2
        assert all(0.0 <= acc <= 1.0 for acc in result.robustness.accuracies)
