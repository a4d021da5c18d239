"""End-to-end tests for the fleet inference engine."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.datasets.loaders import batch_iterator
from repro.datasets.synthetic import make_pattern_dataset
from repro.models import build_model
from repro.nn import init
from repro.quant.calibration import calibrate_model
from repro.quant.ptq import convert_to_quantized, quantized_layers
from repro.quant.qconfig import QConfig
from repro.selftuning.tuner import SelfTuningConfig
from repro.serve import FleetSpec, InferenceEngine, ServeConfig, TechnologyGroup
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySpec


@pytest.fixture(scope="module")
def served_model():
    """A small calibrated quantized model plus its dataset."""
    init.seed(0)
    dataset = make_pattern_dataset(5, 16, (1, 28, 28), seed=7, max_shift=1, noise=0.2)
    model = build_model("lenet5-mini", num_classes=5, in_channels=1)
    convert_to_quantized(model, QConfig.from_notation("A4W2"))
    calibrate_model(model, batch_iterator(dataset, 16, shuffle=False), max_batches=3)
    model.eval()
    return model, dataset


def _spec(sigma=0.2):
    return VariabilitySpec.mixed(sigma, WeightProportionalVariance())


def _engine(model, spec=None, num_chips=3, **config):
    config.setdefault("max_batch", 8)
    config.setdefault("max_wait", 2)
    return InferenceEngine(
        model, spec or _spec(), num_chips=num_chips, config=ServeConfig(**config)
    )


class TestValidation:
    def test_uncalibrated_model_rejected(self):
        init.seed(0)
        model = build_model("lenet5-mini", num_classes=5, in_channels=1)
        convert_to_quantized(model, QConfig.from_notation("A4W2"))
        with pytest.raises(RuntimeError, match="calibrate"):
            InferenceEngine(model, _spec())

    def test_float_model_rejected(self):
        init.seed(0)
        model = build_model("lenet5-mini", num_classes=5, in_channels=1)
        with pytest.raises(ValueError, match="quantized"):
            InferenceEngine(model, _spec())

    def test_empty_fleet_rejected(self, served_model):
        model, _ = served_model
        with pytest.raises(ValueError):
            InferenceEngine(model, _spec(), num_chips=0)

    @pytest.mark.parametrize(
        "num_chips",
        [True, 2.5, float("nan"), "3", 0, -1],
        ids=["bool", "float", "nan", "str", "zero", "negative"],
    )
    def test_bad_num_chips_rejected(self, served_model, num_chips):
        model, _ = served_model
        with pytest.raises(ValueError, match="num_chips"):
            InferenceEngine(model, _spec(), num_chips=num_chips)

    def test_numpy_int_num_chips_accepted(self, served_model):
        model, _ = served_model
        engine = InferenceEngine(model, _spec(), num_chips=np.int64(3))
        assert [chip.chip_id for chip in engine.fleet] == ["chip00", "chip01", "chip02"]

    def test_duplicate_ids_rejected(self, served_model):
        model, dataset = served_model
        with pytest.raises(ValueError, match="unique"):
            _engine(model).run(dataset.images[:3], ids=["a", "a", "b"])

    def test_mismatched_ids_rejected(self, served_model):
        model, dataset = served_model
        with pytest.raises(ValueError, match="mismatch"):
            _engine(model).run(dataset.images[:3], ids=["a", "b"])


class TestServeConfigValidation:
    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"max_batch": 0}, "max_batch"),
            ({"max_batch": -4}, "max_batch"),
            ({"max_batch": 2.5}, "max_batch"),
            ({"max_batch": True}, "max_batch"),
            ({"max_wait": -1}, "max_wait"),
            ({"max_wait": 1.5}, "max_wait"),
            ({"max_resident_chips": 0}, "max_resident_chips"),
            ({"max_resident_chips": -1}, "max_resident_chips"),
            ({"max_resident_chips": 2.0}, "max_resident_chips"),
            ({"seed": -1}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
        ],
    )
    def test_invalid_config_rejected_at_construction(self, overrides, match):
        """Bad sizes fail when the config is built, not mid-run."""
        with pytest.raises(ValueError, match=match):
            ServeConfig(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_batch": 1},
            {"max_wait": 0},
            {"max_resident_chips": 1},
            {"max_resident_chips": None},
            {"max_batch": np.int64(8), "max_resident_chips": np.int64(2)},
        ],
    )
    def test_boundary_config_accepted(self, overrides):
        ServeConfig(**overrides)


class TestServing:
    def test_every_request_answered_once(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        results = engine.run(dataset.images[:20])
        assert len(results) == 20
        assert all(logits.shape == (5,) for logits in results.values())
        assert engine.telemetry.requests == 20

    def test_null_fleet_matches_golden_model(self, served_model):
        """sigma=0 chips are the golden model: outputs must match exactly."""
        model, dataset = served_model
        engine = _engine(model, spec=VariabilitySpec.null(), num_chips=2)
        ids = [f"r{i}" for i in range(12)]
        results = engine.run(dataset.images[:12], ids=ids)
        with no_grad():
            expected = model(Tensor(dataset.images[:12])).data
        for row, rid in enumerate(ids):
            assert np.allclose(results[rid], expected[row], atol=1e-12)

    def test_variation_makes_chips_differ(self, served_model):
        model, dataset = served_model
        engine = _engine(model, spec=_spec(0.5), num_chips=2, max_batch=1, max_wait=0)
        sample = dataset.images[:1]
        out0 = engine.run(sample, ids=["a"])["a"]
        out1 = engine.run(sample, ids=["b"])["b"]  # round-robin: next chip
        assert engine.assignments()["a"] != engine.assignments()["b"]
        assert not np.allclose(out0, out1)

    def test_golden_model_never_mutated(self, served_model):
        model, dataset = served_model
        before = {
            name: layer.weight.data.copy() for name, layer in quantized_layers(model)
        }
        engine = _engine(model, spec=_spec(0.5))
        engine.run(dataset.images[:16])
        for name, layer in quantized_layers(model):
            assert np.array_equal(layer.weight.data, before[name])
            assert layer.current_chip is None

    def test_streaming_step_and_flush(self, served_model):
        model, dataset = served_model
        engine = _engine(model, max_batch=4, max_wait=10)
        for i in range(3):  # partial batch: deadline far away
            engine.submit(dataset.images[i])
        assert engine.step() == []
        served = engine.flush()
        assert sorted(done.id for done in served) == sorted(engine.completed)
        assert len(engine.batcher) == 0


class TestDeterminism:
    def test_same_seed_two_runs_identical(self, served_model):
        model, dataset = served_model
        ids = [f"r{i:03d}" for i in range(20)]
        first = _engine(model, seed=5).run(dataset.images[:20], ids=ids)
        second = _engine(model, seed=5).run(dataset.images[:20], ids=ids)
        assert all(np.array_equal(first[rid], second[rid]) for rid in ids)

    def test_arrival_order_does_not_change_outputs(self, served_model):
        model, dataset = served_model
        ids = [f"r{i:03d}" for i in range(20)]
        inputs = dataset.images[:20]
        forward = _engine(model, seed=5).run(inputs, ids=ids)
        perm = np.random.default_rng(3).permutation(20)
        shuffled = _engine(model, seed=5).run(
            inputs[perm], ids=[ids[i] for i in perm]
        )
        for rid in ids:
            assert np.array_equal(forward[rid], shuffled[rid])

    def test_different_seed_samples_different_fleet(self, served_model):
        model, dataset = served_model
        ids = [f"r{i}" for i in range(8)]
        first = _engine(model, spec=_spec(0.5), seed=1).run(dataset.images[:8], ids=ids)
        second = _engine(model, spec=_spec(0.5), seed=2).run(dataset.images[:8], ids=ids)
        assert any(not np.array_equal(first[rid], second[rid]) for rid in ids)


class TestCacheIntegration:
    def test_chips_programmed_once_across_traffic(self, served_model):
        model, dataset = served_model
        engine = _engine(model, num_chips=2, max_batch=4, max_wait=0)
        engine.run(dataset.images[:32])
        assert engine.cache.stats.misses == 2  # one program per chip
        assert engine.cache.stats.evictions == 0
        assert engine.cache.stats.hits == engine.telemetry.batches - 2

    def test_small_cache_forces_reprogramming(self, served_model):
        model, dataset = served_model
        engine = _engine(
            model, num_chips=3, max_batch=4, max_wait=0, max_resident_chips=1
        )
        engine.run(dataset.images[:24])
        assert engine.cache.stats.misses > 3
        assert engine.cache.stats.evictions > 0

    def test_reprogrammed_chip_reproduces_outputs(self, served_model):
        """Eviction + reprogram must rebuild the exact same physical chip."""
        model, dataset = served_model
        ids = [f"r{i:03d}" for i in range(24)]
        roomy = _engine(model, num_chips=3, max_batch=4, max_wait=0, seed=5)
        tight = _engine(
            model, num_chips=3, max_batch=4, max_wait=0, seed=5, max_resident_chips=1
        )
        full = roomy.run(dataset.images[:24], ids=ids)
        evicting = tight.run(dataset.images[:24], ids=ids)
        assert all(np.array_equal(full[rid], evicting[rid]) for rid in ids)

    def test_warm_up_programs_whole_fleet(self, served_model):
        model, _ = served_model
        engine = _engine(model, num_chips=3)
        engine.warm_up()
        assert len(engine.cache) == 3
        assert engine.cache.stats.misses == 3


class TestPoliciesEndToEnd:
    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded", "accuracy-weighted"])
    def test_policy_serves_all_requests(self, served_model, policy):
        model, dataset = served_model
        engine = _engine(model, policy=policy, max_batch=4, max_wait=0)
        results = engine.run(dataset.images[:16])
        assert len(results) == 16
        assert sum(engine.telemetry.per_chip_samples.values()) == 16

    def test_round_robin_spreads_batches(self, served_model):
        model, dataset = served_model
        engine = _engine(model, num_chips=2, policy="round-robin", max_batch=4, max_wait=0)
        engine.run(dataset.images[:16])
        assert engine.telemetry.per_chip_samples == {"chip00": 8, "chip01": 8}


class TestSelfTuningAndProbe:
    def test_probe_reports_quality_per_chip(self, served_model):
        model, dataset = served_model
        engine = _engine(model, num_chips=3)
        qualities = engine.probe_fleet(dataset, k=2)
        assert set(qualities) == {"chip00", "chip01", "chip02"}
        assert all(0.0 <= quality <= 1.0 for quality in qualities.values())
        assert all(chip.quality is not None for chip in engine.fleet)

    def test_self_tuning_attached_to_mappings(self, served_model):
        model, dataset = served_model
        engine = _engine(
            model, self_tuning=SelfTuningConfig(kind="global", gtm_cells=100)
        )
        engine.run(dataset.images[:8])
        mapping = engine.programmed_for(engine.fleet[0]).mapping
        for _, layer in quantized_layers(mapping):
            assert layer.self_tuner is not None
        for _, layer in quantized_layers(model):
            assert layer.self_tuner is None

    def test_self_tuning_changes_outputs_under_variation(self, served_model):
        model, dataset = served_model
        ids = [f"r{i}" for i in range(8)]
        bare = _engine(model, spec=_spec(0.5), seed=9).run(dataset.images[:8], ids=ids)
        tuned = _engine(
            model,
            spec=_spec(0.5),
            seed=9,
            self_tuning=SelfTuningConfig(kind="global", gtm_cells=100),
        ).run(dataset.images[:8], ids=ids)
        assert any(not np.array_equal(bare[rid], tuned[rid]) for rid in ids)


class TestHeterogeneousFleet:
    def test_parse_fleet_spec(self):
        spec = FleetSpec.parse("rram:2,flash:1@0.5")
        assert spec.num_chips == 3
        assert spec.groups[0] == TechnologyGroup("rram", 2)
        assert spec.groups[1] == TechnologyGroup("flash", 1, sigma_scale=0.5)

    def test_parse_rejects_unknown_device(self):
        with pytest.raises(KeyError):
            FleetSpec.parse("memristor:2")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("rram:2@nan", "sigma_scale"),
            ("rram:2@inf", "sigma_scale"),
            ("rram:2@-inf", "sigma_scale"),
            ("rram:2@0", "sigma_scale"),
            ("rram:2@-0.5", "sigma_scale"),
            ("rram:0", "count"),
            ("rram:-1", "count"),
            ("rram:2.5", "bad fleet group"),
        ],
    )
    def test_parse_rejects_bad_groups(self, text, match):
        with pytest.raises(ValueError, match=match):
            FleetSpec.parse(text)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"count": 0}, "count"),
            ({"count": 2.5}, "count"),
            ({"count": 2.0}, "count"),
            ({"count": True}, "count"),
            ({"sigma_scale": 0.0}, "sigma_scale"),
            ({"sigma_scale": -1.0}, "sigma_scale"),
            ({"sigma_scale": float("nan")}, "sigma_scale"),
            ({"sigma_scale": float("inf")}, "sigma_scale"),
            ({"sigma_scale": True}, "sigma_scale"),
        ],
    )
    def test_group_rejects_invalid_fields(self, overrides, match):
        fields = {"count": 2, "sigma_scale": 1.0, **overrides}
        with pytest.raises(ValueError, match=match):
            TechnologyGroup("rram", **fields)

    @pytest.mark.parametrize(
        "count, sigma_scale",
        [(1, 1.0), (np.int64(3), 1e-6), (2, 2), (1, np.float64(0.5))],
    )
    def test_group_boundary_accepted(self, count, sigma_scale):
        group = TechnologyGroup("rram", count, sigma_scale)
        assert FleetSpec((group,)).num_chips == count

    def test_group_spec_matches_technology(self):
        # rram: weight-proportional residuals; flash: layer-fixed ones.
        rram_spec = TechnologyGroup("rram", 1).variability_spec("mixed")
        flash_spec = TechnologyGroup("flash", 1).variability_spec("mixed")
        assert rram_spec.variance_model.name == "weight-proportional"
        assert flash_spec.variance_model.name == "layer-fixed"
        assert rram_spec.sigma_total > flash_spec.sigma_total  # noisier cells

    def test_mixed_fleet_serves_all_requests(self, served_model):
        model, dataset = served_model
        engine = InferenceEngine(
            model,
            VariabilitySpec.null(),
            config=ServeConfig(max_batch=4, max_wait=1),
            fleet_spec=FleetSpec.parse("rram:2,flash:2"),
        )
        assert [chip.chip_id for chip in engine.fleet] == [
            "rram00", "rram01", "flash00", "flash01",
        ]
        assert [chip.technology for chip in engine.fleet] == [
            "rram", "rram", "flash", "flash",
        ]
        results = engine.run(dataset.images[:16])
        assert len(results) == 16
        assert sum(engine.telemetry.per_chip_samples.values()) == 16

    def test_per_chip_spec_governs_programming(self, served_model):
        """Each technology group is sampled from its own variability spec."""
        model, _ = served_model
        engine = InferenceEngine(
            model,
            VariabilitySpec.null(),
            config=ServeConfig(),
            fleet_spec=FleetSpec.parse("rram:1,ideal:1"),
        )
        rram_chip, ideal_chip = engine.fleet
        assert engine.spec_for(rram_chip).sigma_total > 0.0
        assert engine.spec_for(ideal_chip).sigma_total == 0.0
        assert ideal_chip.variation.eps_between == 0.0

    def test_mixed_fleet_deterministic_from_seed(self, served_model):
        model, dataset = served_model
        ids = [f"r{i:03d}" for i in range(12)]

        def run():
            engine = InferenceEngine(
                model,
                VariabilitySpec.null(),
                config=ServeConfig(max_batch=4, max_wait=1, seed=9),
                fleet_spec=FleetSpec.parse("rram:2,mram:1"),
            )
            return engine.run(dataset.images[:12], ids=ids)

        first, second = run(), run()
        assert all(np.array_equal(first[rid], second[rid]) for rid in ids)

    def test_technologies_produce_distinct_chips(self, served_model):
        """rram noise differs from mram noise on the same sample."""
        model, dataset = served_model
        engine = InferenceEngine(
            model,
            VariabilitySpec.null(),
            config=ServeConfig(max_batch=1, max_wait=0, seed=2),
            fleet_spec=FleetSpec.parse("rram:1,ideal:1"),
        )
        out = engine.run(np.stack([dataset.images[0]] * 2), ids=["a", "b"])
        assert engine.assignments()["a"] != engine.assignments()["b"]
        assert not np.array_equal(out["a"], out["b"])


class TestTelemetry:
    def test_counters_add_up(self, served_model):
        model, dataset = served_model
        engine = _engine(model, max_batch=8, max_wait=1)
        engine.run(dataset.images[:20])
        report = engine.telemetry.report()
        assert report["requests"] == 20
        assert report["batches"] == engine.telemetry.batches
        assert sum(report["per_chip_samples"].values()) == 20
        assert report["throughput_sps"] > 0.0
        assert 0.0 < report["occupancy_mean"] <= 1.0
        assert report["queue_ticks"]["max"] >= report["queue_ticks"]["mean"]

    def test_format_is_printable(self, served_model):
        model, dataset = served_model
        engine = _engine(model)
        engine.run(dataset.images[:10])
        text = engine.telemetry.format()
        assert "throughput" in text and "chip load" in text
