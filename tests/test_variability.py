"""Variability models and sampler: distributional and structural invariants."""

import numpy as np
import pytest

from repro.variability import (
    ChipVariation,
    LayerFixedVariance,
    VariabilitySampler,
    VariabilitySpec,
    WeightProportionalVariance,
    variance_model_by_name,
)


class TestVarianceModels:
    def test_lookup_by_name(self):
        assert isinstance(
            variance_model_by_name("weight-proportional"), WeightProportionalVariance
        )
        assert isinstance(variance_model_by_name("layer_fixed"), LayerFixedVariance)
        with pytest.raises(KeyError):
            variance_model_by_name("cauchy")

    def test_weight_proportional_std(self):
        model = WeightProportionalVariance()
        w = np.array([-2.0, 0.5, 0.0])
        assert np.allclose(model.std(w, 0.1), [0.2, 0.05, 0.0])

    def test_layer_fixed_std_uses_max(self):
        model = LayerFixedVariance()
        w = np.array([-2.0, 0.5, 0.0])
        assert np.allclose(model.std(w, 0.1), 0.2)

    def test_weight_proportional_reparam_data(self, rng):
        model = WeightProportionalVariance()
        w = rng.normal(size=10)
        eps = rng.normal(size=10)
        assert np.allclose(model.reparameterize_data(eps, w), eps * w)

    def test_layer_fixed_reparam_data(self, rng):
        model = LayerFixedVariance()
        w = np.array([1.0, -3.0, 2.0])
        eps = np.array([0.1, 0.2, -0.1])
        assert np.allclose(model.reparameterize_data(eps, w), eps * 3.0)

    def test_reparam_generates_model_distribution(self, rng):
        # f(eps, w) with eps ~ N(0, sigma^2) must match delta ~ N(0, sigma(w)^2).
        for model in (WeightProportionalVariance(), LayerFixedVariance()):
            w = np.array([0.5, -1.5])
            sigma = 0.3
            draws = np.stack(
                [
                    model.reparameterize_data(rng.normal(0, sigma, size=2), w)
                    for _ in range(4000)
                ]
            )
            assert np.allclose(draws.mean(axis=0), 0.0, atol=0.03)
            assert np.allclose(draws.std(axis=0), model.std(w, sigma), rtol=0.1)


class TestSpec:
    def test_sigma_total(self):
        spec = VariabilitySpec(0.3, 0.4)
        assert spec.sigma_total == pytest.approx(0.5)

    def test_scenario_constructors(self):
        within = VariabilitySpec.within_only(0.2, WeightProportionalVariance())
        assert within.sigma_between == 0.0
        mixed = VariabilitySpec.mixed(0.2, WeightProportionalVariance())
        assert mixed.sigma_between == mixed.sigma_within == 0.2
        assert VariabilitySpec.null().is_null

    @pytest.mark.parametrize("field", ["sigma_within", "sigma_between"])
    @pytest.mark.parametrize(
        "value", [float("nan"), -0.3, float("inf"), True], ids=["nan", "negative", "inf", "bool"]
    )
    def test_bad_sigma_rejected(self, field, value):
        """A NaN or negative sigma would sample a variation-free chip (draws
        happen only for a sigma > 0) while ``is_null`` reads False."""
        with pytest.raises(ValueError, match=field):
            VariabilitySpec(**{field: value})


class TestChipVariation:
    def test_epsilon_cached_and_deterministic(self):
        chip = ChipVariation(0.1, 0.2, seed=42)
        a = chip.epsilon_for("layer1", (3, 3))
        b = chip.epsilon_for("layer1", (3, 3))
        assert np.array_equal(a, b)
        # The frozen within-chip pattern is cached by identity.
        assert chip.within_pattern("layer1", (3, 3)) is chip.within_pattern(
            "layer1", (3, 3)
        )
        chip2 = ChipVariation(0.1, 0.2, seed=42)
        assert np.array_equal(a, chip2.epsilon_for("layer1", (3, 3)))

    def test_different_layers_get_independent_noise(self):
        chip = ChipVariation(0.0, 0.5, seed=1)
        a = chip.epsilon_for("layer1", (100,))
        b = chip.epsilon_for("layer2", (100,))
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.3

    def test_shape_mismatch_raises(self):
        chip = ChipVariation(0.0, 0.1, seed=0)
        chip.epsilon_for("x", (2, 2))
        with pytest.raises(ValueError):
            chip.epsilon_for("x", (3, 3))

    def test_zero_sigma_within_gives_constant(self):
        chip = ChipVariation(0.25, 0.0, seed=0)
        eps = chip.epsilon_for("x", (10,))
        assert np.allclose(eps, 0.25)

    def test_rng_for_stable(self):
        chip = ChipVariation(0.0, 0.1, seed=5)
        a = chip.rng_for("gtm").normal(size=4)
        b = ChipVariation(0.0, 0.1, seed=5).rng_for("gtm").normal(size=4)
        assert np.array_equal(a, b)


class TestSamplerStatistics:
    def test_between_chip_component_shared_within_chip(self):
        # All epsilons on one chip share eps_B: with sigma_W = 0 every entry
        # of every layer equals eps_B exactly.
        spec = VariabilitySpec(0.0, 0.3)
        sampler = VariabilitySampler(spec, seed=0)
        chip = sampler.sample_chip()
        eps1 = chip.epsilon_for("a", (50,))
        eps2 = chip.epsilon_for("b", (50,))
        assert np.allclose(eps1, chip.eps_between)
        assert np.allclose(eps2, chip.eps_between)

    def test_total_variance_decomposition(self):
        # Across many chips, Var(eps_i) ~= sigma_W^2 + sigma_B^2 and
        # Cov(eps_i, eps_j) ~= sigma_B^2 for i != j.
        spec = VariabilitySpec(0.2, 0.3)
        sampler = VariabilitySampler(spec, seed=7)
        draws = np.stack(
            [chip.epsilon_for("w", (200,)) for chip in sampler.sample_chips(600)]
        )
        variances = draws.var(axis=0)
        assert np.mean(variances) == pytest.approx(0.2**2 + 0.3**2, rel=0.15)
        covariance = np.cov(draws[:, 0], draws[:, 1])[0, 1]
        assert covariance == pytest.approx(0.3**2, rel=0.35)

    def test_chips_are_reproducible_by_seed(self):
        spec = VariabilitySpec(0.1, 0.1)
        a = VariabilitySampler(spec, seed=3).sample_chip()
        b = VariabilitySampler(spec, seed=3).sample_chip()
        assert a.eps_between == b.eps_between
        assert np.array_equal(a.epsilon_for("x", (5,)), b.epsilon_for("x", (5,)))

    def test_sample_chips_count(self):
        chips = VariabilitySampler(VariabilitySpec(0.1, 0.0), seed=0).sample_chips(5)
        assert len(chips) == 5
        eps_b = [c.eps_between for c in chips]
        assert all(e == 0.0 for e in eps_b)  # no between-chip component
