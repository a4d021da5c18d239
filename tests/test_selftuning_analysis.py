"""Tests for the self-tuning sizing analysis and drift compensation."""

import numpy as np
import pytest

from repro.pim.drift import AgingDrift, DriftingChip, TemperatureDrift
from repro.selftuning import (
    DriftCompensator,
    GlobalTuningModule,
    LayerTuningModule,
    SelfTuningConfig,
    check_st_matches_variance_model,
    correction_gain_db,
    gtm_cells_for_target,
    gtm_standard_error,
    ltm_columns_for_target,
    ltm_measurement_noise_std,
    residual_epsilon_std,
    size_quality_table,
)
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySampler, VariabilitySpec


class TestGtmAnalysis:
    def test_standard_error_formula(self):
        assert gtm_standard_error(0.3, 900) == pytest.approx(0.01)

    def test_matches_simulated_gtm(self):
        """The closed form predicts the Monte Carlo spread of GTM estimates."""
        sigma_w, cells = 0.4, 250
        gtm = GlobalTuningModule(cells)
        spec = VariabilitySpec(sigma_w, 0.3, WeightProportionalVariance())
        sampler = VariabilitySampler(spec, seed=0)
        errors = []
        for _ in range(3000):
            chip = sampler.sample_chip()
            errors.append(gtm.estimate(chip) - chip.eps_between)
        assert np.std(errors) == pytest.approx(gtm_standard_error(sigma_w, cells), rel=0.1)
        assert abs(np.mean(errors)) < 0.002  # unbiased

    def test_cells_for_target_inverts_standard_error(self):
        cells = gtm_cells_for_target(0.3, 0.01)
        assert gtm_standard_error(0.3, cells) <= 0.01
        assert gtm_standard_error(0.3, cells - 1) > 0.01

    def test_cells_for_target_degenerate(self):
        assert gtm_cells_for_target(0.0, 0.01) == 1
        with pytest.raises(ValueError):
            gtm_cells_for_target(0.3, 0.0)

    def test_residual_independent_of_sigma_between(self):
        assert residual_epsilon_std(0.2, 400) == residual_epsilon_std(0.2, 400)
        assert residual_epsilon_std(0.2, 400) == pytest.approx(0.01)

    def test_gain_grows_with_cells(self):
        gains = [correction_gain_db(0.5, 0.5, n) for n in (10, 100, 1000)]
        assert gains[0] < gains[1] < gains[2]

    def test_gain_edge_cases(self):
        assert correction_gain_db(0.0, 0.5, 100) == 0.0
        assert correction_gain_db(0.5, 0.0, 100) == np.inf

    def test_size_quality_table_shape(self):
        rows = size_quality_table(0.3, 0.3)
        assert len(rows) == 5
        assert rows[0]["standard_error"] > rows[-1]["standard_error"]


class TestLtmAnalysis:
    def test_noise_std_formula(self):
        assert ltm_measurement_noise_std(0.2, 1.5, 10.0, 4) == pytest.approx(
            0.2 * 1.5 * 10.0 / 2.0
        )

    def test_matches_simulated_ltm(self):
        """Closed form vs the simulated LTM column noise."""
        sigma_w, w_max, columns = 0.3, 2.0, 4
        ltm = LayerTuningModule(columns)
        rng = np.random.default_rng(0)
        x = rng.random(64)
        norm = float(np.linalg.norm(x))
        spec = VariabilitySpec(sigma_w, 0.0, WeightProportionalVariance())
        sampler = VariabilitySampler(spec, seed=1)
        errors = []
        for _ in range(2000):
            chip = sampler.sample_chip()
            measured = ltm.measure(chip, "layer", x[None, :], w_max)[0]
            clean = (ltm.w_l(w_max) + chip.eps_between * w_max) * x.sum()
            errors.append(measured - clean)
        expected = ltm_measurement_noise_std(sigma_w, w_max, norm, columns)
        assert np.std(errors) == pytest.approx(expected, rel=0.1)

    def test_columns_for_target(self):
        columns = ltm_columns_for_target(0.3, 1.0, 5.0, target_std=0.5)
        assert ltm_measurement_noise_std(0.3, 1.0, 5.0, columns) <= 0.5

    def test_columns_validation(self):
        with pytest.raises(ValueError):
            ltm_measurement_noise_std(0.1, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            ltm_columns_for_target(0.1, 1.0, 1.0, 0.0)


class TestWrongStDiagnostic:
    def test_matching_configs(self):
        ok, _ = check_st_matches_variance_model(
            SelfTuningConfig(kind="global"), "weight-proportional"
        )
        assert ok
        ok, _ = check_st_matches_variance_model(
            SelfTuningConfig(kind="layer"), "layer-fixed"
        )
        assert ok

    def test_mismatch_flagged(self):
        ok, message = check_st_matches_variance_model(
            SelfTuningConfig(kind="global"), "layer-fixed"
        )
        assert not ok
        assert "NOT" in message


def _drifting_chip(process, sigma_w=0.1, sigma_b=0.2, seed=0):
    spec = VariabilitySpec(sigma_w, sigma_b, WeightProportionalVariance())
    base = VariabilitySampler(spec, seed=seed).sample_chip()
    return DriftingChip(base, process, seed=seed)


class TestDriftCompensator:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DriftCompensator(policy="sometimes")
        with pytest.raises(ValueError):
            DriftCompensator(period=0.0)

    def test_never_measures_once(self):
        chip = _drifting_chip(AgingDrift(nu=0.05))
        compensator = DriftCompensator(policy="never")
        for t in (0.0, 1.0, 2.0):
            chip.advance_to(t)
            assert compensator.maybe_remeasure(chip) is False
        assert compensator.remeasure_count == 1  # the deployment measurement

    def test_every_remeasures_each_call(self):
        chip = _drifting_chip(AgingDrift(nu=0.05))
        compensator = DriftCompensator(policy="every")
        for t in (0.0, 1.0, 2.0):
            chip.advance_to(t)
            assert compensator.maybe_remeasure(chip) is True
        assert compensator.remeasure_count == 3

    def test_periodic_respects_period(self):
        chip = _drifting_chip(AgingDrift(nu=0.05))
        compensator = DriftCompensator(policy="periodic", period=2.0)
        results = []
        for t in np.arange(0.0, 5.5, 0.5):
            chip.advance_to(float(t))
            results.append(compensator.maybe_remeasure(chip))
        # Measured at t = 0, 2, 4 only.
        assert sum(results) == 3

    def test_staleness_tracking(self):
        chip = _drifting_chip(AgingDrift(nu=0.05))
        compensator = DriftCompensator(policy="periodic", period=10.0)
        assert compensator.staleness(chip) == np.inf
        chip.advance_to(0.0)
        compensator.maybe_remeasure(chip)
        chip.advance_to(3.0)
        compensator.maybe_remeasure(chip)  # within period: no refresh
        assert compensator.staleness(chip) == pytest.approx(3.0)

    def test_fresh_gtm_tracks_drift(self):
        """With per-inference re-measurement the GTM follows the drifted
        eps_B; with policy='never' it keeps the deployment-time value."""
        gtm = GlobalTuningModule(100_000)
        process = TemperatureDrift(theta=0.1, sigma=0.4)

        chip_fresh = _drifting_chip(process, seed=3)
        fresh = DriftCompensator(policy="every")
        chip_fresh.advance_to(0.0)
        fresh.maybe_remeasure(chip_fresh)
        deployment_estimate = gtm.estimate(chip_fresh)
        chip_fresh.advance_to(50.0)
        fresh.maybe_remeasure(chip_fresh)
        assert gtm.estimate(chip_fresh) == pytest.approx(
            chip_fresh.eps_between, abs=0.01
        )

        chip_stale = _drifting_chip(TemperatureDrift(theta=0.1, sigma=0.4), seed=3)
        stale = DriftCompensator(policy="never")
        chip_stale.advance_to(0.0)
        stale.maybe_remeasure(chip_stale)
        first = gtm.estimate(chip_stale)
        chip_stale.advance_to(50.0)
        stale.maybe_remeasure(chip_stale)
        assert gtm.estimate(chip_stale) == first  # stale cache
        assert abs(first - chip_stale.eps_between) > 0.01  # and it drifted
