"""Tests for temperature/aging drift processes and the drifting chip."""

import numpy as np
import pytest

from repro.pim.drift import AgingDrift, DriftingChip, TemperatureDrift, drift_trajectory
from repro.selftuning.gtm import GlobalTuningModule
from repro.variability.sampler import VariabilitySampler, VariabilitySpec
from repro.variability.models import WeightProportionalVariance


def _chip(sigma_within=0.1, sigma_between=0.2, seed=0):
    spec = VariabilitySpec(sigma_within, sigma_between, WeightProportionalVariance())
    return VariabilitySampler(spec, seed=seed).sample_chip()


class TestTemperatureDrift:
    def test_starts_at_zero(self):
        process = TemperatureDrift(theta=0.5, sigma=0.1)
        rng = np.random.default_rng(0)
        assert process.epsilon_at(0.0, rng) == 0.0

    def test_stationary_std(self):
        process = TemperatureDrift(theta=0.5, sigma=0.1)
        assert process.stationary_std == pytest.approx(0.1 / np.sqrt(1.0))

    def test_long_run_statistics(self):
        process = TemperatureDrift(theta=1.0, sigma=0.2)
        rng = np.random.default_rng(1)
        # Widely spaced samples are nearly independent draws from the
        # stationary distribution.
        samples = [process.epsilon_at(float(t), rng) for t in range(1, 4001, 10)]
        assert abs(np.mean(samples)) < 0.02
        assert np.std(samples) == pytest.approx(process.stationary_std, rel=0.1)

    def test_seasonal_component(self):
        process = TemperatureDrift(theta=0.5, sigma=0.0, amplitude=0.3, period=4.0)
        rng = np.random.default_rng(2)
        assert process.epsilon_at(1.0, rng) == pytest.approx(0.3)  # sin(pi/2)
        assert process.epsilon_at(2.0, rng) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_time_reversal(self):
        process = TemperatureDrift()
        rng = np.random.default_rng(3)
        process.epsilon_at(5.0, rng)
        with pytest.raises(ValueError):
            process.epsilon_at(4.0, rng)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            TemperatureDrift(theta=0.0)

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"theta": float("nan")}, "theta"),
            ({"theta": float("inf")}, "theta"),
            # A negative sigma used to construct and then crash numpy at
            # the first advance; a zero period divided by zero.
            ({"sigma": -1.0}, "sigma"),
            ({"sigma": float("nan")}, "sigma"),
            ({"amplitude": float("inf")}, "amplitude"),
            ({"amplitude": True}, "amplitude"),
            ({"period": 0.0}, "period"),
            ({"period": float("nan")}, "period"),
            ({"period": -24.0}, "period"),
        ],
    )
    def test_rejects_invalid_params(self, params, match):
        with pytest.raises(ValueError, match=match):
            TemperatureDrift(**params)

    @pytest.mark.parametrize(
        "params",
        [{"sigma": 0.0}, {"amplitude": -0.3}, {"theta": np.float64(1e-6), "period": np.int64(1)}],
    )
    def test_boundary_params_accepted(self, params):
        process = TemperatureDrift(**params)
        assert np.isfinite(process.epsilon_at(1.0, np.random.default_rng(0)))

    def test_reset(self):
        process = TemperatureDrift(sigma=0.5)
        rng = np.random.default_rng(4)
        process.epsilon_at(10.0, rng)
        process.reset()
        assert process.epsilon_at(0.0, np.random.default_rng(4)) == 0.0


class TestAgingDrift:
    def test_deterministic_log_decay(self):
        process = AgingDrift(nu=0.05, t0=1.0)
        rng = np.random.default_rng(0)
        assert process.epsilon_at(0.0, rng) == 0.0
        eps_1 = process.epsilon_at(1.0, rng)
        eps_10 = process.epsilon_at(10.0, rng)
        assert eps_1 == pytest.approx(-0.05 * np.log(2))
        assert eps_10 < eps_1 < 0.0  # monotone decay

    def test_jitter_adds_noise(self):
        process = AgingDrift(nu=0.0, jitter=0.1)
        rng = np.random.default_rng(1)
        draws = [process.epsilon_at(1.0, rng) for _ in range(2000)]
        assert np.std(draws) == pytest.approx(0.1, rel=0.1)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            AgingDrift().epsilon_at(-1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            AgingDrift().expected_at(-1.0)

    def test_expected_at_is_the_jitter_free_law(self):
        process = AgingDrift(nu=0.05, t0=2.0)
        rng = np.random.default_rng(0)
        for time in (0.0, 1.0, 7.5, 1e6):
            assert process.expected_at(time) == -0.05 * np.log1p(time / 2.0)
            assert process.epsilon_at(time, rng) == process.expected_at(time)

    def test_jitter_scatters_around_expected_at(self):
        process = AgingDrift(nu=0.05, jitter=0.1)
        rng = np.random.default_rng(1)
        draws = [process.epsilon_at(10.0, rng) for _ in range(2000)]
        assert np.mean(draws) == pytest.approx(process.expected_at(10.0), abs=0.01)

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"nu": float("nan")}, "nu"),
            ({"nu": float("inf")}, "nu"),
            ({"nu": True}, "nu"),
            ({"t0": float("nan")}, "t0"),
            ({"t0": float("inf")}, "t0"),
            ({"t0": -1.0}, "t0"),
            ({"jitter": -0.1}, "jitter"),
            ({"jitter": float("nan")}, "jitter"),
        ],
    )
    def test_rejects_invalid_params(self, params, match):
        with pytest.raises(ValueError, match=match):
            AgingDrift(**params)

    @pytest.mark.parametrize(
        "params", [{"nu": 0.0}, {"jitter": 0.0}, {"nu": np.float32(0.1), "t0": np.int64(3)}]
    )
    def test_boundary_params_accepted(self, params):
        assert AgingDrift(**params).expected_at(5.0) <= 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            AgingDrift(nu=-0.1)
        with pytest.raises(ValueError):
            AgingDrift(t0=0.0)


class TestDriftingChip:
    def test_starts_at_fabrication_epsilon(self):
        base = _chip()
        drifting = DriftingChip(base, TemperatureDrift(sigma=0.1))
        assert drifting.eps_between == base.eps_between

    def test_advance_changes_eps_between(self):
        base = _chip()
        drifting = DriftingChip(base, TemperatureDrift(theta=0.1, sigma=0.5), seed=7)
        before = drifting.eps_between
        after = drifting.advance_to(10.0)
        assert after != before
        assert after == drifting.eps_between
        assert drifting.fabrication_eps == before

    def test_within_pattern_frozen_across_drift(self):
        base = _chip(sigma_within=0.2)
        drifting = DriftingChip(base, TemperatureDrift(sigma=0.5), seed=7)
        eps_t0 = drifting.epsilon_for("layer", (4, 4)).copy()
        drifting.advance_to(5.0)
        eps_t5 = drifting.epsilon_for("layer", (4, 4))
        # The change is a pure scalar shift: eps_W pattern is fabrication-frozen.
        shift = eps_t5 - eps_t0
        assert np.allclose(shift, shift.flat[0])
        assert shift.flat[0] == pytest.approx(
            drifting.eps_between - drifting.fabrication_eps
        )

    def test_shares_fabrication_pattern_with_base(self):
        base = _chip(sigma_within=0.2)
        pattern = base.within_pattern("conv1", (3, 3)).copy()
        drifting = DriftingChip(base, AgingDrift(nu=0.05))
        assert np.array_equal(drifting.within_pattern("conv1", (3, 3)), pattern)

    def test_rejects_time_reversal(self):
        drifting = DriftingChip(_chip(), TemperatureDrift())
        drifting.advance_to(5.0)
        with pytest.raises(ValueError):
            drifting.advance_to(1.0)

    def test_remeasure_clears_cached_measurements(self):
        drifting = DriftingChip(_chip(), AgingDrift(nu=0.1))
        drifting.measurements["gtm:1000"] = 0.123
        drifting.remeasure()
        assert not drifting.measurements

    def test_gtm_reading_stays_until_remeasure(self):
        """Advancing leaves a cached GTM reading as it was; a read after
        ``remeasure()`` sees the drifted eps_B."""
        drifting = DriftingChip(_chip(), AgingDrift(nu=0.1))
        gtm = GlobalTuningModule(num_cells=1000)
        before = gtm.estimate(drifting)
        drifting.advance_to(10.0)
        assert gtm.estimate(drifting) == before
        drifting.remeasure()
        after = gtm.estimate(drifting)
        shift = drifting.eps_between - drifting.fabrication_eps
        assert after != before
        assert after - before == pytest.approx(shift)


class TestTrajectory:
    def test_trajectory_shape_and_reproducibility(self):
        times = np.linspace(0, 24, 25)
        process = TemperatureDrift(sigma=0.2)
        path_a = drift_trajectory(process, times, seed=3)
        path_b = drift_trajectory(process, times, seed=3)
        assert path_a.shape == (25,)
        assert np.array_equal(path_a, path_b)

    def test_different_seeds_differ(self):
        times = np.linspace(0, 24, 25)
        process = TemperatureDrift(sigma=0.2)
        assert not np.array_equal(
            drift_trajectory(process, times, seed=1),
            drift_trajectory(process, times, seed=2),
        )

    def test_aging_trajectory_monotone(self):
        times = np.linspace(0, 100, 50)
        path = drift_trajectory(AgingDrift(nu=0.05), times, seed=0)
        assert np.all(np.diff(path) <= 0)
