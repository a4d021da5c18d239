"""Integration test: self-tuning along a drift timeline (footnote 2)."""

import numpy as np
import pytest

from repro.pim.drift import AgingDrift, DriftingChip
from repro.selftuning import (
    DriftCompensator,
    SelfTuningConfig,
    attach_self_tuning,
    run_drift_timeline,
)
from repro.variability.sampler import VariabilitySampler


@pytest.mark.slow
class TestDriftTimeline:
    def _chip(self, spec, nu=0.15, seed=0):
        base = VariabilitySampler(spec, seed=seed).sample_chip()
        return DriftingChip(base, AgingDrift(nu=nu), seed=seed)

    def test_timeline_structure(self, trained_model):
        model, test, spec = trained_model
        attach_self_tuning(model, SelfTuningConfig(kind="global", gtm_cells=10_000))
        chip = self._chip(spec)
        times = np.array([0.0, 10.0, 50.0])
        timeline = run_drift_timeline(
            model, test, chip, spec, times, DriftCompensator(policy="every")
        )
        assert [t for t, _, _ in timeline] == [0.0, 10.0, 50.0]
        eps_values = [eps for _, eps, _ in timeline]
        assert eps_values[0] > eps_values[-1]  # aging decays eps monotonically
        assert all(0.0 <= acc <= 1.0 for _, _, acc in timeline)

    def test_refreshed_beats_stale_under_strong_aging(self, trained_model):
        model, test, spec = trained_model
        attach_self_tuning(model, SelfTuningConfig(kind="global", gtm_cells=100_000))
        times = np.linspace(0.0, 200.0, 6)

        def mean_accuracy(policy):
            accuracies = []
            for seed in range(3):
                chip = self._chip(spec, nu=0.2, seed=seed)
                timeline = run_drift_timeline(
                    model, test, chip, spec, times, DriftCompensator(policy=policy)
                )
                accuracies.append(np.mean([acc for _, _, acc in timeline]))
            return float(np.mean(accuracies))

        fresh = mean_accuracy("every")
        stale = mean_accuracy("never")
        # Aging at nu=0.2 drifts eps_B to ~-1.06 by t=200; a deployment-time
        # GTM measurement goes badly stale, per-inference refresh tracks it.
        assert fresh > stale + 0.05
