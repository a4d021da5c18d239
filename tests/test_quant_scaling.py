"""MMSE and min-max scale estimation."""

import numpy as np
import pytest

from repro.quant import QuantSpec, minmax_scale, mmse_scale
from repro.quant.scaling import mmse_scale_grid, quantization_mse


class TestMinMax:
    def test_maps_peak_to_top_level(self, rng):
        spec = QuantSpec(4)
        x = rng.normal(size=100)
        scale = minmax_scale(x, spec)
        assert scale == pytest.approx(np.abs(x).max() / 7)

    def test_zero_tensor(self):
        assert minmax_scale(np.zeros(10), QuantSpec(4)) == 1.0

    def test_subnormal_peak_does_not_underflow_to_zero(self):
        x = np.array([5e-324, 0.0])
        spec = QuantSpec(3)
        assert minmax_scale(x, spec) == 1.0
        assert quantization_mse(x, mmse_scale(x, spec), spec) == 0.0


class TestMmse:
    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_beats_or_ties_minmax(self, rng, bits):
        spec = QuantSpec(bits)
        x = rng.normal(size=500)
        scale_mmse = mmse_scale(x, spec)
        scale_minmax = minmax_scale(x, spec)
        assert quantization_mse(x, scale_mmse, spec) <= quantization_mse(
            x, scale_minmax, spec
        ) + 1e-12

    @pytest.mark.parametrize("bits", [2, 4])
    def test_close_to_grid_search(self, rng, bits):
        spec = QuantSpec(bits)
        x = rng.normal(size=400)
        mse_alt = quantization_mse(x, mmse_scale(x, spec), spec)
        mse_grid = quantization_mse(x, mmse_scale_grid(x, spec, points=400), spec)
        # Alternating minimization should be at least as good as a fine grid
        # up to grid resolution.
        assert mse_alt <= mse_grid * 1.02 + 1e-12

    def test_exact_for_on_grid_data(self):
        spec = QuantSpec(4)
        x = np.array([-0.6, -0.2, 0.0, 0.2, 0.6, 1.4])  # multiples of 0.2
        scale = mmse_scale(x, spec)
        assert quantization_mse(x, scale, spec) < 1e-20

    def test_zero_tensor(self):
        assert mmse_scale(np.zeros(10), QuantSpec(4)) == 1.0

    def test_scale_positive(self, rng):
        for _ in range(5):
            x = rng.normal(size=50) * rng.uniform(0.01, 100)
            assert mmse_scale(x, QuantSpec(2)) > 0
