"""Unit and property tests for the memory-cell device models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pim.devices import DeviceModel, device_by_name, flash, ideal, mram, rram


class TestLevelGrid:
    def test_num_levels(self):
        assert DeviceModel(bits_per_cell=3).num_levels == 8
        assert flash().num_levels == 32  # 5 bits/cell, paper ref [9]
        assert mram().num_levels == 2

    def test_levels_span_range(self):
        device = DeviceModel(g_min=0.2, g_max=1.0, bits_per_cell=4)
        levels = device.levels()
        assert levels[0] == pytest.approx(0.2)
        assert levels[-1] == pytest.approx(1.0)
        assert len(levels) == 16
        assert np.all(np.diff(levels) > 0)

    def test_level_step_uniform(self):
        device = DeviceModel(g_min=0.0, g_max=1.0, bits_per_cell=2)
        steps = np.diff(device.levels())
        assert np.allclose(steps, device.level_step())

    def test_nearest_level_snaps_to_grid(self):
        device = DeviceModel(bits_per_cell=2)  # levels 0, 1/3, 2/3, 1
        snapped = device.nearest_level(np.array([0.1, 0.4, 0.9]))
        assert snapped == pytest.approx([0.0, 1 / 3, 1.0])

    def test_nearest_level_clips_out_of_range(self):
        device = DeviceModel(bits_per_cell=4)
        assert device.nearest_level(np.array([-5.0])) == pytest.approx(0.0)
        assert device.nearest_level(np.array([5.0])) == pytest.approx(1.0)

    def test_quantization_error_rms(self):
        device = DeviceModel(bits_per_cell=4)
        assert device.quantization_error_rms() == pytest.approx(
            device.level_step() / np.sqrt(12)
        )


class TestValidation:
    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            DeviceModel(g_min=1.0, g_max=0.5)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            DeviceModel(bits_per_cell=0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            DeviceModel(sigma_program=-0.1)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            device_by_name("pcm-imaginary")

    def test_rejects_negative_drift_scale(self):
        with pytest.raises(ValueError):
            DeviceModel(drift_scale=-0.5)

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"drift_scale": float("nan")}, "drift_scale"),
            ({"drift_scale": float("inf")}, "drift_scale"),
            ({"drift_scale": True}, "drift_scale"),
            ({"sigma_program": float("nan")}, "sigma_program"),
            ({"sigma_read": float("inf")}, "sigma_read"),
            ({"g_max": float("inf")}, "g_max"),
            ({"g_min": float("nan")}, "g_min"),
        ],
    )
    def test_rejects_non_finite_reals(self, params, match):
        with pytest.raises(ValueError, match=match):
            DeviceModel(**params)

    @pytest.mark.parametrize(
        "params",
        [{"drift_scale": 0.0}, {"drift_scale": np.float64(2.5)}, {"g_max": np.int64(2)}],
    )
    def test_boundary_reals_accepted(self, params):
        DeviceModel(**params)


class TestDriftScale:
    def test_severity_ordering_across_technologies(self):
        """RRAM-class decay dominates; flash retention is tight; MRAM is
        bistable; the ideal device does not drift at all."""
        scales = {
            name: device_by_name(name).drift_scale
            for name in ("rram", "flash", "mram", "ideal")
        }
        assert scales["rram"] > scales["flash"] > scales["mram"] > scales["ideal"]
        assert scales["ideal"] == 0.0

    def test_default_device_drifts_at_full_severity(self):
        assert DeviceModel().drift_scale == 1.0


class TestProgramming:
    def test_noise_free_program_is_snapping(self):
        device = ideal(bits_per_cell=3)
        target = np.linspace(0, 1, 17)
        assert np.allclose(device.program(target), device.nearest_level(target))

    def test_program_without_rng_is_deterministic(self):
        device = rram(sigma_program=0.2)
        target = np.full(10, 0.5)
        assert np.allclose(device.program(target), device.program(target))

    def test_program_noise_statistics_proportional(self):
        device = rram(sigma_program=0.1, bits_per_cell=8)
        rng = np.random.default_rng(0)
        target = np.full(200_000, 0.5)
        programmed = device.program(target, rng)
        snapped = device.nearest_level(target)
        errors = programmed - snapped
        assert abs(errors.mean()) < 1e-3
        assert errors.std() == pytest.approx(0.1 * snapped[0], rel=0.05)

    def test_program_noise_statistics_fixed(self):
        device = flash(sigma_program=0.05)
        rng = np.random.default_rng(1)
        # Mid-range targets so clipping does not bias the statistics.
        target = np.full(200_000, 0.5)
        errors = device.program(target, rng) - device.nearest_level(target)
        assert errors.std() == pytest.approx(0.05 * device.g_max, rel=0.05)

    def test_program_clips_to_range(self):
        device = rram(sigma_program=2.0)  # absurd noise to force excursions
        rng = np.random.default_rng(2)
        programmed = device.program(np.full(10_000, 0.9), rng)
        assert programmed.min() >= device.g_min
        assert programmed.max() <= device.g_max


class TestRead:
    def test_noise_free_read_returns_copy(self):
        device = ideal()
        programmed = np.array([0.25, 0.75])
        reading = device.read(programmed)
        assert np.array_equal(reading, programmed)
        reading[0] = -1.0
        assert programmed[0] == 0.25  # not aliased

    def test_read_noise_statistics(self):
        device = DeviceModel(sigma_read=0.02, proportional=False)
        rng = np.random.default_rng(3)
        programmed = np.full(100_000, 0.5)
        errors = device.read(programmed, rng) - programmed
        assert errors.std() == pytest.approx(0.02, rel=0.05)

    def test_read_does_not_mutate_state(self):
        device = rram()
        programmed = np.array([0.5])
        rng = np.random.default_rng(4)
        device.read(programmed, rng)
        assert programmed[0] == 0.5


class TestPaperMapping:
    def test_rram_is_weight_proportional(self):
        assert rram().variance_model_name == "weight-proportional"

    def test_flash_is_layer_fixed(self):
        assert flash().variance_model_name == "layer-fixed"

    def test_effective_sigma_matches_programming(self):
        assert rram(sigma_program=0.3).effective_sigma() == 0.3

    def test_presets_by_name(self):
        for name in ("rram", "flash", "mram", "ideal"):
            assert device_by_name(name).name == name

    def test_preset_overrides(self):
        assert device_by_name("rram", sigma_program=0.42).sigma_program == 0.42


@given(
    bits=st.integers(min_value=1, max_value=8),
    g_max=st.floats(min_value=0.1, max_value=10.0),
    value=st.floats(min_value=-1.0, max_value=11.0),
)
@settings(max_examples=100, deadline=None)
def test_nearest_level_is_idempotent_and_in_grid(bits, g_max, value):
    device = DeviceModel(g_min=0.0, g_max=g_max, bits_per_cell=bits)
    snapped = device.nearest_level(np.array([value]))
    # Idempotent and on the grid.
    assert np.allclose(device.nearest_level(snapped), snapped)
    distances = np.abs(device.levels() - snapped[0])
    assert distances.min() < 1e-9


@given(
    bits=st.integers(min_value=2, max_value=6),
    value=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_snapping_error_bounded_by_half_step(bits, value):
    device = DeviceModel(bits_per_cell=bits)
    snapped = device.nearest_level(np.array([value]))[0]
    assert abs(snapped - value) <= device.level_step() / 2 + 1e-12
