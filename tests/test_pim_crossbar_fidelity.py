"""Integration tests: CrossbarArray with device, IR-drop and fault models."""

import numpy as np

from repro.pim.converters import ADC, DAC
from repro.pim.crossbar import CrossbarArray
from repro.pim.devices import flash, ideal, rram
from repro.pim.nonidealities import IRDropModel, StuckAtFaultModel
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySampler, VariabilitySpec


def _array(**kwargs):
    return CrossbarArray(8, 4, dac=DAC(bits=8), adc=ADC(ideal=True), **kwargs)


def _conductances(rng=None):
    rng = rng or np.random.default_rng(0)
    return rng.random((8, 4))


class TestIdealPath:
    def test_ideal_array_is_exact(self):
        array = _array()
        g = _conductances()
        array.program(g)
        codes = np.arange(8)[None, :].astype(float)
        assert np.allclose(array.mvm(codes), codes @ g)

    def test_ideal_device_matches_no_device_on_grid_values(self):
        """With targets already on the level grid, an ideal device is a no-op."""
        device = ideal(bits_per_cell=8)
        g = device.nearest_level(_conductances())
        bare, modeled = _array(), _array(device=device)
        bare.program(g)
        modeled.program(g)
        assert np.allclose(bare.physical, modeled.physical)


class TestDeviceIntegration:
    def test_program_snaps_to_device_levels(self):
        device = ideal(bits_per_cell=2)  # 4 levels
        array = _array(device=device)
        array.program(_conductances())
        levels = device.levels()
        assert all(np.isclose(levels, v).any() for v in array.physical.ravel())

    def test_programming_noise_perturbs(self):
        array = _array(device=rram(sigma_program=0.2))
        g = _conductances()
        array.program(g)
        assert not np.allclose(array.physical, array.ideal)

    def test_read_noise_makes_mvm_stochastic(self):
        array = _array(device=rram(sigma_program=0.0))
        array.program(_conductances())
        codes = np.ones((1, 8))
        first, second = array.mvm(codes), array.mvm(codes)
        assert not np.allclose(first, second)

    def test_variation_applies_on_top_of_programmed_state(self):
        device = flash(sigma_program=0.05)
        array = _array(device=device)
        array.program(_conductances())
        programmed = array.programmed.copy()
        spec = VariabilitySpec(0.1, 0.1, WeightProportionalVariance())
        chip = VariabilitySampler(spec, seed=1).sample_chip()
        array.apply_variation(chip, spec.variance_model)
        assert not np.allclose(array.physical, programmed)
        array.clear_variation()
        assert np.allclose(array.physical, programmed)


class TestIRDropIntegration:
    def test_ir_drop_reduces_outputs(self):
        bare = _array()
        droopy = _array(ir_drop=IRDropModel(wire_resistance=0.05))
        g = _conductances()
        bare.program(g)
        droopy.program(g)
        codes = np.ones((1, 8))
        assert np.all(droopy.mvm(codes) <= bare.mvm(codes))

    def test_physical_state_unchanged_by_ir_drop(self):
        """IR drop is a read-time effect; it must not corrupt stored state."""
        array = _array(ir_drop=IRDropModel(wire_resistance=0.05))
        g = _conductances()
        array.program(g)
        array.mvm(np.ones((1, 8)))
        assert np.allclose(array.physical, g)


class TestFaultIntegration:
    def test_fault_map_is_persistent(self):
        array = _array(fault_model=StuckAtFaultModel(p_stuck_off=0.3))
        g = np.full((8, 4), 0.5)
        array.program(g)
        first = array.physical.copy()
        array.program(g)  # reprogramming hits the same stuck cells
        assert np.array_equal(array.physical, first)

    def test_stuck_off_cells_are_zero(self):
        array = _array(fault_model=StuckAtFaultModel(p_stuck_off=0.5))
        array.program(np.full((8, 4), 0.5))
        faulted = array.physical == 0.0
        assert faulted.any()
        assert np.all(array.physical[~faulted] == 0.5)

    def test_fault_rate_zero_is_clean(self):
        array = _array(fault_model=StuckAtFaultModel())
        g = _conductances()
        array.program(g)
        assert np.allclose(array.physical, g)


class TestComposedFidelity:
    def test_full_stack_runs_and_degrades_gracefully(self):
        """Device + IR drop + faults compose; output stays finite and close
        to ideal for mild non-idealities."""
        array = _array(
            device=flash(sigma_program=0.01),
            ir_drop=IRDropModel(wire_resistance=0.001),
            fault_model=StuckAtFaultModel(p_stuck_off=0.01),
        )
        g = _conductances()
        array.program(g)
        codes = np.random.default_rng(3).integers(0, 4, size=(5, 8)).astype(float)
        out = array.mvm(codes)
        reference = codes @ g
        assert np.all(np.isfinite(out))
        # Mild non-idealities: within 20% of ideal on average magnitude.
        scale = np.abs(reference).mean()
        assert np.abs(out - reference).mean() < 0.2 * scale
