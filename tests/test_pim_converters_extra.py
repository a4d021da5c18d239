"""Tests for converter validation and ADC non-idealities (offset, gain, noise, ENOB)."""

import numpy as np
import pytest

from repro.pim.converters import ADC, DAC

NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"bits": 1}, "at least 2 bits"),
        ({"bits": 0}, "at least 2 bits"),
        ({"bits": 8.5}, "bits must be an int"),
        ({"bits": True}, "bits must be an int"),
        ({"v_step": 0.0}, "v_step"),
        ({"v_step": -1.0}, "v_step"),
        ({"v_step": INF}, "v_step"),
        ({"v_step": NAN}, "v_step"),
    ],
)
def test_dac_rejects_invalid_config(kwargs, message):
    """A DAC with a non-integral code range, or one that would zero every
    code or flip the sign of 0 V, fails to construct."""

    with pytest.raises(ValueError, match=message):
        DAC(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"bits": 1}, "at least 2 bits"),
        ({"bits": 1, "ideal": True}, "at least 2 bits"),
        ({"bits": 8.5}, "bits must be an int"),
        ({"full_scale": 0.0}, "full_scale"),
        ({"full_scale": -2.0}, "full_scale"),
        ({"full_scale": INF}, "full_scale"),
        ({"full_scale": NAN}, "full_scale"),
        ({"noise_rms": -0.01}, "noise_rms"),
        ({"noise_rms": NAN}, "noise_rms"),
        ({"noise_rms": INF}, "noise_rms"),
        ({"offset_error": NAN}, "offset_error"),
        ({"offset_error": INF}, "offset_error"),
        ({"gain_error": NAN}, "gain_error"),
        ({"gain_error": -INF}, "gain_error"),
    ],
)
def test_adc_rejects_invalid_config(kwargs, message):
    """An ADC with no LSB, a degenerate range, negative noise or a non-finite
    error term fails to construct."""

    with pytest.raises(ValueError, match=message):
        ADC(**kwargs)


@pytest.mark.parametrize(
    "bits, v_step, codes, expected",
    [
        (2, 1.0, [-5.0, -1.0, 0.0, 1.0, 5.0], [-1.0, -1.0, 0.0, 1.0, 1.0]),
        (3, 0.5, [-4.0, -3.0, 2.6, 9.0], [-1.5, -1.5, 1.5, 1.5]),
        (8, 1e-300, [0.0, 1.0], [0.0, 1e-300]),
    ],
)
def test_dac_boundary_configs(bits, v_step, codes, expected):
    """The narrowest DAC keeps {-1, 0, 1}; any positive step maps code 0 to +0.0 V."""

    out = DAC(bits=bits, v_step=v_step).convert(np.array(codes))

    assert out == pytest.approx(expected)
    assert not np.signbit(out[np.array(codes) == 0.0]).any()


@pytest.mark.parametrize(
    "kwargs, currents, expected",
    [
        ({"bits": 2, "full_scale": 1.0}, [0.4, 0.6, -2.0], [0.0, 1.0, -1.0]),
        ({"bits": 2, "full_scale": 1e-3}, [1.0, -1.0], [1e-3, -1e-3]),
        ({"bits": 4, "full_scale": 7.0, "noise_rms": 0.0}, [2.4, -100.0], [2.0, -7.0]),
    ],
)
def test_adc_boundary_configs(kwargs, currents, expected):
    """The narrowest ADC resolves one LSB each way and saturates at full scale."""

    out = ADC(**kwargs).convert(np.array(currents))

    assert out == pytest.approx(expected)


class TestAdcDistortion:
    def test_default_is_clean(self):
        adc = ADC(ideal=True)
        x = np.linspace(-1, 1, 11)
        assert np.array_equal(adc.convert(x), x)

    def test_offset_shifts_readings(self):
        adc = ADC(ideal=True, offset_error=0.01, full_scale=2.0)
        out = adc.convert(np.zeros(5))
        assert np.allclose(out, 0.02)

    def test_gain_scales_readings(self):
        adc = ADC(ideal=True, gain_error=0.05)
        out = adc.convert(np.array([1.0, -1.0]))
        assert np.allclose(out, [1.05, -1.05])

    def test_noise_statistics(self):
        adc = ADC(ideal=True, noise_rms=0.01, full_scale=2.0, noise_seed=0)
        out = adc.convert(np.zeros(100_000))
        assert abs(out.mean()) < 1e-3
        assert out.std() == pytest.approx(0.02, rel=0.05)

    def test_noise_fresh_per_conversion(self):
        adc = ADC(ideal=True, noise_rms=0.01)
        first = adc.convert(np.zeros(10))
        second = adc.convert(np.zeros(10))
        assert not np.array_equal(first, second)

    def test_quantization_applies_after_distortion(self):
        adc = ADC(bits=4, full_scale=1.0, offset_error=0.5)
        out = adc.convert(np.array([0.0]))
        # 0 + 0.5 offset -> quantized onto the 4-bit grid.
        assert out[0] == pytest.approx(0.5, abs=adc.lsb)

    def test_saturation(self):
        adc = ADC(bits=8, full_scale=1.0)
        assert adc.convert(np.array([10.0]))[0] == pytest.approx(1.0)
        assert adc.convert(np.array([-10.0]))[0] == pytest.approx(-1.0)


class TestEnob:
    def test_noise_free_is_nominal(self):
        assert ADC(bits=10).effective_resolution_bits() == 10.0

    def test_noise_reduces_resolution(self):
        noisy = ADC(bits=10, noise_rms=0.01)
        assert noisy.effective_resolution_bits() < 10.0

    def test_more_noise_fewer_bits(self):
        a = ADC(bits=12, noise_rms=0.001).effective_resolution_bits()
        b = ADC(bits=12, noise_rms=0.01).effective_resolution_bits()
        assert b < a
