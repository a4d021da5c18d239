"""Tests for per-channel, PACT, TWN ternary, calibrators, bias correction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.models import build_model
from repro.quant import (
    QConfig,
    QuantLinear,
    calibrate_model,
    convert_to_quantized,
    mmse_scale,
    percentile_scale,
    kl_scale,
)
from repro.quant.bias_correction import (
    apply_bias_correction,
    expected_output_shift,
    quantization_weight_error,
)
from repro.quant.estimators import HistogramCalibrator, make_calibrator
from repro.quant.pact import PactReLU, pact_regularization
from repro.quant.perchannel import (
    fake_quantize_per_channel,
    per_channel_mmse_scales,
    per_channel_quantization_mse,
)
from repro.quant.quantizer import QuantSpec
from repro.quant.scaling import quantization_mse
from repro.quant.ternary import (
    fake_quantize_ternary,
    ternarize,
    ternary_sparsity,
    twn_threshold_and_scale,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ----------------------------------------------------------------------
# Scale estimators
# ----------------------------------------------------------------------
class TestPercentileScale:
    def test_p100_equals_minmax(self, rng):
        x = rng.normal(size=1000)
        spec = QuantSpec(4)
        assert percentile_scale(x, spec, 100.0) == pytest.approx(
            np.abs(x).max() / spec.qmax
        )

    def test_lower_percentile_clips_outliers(self, rng):
        x = np.concatenate([rng.normal(size=1000), [100.0]])
        spec = QuantSpec(4)
        assert percentile_scale(x, spec, 99.0) < percentile_scale(x, spec, 100.0) / 10

    def test_zero_tensor(self):
        assert percentile_scale(np.zeros(10), QuantSpec(4)) == 1.0

    def test_rejects_bad_percentile(self):
        with pytest.raises(ValueError):
            percentile_scale(np.ones(4), QuantSpec(4), 0.0)


class TestKLScale:
    def test_positive_and_finite(self, rng):
        scale = kl_scale(rng.normal(size=5000), QuantSpec(4))
        assert np.isfinite(scale) and scale > 0

    def test_zero_tensor(self):
        assert kl_scale(np.zeros(100), QuantSpec(4)) == 1.0

    def test_clips_heavy_tails(self, rng):
        """KL calibration should clip a heavy-tailed distribution well below
        its maximum magnitude."""
        x = rng.standard_t(df=2, size=20_000)
        spec = QuantSpec(8)
        from repro.quant import minmax_scale

        assert kl_scale(x, spec) < minmax_scale(x, spec)


class TestHistogramCalibrator:
    def test_protocol_matches_activation_calibrator(self, rng):
        calibrator = HistogramCalibrator(method="percentile", percentile=100.0)
        assert not calibrator.calibrated
        calibrator.observe(rng.normal(size=500))
        assert calibrator.calibrated
        assert calibrator.scale(QuantSpec(8)) > 0

    def test_uncalibrated_raises(self):
        with pytest.raises(RuntimeError):
            HistogramCalibrator().scale(QuantSpec(8))

    def test_percentile_full_range_close_to_peak(self, rng):
        x = rng.normal(size=4000)
        calibrator = HistogramCalibrator(method="percentile", percentile=100.0)
        calibrator.observe(x)
        spec = QuantSpec(8)
        expected = np.abs(x).max() / spec.qmax
        assert calibrator.scale(spec) == pytest.approx(expected, rel=0.02)

    def test_range_growth_preserves_mass(self, rng):
        calibrator = HistogramCalibrator()
        calibrator.observe(rng.normal(size=1000))
        total_before = calibrator.counts.sum()
        calibrator.observe(10.0 * rng.normal(size=1000))
        assert calibrator.counts.sum() == pytest.approx(total_before + 1000)

    def test_kl_method_runs(self, rng):
        calibrator = HistogramCalibrator(method="kl")
        calibrator.observe(rng.normal(size=5000))
        assert calibrator.scale(QuantSpec(4)) > 0

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            HistogramCalibrator(method="entropy2")

    def test_factory(self):
        from repro.quant.calibration import ActivationCalibrator

        assert isinstance(make_calibrator("minmax"), ActivationCalibrator)
        assert isinstance(make_calibrator("percentile"), HistogramCalibrator)
        with pytest.raises(ValueError):
            make_calibrator("bogus")

    def test_qconfig_rejects_unknown_calibrator(self):
        with pytest.raises(ValueError):
            QConfig(calibrator="bogus")


# ----------------------------------------------------------------------
# Per-channel quantization
# ----------------------------------------------------------------------
class TestPerChannel:
    def test_scales_shape(self, rng):
        w = rng.normal(size=(8, 4, 3, 3))
        scales = per_channel_mmse_scales(w, QuantSpec(4))
        assert scales.shape == (8,)
        assert np.all(scales > 0)

    def test_per_channel_mse_not_worse_than_per_tensor(self, rng):
        """Per-channel always has at least per-tensor's representational power."""
        # Channels with wildly different ranges — the classic motivating case.
        w = rng.normal(size=(6, 32))
        w *= np.array([0.01, 0.1, 1.0, 2.0, 5.0, 10.0])[:, None]
        spec = QuantSpec(4)
        per_tensor = quantization_mse(w, mmse_scale(w, spec), spec)
        assert per_channel_quantization_mse(w, spec) < per_tensor

    def test_fake_quantize_values_on_grid(self, rng):
        w = Tensor(rng.normal(size=(4, 10)), requires_grad=True)
        spec = QuantSpec(2)
        scales = per_channel_mmse_scales(w.data, spec)
        out = fake_quantize_per_channel(w, scales, spec)
        for channel in range(4):
            codes = out.data[channel] / scales[channel]
            assert np.allclose(codes, np.rint(codes))
            assert np.abs(codes).max() <= spec.qmax

    def test_straight_through_gradient(self, rng):
        w = Tensor(rng.normal(size=(4, 10)), requires_grad=True)
        spec = QuantSpec(4)
        scales = per_channel_mmse_scales(w.data, spec)
        out = fake_quantize_per_channel(w, scales, spec)
        out.sum().backward()
        assert np.allclose(w.grad, np.ones_like(w.data))

    def test_rejects_wrong_scale_count(self, rng):
        w = Tensor(rng.normal(size=(4, 10)))
        with pytest.raises(ValueError):
            fake_quantize_per_channel(w, np.ones(3), QuantSpec(4))

    def test_rejects_nonpositive_scales(self, rng):
        w = Tensor(rng.normal(size=(2, 5)))
        with pytest.raises(ValueError):
            fake_quantize_per_channel(w, np.array([1.0, 0.0]), QuantSpec(4))

    def test_layer_integration(self, rng):
        layer = QuantLinear(16, 8, QConfig(per_channel_weights=True, weight_bits=2))
        assert np.asarray(layer.weight_scale).shape == (8,)
        layer.set_activation_scale(0.1)
        out = layer(Tensor(rng.normal(size=(3, 16))))
        assert out.shape == (3, 8)

    def test_layer_ideal_weight_max_per_channel(self, rng):
        layer = QuantLinear(16, 8, QConfig(per_channel_weights=True))
        w_max = layer.ideal_weight_max()
        assert w_max > 0
        assert w_max <= np.abs(layer.weight.data).max() * 1.5


# ----------------------------------------------------------------------
# PACT
# ----------------------------------------------------------------------
class TestPact:
    def test_output_range(self, rng):
        pact = PactReLU(bits=4, init_alpha=2.0)
        y = pact(Tensor(rng.normal(size=100) * 5))
        assert y.data.min() >= 0.0
        assert y.data.max() <= 2.0 + 1e-12

    def test_levels_count(self):
        pact = PactReLU(bits=2, init_alpha=3.0)
        y = pact(Tensor(np.linspace(-1, 5, 1000)))
        assert len(np.unique(y.data)) <= 4  # 2^2 levels in [0, alpha]

    def test_gradient_wrt_input(self):
        x = Tensor(np.array([-1.0, 0.5, 3.0]), requires_grad=True)
        pact = PactReLU(bits=4, init_alpha=2.0)
        pact(x).sum().backward()
        # Inside (0, alpha): 1; outside: 0.
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])

    def test_gradient_wrt_alpha(self):
        x = Tensor(np.array([-1.0, 0.5, 3.0, 4.0]), requires_grad=True)
        pact = PactReLU(bits=4, init_alpha=2.0)
        pact(x).sum().backward()
        # Two elements clipped at alpha -> d(sum)/d(alpha) = 2.
        assert pact.alpha.grad == pytest.approx([2.0])

    def test_alpha_is_trainable_parameter(self):
        pact = PactReLU()
        names = [name for name, _ in pact.named_parameters()]
        assert "alpha" in names

    def test_regularization(self):
        pact = PactReLU(init_alpha=3.0, alpha_decay=0.1)
        assert float(pact.regularization_loss().data) == pytest.approx(0.9)

    def test_model_level_regularization(self):
        from repro.nn import Sequential

        model = Sequential(PactReLU(alpha_decay=0.1), PactReLU(alpha_decay=0.0))
        total = pact_regularization(model)
        assert float(total.data) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PactReLU(bits=1)
        with pytest.raises(ValueError):
            PactReLU(init_alpha=0.0)

    def test_alpha_learns_to_shrink(self, rng):
        """Training on a clipped regression target should reduce alpha."""
        from repro.training.optim import SGD

        pact = PactReLU(bits=8, init_alpha=10.0, alpha_decay=0.001)
        x_data = rng.uniform(0, 10, size=200)
        target = np.clip(x_data, 0, 2.0)
        optimizer = SGD(pact.parameters(), lr=0.05, momentum=0.0)
        for _ in range(100):
            optimizer.zero_grad()
            out = pact(Tensor(x_data))
            loss = ((out - Tensor(target)) ** 2).mean() + pact.regularization_loss()
            loss.backward()
            optimizer.step()
        assert pact.clip_value < 5.0


# ----------------------------------------------------------------------
# TWN ternary
# ----------------------------------------------------------------------
class TestTernary:
    def test_threshold_and_scale_formula(self):
        w = np.array([1.0, -1.0, 0.1, -0.1])
        delta, alpha = twn_threshold_and_scale(w)
        assert delta == pytest.approx(0.7 * 0.55)
        assert alpha == pytest.approx(1.0)  # survivors are the +-1s

    def test_ternarize_three_values(self, rng):
        w = rng.normal(size=1000)
        delta, alpha = twn_threshold_and_scale(w)
        t = ternarize(w, delta, alpha)
        assert set(np.unique(t)) <= {-alpha, 0.0, alpha}

    def test_zero_weights_fallback(self):
        delta, alpha = twn_threshold_and_scale(np.zeros(10))
        assert alpha == 1.0  # degenerate fallback, no crash

    def test_ste_gradient(self, rng):
        w = Tensor(rng.normal(size=50), requires_grad=True)
        fake_quantize_ternary(w).sum().backward()
        assert np.allclose(w.grad, np.ones(50))

    def test_sparsity_measure(self, rng):
        w = rng.normal(size=10_000)
        sparsity = ternary_sparsity(w)
        # For a Gaussian, P(|w| < 0.7 * E|w|) ~ 0.42.
        assert 0.3 < sparsity < 0.55

    def test_twn_reconstruction_reasonable(self, rng):
        """TWN should reconstruct a Gaussian tensor about as well as the
        MMSE ternary grid (both are 'optimal' under different constraints)."""
        w = rng.normal(size=5000)
        spec = QuantSpec(2)
        mmse_err = quantization_mse(w, mmse_scale(w, spec), spec)
        delta, alpha = twn_threshold_and_scale(w)
        twn_err = float(np.mean((w - ternarize(w, delta, alpha)) ** 2))
        assert twn_err < 2.0 * mmse_err


# ----------------------------------------------------------------------
# Bias correction
# ----------------------------------------------------------------------
class TestBiasCorrection:
    def _calibrated_model(self, rng, qconfig=None):
        model = build_model("lenet5-mini")
        qconfig = qconfig or QConfig.from_notation("A8W2")
        model = convert_to_quantized(model, qconfig)
        data = rng.normal(size=(16, 1, 28, 28))
        calibrate_model(model, [data])
        return model, data

    def test_weight_error_matrix_shape(self, rng):
        model, _ = self._calibrated_model(rng)
        from repro.quant import quantized_layers

        for _, layer in quantized_layers(model):
            error = quantization_weight_error(layer)
            assert error.ndim == 2
            assert error.shape[1] == layer.mvm_input_dim()

    def test_correction_reduces_output_shift(self, rng):
        model, data = self._calibrated_model(rng)
        from repro.quant import quantized_layers
        from repro.autograd import no_grad

        # Measure the first layer's shift before and after correction.
        name, layer = next(iter(quantized_layers(model)))
        before = np.linalg.norm(expected_output_shift(layer, data))
        applied = apply_bias_correction(model, [data])
        assert applied  # something was corrected
        # The bias absorbed the measured shift.  `expected_output_shift` sees
        # the raw batch while the correction observes the layer's quantized
        # input, so agreement is close but not exact.
        assert applied[name] == pytest.approx(before, rel=0.05)

    def test_correction_returns_norms(self, rng):
        model, data = self._calibrated_model(rng)
        applied = apply_bias_correction(model, [data])
        assert all(v >= 0 for v in applied.values())

    def test_observer_cleanup(self, rng):
        model, data = self._calibrated_model(rng)
        apply_bias_correction(model, [data])
        from repro.quant import quantized_layers

        assert all(layer._input_observer is None for _, layer in quantized_layers(model))

    def test_correction_improves_agreement_with_float(self, rng):
        """End to end: corrected quantized outputs are closer (in mean) to
        the float model's outputs."""
        from repro.autograd import no_grad

        float_model = build_model("lenet5-mini")
        state = float_model.state_dict()
        data = rng.normal(size=(32, 1, 28, 28))
        with no_grad():
            reference = float_model(Tensor(data)).data

        def quantized_outputs(with_correction):
            model = build_model("lenet5-mini")
            model.load_state_dict(state)
            model = convert_to_quantized(model, QConfig.from_notation("A8W2"))
            calibrate_model(model, [data])
            if with_correction:
                apply_bias_correction(model, [data])
            with no_grad():
                return model(Tensor(data)).data

        err_plain = np.abs(quantized_outputs(False).mean(0) - reference.mean(0)).mean()
        err_corrected = np.abs(quantized_outputs(True).mean(0) - reference.mean(0)).mean()
        assert err_corrected <= err_plain


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(
    bits=st.sampled_from([2, 3, 4]),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_per_channel_never_worse_than_per_tensor_property(bits, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(4, 16)) * rng.uniform(0.1, 5.0, size=(4, 1))
    spec = QuantSpec(bits)
    per_tensor = quantization_mse(w, mmse_scale(w, spec), spec)
    assert per_channel_quantization_mse(w, spec) <= per_tensor + 1e-12


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=30, deadline=None)
def test_ternarize_magnitudes_bounded(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=200)
    delta, alpha = twn_threshold_and_scale(w)
    t = ternarize(w, delta, alpha)
    assert np.abs(t).max() <= alpha + 1e-12
