"""Tests for conv deployment and whole-model chip inference."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.models import build_model
from repro.nn.conv import im2col
from repro.pim import (
    ADC,
    DAC,
    CrossbarArray,
    MappedConv2d,
    PimChip,
    deinterleave_readings,
    deploy_model,
)
from repro.quant import QConfig, QuantConv2d, QuantLinear, calibrate_model, convert_to_quantized
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySpec


@pytest.fixture
def qconv():
    rng = np.random.default_rng(0)
    layer = QuantConv2d(2, 3, kernel_size=3, qconfig=QConfig.from_notation("A8W4"), padding=1)
    calibrate_model(layer, [rng.normal(size=(2, 2, 8, 8))])
    return layer


@pytest.fixture
def calibrated_lenet():
    rng = np.random.default_rng(1)
    model = convert_to_quantized(build_model("lenet5-mini"), QConfig.from_notation("A8W4"))
    data = rng.normal(size=(4, 1, 28, 28))
    calibrate_model(model, [data])
    return model, data


class TestMappedConv2d:
    def test_matches_fake_quant_with_ideal_adc(self, qconv):
        rng = np.random.default_rng(2)
        chip = PimChip(VariabilitySpec.null(), array_rows=8, array_cols=8)
        mapped = chip.deploy_conv2d(qconv, "conv")
        x = rng.normal(size=(2, 2, 8, 8))
        with no_grad():
            reference = qconv(Tensor(x)).data
        assert np.allclose(mapped.forward(x), reference, atol=1e-12)

    def test_output_shape_respects_stride(self):
        rng = np.random.default_rng(3)
        layer = QuantConv2d(1, 2, kernel_size=3, qconfig=QConfig(), stride=2)
        calibrate_model(layer, [rng.normal(size=(1, 1, 9, 9))])
        chip = PimChip(VariabilitySpec.null(), array_rows=16, array_cols=16)
        mapped = chip.deploy_conv2d(layer, "strided")
        out = mapped.forward(rng.normal(size=(1, 1, 9, 9)))
        assert out.shape == (1, 2, 4, 4)

    def test_tiling_splits_large_kernels(self, qconv):
        # mvm input dim = 2*3*3 = 18 > 8 rows -> multiple row tiles.
        chip = PimChip(VariabilitySpec.null(), array_rows=8, array_cols=8)
        mapped = chip.deploy_conv2d(qconv, "tiled")
        assert mapped.array_count > 1

    def test_variation_matches_fake_quant_path(self, qconv):
        """Same chip variation -> identical outputs on both fidelities."""
        rng = np.random.default_rng(4)
        spec = VariabilitySpec(0.1, 0.1, WeightProportionalVariance())
        chip = PimChip(spec, array_rows=64, array_cols=64, seed=5)
        mapped = chip.deploy_conv2d(qconv, "varied")
        x = rng.normal(size=(2, 2, 8, 8))

        # Install the SAME per-tile epsilons on the fake-quant layer: the
        # chip applies variation per tile key, so the cross-check uses a
        # single-tile deployment (64 rows/cols hold the whole 18x3 matrix).
        assert mapped.array_count == 1
        eps = chip.variation.epsilon_for("varied:tile0", (18, 3))
        qconv.set_variation(
            eps.T.reshape(qconv.weight.data.shape), spec.variance_model, "naive"
        )
        with no_grad():
            reference = qconv(Tensor(x)).data
        qconv.set_variation(None, None, "naive")
        assert np.allclose(mapped.forward(x), reference, atol=1e-9)

    def test_per_channel_deployment_rejected(self):
        rng = np.random.default_rng(5)
        layer = QuantConv2d(
            1, 2, kernel_size=3, qconfig=QConfig(per_channel_weights=True)
        )
        calibrate_model(layer, [rng.normal(size=(1, 1, 8, 8))])
        chip = PimChip(VariabilitySpec.null())
        with pytest.raises(NotImplementedError):
            chip.deploy_conv2d(layer, "pc")


class TestDeployModel:
    def test_whole_model_matches_fake_quant(self, calibrated_lenet):
        model, data = calibrated_lenet
        with no_grad():
            reference = model(Tensor(data)).data
        chip = PimChip(VariabilitySpec.null(), array_rows=64, array_cols=64)
        deployed = deploy_model(model, chip)
        assert len(deployed) == 5  # 2 convs + 3 linears
        with no_grad():
            chip_out = model(Tensor(data)).data
        assert np.allclose(chip_out, reference, atol=1e-12)

    def test_quantized_adc_degrades_gracefully(self, calibrated_lenet):
        model, data = calibrated_lenet
        with no_grad():
            reference = model(Tensor(data)).data
        chip = PimChip(
            VariabilitySpec.null(),
            array_rows=64,
            array_cols=64,
            adc=ADC(bits=10, full_scale=200.0),
        )
        deploy_model(model, chip)
        with no_grad():
            coarse = model(Tensor(data)).data
        # Not exact, but predictions mostly agree.
        agreement = (coarse.argmax(-1) == reference.argmax(-1)).mean()
        assert agreement >= 0.5

    def test_deployed_model_still_traversable(self, calibrated_lenet):
        model, _ = calibrated_lenet
        chip = PimChip(VariabilitySpec.null(), array_rows=64, array_cols=64)
        deploy_model(model, chip)
        model.eval()  # mode propagation must not crash on adapters
        assert sum(1 for _ in model.modules()) > 1

    def test_array_budget_accounting(self, calibrated_lenet):
        model, _ = calibrated_lenet
        chip = PimChip(VariabilitySpec.null(), array_rows=32, array_cols=32)
        deploy_model(model, chip)
        assert chip.total_arrays == sum(
            layer.array_count for layer in chip.layers.values()
        )
        assert chip.total_arrays > 5  # tiling forced multiple arrays


def _codes_first_reference(mapped, x):
    """The layer's output computed in the codes-first order.

    im2col of the raw input (for a conv), then activation codes over every
    patch row, then one ``CrossbarArray.mvm`` per tile on its slice of the
    codes, then the differential readout and the digital rescale.
    """
    qlayer = mapped.qlayer
    x = np.asarray(x, dtype=np.float64)
    if isinstance(mapped, MappedConv2d):
        kernel = (qlayer.kernel_size, qlayer.kernel_size)
        patches = im2col(x, kernel, qlayer.stride, qlayer.padding)
        n, h, w, _ = patches.shape
        rows = patches.reshape(n * h * w, -1)
    else:
        rows = x
    spec = qlayer.act_spec
    codes = np.clip(np.rint(rows / mapped.act_scale), spec.qmin, spec.qmax)
    total = np.zeros((rows.shape[0], mapped.d_out))
    for tile, array in mapped.tiles:
        readings = array.mvm(codes[:, tile.row_start : tile.row_stop])
        pos, neg = deinterleave_readings(readings)
        total[:, tile.col_start : tile.col_stop] += mapped.mapping.from_differential(pos, neg)
    out = total * mapped.act_scale * mapped.weight_scale
    if isinstance(mapped, MappedConv2d):
        out = out.reshape(n, h, w, mapped.d_out).transpose(0, 3, 1, 2)
        return out + qlayer.bias.data.reshape((1, -1, 1, 1))
    return out + qlayer.bias.data


CONVERTERS = {
    "default": (DAC(), ADC(ideal=True)),
    "saturating-dac": (DAC(bits=3), ADC(ideal=True)),
    "half-step-dac": (DAC(v_step=0.5), ADC(ideal=True)),
    "coarse-adc": (DAC(), ADC(bits=6, full_scale=64.0)),
}


def _chip(converters):
    """16x8 arrays: both test layers split across row and column tiles."""
    dac, adc = CONVERTERS[converters]
    spec = VariabilitySpec(0.1, 0.1, WeightProportionalVariance())
    return PimChip(spec, array_rows=16, array_cols=8, dac=dac, adc=adc, seed=3)


@pytest.mark.parametrize("converters", sorted(CONVERTERS))
class TestVoltagesBeforeIm2col:
    """The layers convert each activation once, bit-equal to the codes-first order."""

    @pytest.mark.parametrize("padding", [0, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_matches_codes_first_order(self, converters, padding, stride):
        rng = np.random.default_rng(11)
        layer = QuantConv2d(
            2, 6, kernel_size=3, qconfig=QConfig.from_notation("A4W4"),
            stride=stride, padding=padding,
        )
        layer.bias.data = rng.normal(size=6)
        calibrate_model(layer, [rng.normal(size=(2, 2, 9, 9))])
        mapped = _chip(converters).deploy_conv2d(layer, "conv")
        assert len({tile.row_start for tile, _ in mapped.tiles}) > 1
        assert len({tile.col_start for tile, _ in mapped.tiles}) > 1
        x = rng.normal(size=(3, 2, 9, 9)) * 2.0
        assert (x < 0).any()
        assert mapped.forward(x).tobytes() == _codes_first_reference(mapped, x).tobytes()

    def test_linear_matches_codes_first_order(self, converters):
        rng = np.random.default_rng(12)
        layer = QuantLinear(20, 6, qconfig=QConfig.from_notation("A4W4"))
        layer.bias.data = rng.normal(size=6)
        calibrate_model(layer, [rng.normal(size=(8, 20))])
        mapped = _chip(converters).deploy_linear(layer, "fc")
        assert len({tile.row_start for tile, _ in mapped.tiles}) > 1
        assert len({tile.col_start for tile, _ in mapped.tiles}) > 1
        x = rng.normal(size=(5, 20)) * 2.0
        assert (x < 0).any()
        assert mapped.forward(x).tobytes() == _codes_first_reference(mapped, x).tobytes()


class TestCrossbarDrive:
    @pytest.mark.parametrize("dac", [DAC(), DAC(bits=3), DAC(v_step=0.5)])
    def test_mvm_is_drive_of_converted_codes(self, dac):
        rng = np.random.default_rng(13)
        array = CrossbarArray(6, 4, dac=dac, adc=ADC(bits=6, full_scale=64.0))
        array.program(rng.uniform(0.0, 1.0, size=(6, 4)))
        codes = rng.integers(-9, 10, size=(5, 6)).astype(float)
        assert array.mvm(codes).tobytes() == array.drive(dac.convert(codes)).tobytes()

    def test_drive_rejects_wrong_width(self):
        array = CrossbarArray(4, 3)
        with pytest.raises(ValueError, match="expected 4 inputs, got 5"):
            array.drive(np.zeros((2, 5)))
