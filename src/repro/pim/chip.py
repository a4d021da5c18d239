"""A PIM chip: tiled crossbar arrays + digital backend for quantized layers.

This is the circuit-level counterpart of the fake-quant fast path used in
training.  Deploying a :class:`repro.quant.QuantLinear` or
:class:`repro.quant.QuantConv2d` onto a :class:`PimChip` programs its
integer weight codes into differential crossbar tiles; inference then runs
DAC -> analog MVM -> ADC -> digital rescale.  The DAC runs once per layer
input, before any im2col or tiling: convolutions lower the converted
voltages with im2col, each output position driving the same arrays, and
every tile takes its row slice of the same voltage matrix.  Given the same
:class:`ChipVariation`, the chip path and the fake-quant path produce
identical outputs when the ADC is ideal — a cross-validation exercised by
the test suite, including whole-model deployment via :func:`deploy_model`.

Perturbations are applied to the *signed logical weights* before the
differential mapping.  This is physically equivalent to perturbing the
nonzero cell of each differential pair (the reading subtracts the pair, so
a conductance perturbation on the negative column flips sign exactly like
a signed-weight perturbation) and keeps the eps bookkeeping identical to
the training path.
"""

from __future__ import annotations

import numpy as np

from repro.pim.converters import ADC, DAC
from repro.pim.crossbar import CrossbarArray
from repro.pim.mapping import ConductanceMapping, deinterleave_readings, interleave_differential
from repro.pim.tiling import TileSpec, plan_tiles
from repro.quant.qlayers import QuantConv2d, QuantLinear
from repro.variability.sampler import ChipVariation, VariabilitySampler, VariabilitySpec


def _require_per_tensor_scale(qlayer) -> None:
    if np.asarray(qlayer.weight_scale).ndim != 0:
        raise NotImplementedError(
            "chip deployment supports per-tensor weight scales only; "
            "per-channel scales need per-column digital multipliers"
        )


class _MappedLayer:
    """Shared machinery: weight codes tiled across differential arrays."""

    def __init__(
        self,
        qlayer,
        codes: np.ndarray,
        array_rows: int,
        array_cols: int,
        dac: DAC,
        adc: ADC,
        mapping: ConductanceMapping,
        key: str,
    ) -> None:
        self.qlayer = qlayer
        self.mapping = mapping
        self.act_scale = float(qlayer.act_scale)
        self.weight_scale = float(qlayer.weight_scale)
        if self.act_scale == 0.0:
            raise RuntimeError("deploying an uncalibrated layer; run calibrate_model first")
        self.dac = dac
        # Codes laid out (d_in, d_out) for wordline-major MVM.
        self.d_in, self.d_out = codes.shape
        self.codes = codes
        self.tiles: list[tuple[TileSpec, CrossbarArray]] = []
        # Differential mapping doubles physical columns per logical column.
        logical_cols = array_cols // 2
        for tile in plan_tiles(self.d_in, self.d_out, array_rows, logical_cols):
            rows, cols = tile.shape
            array = CrossbarArray(
                rows, 2 * cols, dac=dac, adc=adc, key=f"{key}:tile{len(self.tiles)}"
            )
            self.tiles.append((tile, array))
        self.program(None, None)

    def program(
        self,
        chip: ChipVariation | None,
        variance_model,
        eps: np.ndarray | None = None,
    ) -> None:
        """(Re)program tiles; with a chip, weights carry its variation.

        ``eps`` (shape ``(d_in, d_out)``) overrides the chip's per-tile
        epsilon draws with an externally supplied full-layer pattern — the
        hook :class:`repro.backends.CircuitBackend` uses to install the
        *same* physical variation the fake-quant path draws per layer name,
        so both fidelities realize one and the same chip.
        """
        if eps is not None and eps.shape != (self.d_in, self.d_out):
            raise ValueError(
                f"eps shape {eps.shape} does not match codes {(self.d_in, self.d_out)}"
            )
        for tile, array in self.tiles:
            block = self.codes[tile.row_start : tile.row_stop, tile.col_start : tile.col_stop]
            logical = block * self.weight_scale
            if eps is not None:
                tile_eps = eps[tile.row_start : tile.row_stop, tile.col_start : tile.col_stop]
                logical = logical + variance_model.reparameterize_data(tile_eps, logical)
            elif chip is not None:
                tile_eps = chip.epsilon_for(array.key, logical.shape)
                logical = logical + variance_model.reparameterize_data(tile_eps, logical)
            positive, negative = self.mapping.to_differential(logical / self.weight_scale)
            array.program(interleave_differential(positive, negative))

    def voltages(self, x: np.ndarray) -> np.ndarray:
        """Float activations -> wordline voltages: activation codes, then the DAC.

        Elementwise, so the layers run it on their input before im2col
        rather than on every patch row.  im2col's zero padding is
        DAC(0) = +0.0, so the patch matrix holds the same bits either way.
        """
        spec = self.qlayer.act_spec
        codes = np.clip(np.rint(x / self.act_scale), spec.qmin, spec.qmax)
        return self.dac.convert(codes)

    def _mvm(self, voltages: np.ndarray) -> np.ndarray:
        """Rows of wordline voltages -> float MVM outputs (pre-bias)."""
        total = np.zeros((voltages.shape[0], self.d_out))
        for tile, array in self.tiles:
            readings = array.drive(voltages[:, tile.row_start : tile.row_stop])
            pos, neg = deinterleave_readings(readings)
            total[:, tile.col_start : tile.col_stop] += self.mapping.from_differential(pos, neg)
        # Digital rescale: codes*codes -> real units.
        return total * self.act_scale * self.weight_scale

    @property
    def array_count(self) -> int:
        return len(self.tiles)


class MappedLinear(_MappedLayer):
    """One quantized linear layer deployed onto crossbar tiles."""

    def __init__(
        self,
        qlayer: QuantLinear,
        array_rows: int,
        array_cols: int,
        dac: DAC,
        adc: ADC,
        mapping: ConductanceMapping,
        key: str,
    ) -> None:
        spec = qlayer.weight_spec
        _require_per_tensor_scale(qlayer)
        codes = np.clip(
            np.rint(qlayer.weight.data / float(qlayer.weight_scale)), spec.qmin, spec.qmax
        ).T
        super().__init__(qlayer, codes, array_rows, array_cols, dac, adc, mapping, key)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Float activations in, float layer outputs out."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = self._mvm(self.voltages(x))
        if self.qlayer.bias is not None:
            out = out + self.qlayer.bias.data
        return out


class MappedConv2d(_MappedLayer):
    """One quantized conv layer deployed onto crossbar tiles (im2col)."""

    def __init__(
        self,
        qlayer: QuantConv2d,
        array_rows: int,
        array_cols: int,
        dac: DAC,
        adc: ADC,
        mapping: ConductanceMapping,
        key: str,
    ) -> None:
        spec = qlayer.weight_spec
        _require_per_tensor_scale(qlayer)
        flat = qlayer.weight.data.reshape(qlayer.out_channels, -1)
        codes = np.clip(
            np.rint(flat / float(qlayer.weight_scale)), spec.qmin, spec.qmax
        ).T
        super().__init__(qlayer, codes, array_rows, array_cols, dac, adc, mapping, key)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """NCHW float activations in, NCHW float conv outputs out."""
        # Looked up per call, so a wrapper set on repro.nn.conv.im2col
        # (perfbench's traced mode) also times circuit convs.
        from repro.nn.conv import im2col

        x = np.asarray(x, dtype=np.float64)
        kernel = (self.qlayer.kernel_size, self.qlayer.kernel_size)
        patches = im2col(self.voltages(x), kernel, self.qlayer.stride, self.qlayer.padding)
        n, h, w, _ = patches.shape
        out = self._mvm(patches.reshape(n * h * w, -1))
        out = out.reshape(n, h, w, self.d_out).transpose(0, 3, 1, 2)
        if self.qlayer.bias is not None:
            out = out + self.qlayer.bias.data.reshape((1, -1, 1, 1))
        return out


class PimChip:
    """A chip instance: fixed fabrication variation + deployed layers."""

    def __init__(
        self,
        spec: VariabilitySpec,
        array_rows: int = 512,
        array_cols: int = 512,
        dac: DAC | None = None,
        adc: ADC | None = None,
        seed: int = 0,
        variation: ChipVariation | None = None,
    ) -> None:
        self.spec = spec
        self.array_rows = array_rows
        self.array_cols = array_cols
        self.dac = dac or DAC()
        self.adc = adc or ADC(ideal=True)
        self.mapping = ConductanceMapping()
        # An externally sampled variation pins this chip to an already-known
        # physical instance (fleet serving samples chips up front); without
        # one the chip samples its own, as before.
        self.variation = (
            variation
            if variation is not None
            else VariabilitySampler(spec, seed=seed).sample_chip()
        )
        self.layers: dict[str, _MappedLayer] = {}

    def _deploy(self, cls, qlayer, name: str, eps: np.ndarray | None = None):
        mapped = cls(
            qlayer,
            self.array_rows,
            self.array_cols,
            self.dac,
            self.adc,
            self.mapping,
            key=name,
        )
        if eps is not None:
            mapped.program(None, self.spec.variance_model, eps=eps)
        elif not self.spec.is_null:
            mapped.program(self.variation, self.spec.variance_model)
        self.layers[name] = mapped
        return mapped

    def deploy_linear(
        self, qlayer: QuantLinear, name: str, eps: np.ndarray | None = None
    ) -> MappedLinear:
        """Program a quantized linear layer onto this chip's arrays."""
        return self._deploy(MappedLinear, qlayer, name, eps=eps)

    def deploy_conv2d(
        self, qlayer: QuantConv2d, name: str, eps: np.ndarray | None = None
    ) -> MappedConv2d:
        """Program a quantized conv layer onto this chip's arrays."""
        return self._deploy(MappedConv2d, qlayer, name, eps=eps)

    def gtm_read(self, num_cells: int, w_g: float = 1.0, x_g: float = 1.0) -> float:
        """Physically measure eps_B with a reference column (Fig. 3, left).

        Builds an actual ``num_cells x 1`` array, programs all cells to
        ``w_g``, applies this chip's variation under the weight-proportional
        model (a uniform column is insensitive to the distinction between
        the two variance models), drives it with ``x_g`` and returns
        ``y_GTM / y_0 - 1``.
        """
        from repro.variability.models import WeightProportionalVariance

        column = CrossbarArray(
            num_cells, 1, dac=self.dac, adc=ADC(ideal=True), key=f"gtm:{num_cells}"
        )
        column.program(np.full((num_cells, 1), w_g))
        column.apply_variation(self.variation, WeightProportionalVariance())
        y0 = num_cells * w_g * x_g
        y = float(column.mvm(np.full((1, num_cells), x_g))[0, 0])
        return y / y0 - 1.0

    @property
    def total_arrays(self) -> int:
        return sum(layer.array_count for layer in self.layers.values())


from repro.nn.module import Module


class _ChipLayerModule(Module):
    """A parameter-free module routing one layer through the chip."""

    def __init__(self, mapped: _MappedLayer) -> None:
        super().__init__()
        object.__setattr__(self, "mapped", mapped)

    def forward(self, x):
        from repro.autograd import Tensor

        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        return Tensor(self.mapped.forward(data))

    def __repr__(self) -> str:
        return f"ChipLayer({self.mapped.qlayer!r})"


def deploy_model(model, chip: PimChip, eps_for=None):
    """Deploy every quantized layer of ``model`` onto ``chip``, in place.

    Each :class:`QuantLinear`/:class:`QuantConv2d` submodule is replaced by
    an adapter that routes its forward pass through the chip's crossbar
    tiles (inference only — the adapters build no autograd graph).  Returns
    the list of deployed layer names — the layers' dotted module paths, the
    same keys :func:`repro.variability.injection.inject_variation` uses, so
    the two fidelities agree on what "one layer" means.

    ``eps_for(path, qlayer)`` optionally supplies a full-layer epsilon
    matrix (``(d_in, d_out)``) per deployed layer, overriding the chip's
    own per-tile draws (see :meth:`_MappedLayer.program`).

    The surrounding digital layers (BN, pooling, activations) keep running
    in float, matching the usual mixed-signal deployment.
    """
    deployed = []

    def convert(module, prefix):
        for name, child in list(module._modules.items()):
            path = prefix + name
            if isinstance(child, QuantConv2d):
                eps = eps_for(path, child) if eps_for is not None else None
                adapter = _ChipLayerModule(chip.deploy_conv2d(child, path, eps=eps))
            elif isinstance(child, QuantLinear):
                eps = eps_for(path, child) if eps_for is not None else None
                adapter = _ChipLayerModule(chip.deploy_linear(child, path, eps=eps))
            else:
                convert(child, path + ".")
                continue
            setattr(module, name, adapter)
            deployed.append(path)

    convert(model, "")
    return deployed
