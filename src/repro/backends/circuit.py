"""Circuit backend: chips realized as tiled crossbar hardware (``pim.chip``).

Where :class:`~repro.backends.fakequant.FakeQuantBackend` perturbs weights
inside the fake-quant forward, this backend actually *builds* the chip: a
:class:`~repro.pim.chip.PimChip` whose quantized layers are lowered onto
differential crossbar tiles and whose forward runs DAC -> analog MVM -> ADC
-> digital rescale.  With an ideal ADC the two backends realize the same
mathematics, so a fleet can be served at either fidelity — the parity is
exercised end to end through ``InferenceEngine.run_trace`` by the test
suite.

The one subtlety is *which* epsilon pattern lands on the arrays.  The
fake-quant path draws one pattern per layer, keyed by the layer's dotted
module name; the raw ``PimChip`` path draws per tile.  To make both paths
program the same physical chip from the same
:class:`~repro.variability.sampler.ChipVariation`, this backend draws the
layer-keyed pattern and slices it across tiles (``eps_for`` hook of
:func:`~repro.pim.chip.deploy_model`).
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import ChipBackend, ProgrammedChip, register_backend
from repro.backends.fakequant import replicate_for_programming
from repro.pim.chip import PimChip, deploy_model
from repro.pim.converters import ADC, DAC
from repro.pim.energy import PimCostEstimator
from repro.variability.sampler import ChipVariation, VariabilitySpec


def layer_epsilon(variation: ChipVariation, name: str, qlayer) -> np.ndarray:
    """The layer's epsilon in MVM codes layout ``(d_in, d_out)``.

    Drawn with the same key (dotted layer name) and shape (the fake-quant
    weight tensor) as :func:`~repro.variability.injection.inject_variation`,
    then rearranged exactly like the weight codes are
    (``(out, ...) -> flatten -> transpose``), so element ``[i, j]`` of the
    result perturbs the same logical weight on both fidelities.
    """
    eps = variation.epsilon_for(name, qlayer.weight.data.shape)
    return np.asarray(eps).reshape(eps.shape[0], -1).T


class CircuitChip(ProgrammedChip):
    """A chip realized as crossbar tiles behind DAC/ADC converters."""

    backend = "circuit"

    def __init__(
        self,
        chip_id: str,
        mapping,
        chip: PimChip,
        deployed: list[str],
        spec: VariabilitySpec,
        backend_obj=None,
        source_model=None,
    ) -> None:
        super().__init__(chip_id, mapping, backend_obj, source_model)
        self.chip = chip
        self.deployed = list(deployed)
        self.spec = spec

    @property
    def deterministic(self) -> bool:
        """``True`` without ADC noise and without device read noise.

        The ADC's noise generator is shared by every chip of the backend
        and each tile's read noise advances its array's stream, so either
        one makes a forward depend on how many forwards ran before it.
        """
        if self.chip.adc.noise_rms != 0.0:
            return False
        return not any(
            array.device is not None and array.device.sigma_read > 0.0
            for layer in self.chip.layers.values()
            for _, array in layer.tiles
        )

    def refresh(self, variation: ChipVariation) -> None:
        """Re-derive physical conductances from a drifted variation.

        Drift moves the *effective* conductances, not the programmed
        targets; reprogramming each mapped layer with the drifted epsilon
        models reading the drifted array.
        """
        for name in self.deployed:
            mapped = self.chip.layers[name]
            mapped.program(
                None,
                self.spec.variance_model,
                eps=layer_epsilon(variation, name, mapped.qlayer),
            )
        self.bump_version()

    def apply_faults(self, spec, seed: int = 0) -> int:
        """Pin stuck cells directly in each mapped layer's weight codes.

        Masks are drawn on the fake-quant weight shape (same keying as
        :func:`layer_epsilon`) and rearranged into the codes layout, so a
        circuit chip and a fake-quant chip given the same ``(spec, seed)``
        pin the *same* logical weights.  Callers must :meth:`refresh`
        afterwards — the tiles are programmed from ``codes``, and the
        mutation only reaches silicon on the next (re)program.
        """
        from repro.variability.faults import apply_stuck_codes, layer_fault_masks

        faulted = 0
        for name in self.deployed:
            mapped = self.chip.layers[name]
            qlayer = mapped.qlayer
            stuck_off, stuck_on = layer_fault_masks(
                name, qlayer.weight.data.shape, spec, seed
            )
            # Same (out, ...) -> flatten -> transpose rearrangement the
            # weight codes themselves went through at deploy time.
            stuck_off = stuck_off.reshape(stuck_off.shape[0], -1).T
            stuck_on = stuck_on.reshape(stuck_on.shape[0], -1).T
            qspec = qlayer.weight_spec
            faulted += apply_stuck_codes(
                mapped.codes, stuck_off, stuck_on, qspec.qmin, qspec.qmax
            )
        self.bump_version()
        return faulted

    def describe(self) -> dict:
        return {
            "backend": self.backend,
            "chip_id": self.chip_id,
            "self_tuning": False,
            "quantized_layers": len(self.deployed),
            "arrays": self.chip.total_arrays,
            "array_rows": self.chip.array_rows,
            "array_cols": self.chip.array_cols,
            "adc_bits": None if self.chip.adc.ideal else self.chip.adc.bits,
        }


@register_backend
class CircuitBackend(ChipBackend):
    """Program chips as tiled crossbar hardware.

    ``array_rows``/``array_cols`` size the physical arrays (tiling splits
    larger layers across several, see :mod:`repro.pim.tiling`); ``dac`` and
    ``adc`` model the converter interface — the default ADC is ideal, which
    is what makes circuit and fake-quant serving bit-compatible.  The cost
    estimator defaults to the same array geometry, so energy telemetry and
    the simulated hardware agree on the design point.
    """

    name = "circuit"

    def __init__(
        self,
        array_rows: int = 256,
        array_cols: int = 256,
        dac: DAC | None = None,
        adc: ADC | None = None,
        estimator: PimCostEstimator | None = None,
        costed: bool = True,
    ) -> None:
        if estimator is None and costed:
            estimator = PimCostEstimator(array_rows=array_rows, array_cols=array_cols)
        super().__init__(estimator)
        if array_rows < 1 or array_cols < 2:
            raise ValueError("arrays need >= 1 row and >= 2 columns (differential pairs)")
        self.array_rows = int(array_rows)
        self.array_cols = int(array_cols)
        self.dac = dac or DAC()
        self.adc = adc or ADC(ideal=True)

    def program(
        self,
        model,
        variation: ChipVariation,
        *,
        spec: VariabilitySpec,
        chip_id: str = "chip",
        self_tuning=None,
    ) -> CircuitChip:
        if self_tuning is not None:
            raise NotImplementedError(
                "the circuit backend has no GTM/LTM columns yet; "
                "serve self-tuned fleets through the fake-quant backend"
            )
        mapping = replicate_for_programming(model)
        mapping.eval()
        chip = PimChip(
            spec,
            array_rows=self.array_rows,
            array_cols=self.array_cols,
            dac=self.dac,
            adc=self.adc,
            variation=variation,
        )
        deployed = deploy_model(
            mapping,
            chip,
            eps_for=lambda name, qlayer: layer_epsilon(variation, name, qlayer),
        )
        return CircuitChip(
            chip_id,
            mapping,
            chip,
            deployed,
            spec,
            backend_obj=self,
            source_model=model,
        )

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "array_rows": self.array_rows,
            "array_cols": self.array_cols,
            "adc_bits": None if self.adc.ideal else self.adc.bits,
            "costed": self.estimator is not None,
        }
