"""Energy, latency, and area estimation for PIM deployments.

Analog PIM's headline advantage is the energy of in-array MVMs versus
digital MACs (paper ref [1] targets 10000 TOPS/W).  This module provides a
first-order event-based cost model so experiments can report the price of
design choices — ADC resolution, bit-slicing depth, self-tuning columns —
in physical units rather than FLOP ratios alone.

The model is deliberately simple and fully parameterized: every cost is an
explicit per-event energy/latency/area constant, defaulting to values in
the range of published 28-40nm PIM prototypes.  Nothing in the accuracy
experiments depends on these constants; they only scale the cost reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.pim.tiling import tile_count


@dataclass(frozen=True)
class CostModel:
    """Per-event costs. Energies in pJ, times in ns, areas in um^2."""

    # One cell's contribution to an analog dot product (wordline charge +
    # bitline current integration), per activated row-column pair.
    energy_cell_mac: float = 0.001
    # One DAC conversion (per wordline, per cycle).
    energy_dac: float = 0.05
    # One ADC conversion (per bitline, per cycle); dominates real designs.
    energy_adc: float = 2.0
    # One digital shift-add in the backend (per output, per partial).
    energy_digital_acc: float = 0.01
    # Reference digital 8-bit MAC (for the comparison baseline).
    energy_digital_mac: float = 0.25

    latency_array_read: float = 100.0   # one full array MVM cycle
    latency_adc: float = 5.0            # per conversion (pipelined per column)
    latency_digital_mac: float = 1.0

    area_cell: float = 0.05             # per memory cell
    area_adc: float = 500.0             # per ADC instance
    area_dac: float = 20.0              # per DAC instance


@dataclass
class LayerGeometry:
    """The MVM workload of one layer: shape and how often it runs."""

    d_in: int
    d_out: int
    mvm_count: int = 1  # MVMs per inference (spatial positions for a conv)
    name: str = "layer"


@dataclass
class CostReport:
    """Accumulated costs for one deployment."""

    energy_pj: float = 0.0
    latency_ns: float = 0.0
    area_um2: float = 0.0
    adc_conversions: int = 0
    array_reads: int = 0
    breakdown: dict = field(default_factory=dict)

    @property
    def energy_uj(self) -> float:
        return self.energy_pj * 1e-6

    def scaled(self, count: int) -> "CostReport":
        """Costs of ``count`` back-to-back inferences through this deployment.

        Energy, latency, and event counts scale with activity; area is the
        hardware footprint and does not.  The per-layer breakdown scales
        with the totals.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return CostReport(
            energy_pj=self.energy_pj * count,
            latency_ns=self.latency_ns * count,
            area_um2=self.area_um2,
            adc_conversions=self.adc_conversions * count,
            array_reads=self.array_reads * count,
            breakdown={
                name: layer.scaled(count) for name, layer in self.breakdown.items()
            },
        )

    def add(self, other: "CostReport", name: str) -> None:
        self.energy_pj += other.energy_pj
        self.latency_ns += other.latency_ns
        self.area_um2 += other.area_um2
        self.adc_conversions += other.adc_conversions
        self.array_reads += other.array_reads
        self.breakdown[name] = other

    def __repr__(self) -> str:
        return (
            f"CostReport(energy={self.energy_pj:.1f}pJ, "
            f"latency={self.latency_ns:.1f}ns, area={self.area_um2:.0f}um2, "
            f"adc_conversions={self.adc_conversions})"
        )


class PimCostEstimator:
    """Event-based cost estimate of running layers on tiled analog arrays.

    ``array_rows``/``array_cols`` describe the physical array (logical
    columns after differential mapping are ``array_cols // 2``);
    ``input_cycles`` and ``weight_slices`` come from the bit-slicing scheme;
    ``adcs_per_array`` models ADC sharing (columns multiplexed onto a few
    ADCs, raising latency but cutting area).
    """

    def __init__(
        self,
        cost_model: CostModel | None = None,
        array_rows: int = 512,
        array_cols: int = 512,
        input_cycles: int = 8,
        weight_slices: int = 1,
        adcs_per_array: int = 16,
        differential: bool = True,
    ) -> None:
        if array_rows < 1 or array_cols < 1:
            raise ValueError("array dimensions must be positive")
        if adcs_per_array < 1:
            raise ValueError("need at least one ADC per array")
        self.cost = cost_model or CostModel()
        self.array_rows = array_rows
        self.array_cols = array_cols
        self.input_cycles = input_cycles
        self.weight_slices = weight_slices
        self.adcs_per_array = adcs_per_array
        self.differential = differential

    # ------------------------------------------------------------------
    @property
    def logical_cols_per_array(self) -> int:
        cols = self.array_cols // (2 if self.differential else 1)
        return max(cols // self.weight_slices, 1)

    def arrays_for(self, geometry: LayerGeometry) -> int:
        """Physical arrays needed to hold one layer's weights."""
        return tile_count(
            geometry.d_in, geometry.d_out, self.array_rows, self.logical_cols_per_array
        )

    # ------------------------------------------------------------------
    def layer_cost(self, geometry: LayerGeometry) -> CostReport:
        """Cost of one inference through one layer."""
        report = CostReport()
        arrays = self.arrays_for(geometry)
        physical_cols_used = geometry.d_out * self.weight_slices * (
            2 if self.differential else 1
        )
        cycles = self.input_cycles

        # Energy: cell MACs + conversions + digital accumulation.
        cell_macs = geometry.d_in * physical_cols_used * cycles * geometry.mvm_count
        dac_events = geometry.d_in * cycles * geometry.mvm_count
        adc_events = physical_cols_used * cycles * geometry.mvm_count
        partials = self.weight_slices * cycles
        acc_events = geometry.d_out * partials * geometry.mvm_count

        report.energy_pj = (
            cell_macs * self.cost.energy_cell_mac
            + dac_events * self.cost.energy_dac
            + adc_events * self.cost.energy_adc
            + acc_events * self.cost.energy_digital_acc
        )

        # Latency: arrays fire in parallel; cycles and ADC multiplexing
        # serialize.  Column groups share ADCs.
        cols_per_array = min(physical_cols_used, self.array_cols)
        adc_rounds = int(np.ceil(cols_per_array / self.adcs_per_array))
        per_mvm = cycles * (self.cost.latency_array_read + adc_rounds * self.cost.latency_adc)
        report.latency_ns = per_mvm * geometry.mvm_count

        # Area: weight storage + converter instances.
        report.area_um2 = (
            arrays * self.array_rows * self.array_cols * self.cost.area_cell
            + arrays * self.adcs_per_array * self.cost.area_adc
            + arrays * self.array_rows * self.cost.area_dac
        )
        report.adc_conversions = adc_events
        report.array_reads = arrays * cycles * geometry.mvm_count
        return report

    def model_cost(self, geometries: list[LayerGeometry]) -> CostReport:
        """Summed cost of one inference through all layers."""
        total = CostReport()
        for geometry in geometries:
            total.add(self.layer_cost(geometry), geometry.name)
        return total

    # ------------------------------------------------------------------
    def self_tuning_cost(
        self, geometries: list[LayerGeometry], gtm_cells: int, ltm_columns: int
    ) -> CostReport:
        """Incremental cost of GTM + LTM columns for a deployment.

        The GTM column is read once per inference; each layer's LTM columns
        are read with every MVM of that layer (they share the array's
        wordlines, so no extra DAC events — only cell MACs, ADC conversions
        and the digital correction).
        """
        report = CostReport()
        report.energy_pj += gtm_cells * self.cost.energy_cell_mac + self.cost.energy_adc
        report.adc_conversions += 1
        for geometry in geometries:
            cell_macs = geometry.d_in * ltm_columns * self.input_cycles * geometry.mvm_count
            adc_events = ltm_columns * self.input_cycles * geometry.mvm_count
            corrections = geometry.d_out * geometry.mvm_count
            report.energy_pj += (
                cell_macs * self.cost.energy_cell_mac
                + adc_events * self.cost.energy_adc
                + corrections * self.cost.energy_digital_acc
            )
            report.adc_conversions += adc_events
            report.area_um2 += ltm_columns * self.array_rows * self.cost.area_cell
        report.area_um2 += gtm_cells * self.cost.area_cell
        return report


def digital_baseline_cost(
    geometries: list[LayerGeometry], cost_model: CostModel | None = None
) -> CostReport:
    """Cost of the same workload on a digital MAC datapath."""
    cost = cost_model or CostModel()
    report = CostReport()
    for geometry in geometries:
        macs = geometry.d_in * geometry.d_out * geometry.mvm_count
        report.energy_pj += macs * cost.energy_digital_mac
        report.latency_ns += macs * cost.latency_digital_mac
    return report


def geometries_from_model(model, input_shape: tuple[int, ...]) -> list[LayerGeometry]:
    """Extract per-layer MVM geometries from a quantized model.

    Runs one traced forward (to size conv feature maps), then reads each
    quantized layer's MVM dimensions.
    """
    from repro.autograd import Tensor, no_grad
    from repro.quant.ptq import quantized_layers
    from repro.quant.qlayers import QuantConv2d

    with no_grad():
        model(Tensor(np.zeros((1, *input_shape))))
    geometries = []
    for name, layer in quantized_layers(model):
        if isinstance(layer, QuantConv2d):
            h, w = layer.output_hw(layer._last_input_hw)
            geometries.append(
                LayerGeometry(layer.mvm_input_dim(), layer.out_channels, h * w, name)
            )
        else:
            geometries.append(
                LayerGeometry(layer.mvm_input_dim(), layer.out_features, 1, name)
            )
    return geometries
