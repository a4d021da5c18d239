"""Analog PIM crossbar substrate (circuit-level counterpart of fake-quant).

Provides conductance-level simulation of the MVM arrays the paper deploys
onto: differential weight mapping, DAC/ADC interfaces, tiling onto
512x512 arrays, and chip objects carrying correlated fabrication variation.
Used to cross-validate the fake-quant training path and to ground the
GTM/LTM tuning modules in the circuit of Fig. 3.

Beyond the paper's scope, the substrate also models the device layer
(multi-level RRAM/Flash/MRAM cells in :mod:`repro.pim.devices`), weight/
input bit-slicing (:mod:`repro.pim.bitslicing`), time-dependent correlated
drift (:mod:`repro.pim.drift` — exercising the paper's footnote-2 claim
that self-tuning generalizes to temperature drift and aging), IR drop and
stuck-at faults (:mod:`repro.pim.nonidealities`), and an event-based
energy/latency/area estimator (:mod:`repro.pim.energy`).
"""

from repro.pim.bitslicing import BitSlicingScheme, assemble_signed, slice_signed
from repro.pim.converters import ADC, DAC
from repro.pim.crossbar import CrossbarArray
from repro.pim.devices import DeviceModel, device_by_name
from repro.pim.drift import AgingDrift, DriftingChip, TemperatureDrift, drift_trajectory
from repro.pim.energy import (
    CostModel,
    CostReport,
    LayerGeometry,
    PimCostEstimator,
    digital_baseline_cost,
    geometries_from_model,
)
from repro.pim.mapping import (
    ConductanceMapping,
    deinterleave_readings,
    interleave_differential,
)
from repro.pim.nonidealities import IRDropModel, StuckAtFaultModel
from repro.pim.tiling import TileSpec, plan_tiles, tile_count
from repro.pim.chip import MappedConv2d, MappedLinear, PimChip, deploy_model

__all__ = [
    "DAC",
    "ADC",
    "CrossbarArray",
    "ConductanceMapping",
    "interleave_differential",
    "deinterleave_readings",
    "TileSpec",
    "plan_tiles",
    "tile_count",
    "MappedLinear",
    "MappedConv2d",
    "PimChip",
    "deploy_model",
    "DeviceModel",
    "device_by_name",
    "BitSlicingScheme",
    "slice_signed",
    "assemble_signed",
    "TemperatureDrift",
    "AgingDrift",
    "DriftingChip",
    "drift_trajectory",
    "CostModel",
    "CostReport",
    "LayerGeometry",
    "PimCostEstimator",
    "digital_baseline_cost",
    "geometries_from_model",
    "IRDropModel",
    "StuckAtFaultModel",
]
