"""Area and compute overhead accounting for self-tuning (paper Sec. III-B)."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.quant.qlayers import QuantConv2d, QuantLinear
from repro.quant.ptq import quantized_layers


def area_overhead(ltm_columns: int, array_size: int = 512) -> float:
    """Per-array area overhead of LTM columns (fraction).

    LTMs add ``ltm_columns`` columns to each ``array_size x array_size``
    crossbar: 1/512 = 0.2% for LTM=1, 16/512 = 3.1% for LTM=16 — the numbers
    quoted in the paper.
    """
    return ltm_columns / array_size


def gtm_area_overhead(gtm_cells: int, total_chip_cells: int) -> float:
    """Chip-level area overhead of the (single) GTM column (fraction)."""
    return gtm_cells / total_chip_cells


def model_flops(model, input_shape: tuple[int, ...]) -> int:
    """Total MVM FLOPs of one inference (2 x MACs), via a traced forward.

    ``input_shape`` is a single sample's shape, e.g. ``(3, 32, 32)``.  Only
    quantized conv/linear layers are counted — they dominate and are the
    layers that live on the PIM arrays.
    """
    with no_grad():
        model(Tensor(np.zeros((1, *input_shape))))
    total = 0
    for _, layer in quantized_layers(model):
        if isinstance(layer, QuantConv2d):
            total += layer.flops_per_input()
        elif isinstance(layer, QuantLinear):
            total += layer.flops_per_input()
    return total


def tuning_flops(model, gtm_cells: int, ltm_columns: int) -> int:
    """FLOPs spent in GTM + LTM columns and digital corrections per inference.

    Requires a prior traced forward (e.g. via :func:`model_flops`).  Counts:

    * the GTM column read: ``2 * gtm_cells`` (once per inference),
    * per layer, each LTM column as one extra output channel of the MVM,
    * the digital correction arithmetic (one multiply-subtract or divide per
      output element).
    """
    total = 2 * gtm_cells
    for _, layer in quantized_layers(model):
        if isinstance(layer, QuantConv2d):
            h, w = layer.output_hw(layer._last_input_hw)
            positions = h * w
            total += 2 * layer.mvm_input_dim() * ltm_columns * positions
            total += 2 * layer.out_channels * positions  # digital correction
        elif isinstance(layer, QuantLinear):
            total += 2 * layer.mvm_input_dim() * ltm_columns
            total += 2 * layer.out_features
    return total
