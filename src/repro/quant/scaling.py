"""Scaling-factor estimation: MMSE for weights, min-max for activations."""

from __future__ import annotations

import numpy as np

from repro.quant.quantizer import QuantSpec, quantize


def minmax_scale(x: np.ndarray, spec: QuantSpec) -> float:
    """Scale that maps the largest magnitude onto the last level.

    1.0 when that scale is zero: an all-zero tensor, or a subnormal peak
    whose quotient underflows (a zero scale would divide by zero).
    """
    scale = float(np.max(np.abs(x))) / spec.qmax
    return scale if scale > 0.0 else 1.0


def quantization_mse(x: np.ndarray, scale: float, spec: QuantSpec) -> float:
    """Mean squared error of quantize-dequantize at a given scale."""
    reconstructed = quantize(x, scale, spec) * scale
    return float(np.mean((np.asarray(x) - reconstructed) ** 2))


def mmse_scale(
    x: np.ndarray,
    spec: QuantSpec,
    iterations: int = 30,
    tolerance: float = 1e-8,
) -> float:
    """Minimum-MSE scaling factor (Choukroun et al. [21]).

    Alternating minimization: with codes ``q`` fixed, the optimal scale is
    the least-squares fit ``<x, q> / <q, q>``; with the scale fixed, the
    optimal codes are round-and-clip.  The objective is piecewise smooth and
    non-convex in the scale, so the alternation is restarted from several
    fractions of the min-max scale and the lowest-MSE fixed point wins
    (verified against grid search in the test suite).
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.any(x):
        return 1.0
    base = minmax_scale(x, spec)
    best_scale = base
    best_mse = quantization_mse(x, base, spec)
    # Coarse multi-start sweep followed by alternation refinement from each
    # start; cheap (runs once per layer) and reliably finds the global basin.
    for fraction in np.linspace(0.25, 1.1, 18):
        scale = _mmse_fixed_point(x, spec, base * float(fraction), iterations, tolerance)
        mse = quantization_mse(x, scale, spec)
        if mse < best_mse:
            best_mse = mse
            best_scale = scale
    return best_scale


def _mmse_fixed_point(
    x: np.ndarray, spec: QuantSpec, scale: float, iterations: int, tolerance: float
) -> float:
    """Run the Lloyd-style alternation from one starting scale."""
    for _ in range(iterations):
        codes = quantize(x, scale, spec)
        denom = float(np.dot(codes.reshape(-1), codes.reshape(-1)))
        if denom == 0.0:
            break
        new_scale = float(np.dot(x.reshape(-1), codes.reshape(-1))) / denom
        if new_scale <= 0.0:
            break
        if abs(new_scale - scale) < tolerance * max(scale, 1e-30):
            return new_scale
        scale = new_scale
    return scale


def mmse_scale_grid(x: np.ndarray, spec: QuantSpec, points: int = 200) -> float:
    """Brute-force MMSE scale via grid search (reference for tests)."""
    x = np.asarray(x, dtype=np.float64)
    base = minmax_scale(x, spec)
    candidates = np.linspace(0.2 * base, 1.2 * base, points)
    errors = [quantization_mse(x, s, spec) for s in candidates]
    return float(candidates[int(np.argmin(errors))])
