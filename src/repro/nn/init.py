"""Weight initialization schemes.

A module-level generator keeps initialization reproducible; call
:func:`seed` before building a model to fix all parameter draws.
"""

from __future__ import annotations

import numpy as np

_GENERATOR = np.random.default_rng(0)


def seed(value: int) -> None:
    """Re-seed the initializer RNG (makes model construction deterministic)."""
    global _GENERATOR
    _GENERATOR = np.random.default_rng(value)


def _fan_in(shape: tuple[int, ...]) -> int:
    if len(shape) == 2:  # (out, in)
        return shape[1]
    if len(shape) == 4:  # (out, in, kh, kw)
        return shape[1] * shape[2] * shape[3]
    return int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]


def kaiming_normal(shape: tuple[int, ...]) -> np.ndarray:
    """He-normal init appropriate for ReLU networks."""
    std = np.sqrt(2.0 / _fan_in(shape))
    return _GENERATOR.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def constant(shape: tuple[int, ...], value: float) -> np.ndarray:
    return np.full(shape, float(value))
