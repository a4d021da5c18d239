"""Config validators shared by every package.

A leaf module: it imports nothing from ``repro``, so any config class
(serving, lifecycle, drift, devices, converters, self-tuning) can check
its fields without an import cycle.
"""

from __future__ import annotations

import math
import numbers


def require_int(name: str, value, minimum: int) -> None:
    """Reject a config size that is not an int >= ``minimum`` (numpy ints
    pass; bools do not — ``max_attempts=True`` is a typo, not a budget)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def require_real(name: str, value, minimum: float | None = None, strict: bool = False) -> None:
    """Reject a config real that is not finite or lies below ``minimum``
    (at or below it when ``strict``).  Numpy scalars pass; bools do not —
    ``nu=True`` is a typo, not a coefficient."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite real, got {value!r}")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {minimum}, got {value!r}")
