"""DAC/ADC models for the analog crossbar interface.

Activations enter a PIM array through DACs (integer activation codes ->
wordline voltages) and dot-product currents leave through ADCs (bitline
current -> integer codes).  The DNN-level quantizers already discretize
values; these models add the *physical* resolution limits and are used by
the crossbar substrate to validate that the fake-quant training path and
the circuit-level path agree.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from repro.validation import require_real


def _require_bits(bits: int) -> None:
    if isinstance(bits, bool) or not isinstance(bits, numbers.Integral):
        raise ValueError(f"bits must be an int, got {bits!r}")
    if bits < 2:
        raise ValueError(f"a symmetric converter needs at least 2 bits, got {bits}")


@dataclass(frozen=True)
class DAC:
    """Digital-to-analog converter: integer codes -> voltages.

    ``bits`` bounds the representable code range (an int, symmetric, so at
    least 2 bits); ``v_step`` is the voltage per LSB (finite and positive,
    so code 0 drives +0.0 V).  Codes outside the range saturate, mirroring a
    driver hitting its rails.
    """

    bits: int = 8
    v_step: float = 1.0

    def __post_init__(self) -> None:
        _require_bits(self.bits)
        require_real("v_step", self.v_step, minimum=0.0, strict=True)

    @property
    def code_max(self) -> int:
        return 2 ** (self.bits - 1) - 1

    def convert(self, codes: np.ndarray) -> np.ndarray:
        clipped = np.clip(np.rint(codes), -self.code_max, self.code_max)
        return clipped * self.v_step


@dataclass(frozen=True)
class ADC:
    """Analog-to-digital converter: currents -> integer codes.

    The full-scale range ``full_scale`` (finite and positive) maps onto
    ``±(2^(bits-1) - 1)`` codes, so ``bits`` is an int of at least 2.  ``ideal=True``
    bypasses quantization entirely (infinite resolution), which is useful
    for isolating variability effects from ADC effects in experiments.
    """

    bits: int = 12
    full_scale: float = 1.0
    ideal: bool = False
    # Static converter errors (fractions of full scale / of the reading):
    # ``offset_error`` shifts the transfer curve, ``gain_error`` scales it,
    # ``noise_rms`` (>= 0) adds input-referred thermal noise per conversion;
    # all three are finite.
    offset_error: float = 0.0
    gain_error: float = 0.0
    noise_rms: float = 0.0
    noise_seed: int = 0

    @property
    def code_max(self) -> int:
        return 2 ** (self.bits - 1) - 1

    @property
    def lsb(self) -> float:
        return self.full_scale / self.code_max

    def _distort(self, currents: np.ndarray) -> np.ndarray:
        out = np.asarray(currents, dtype=np.float64)
        if self.gain_error:
            out = out * (1.0 + self.gain_error)
        if self.offset_error:
            out = out + self.offset_error * self.full_scale
        if self.noise_rms:
            out = out + self._rng.normal(0.0, self.noise_rms * self.full_scale, out.shape)
        return out

    def __post_init__(self) -> None:
        _require_bits(self.bits)
        require_real("full_scale", self.full_scale, minimum=0.0, strict=True)
        require_real("noise_rms", self.noise_rms, minimum=0.0)
        require_real("offset_error", self.offset_error)
        require_real("gain_error", self.gain_error)
        # A mutable RNG on a frozen dataclass: conversions draw fresh noise
        # while the converter's configuration stays hashable/immutable.
        object.__setattr__(self, "_rng", np.random.default_rng(self.noise_seed))

    def convert(self, currents: np.ndarray) -> np.ndarray:
        """Quantized current readings (in current units, not codes)."""
        distorted = self._distort(currents)
        if self.ideal:
            return distorted
        codes = np.clip(np.rint(distorted / self.lsb), -self.code_max, self.code_max)
        return codes * self.lsb

    def effective_resolution_bits(self) -> float:
        """ENOB-style figure: bits after input-referred noise is accounted.

        Uses the standard ``ENOB = bits - log2(sqrt(1 + 12 * sigma_lsb^2))``
        relation, with ``sigma_lsb`` the noise in LSB units.
        """
        if self.noise_rms == 0.0:
            return float(self.bits)
        sigma_lsb = self.noise_rms * self.full_scale / self.lsb
        return self.bits - 0.5 * np.log2(1.0 + 12.0 * sigma_lsb**2)
