"""Memory-cell device models for the analog crossbar substrate.

The paper's variability model (Sec. II-B) abstracts fabrication effects
into reparameterized Gaussian perturbations of the *logical* weights.  This
module provides the device-level grounding for that abstraction: concrete
multi-level cell technologies (RRAM, Flash, MRAM) with finite conductance
ranges, discrete programmable levels, program/verify write noise, and
cycle-to-cycle read noise.

The connection to the paper's model: programming a cell to conductance
``g`` leaves a residual error whose standard deviation scales either with
``g`` itself (weight-proportional variance, paper ref [2]) or with the
technology's full-scale conductance (layer-fixed variance, paper ref [17]).
:meth:`DeviceModel.variance_model_name` names which of the two each
technology approximates, so experiments can pick the matching
:class:`repro.variability.VarianceModel` and self-tuning architecture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.validation import require_real


@dataclass(frozen=True)
class DeviceModel:
    """A programmable analog memory cell technology.

    Conductances live in ``[g_min, g_max]`` (Siemens, arbitrary units here);
    ``bits_per_cell`` gives the number of reliably distinguishable levels
    (``2**bits_per_cell``).  ``sigma_program`` is the relative standard
    deviation of the residual programming error after program-and-verify;
    ``sigma_read`` is the relative cycle-to-cycle read fluctuation.  Both
    are expressed relative to ``g_max`` when ``proportional=False`` (the
    layer-fixed flavour) or relative to the programmed conductance when
    ``proportional=True`` (the weight-proportional flavour).
    ``drift_scale`` is the relative severity of time-dependent conductance
    drift (see :mod:`repro.pim.drift`): 1.0 is PCM/RRAM-class log-time
    decay, flash retention is far tighter, bistable MRAM barely moves.
    Every real is finite; the sigmas and ``drift_scale`` are >= 0.
    """

    name: str = "generic"
    g_min: float = 0.0
    g_max: float = 1.0
    bits_per_cell: int = 4
    sigma_program: float = 0.0
    sigma_read: float = 0.0
    proportional: bool = True
    drift_scale: float = 1.0

    def __post_init__(self) -> None:
        require_real("g_min", self.g_min)
        require_real("g_max", self.g_max)
        if self.g_max <= self.g_min:
            raise ValueError("g_max must exceed g_min")
        if self.bits_per_cell < 1:
            raise ValueError("need at least one bit per cell")
        require_real("sigma_program", self.sigma_program, minimum=0.0)
        require_real("sigma_read", self.sigma_read, minimum=0.0)
        require_real("drift_scale", self.drift_scale, minimum=0.0)

    # ------------------------------------------------------------------
    # Level grid
    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return 2**self.bits_per_cell

    @property
    def g_range(self) -> float:
        return self.g_max - self.g_min

    def levels(self) -> np.ndarray:
        """The programmable conductance grid (ascending)."""
        return np.linspace(self.g_min, self.g_max, self.num_levels)

    def level_step(self) -> float:
        """Conductance difference between adjacent levels."""
        return self.g_range / (self.num_levels - 1)

    def nearest_level(self, conductance: np.ndarray) -> np.ndarray:
        """Snap target conductances to the nearest programmable level."""
        target = np.clip(np.asarray(conductance, dtype=np.float64), self.g_min, self.g_max)
        step = self.level_step()
        index = np.rint((target - self.g_min) / step)
        return self.g_min + index * step

    # ------------------------------------------------------------------
    # Noise
    # ------------------------------------------------------------------
    def _noise_scale(self, conductance: np.ndarray, sigma: float) -> np.ndarray:
        if self.proportional:
            return sigma * np.abs(conductance)
        return np.full_like(np.asarray(conductance, dtype=np.float64), sigma * self.g_max)

    def program(
        self, target: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Program cells toward ``target``: snap to levels, add write noise.

        The result is clipped back into the physical conductance window
        (program/verify cannot push a cell beyond its range).
        """
        snapped = self.nearest_level(target)
        if self.sigma_program == 0.0 or rng is None:
            return snapped
        noise = rng.normal(0.0, 1.0, size=snapped.shape) * self._noise_scale(
            snapped, self.sigma_program
        )
        return np.clip(snapped + noise, self.g_min, self.g_max)

    def read(
        self, programmed: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """One read of programmed conductances with cycle-to-cycle noise."""
        programmed = np.asarray(programmed, dtype=np.float64)
        if self.sigma_read == 0.0 or rng is None:
            return programmed.copy()
        noise = rng.normal(0.0, 1.0, size=programmed.shape) * self._noise_scale(
            programmed, self.sigma_read
        )
        return programmed + noise

    # ------------------------------------------------------------------
    # Mapping to the paper's abstractions
    # ------------------------------------------------------------------
    @property
    def variance_model_name(self) -> str:
        """Which paper variance model this technology approximates."""
        return "weight-proportional" if self.proportional else "layer-fixed"

    def effective_sigma(self) -> float:
        """Total relative write-error sigma seen by the logical weights.

        Programming noise is the fabrication-time component the paper's
        ``sigma_W`` models (read noise is a temporal effect handled
        separately by :mod:`repro.pim.drift`).
        """
        return self.sigma_program

    def quantization_error_rms(self) -> float:
        """RMS conductance error from level snapping (uniform rounding)."""
        return self.level_step() / np.sqrt(12.0)


# ----------------------------------------------------------------------
# Technology presets (parameters follow the ranges quoted in the paper's
# device references: [2] RRAM, [9] 5-bit/cell Flash, [6]-[7] MRAM).
# ----------------------------------------------------------------------


def rram(sigma_program: float = 0.1, bits_per_cell: int = 4) -> DeviceModel:
    """Resistive RAM: multi-level, weight-proportional write error."""
    return DeviceModel(
        name="rram",
        g_min=0.0,
        g_max=1.0,
        bits_per_cell=bits_per_cell,
        sigma_program=sigma_program,
        sigma_read=0.02,
        proportional=True,
        drift_scale=1.0,
    )


def flash(sigma_program: float = 0.03, bits_per_cell: int = 5) -> DeviceModel:
    """NOR/NAND Flash: 5 bits/cell production-ready (paper ref [9]);
    program/verify leaves a near-uniform (layer-fixed-like) residual."""
    return DeviceModel(
        name="flash",
        g_min=0.0,
        g_max=1.0,
        bits_per_cell=bits_per_cell,
        sigma_program=sigma_program,
        sigma_read=0.01,
        proportional=False,
        drift_scale=0.15,
    )


def mram(sigma_program: float = 0.05) -> DeviceModel:
    """MRAM: binary cells (1 bit) with small, fixed-magnitude fluctuation."""
    return DeviceModel(
        name="mram",
        g_min=0.0,
        g_max=1.0,
        bits_per_cell=1,
        sigma_program=sigma_program,
        sigma_read=0.01,
        proportional=False,
        drift_scale=0.1,
    )


def ideal(bits_per_cell: int = 8) -> DeviceModel:
    """Noise-free device with a dense level grid (debug / upper bound)."""
    return DeviceModel(
        name="ideal",
        g_min=0.0,
        g_max=1.0,
        bits_per_cell=bits_per_cell,
        sigma_program=0.0,
        sigma_read=0.0,
        proportional=True,
        drift_scale=0.0,
    )


_PRESETS = {
    "rram": rram,
    "flash": flash,
    "mram": mram,
    "ideal": ideal,
}


def device_by_name(name: str, **overrides) -> DeviceModel:
    """Look up a technology preset by name (``rram``/``flash``/``mram``/``ideal``)."""
    if name not in _PRESETS:
        raise KeyError(f"unknown device {name!r}; options: {sorted(_PRESETS)}")
    return _PRESETS[name](**overrides)
