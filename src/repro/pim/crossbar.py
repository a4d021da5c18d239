"""A single analog crossbar array.

Weights are stored as cell conductances; applying wordline voltages and
summing bitline currents computes a matrix-vector product in one shot
(Kirchhoff current law).  Fabrication variability perturbs the programmed
conductances according to the paper's variance models.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.pim.converters import ADC, DAC
from repro.variability.models import VarianceModel
from repro.variability.sampler import ChipVariation


class CrossbarArray:
    """``rows x cols`` array of programmable conductances.

    ``program`` stores ideal conductances; ``apply_variation`` derives the
    physical conductances under a sampled chip's variation; ``mvm`` computes
    bitline outputs for a batch of input codes through the DAC/ADC models,
    and ``drive`` does the same for already converted wordline voltages.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        dac: DAC | None = None,
        adc: ADC | None = None,
        key: str = "array",
        device=None,
        ir_drop=None,
        fault_model=None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.dac = dac or DAC()
        self.adc = adc or ADC(ideal=True)
        self.key = key
        # Optional device-level fidelity: a repro.pim.devices.DeviceModel
        # adds level snapping + write noise at program time; an
        # IRDropModel attenuates far cells; a StuckAtFaultModel freezes a
        # random subset of cells.  All default to off (ideal array).
        self.device = device
        self.ir_drop = ir_drop
        self.fault_model = fault_model
        # Lazily seeded from the array key when no generator is supplied, so
        # every array in a fleet draws from its own reproducible stream and
        # call sites never need to improvise a default.
        self._rng = rng
        self._fault_map = None
        self.ideal = np.zeros((rows, cols))
        self.programmed = np.zeros((rows, cols))
        self.physical = np.zeros((rows, cols))

    @property
    def rng(self) -> np.random.Generator:
        """This array's random stream (device write/read noise, fault maps).

        Created on first use when the constructor received ``rng=None``,
        seeded from the array key — distinct tiles get distinct streams, and
        rebuilding the same fleet reproduces the same draws bit-for-bit.
        """
        if self._rng is None:
            self._rng = np.random.default_rng(zlib.crc32(self.key.encode()))
        return self._rng

    def program(self, conductances: np.ndarray) -> None:
        """Write ideal conductances (shape must be (rows, cols)).

        With a device model attached, programming snaps targets to the
        device's level grid and adds program/verify residual noise; with a
        fault model attached, a persistent per-array fault map overrides the
        stuck cells.
        """
        conductances = np.asarray(conductances, dtype=np.float64)
        if conductances.shape != (self.rows, self.cols):
            raise ValueError(
                f"expected shape {(self.rows, self.cols)}, got {conductances.shape}"
            )
        self.ideal = conductances.copy()
        written = conductances.copy()
        if self.device is not None:
            written = self.device.program(written, self.rng)
        if self.fault_model is not None:
            if self._fault_map is None:
                self._fault_map = self.fault_model.sample_map(written.shape, self.rng)
            written = self.fault_model.apply(written, self._fault_map)
        self.programmed = written
        self.physical = written.copy()

    def apply_variation(
        self, chip: ChipVariation, variance_model: VarianceModel
    ) -> None:
        """Perturb programmed conductances per the chip's variation."""
        eps = chip.epsilon_for(self.key, self.ideal.shape)
        delta = variance_model.reparameterize_data(eps, self.ideal)
        self.physical = self.programmed + delta

    def clear_variation(self) -> None:
        self.physical = self.programmed.copy()

    def effective_conductances(self) -> np.ndarray:
        """Conductances as seen by an MVM (after IR-drop attenuation)."""
        if self.ir_drop is None:
            return self.physical
        return self.ir_drop.apply(self.physical)

    def mvm(self, codes: np.ndarray) -> np.ndarray:
        """Batched MVM: input codes (N, rows) -> bitline readings (N, cols)."""
        return self.drive(self.dac.convert(codes))

    def drive(self, voltages: np.ndarray) -> np.ndarray:
        """Batched analog MVM: wordline voltages (N, rows) -> readings (N, cols).

        The DAC-free half of :meth:`mvm`, for callers that convert a whole
        input once and drive several arrays with slices of it.  A column
        slice is copied, so the GEMM always multiplies the C-contiguous
        operand a fresh conversion would give it.
        """
        voltages = np.ascontiguousarray(np.atleast_2d(voltages))
        if voltages.shape[-1] != self.rows:
            raise ValueError(f"expected {self.rows} inputs, got {voltages.shape[-1]}")
        conductances = self.effective_conductances()
        if self.device is not None and self.device.sigma_read > 0.0:
            conductances = self.device.read(conductances, self.rng)
        currents = voltages @ conductances
        return self.adc.convert(currents)
