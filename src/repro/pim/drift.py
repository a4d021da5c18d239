"""Time-dependent correlated variation: temperature drift and aging.

The paper's footnote 2 observes that the self-tuning architecture
"can be generalized to compensate for any correlated weight variation,
e.g., due to temperature drifts or aging".  This module supplies those
processes so the claim can be exercised end to end:

* :class:`TemperatureDrift` — a slowly varying, chip-wide multiplicative
  conductance shift driven by ambient temperature (an Ornstein-Uhlenbeck
  process, optionally with a diurnal sinusoidal component).  Like
  fabrication-time ``eps_B`` it is fully correlated across the chip, but it
  *changes between inferences*, so a single GTM measurement goes stale and
  must be refreshed (see :class:`repro.selftuning.drift.DriftCompensator`).
* :class:`AgingDrift` — the standard log-time conductance decay of
  programmed analog cells (paper ref [17] observes this in PCM); a
  deterministic, monotone drift plus a small stochastic component.
* :class:`DriftingChip` — wraps a fabrication-time
  :class:`repro.variability.ChipVariation` and adds the time-varying
  component, exposing the same interface so the injection and self-tuning
  machinery work unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.validation import require_real
from repro.variability.sampler import ChipVariation


class DriftProcess:
    """A scalar stochastic process ``eps_drift(t)`` shared by a whole chip."""

    def epsilon_at(self, time: float, rng: np.random.Generator) -> float:
        """Drift epsilon at ``time`` (advances any internal state)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return the process to its initial state."""


@dataclass
class TemperatureDrift(DriftProcess):
    """Ornstein-Uhlenbeck temperature-induced conductance drift.

    ``d(eps) = -theta * eps * dt + sigma * sqrt(dt) * dW`` plus an optional
    deterministic sinusoid ``amplitude * sin(2*pi*t/period)`` modelling a
    diurnal or duty-cycle temperature swing.  The stationary standard
    deviation of the OU part is ``sigma / sqrt(2*theta)``.
    """

    theta: float = 0.5
    sigma: float = 0.05
    amplitude: float = 0.0
    period: float = 24.0

    def __post_init__(self) -> None:
        require_real("theta", self.theta, minimum=0.0, strict=True)
        require_real("sigma", self.sigma, minimum=0.0)
        require_real("amplitude", self.amplitude)
        require_real("period", self.period, minimum=0.0, strict=True)
        self._state = 0.0
        self._last_time = 0.0

    def reset(self) -> None:
        self._state = 0.0
        self._last_time = 0.0

    @property
    def stationary_std(self) -> float:
        """Long-run standard deviation of the OU component."""
        return self.sigma / math.sqrt(2.0 * self.theta)

    def epsilon_at(self, time: float, rng: np.random.Generator) -> float:
        dt = time - self._last_time
        if dt < 0.0:
            raise ValueError("time must be non-decreasing for an OU process")
        if dt > 0.0:
            decay = math.exp(-self.theta * dt)
            # Exact OU transition: conditional mean decays, variance fills
            # toward the stationary value.
            std = self.stationary_std * math.sqrt(1.0 - decay * decay)
            self._state = self._state * decay + rng.normal(0.0, std)
            self._last_time = time
        seasonal = self.amplitude * math.sin(2.0 * math.pi * time / self.period)
        return self._state + seasonal


@dataclass
class AgingDrift(DriftProcess):
    """Log-time conductance decay: ``eps(t) = -nu * log(1 + t/t0)``.

    ``nu`` is the drift coefficient (PCM-like devices show nu in the
    0.01-0.1 range); ``jitter`` adds a small zero-mean stochastic component
    on top of the deterministic decay.  :meth:`expected_at` is the
    jitter-free law — device characterization, which a lifecycle can
    schedule by without observing the chip.
    """

    nu: float = 0.02
    t0: float = 1.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        require_real("nu", self.nu, minimum=0.0)
        require_real("t0", self.t0, minimum=0.0, strict=True)
        require_real("jitter", self.jitter, minimum=0.0)

    def expected_at(self, time: float) -> float:
        """The deterministic decay ``-nu * log1p(time / t0)`` at ``time``."""
        if time < 0.0:
            raise ValueError("aging time must be non-negative")
        return -self.nu * math.log1p(time / self.t0)

    def epsilon_at(self, time: float, rng: np.random.Generator) -> float:
        drift = self.expected_at(time)
        if self.jitter:
            drift += rng.normal(0.0, self.jitter)
        return drift


class DriftingChip(ChipVariation):
    """A fabricated chip whose between-chip epsilon drifts over time.

    The fabrication-time components (``eps_between`` at t=0 and the frozen
    per-layer ``eps_W`` draws) come from the wrapped chip; :meth:`advance_to`
    moves operating time forward, re-evaluating the drift process and
    updating the *effective* ``eps_between`` seen by injection and by the
    tuning modules.  Tuning-module readings cached in :attr:`measurements`
    (the GTM's ``gtm:<cells>`` entry) are *not* refreshed by advancing: a
    reading stays until :meth:`remeasure` discards it, and the next read
    sees the drifted value — exactly the stale-measurement behaviour a
    drift compensator must deal with.
    """

    def __init__(
        self,
        base: ChipVariation,
        process: DriftProcess,
        seed: int = 0,
    ) -> None:
        # Share the base chip's frozen within-chip draws and seed so the
        # fabrication pattern is identical with and without drift (the cache
        # holds eps_W only; eps_B is added at query time).
        super().__init__(base.eps_between, base.sigma_within, base._seed)
        self._cache = base._cache
        self.fabrication_eps = float(base.eps_between)
        self.process = process
        self.time = 0.0
        self._drift_rng = np.random.default_rng(seed)

    def advance_to(self, time: float) -> float:
        """Move operating time forward; returns the new effective eps_B."""
        if time < self.time:
            raise ValueError("time must be non-decreasing")
        self.time = time
        drift = self.process.epsilon_at(time, self._drift_rng)
        self.eps_between = self.fabrication_eps + drift
        # Cached GTM readings (self.measurements) go stale rather than being
        # invalidated: a physical chip keeps its last reading until someone
        # re-measures (remeasure()).
        return self.eps_between

    def remeasure(self) -> None:
        """Discard cached tuning-module measurements (forces a fresh read)."""
        self.measurements.clear()

    def __repr__(self) -> str:
        return (
            f"DriftingChip(t={self.time:.2f}, eps_fab={self.fabrication_eps:+.4f}, "
            f"eps_now={self.eps_between:+.4f})"
        )


def drift_trajectory(
    process: DriftProcess,
    times: np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """Sample one drift path ``eps(t)`` at the given (sorted) times."""
    rng = np.random.default_rng(seed)
    process.reset()
    return np.array([process.epsilon_at(float(t), rng) for t in times])
