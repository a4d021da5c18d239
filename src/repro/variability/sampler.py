"""Sampling of chip variation vectors in reparameterized space."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.validation import require_real
from repro.variability.models import VarianceModel, WeightProportionalVariance


@dataclass
class VariabilitySpec:
    """Full description of a variability scenario.

    ``sigma_within`` / ``sigma_between`` are the normalized standard
    deviations of the within-chip and between-chip components; the paper's
    Scenario 1 uses ``sigma_between = 0`` and Scenario 2 ("mixed-type") uses
    ``sigma_between = sigma_within``.  Both sigmas are checked at
    construction: finite reals >= 0.  A NaN or negative sigma would
    otherwise sample a variation-free chip (draws happen only for a sigma
    ``> 0``), and an infinite one NaN weights.
    """

    sigma_within: float = 0.0
    sigma_between: float = 0.0
    variance_model: VarianceModel = field(default_factory=WeightProportionalVariance)

    def __post_init__(self) -> None:
        require_real("sigma_within", self.sigma_within, minimum=0.0)
        require_real("sigma_between", self.sigma_between, minimum=0.0)

    @property
    def sigma_total(self) -> float:
        """sqrt(sigma_W^2 + sigma_B^2) — the paper's sigma_tot."""
        return float(np.hypot(self.sigma_within, self.sigma_between))

    @property
    def is_null(self) -> bool:
        """True when no variability is injected (plain QAT)."""
        return self.sigma_within == 0.0 and self.sigma_between == 0.0

    @classmethod
    def within_only(cls, sigma: float, variance_model: VarianceModel) -> "VariabilitySpec":
        """Scenario 1: within-chip variation only."""
        return cls(sigma_within=sigma, sigma_between=0.0, variance_model=variance_model)

    @classmethod
    def mixed(cls, sigma_each: float, variance_model: VarianceModel) -> "VariabilitySpec":
        """Scenario 2: equal within- and between-chip components."""
        return cls(
            sigma_within=sigma_each, sigma_between=sigma_each, variance_model=variance_model
        )

    @classmethod
    def null(cls) -> "VariabilitySpec":
        """No variability (used for the QAT baseline)."""
        return cls(0.0, 0.0)


class ChipVariation:
    """One sampled chip: a shared ``eps_B`` plus lazy per-layer ``eps_W``.

    The per-layer draws are generated from a dedicated RNG so that a chip is
    a reproducible object: querying the same layer key twice returns equal
    epsilon values.  Only the within-chip pattern is cached; ``eps_between``
    is added at query time so that a time-varying subclass
    (:class:`repro.pim.drift.DriftingChip`) stays consistent.
    """

    def __init__(self, eps_between: float, sigma_within: float, seed: int) -> None:
        self.eps_between = float(eps_between)
        self.sigma_within = float(sigma_within)
        self._seed = int(seed)
        self._cache: dict[str, np.ndarray] = {}
        # Scratch space for measurement results that are physically fixed per
        # chip (e.g. the GTM estimate of eps_B); keyed by the measuring module.
        self.measurements: dict[str, float] = {}

    def rng_for(self, tag: str) -> np.random.Generator:
        """Deterministic RNG for chip-specific draws (GTM/LTM cell noise)."""
        return np.random.default_rng((self._seed, zlib.crc32(tag.encode())))

    def within_pattern(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        """The frozen fabrication-time eps_W pattern for one layer."""
        if key not in self._cache:
            # zlib.crc32 is a stable string hash (python's hash() is salted
            # per process, which would break cross-process reproducibility).
            layer_rng = np.random.default_rng((self._seed, zlib.crc32(key.encode())))
            if self.sigma_within > 0.0:
                eps_w = layer_rng.normal(0.0, self.sigma_within, size=shape)
            else:
                eps_w = np.zeros(shape)
            self._cache[key] = eps_w
        cached = self._cache[key]
        if cached.shape != tuple(shape):
            raise ValueError(
                f"layer {key!r} queried with shape {shape}, previously {cached.shape}"
            )
        return cached

    def epsilon_for(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        """Total reparameterized epsilon (eps_B + eps_W) for one layer.

        ``eps_between`` is read at call time, so subclasses with a
        time-varying between-chip component (:class:`repro.pim.drift.DriftingChip`)
        stay consistent without invalidating the frozen eps_W cache.
        """
        return self.eps_between + self.within_pattern(key, shape)

    def release_patterns(self) -> None:
        """Drop the cached per-layer eps_W arrays (the chip's heavy state).

        The patterns are pure functions of ``(seed, layer key)``, so a
        released chip re-derives bit-identical arrays on the next
        :meth:`within_pattern` query.  ``eps_between`` (including drift
        state on subclasses) and :attr:`measurements` are untouched — this
        is the spill primitive large lazy fleets use to bound resident
        memory (see :class:`repro.serve.engine.ChipDescriptor`).
        """
        self._cache.clear()

    def __repr__(self) -> str:
        return (
            f"ChipVariation(eps_between={self.eps_between:+.4f}, "
            f"sigma_within={self.sigma_within})"
        )


class VariabilitySampler:
    """Draws :class:`ChipVariation` objects for a :class:`VariabilitySpec`."""

    def __init__(self, spec: VariabilitySpec, seed: int = 0) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(seed)

    def sample_chip_params(self) -> tuple[float, float, int]:
        """Draw one chip's ``(eps_between, sigma_within, seed)`` triple.

        Consumes exactly the RNG stream :meth:`sample_chip` consumes, so a
        caller that stores descriptors and realizes
        :class:`ChipVariation` objects later (lazy fleets, see
        :class:`repro.serve.engine.ChipDescriptor`) produces chips
        bit-identical to eager sampling.
        """
        if self.spec.sigma_between > 0.0:
            eps_b = float(self._rng.normal(0.0, self.spec.sigma_between))
        else:
            eps_b = 0.0
        seed = int(self._rng.integers(0, 2**31 - 1))
        return eps_b, float(self.spec.sigma_within), seed

    def sample_chip(self) -> ChipVariation:
        """Sample one chip (one eps_B; eps_W drawn lazily per layer)."""
        return ChipVariation(*self.sample_chip_params())

    def sample_chips(self, count: int) -> list[ChipVariation]:
        """Sample ``count`` independent chips (a Monte Carlo test population)."""
        return [self.sample_chip() for _ in range(count)]
