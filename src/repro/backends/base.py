"""The chip-programming protocol: one API for every way to realize a chip.

The repo grew two disjoint "put a quantized model onto hardware" codepaths:
the fast fake-quant path (deep-copied model + injected variation + attached
self-tuning, used by the serving engine and the experiment runner) and the
circuit-level :class:`repro.pim.chip.PimChip` path (DAC -> crossbar MVM ->
ADC), which the serving stack could not reach at all.  ``repro.backends``
unifies them behind two small abstractions:

* :class:`ChipBackend` — a *programmer*: given the golden digital model and
  one sampled :class:`~repro.variability.sampler.ChipVariation`, it writes a
  :class:`ProgrammedChip` (the software analogue of programming every
  crossbar tile of one physical accelerator);
* :class:`ProgrammedChip` — one programmed chip: ``forward`` runs batched
  inference, ``refresh`` re-installs a drifted variation in place (physical
  drift does not reprogram anything), ``cost`` prices a dispatched batch
  through :class:`repro.pim.energy.PimCostEstimator`, and ``describe``
  reports the programming provenance.

The serving engine, the lifecycle manager, the schedulers, and the
experiment runner all talk to these two types only, so a fleet can mix
fidelities — and every future backend (bit-sliced, tiled, faulted) plugs in
by registering a :class:`ChipBackend` subclass via :func:`register_backend`.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.pim.energy import CostReport, PimCostEstimator, geometries_from_model
from repro.variability.sampler import ChipVariation, VariabilitySpec


class ProgrammedChip:
    """One physical chip with a model mapping installed on it.

    Subclasses hold whatever realizes the chip (a fake-quant model replica,
    a tiled :class:`~repro.pim.chip.PimChip`, ...) but expose the same
    surface, so the serving layers never branch on fidelity.  ``mapping`` is
    the underlying :class:`~repro.nn.module.Module` the chip routes through
    — kept public for introspection (tests, telemetry), not for dispatch.
    """

    backend = "base"

    def __init__(self, chip_id: str, mapping, backend_obj=None, source_model=None) -> None:
        self.chip_id = str(chip_id)
        self.mapping = mapping
        self._backend_obj = backend_obj
        self._source_model = source_model
        #: Monotone counter of state mutations (refresh, fault pinning).
        #: Derived views of the programmed state — notably the stacked
        #: tensors a :class:`~repro.backends.fused.FusedFleetForward`
        #: holds — compare it against the version they were built from to
        #: know when they are stale.  A freshly programmed chip is a new
        #: object at version 0, so (identity, version) pins exactly one
        #: programmed state.
        self.version = 0

    @property
    def deterministic(self) -> bool:
        """Whether :meth:`forward` is a pure function of the programmed state.

        ``True`` promises that two chips programmed from the same variation
        and fault map compute bit-identical outputs on the same inputs, and
        that a forward draws from no random stream a later forward reads.
        The lifecycle relies on it to book the stored quality of a state
        it has already probed instead of re-probing.  ``False`` here, so a
        backend must opt in.
        """
        return False

    def bump_version(self) -> None:
        """Mark the programmed state as mutated (invalidates fused stacks).

        Subclasses call this from every method that changes what
        :meth:`forward` would compute — :meth:`refresh` and
        :meth:`apply_faults` — so cached derivations rebuild lazily.
        """
        self.version += 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched inference: float inputs in, float logits out (no autograd)."""
        with no_grad():
            return self.mapping(Tensor(np.asarray(x))).data

    def refresh(self, variation: ChipVariation) -> None:
        """Re-install a (drifted) variation on the already-programmed chip.

        This models physics changing under an installed mapping — it must
        not count as reprogramming (no cache traffic, no program cost).
        """
        raise NotImplementedError

    def apply_faults(self, spec, seed: int = 0) -> int:
        """Pin a stuck-at fault map onto the chip's programmed state.

        ``spec`` is a :class:`~repro.variability.faults.FaultSpec`; masks
        are drawn per layer name via
        :func:`~repro.variability.faults.layer_fault_masks`, so every
        backend realizing the same ``(spec, seed)`` pins the same logical
        cells.  Mutates the programmed state in place and returns the
        number of stuck cells; callers should :meth:`refresh` afterwards
        so fidelities that derive state from the mutated codes (crossbar
        tiles) re-install it.
        """
        raise NotImplementedError

    def cost(self, batch_shape: tuple[int, ...]) -> CostReport | None:
        """Estimated physical cost of dispatching one ``batch_shape`` batch.

        The report's ``breakdown`` attributes it per layer.  Returns
        ``None`` when the owning backend has no cost estimator wired;
        callers must treat the hook as optional.
        """
        if self._backend_obj is None or self._source_model is None:
            return None
        return self._backend_obj.cost_for(self._source_model, batch_shape)

    def describe(self) -> dict:
        """Programming provenance (JSON-friendly)."""
        return {"backend": self.backend, "chip_id": self.chip_id}

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self.chip_id}, backend={self.backend!r})"


class ChipBackend:
    """Interface: program a golden model onto one sampled chip.

    ``estimator`` (a :class:`~repro.pim.energy.PimCostEstimator`, or
    ``None`` to disable costing) prices batches dispatched to the chips this
    backend programs; layer geometries are traced once per (model, input
    shape) and cached weakly, so per-batch costing is just arithmetic.
    """

    name = "base"

    def __init__(self, estimator: PimCostEstimator | None = None) -> None:
        self.estimator = estimator
        self._geometries = weakref.WeakKeyDictionary()

    def program(
        self,
        model,
        variation: ChipVariation,
        *,
        spec: VariabilitySpec,
        chip_id: str = "chip",
        self_tuning=None,
    ) -> ProgrammedChip:
        """Write ``model`` onto one chip carrying ``variation``.

        ``spec`` supplies the variance model governing how epsilon perturbs
        weights; ``self_tuning`` (a
        :class:`~repro.selftuning.tuner.SelfTuningConfig`) attaches the
        GTM/LTM correction when the backend supports it.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Cost estimation (shared by all backends)
    # ------------------------------------------------------------------
    def _unit_report(self, model, batch_shape: tuple[int, ...]) -> CostReport:
        """Cached single-inference cost report (with per-layer breakdown)."""
        batch_shape = tuple(int(dim) for dim in batch_shape)
        if len(batch_shape) < 2:
            raise ValueError(f"batch_shape needs (N, ...features), got {batch_shape}")
        per_model = self._geometries.setdefault(model, {})
        input_shape = batch_shape[1:]
        report = per_model.get(input_shape)
        if report is None:
            geometries = geometries_from_model(model, input_shape)
            report = self.estimator.model_cost(geometries)
            per_model[input_shape] = report
        return report

    def cost_for(self, model, batch_shape: tuple[int, ...]) -> CostReport | None:
        """Cost of one ``batch_shape`` batch through ``model`` on this backend."""
        if self.estimator is None:
            return None
        report = self._unit_report(model, batch_shape)
        return report.scaled(max(1, int(batch_shape[0])))

    def describe(self) -> dict:
        """Backend configuration (JSON-friendly)."""
        return {"backend": self.name, "costed": self.estimator is not None}

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}()"


#: Registry of available backends, name -> ChipBackend subclass.
BACKENDS: dict[str, type[ChipBackend]] = {}


def register_backend(cls: type[ChipBackend]) -> type[ChipBackend]:
    """Class decorator: make a backend constructible by name."""
    if not cls.name or cls.name == "base":
        raise ValueError(f"backend {cls.__name__} needs a unique non-default name")
    BACKENDS[cls.name] = cls
    return cls


def make_backend(backend) -> ChipBackend:
    """Resolve a backend name (or pass through an instance) to a ChipBackend."""
    if isinstance(backend, ChipBackend):
        return backend
    if backend not in BACKENDS:
        raise KeyError(f"unknown backend {backend!r}; available: {sorted(BACKENDS)}")
    return BACKENDS[backend]()
