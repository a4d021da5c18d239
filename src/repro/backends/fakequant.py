"""Fake-quant backend: the fast training-fidelity chip realization.

This extracts (and speeds up) what ``InferenceEngine._program`` used to do
inline: replicate the golden model, install the chip's sampled variation on
every quantized layer, and optionally attach GTM/LTM self-tuning.  The
expensive part used to be a full ``copy.deepcopy`` of the model per chip;
:func:`replicate_for_programming` instead builds a *structural* replica —
fresh :class:`~repro.nn.module.Module` objects (per-chip variation and
tuning state must be independent) whose parameters and buffers are **shared**
with the golden model, except each quantized layer's weight tensor, which is
copied because it is the crossbar-written state a backend may legitimately
perturb.  Programming N chips therefore costs N copies of the quantized
weights only — memory no longer scales with non-quantized parameters
(BatchNorm affines, biases) or with buffers.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.backends.base import ChipBackend, ProgrammedChip, register_backend
from repro.nn.module import Module, Parameter
from repro.pim.energy import PimCostEstimator
from repro.selftuning.wrap import attach_self_tuning
from repro.variability.injection import INJECTION_MODES, inject_variation
from repro.variability.sampler import ChipVariation, VariabilitySpec


def replicate_for_programming(module: Module) -> Module:
    """Structure-copy ``module`` for per-chip programming.

    Module objects are fresh (so per-chip attributes — injected epsilon,
    ``current_chip``, ``self_tuner``, train/eval mode — never leak back to
    the golden model), while parameters and buffers alias the golden
    model's arrays.  Only quantized-layer weights are deep-copied: they are
    the state a chip programming step owns.  Registries are rebuilt so
    ``setattr``/``set_buffer`` on the replica cannot touch the original.
    """
    clone = object.__new__(type(module))
    clone.__dict__.update(module.__dict__)
    object.__setattr__(clone, "_parameters", OrderedDict(module._parameters))
    object.__setattr__(clone, "_buffers", OrderedDict(module._buffers))
    object.__setattr__(clone, "_modules", OrderedDict())
    for name, child in module._modules.items():
        child_clone = replicate_for_programming(child)
        clone._modules[name] = child_clone
        object.__setattr__(clone, name, child_clone)
    if getattr(module, "accepts_variation", False):
        weight = Parameter(module.weight.data.copy())
        clone._parameters["weight"] = weight
        object.__setattr__(clone, "weight", weight)
    return clone


class FakeQuantChip(ProgrammedChip):
    """A chip realized as a fake-quant model replica with installed epsilon."""

    backend = "fake-quant"

    def __init__(
        self,
        chip_id: str,
        mapping: Module,
        spec: VariabilitySpec,
        injection_mode: str,
        tuner=None,
        backend_obj=None,
        source_model=None,
    ) -> None:
        super().__init__(chip_id, mapping, backend_obj, source_model)
        self.spec = spec
        self.injection_mode = injection_mode
        self.tuner = tuner

    @property
    def deterministic(self) -> bool:
        """Always: the forward draws nothing, with or without a tuner (GTM
        and LTM cell noise come from per-chip keyed streams)."""
        return True

    def refresh(self, variation: ChipVariation) -> None:
        inject_variation(self.mapping, variation, self.spec, self.injection_mode)
        self.bump_version()

    def apply_faults(self, spec, seed: int = 0) -> int:
        """Pin stuck cells into the replica's (owned) quantized weights.

        The replica's weight tensors are exactly the crossbar-written
        state this backend owns per chip (everything else aliases the
        golden model), so pinning happens there: weights are taken to code
        space, stuck cells pinned via
        :func:`~repro.variability.faults.apply_stuck_codes`, and the codes
        written back as dequantized values — which round-trip exactly
        through the fake-quant forward, matching what the circuit backend
        reads off its faulted tiles.
        """
        import numpy as np

        from repro.quant.ptq import quantized_layers
        from repro.variability.faults import apply_stuck_codes, layer_fault_masks

        faulted = 0
        for name, layer in quantized_layers(self.mapping):
            weight = layer.weight.data
            stuck_off, stuck_on = layer_fault_masks(name, weight.shape, spec, seed)
            if layer.qconfig.per_channel_weights:
                scales = np.asarray(layer.weight_scale).reshape(
                    (-1,) + (1,) * (weight.ndim - 1)
                )
            else:
                scales = float(layer.weight_scale)
            qspec = layer.weight_spec
            codes = np.clip(np.rint(weight / scales), qspec.qmin, qspec.qmax)
            faulted += apply_stuck_codes(
                codes, stuck_off, stuck_on, qspec.qmin, qspec.qmax
            )
            weight[...] = codes * scales
        self.bump_version()
        return faulted

    def describe(self) -> dict:
        from repro.quant.ptq import quantized_layers

        return {
            "backend": self.backend,
            "chip_id": self.chip_id,
            "self_tuning": self.tuner is not None,
            "quantized_layers": sum(1 for _ in quantized_layers(self.mapping)),
        }


@register_backend
class FakeQuantBackend(ChipBackend):
    """Program chips as fake-quant replicas (the training-path fidelity).

    ``injection_mode`` selects how epsilon enters the forward pass (the
    serving default is the numeric ``"naive"``-equivalent behaviour of the
    reparameterized mode under ``no_grad``; both are identical at inference
    time, so the default mirrors the training path).  The default cost
    estimator prices batches as if the same mapping were realized on tiled
    analog arrays — the fake-quant path *simulates* that hardware, so its
    energy story is the hardware's.
    """

    name = "fake-quant"

    def __init__(
        self,
        injection_mode: str = "reparameterized",
        estimator: PimCostEstimator | None = None,
        costed: bool = True,
    ) -> None:
        super().__init__(estimator if estimator is not None else (PimCostEstimator() if costed else None))
        if injection_mode not in INJECTION_MODES:
            raise ValueError(
                f"injection_mode must be one of {INJECTION_MODES}, got {injection_mode!r}"
            )
        self.injection_mode = injection_mode

    def program(
        self,
        model,
        variation: ChipVariation,
        *,
        spec: VariabilitySpec,
        chip_id: str = "chip",
        self_tuning=None,
    ) -> FakeQuantChip:
        mapping = replicate_for_programming(model)
        mapping.eval()
        inject_variation(mapping, variation, spec, self.injection_mode)
        tuner = None
        if self_tuning is not None:
            tuner = attach_self_tuning(mapping, self_tuning)
            # Read the GTM now, on the cells just written.  Read lazily at
            # the first forward, a chip that drifts before it serves would
            # record the drifted eps_B instead of its programmed state's.
            tuner.gtm.estimate(variation)
        return FakeQuantChip(
            chip_id,
            mapping,
            spec,
            self.injection_mode,
            tuner=tuner,
            backend_obj=self,
            source_model=model,
        )
