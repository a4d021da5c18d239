"""Fused fleet forward: one stacked numpy call chain for N programmed chips.

The serving hot path used to be O(chips x layers) Python dispatch: every
chip ran its own per-layer forward, so fleet throughput was bounded by
interpreter and autograd overhead rather than by numpy.  But replicas of
one golden model share *all* structure — only the quantized per-layer
state differs per chip (perturbed weights on the fake-quant path, tile
conductances on the circuit path).  :class:`FusedFleetForward` exploits
that: it stacks each layer's per-chip state into one ``(chips, ...)``
tensor at build time and then executes a whole group of micro-batches —
one per chip — through a single merged elementwise chain per layer, with
one GEMM per (chip, layer) slice.

Bit-exactness is a hard requirement, not an aspiration: the fused path
must produce *the same bits* as dispatching each batch through its chip's
:meth:`~repro.backends.base.ProgrammedChip.forward`.  Two rules make
that hold:

* every elementwise op (activation fake-quant, the circuit path's
  activation codes and DAC, pooling, bias add) is applied in exactly the
  same order and association as the unfused code, on merged arrays —
  elementwise math is batching-invariant (the circuit tiles' GEMM and ADC
  chain runs per chip slice, in that chip's own arrays);
* every GEMM runs with exactly the operand shapes, strides, and dtypes
  the unfused path would use: the merged activation tensor is sliced
  back per chip (contiguous row ranges) and multiplied against that
  chip's weight slice in a plain 2-D ``np.matmul`` — the *same* BLAS
  call the unfused layer makes, so no assumption about reduction-order
  invariance across GEMM geometries is ever needed.

Because the GEMMs are per-slice, groups do **not** require equal batch
sizes — the merge only amortizes interpreter, im2col, quantization, and
activation traffic across the fleet.

Quality probes send one batch through every chip.  For that shape,
:meth:`FusedFleetForward.forward_shared` runs each chip as its own
one-chip group and shares only the first stacked layer's input work (the
*stem*) across the stack's members.  A merged probe group would multiply
every downstream temporary by the member count, and measured slower
(``docs/serving.md``).

Effective per-chip state is snapshotted at build time, so a stack is a
*derived view* that goes stale whenever a member chip mutates.  Each
:class:`~repro.backends.base.ProgrammedChip` carries a ``version``
counter bumped on ``refresh``/``apply_faults``; :meth:`FusedFleetForward.covers`
compares ``(identity, version)`` pairs, and the serving engine rebuilds
lazily when a group is no longer covered (reprogramming and chip
replacement create new chip objects, which fail the identity check).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.backends.base import ProgrammedChip
from repro.backends.circuit import CircuitChip
from repro.backends.fakequant import FakeQuantChip, replicate_for_programming
from repro.nn.conv import im2col
from repro.nn.module import Module
from repro.pim.chip import MappedConv2d, MappedLinear, _ChipLayerModule
from repro.quant.ptq import quantized_layers
from repro.quant.qlayers import QuantConv2d, QuantLinear


class UnstackableError(RuntimeError):
    """A fleet cannot be fused into one stacked forward.

    Raised by :meth:`FusedFleetForward.build` with a human-readable
    reason (mixed backends, self-tuning attached, noisy ADCs, mismatched
    tile plans, ...).  Callers fall back to per-chip dispatch — fusion is
    an optimization, never a capability.
    """


def _all_equal(values) -> bool:
    values = list(values)
    return all(v == values[0] for v in values[1:])


class _FusedLayerBase(Module):
    """Shared plumbing for the template's stacked leaf layers.

    A fused adapter is parameter-free (stacked state is derived, not
    trainable); it reads the active group context — ``(idx, bounds)``,
    the member-stack positions and merged-row boundaries of the group's
    per-chip batches — from its owning :class:`FusedFleetForward` on
    every call.  ``owner`` is a weak proxy: the stack owns its template,
    so a strong back-reference would keep every dropped stack (and its
    member chips) alive until a full garbage collection.
    """

    def __init__(self, owner: "FusedFleetForward") -> None:
        super().__init__()
        object.__setattr__(self, "owner", owner)

    def _prepared(self, x) -> np.ndarray:
        """The layer's chip-independent input work, :meth:`_prepare` of ``x``.

        Shared through the owner's stem cache when this is the first
        stacked layer of a :meth:`FusedFleetForward.forward_shared` call.
        """
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        return self.owner._stem(data, self._prepare)

    def _prepare(self, data: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


def _quantize_activations(qlayer, data: np.ndarray) -> np.ndarray:
    """The fake-quant input quantizer, elementwise and in the unfused order."""
    if not qlayer.qconfig.quantize_activations:
        return data
    spec = qlayer.act_spec
    codes = np.clip(np.rint(data / float(qlayer.act_scale)), spec.qmin, spec.qmax)
    return codes * float(qlayer.act_scale)


def _sliced_matmul(flat: np.ndarray, idx, bounds, scale: int, stacks) -> np.ndarray:
    """Per-chip-slice GEMMs over a merged activation matrix.

    ``flat`` is ``(sum(B_c) * scale, k)`` with chip ``c``'s rows at
    ``[bounds[c] * scale, bounds[c + 1] * scale)``; ``stacks[pos]`` is
    that chip's ``(k, n)`` operand *in the unfused layout* (an
    F-contiguous ``.T`` view for weight matrices, C-contiguous for
    conductance tiles).  Each slice runs the identical 2-D ``np.matmul``
    the unfused layer would — contiguous A slice, same-layout B — which
    is what makes the fused output bit-identical to per-chip dispatch on
    any BLAS (the transpose flag reaches the BLAS kernel, and output
    bits are *not* invariant to it at small M).
    """
    out = np.empty((flat.shape[0], stacks[idx[0]].shape[1]))
    for pos, start, stop in zip(idx, bounds[:-1], bounds[1:]):
        rows = slice(start * scale, stop * scale)
        np.matmul(flat[rows], stacks[pos], out=out[rows])
    return out


# ----------------------------------------------------------------------
# Fake-quant backend: stacked effective weights
# ----------------------------------------------------------------------
class _FusedQuantLinear(_FusedLayerBase):
    """Stacked :class:`~repro.quant.qlayers.QuantLinear` across the fleet."""

    def __init__(self, owner, qlayer: QuantLinear, stacks: list[np.ndarray]) -> None:
        super().__init__(owner)
        object.__setattr__(self, "qlayer", qlayer)
        # Per chip, (in_features, out_features): the transpose of the chip
        # layer's _quantize_weight() output, bit-identical per element.
        object.__setattr__(self, "stacks", stacks)

    def _prepare(self, data):
        return _quantize_activations(self.qlayer, data)

    def forward(self, x):
        idx, bounds = self.owner._group
        out = _sliced_matmul(self._prepared(x), idx, bounds, 1, self.stacks)
        if self.qlayer.bias is not None:
            out = out + self.qlayer.bias.data
        return Tensor(out)


class _FusedQuantConv2d(_FusedLayerBase):
    """Stacked :class:`~repro.quant.qlayers.QuantConv2d` across the fleet.

    im2col runs once over the merged batch (patch extraction is
    per-sample, so merged rows are bit-identical to per-chip rows), then
    each chip's row range — ``B_c * H_out * W_out`` flat output
    positions — multiplies that chip's flattened weight matrix in the
    same 2-D GEMM the unfused :func:`~repro.nn.conv.conv2d` runs.
    """

    def __init__(self, owner, qlayer: QuantConv2d, stacks: list[np.ndarray]) -> None:
        super().__init__(owner)
        object.__setattr__(self, "qlayer", qlayer)
        # Per chip, (C*kh*kw, out_channels) flattened-transposed weights.
        object.__setattr__(self, "stacks", stacks)

    def _prepare(self, data):
        qlayer = self.qlayer
        kernel = (qlayer.kernel_size, qlayer.kernel_size)
        return im2col(
            _quantize_activations(qlayer, data), kernel, qlayer.stride, qlayer.padding
        )

    def forward(self, x):
        idx, bounds = self.owner._group
        cols = self._prepared(x)
        total, h_out, w_out, patch = cols.shape
        flat = cols.reshape(-1, patch)
        out = _sliced_matmul(flat, idx, bounds, h_out * w_out, self.stacks)
        out = out.reshape(total, h_out, w_out, -1).transpose(0, 3, 1, 2)
        if self.qlayer.bias is not None:
            out = out + self.qlayer.bias.data.reshape((1, -1, 1, 1))
        return Tensor(out)


# ----------------------------------------------------------------------
# Circuit backend: stacked tile conductances
# ----------------------------------------------------------------------
class _FusedMappedBase(_FusedLayerBase):
    """Shared per-slice MVM machinery for circuit-deployed layers.

    The circuit path quantizes and DAC-converts its input *before* patch
    extraction (:meth:`~repro.pim.chip._MappedLayer.voltages`), so the
    fused layer runs that step and im2col once on the merged batch, with
    the glue around them (pooling, activations, reshapes).  The stack's
    members come from one golden model and share their activation scale
    and DAC, so the voltages do not depend on the chip.  Each chip then
    runs its *own* :meth:`~repro.pim.chip._MappedLayer._mvm` (tile
    drives, ADC, digital rescale) on its contiguous row slice —
    bit-exactness by construction, since it is literally the unfused code
    on the same rows.
    """

    def __init__(self, owner, mapped_layers: list) -> None:
        super().__init__(owner)
        # Per stack position, that chip's own mapped layer object.
        object.__setattr__(self, "mapped_layers", mapped_layers)

    def _per_chip_mvm(self, flat: np.ndarray, idx, bounds, scale: int) -> np.ndarray:
        first = self.mapped_layers[idx[0]]
        out = np.empty((flat.shape[0], first.d_out))
        for pos, start, stop in zip(idx, bounds[:-1], bounds[1:]):
            rows = slice(start * scale, stop * scale)
            out[rows] = self.mapped_layers[pos]._mvm(flat[rows])
        return out


class _FusedMappedLinear(_FusedMappedBase):
    """Fleet-shared :class:`~repro.pim.chip.MappedLinear` dispatch."""

    def _prepare(self, data):
        return self.mapped_layers[0].voltages(np.atleast_2d(np.asarray(data, dtype=np.float64)))

    def forward(self, x):
        idx, bounds = self.owner._group
        out = self._per_chip_mvm(self._prepared(x), idx, bounds, 1)
        qlayer = self.mapped_layers[idx[0]].qlayer
        if qlayer.bias is not None:
            out = out + qlayer.bias.data
        return Tensor(out)


class _FusedMappedConv2d(_FusedMappedBase):
    """Fleet-shared :class:`~repro.pim.chip.MappedConv2d` dispatch.

    The unfused circuit conv flattens the im2col patches of its voltages
    to a ``(B*H_out*W_out, d_in)`` drive matrix; the fused version
    converts and extracts patches from the merged batch once and scales
    each chip's row range by ``H_out * W_out``, so every per-chip MVM sees
    exactly the drive rows the unfused layer would.
    """

    def _prepare(self, data):
        first = self.mapped_layers[0]
        kernel = (first.qlayer.kernel_size, first.qlayer.kernel_size)
        voltages = first.voltages(np.asarray(data, dtype=np.float64))
        return im2col(voltages, kernel, first.qlayer.stride, first.qlayer.padding)

    def forward(self, x):
        idx, bounds = self.owner._group
        first = self.mapped_layers[idx[0]]
        qlayer = first.qlayer
        patches = self._prepared(x)
        total, h_out, w_out, patch = patches.shape
        out = self._per_chip_mvm(patches.reshape(-1, patch), idx, bounds, h_out * w_out)
        out = out.reshape(total, h_out, w_out, first.d_out).transpose(0, 3, 1, 2)
        if qlayer.bias is not None:
            out = out + qlayer.bias.data.reshape((1, -1, 1, 1))
        return Tensor(out)


# ----------------------------------------------------------------------
# The fused forward itself
# ----------------------------------------------------------------------
class FusedFleetForward:
    """One batched forward for a whole fleet of programmed chips.

    Build one with :meth:`build` from the fleet's
    :class:`~repro.backends.base.ProgrammedChip` list (raises
    :class:`UnstackableError` when the fleet cannot be stacked), check
    freshness with :meth:`covers`, and execute a group of per-chip
    batches with :meth:`forward` (or one member on a batch every member
    sees with :meth:`forward_shared`).  Instances hold strong references
    to their member chips, so an ``(identity, version)`` pair can never
    be recycled by the allocator while the stack is alive; nothing holds
    the stack in a reference cycle, so dropping it frees those chips at
    once.
    """

    def __init__(self, members, backend: str) -> None:
        self._members = list(members)
        self._template = None
        self._index = {id(chip): pos for pos, chip in enumerate(self._members)}
        self._versions = [chip.version for chip in self._members]
        self._group = None
        #: The batch of the running :meth:`forward_shared` call, until the
        #: first stacked layer takes it.
        self._shared = None
        #: ``[(bits, stem)]``: the first stacked layer's prepared input per
        #: distinct shared batch (see :meth:`_stem`).
        self._stems: list[tuple[tuple, np.ndarray]] = []
        self.backend = backend

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, chips: list[ProgrammedChip]) -> "FusedFleetForward":
        """Stack ``chips`` into one fused forward.

        Raises :class:`UnstackableError` when the fleet is heterogeneous
        or carries per-chip state the stacked kernels cannot represent
        (self-tuning corrections, noisy ADCs, device/IR-drop models,
        mismatched tile plans or layer sets).
        """
        chips = list(chips)
        if not chips:
            raise UnstackableError("cannot fuse an empty fleet")
        if all(isinstance(chip, FakeQuantChip) for chip in chips):
            fused = cls(chips, backend="fake-quant")
            fused._template = cls._fakequant_template(chips, weakref.proxy(fused))
        elif all(isinstance(chip, CircuitChip) for chip in chips):
            fused = cls(chips, backend="circuit")
            fused._template = cls._circuit_template(chips, weakref.proxy(fused))
        else:
            raise UnstackableError(
                "mixed or unknown chip backends: "
                + ", ".join(sorted({type(chip).__name__ for chip in chips}))
            )
        return fused

    @classmethod
    def _fakequant_template(cls, chips, owner) -> Module:
        base = chips[0]
        if base._source_model is None or any(
            chip._source_model is not base._source_model for chip in chips
        ):
            raise UnstackableError("chips were not programmed from one golden model")
        if any(chip.tuner is not None for chip in chips):
            raise UnstackableError("self-tuning corrections are per-chip state")
        layer_maps = [dict(quantized_layers(chip.mapping)) for chip in chips]
        names = list(layer_maps[0])
        if any(list(layers) != names for layers in layer_maps[1:]):
            raise UnstackableError("chips disagree on their quantized layer sets")
        stacks = {}
        for name in names:
            layers = [layers[name] for layers in layer_maps]
            first = layers[0]
            if any(type(layer) is not type(first) for layer in layers):
                raise UnstackableError(f"layer {name!r} has mixed types across chips")
            for layer in layers:
                if layer._calibrating:
                    raise UnstackableError(f"layer {name!r} is mid-calibration")
                if layer._input_observer is not None:
                    raise UnstackableError(f"layer {name!r} has an input observer attached")
                if layer.self_tuner is not None:
                    raise UnstackableError(f"layer {name!r} carries a self-tuner")
            if not _all_equal(float(layer.act_scale) for layer in layers):
                raise UnstackableError(f"layer {name!r} has per-chip activation scales")
            if first.qconfig.quantize_activations and float(first.act_scale) == 0.0:
                raise UnstackableError(f"layer {name!r} is uncalibrated")
            effective = []
            for layer in layers:
                with no_grad():
                    weight = layer._quantize_weight().data
                if isinstance(first, QuantConv2d):
                    weight = weight.reshape(layer.out_channels, -1)
                # Keep the unfused operand layout exactly: the unfused GEMM
                # multiplies by w_tilde.T, an F-contiguous view of the
                # C-contiguous (n, k) weight.  BLAS output bits depend on
                # the transpose flag at small M, so a C-contiguous (k, n)
                # copy would NOT be bit-identical — store the .T view.
                effective.append(np.ascontiguousarray(np.asarray(weight, dtype=np.float64)).T)
            stacks[name] = effective

        def make_adapter(path, layer):
            if isinstance(layer, QuantConv2d):
                return _FusedQuantConv2d(owner, layer, stacks[path])
            return _FusedQuantLinear(owner, layer, stacks[path])

        return cls._swap_template(
            base.mapping, (QuantLinear, QuantConv2d), make_adapter
        )

    @classmethod
    def _circuit_template(cls, chips, owner) -> Module:
        base = chips[0]
        if base._source_model is None or any(
            chip._source_model is not base._source_model for chip in chips
        ):
            raise UnstackableError("chips were not programmed from one golden model")
        names = base.deployed
        if any(chip.deployed != names for chip in chips):
            raise UnstackableError("chips disagree on their deployed layer sets")
        if any(chip.chip.adc != base.chip.adc or chip.chip.dac != base.chip.dac for chip in chips):
            raise UnstackableError("chips disagree on converter models")
        if base.chip.adc.noise_rms:
            raise UnstackableError("ADC read noise is order-dependent (stateful RNG)")
        adapters = {}
        for name in names:
            mapped_layers = [chip.chip.layers[name] for chip in chips]
            first = mapped_layers[0]
            if any(type(mapped) is not type(first) for mapped in mapped_layers):
                raise UnstackableError(f"layer {name!r} has mixed types across chips")
            if not _all_equal(
                [spec for spec, _ in mapped.tiles] for mapped in mapped_layers
            ):
                raise UnstackableError(f"layer {name!r} has per-chip tile plans")
            if not _all_equal(
                (mapped.act_scale, mapped.weight_scale, mapped.d_in, mapped.d_out)
                for mapped in mapped_layers
            ):
                raise UnstackableError(f"layer {name!r} has per-chip scales or shapes")
            for mapped in mapped_layers:
                for _, array in mapped.tiles:
                    if (
                        array.device is not None
                        or array.ir_drop is not None
                        or array.fault_model is not None
                    ):
                        raise UnstackableError(
                            f"layer {name!r} has device-level array models attached"
                        )
            if isinstance(first, MappedConv2d):
                adapters[name] = _FusedMappedConv2d(owner, mapped_layers)
            elif isinstance(first, MappedLinear):
                adapters[name] = _FusedMappedLinear(owner, mapped_layers)
            else:
                raise UnstackableError(f"layer {name!r} has an unknown mapped type")

        def make_adapter(path, layer):
            return adapters[path]

        return cls._swap_template(base.mapping, (_ChipLayerModule,), make_adapter)

    @staticmethod
    def _swap_template(mapping: Module, leaf_types, make_adapter) -> Module:
        """Structural clone of ``mapping`` with leaf layers swapped for adapters.

        Walks the same dotted paths as :func:`~repro.pim.chip.deploy_model`,
        so a path here names the same layer the backends name — non-leaf
        modules come from :func:`replicate_for_programming` (their state
        aliases the golden model and is identical across chips).  The walk
        is a plain loop: a recursive closure would refer to itself and
        keep ``make_adapter`` (and the stacked weights it closes over)
        alive in a reference cycle.
        """
        clone = replicate_for_programming(mapping)
        pending = [(clone, "")]
        while pending:
            module, prefix = pending.pop()
            for name, child in list(module._modules.items()):
                path = prefix + name
                if isinstance(child, leaf_types):
                    setattr(module, name, make_adapter(path, child))
                else:
                    pending.append((child, path + "."))
        return clone

    # ------------------------------------------------------------------
    # Freshness
    # ------------------------------------------------------------------
    @property
    def members(self) -> list[ProgrammedChip]:
        """The stacked chips, in stack order."""
        return list(self._members)

    def covers(self, chips) -> bool:
        """Whether every chip in ``chips`` is stacked here, unmutated.

        Compares ``(identity, version)``: reprogramming or replacement
        creates a new chip object (identity miss), while ``refresh`` and
        ``apply_faults`` bump the version in place (version miss).
        """
        for chip in chips:
            pos = self._index.get(id(chip))
            if pos is None or chip is not self._members[pos]:
                return False
            if chip.version != self._versions[pos]:
                return False
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(self, assignments) -> list[np.ndarray]:
        """Run one fused group: ``[(chip, inputs), ...]`` -> output list.

        Batch sizes may differ per chip (the merge amortizes elementwise
        and interpreter work; the per-slice GEMMs keep each chip's exact
        unfused geometry).  Outputs come back in assignment order,
        bit-identical to ``chip.forward(inputs)``.
        """
        assignments = list(assignments)
        if not assignments:
            return []
        batches = [np.asarray(inputs) for _, inputs in assignments]
        try:
            idx = tuple(self._index[id(chip)] for chip, _ in assignments)
        except KeyError:
            raise ValueError("assignment names a chip outside this fused stack") from None
        bounds = [0]
        for batch in batches:
            bounds.append(bounds[-1] + int(batch.shape[0]))
        merged = np.concatenate(batches, axis=0) if len(batches) > 1 else batches[0]
        self._group = (idx, tuple(bounds))
        try:
            with no_grad():
                outputs = self._template(Tensor(merged)).data
        finally:
            self._group = None
        return [outputs[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]

    def forward_shared(self, chip: ProgrammedChip, inputs) -> np.ndarray:
        """One member's forward of a batch that every member sees.

        The probe-sweep entry point.  ``chip`` runs as a one-chip group,
        so each of its GEMMs multiplies the whole batch by that chip's
        weights: the BLAS call ``chip.forward(inputs)`` makes, and the
        same bits out.  What the group shares is the *stem*: the first
        stacked layer's prepared input (activation quantization and the
        im2col patch matrix on the fake-quant path, the patch matrix of
        DAC voltages on the circuit path), computed once per distinct
        batch for the life of the stack and reused by every member.
        """
        inputs = np.asarray(inputs)
        self._shared = inputs
        try:
            return self.forward([(chip, inputs)])[0]
        finally:
            self._shared = None

    def _stem(self, data: np.ndarray, prepare) -> np.ndarray:
        """``prepare(data)``, from the stem cache for a shared batch's first layer.

        Only the first stacked layer of a :meth:`forward_shared` call takes
        the shared batch.  Every module in front of it aliases the golden
        model and the stack refuses per-chip activation scales, so its
        prepared input is a pure function of the batch: batches that match
        bit for bit share one read-only stem.
        """
        shared, self._shared = self._shared, None
        if shared is None:
            return prepare(data)
        bits = (shared.shape, shared.dtype.str, shared.tobytes())
        for key, stem in self._stems:
            if key == bits:
                return stem
        stem = prepare(data).view()
        stem.flags.writeable = False
        self._stems.append((bits, stem))
        return stem

    def describe(self) -> dict:
        """Stack provenance (JSON-friendly)."""
        return {
            "backend": self.backend,
            "chips": [chip.chip_id for chip in self._members],
        }

    def __repr__(self) -> str:
        ids = ", ".join(chip.chip_id for chip in self._members)
        return f"FusedFleetForward([{ids}], backend={self.backend!r})"
