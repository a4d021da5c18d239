"""Outside-in layer tracing: class-level wrappers around each layer's entry points.

The traced run installs wrappers from this file, so no program code
changes and every fleet replica and fused adapter is covered.  Each
wrapped call records one span: its name, raw start and end, the span
that caused it (the caller's span), the engine tick, a request id where
the call has one, and up to two numbers (rows, bytes, batches, ...).
Spans are kept in memory in flat lists and written out when the run ends.

Self time is a span's duration minus its child spans.  Calls are
single-threaded and strictly nested, so child spans never overlap and the
part of the parent they cover is the sum of their durations.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """An in-memory span recorder that patches methods and functions."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: Returns the current simulated tick (set per serving session).
        self.tick = lambda: -1
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span (the patches stay installed)."""
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ticks: list[int] = []
        self.rids: list = []
        self.values: list[float] = []
        self.values2: list[float] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def open(self, name: str, rid=None) -> int:
        """Start a span under the innermost open span; returns its index."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ticks.append(self.tick())
        self.rids.append(rid)
        self.values.append(0.0)
        self.values2.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name, rid_of=None, measure=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class or a module; ``attr`` must be defined on it
        directly (a subclass override is wrapped on that subclass).
        ``name`` is a span name, or a callable of the call's first
        argument returning one.  ``rid_of(args, kwargs)`` extracts a
        request id; ``measure(span_index, args, kwargs, result, error)``
        fills in the span's values after the call.
        """
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        original = raw.__func__ if kind is not None else raw
        tracer = self
        fixed_name = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            span_name = fixed_name or name(args[0])
            index = tracer.open(span_name, rid_of(args, kwargs) if rid_of else None)
            error = None
            try:
                result = original(*args, **kwargs)
            except BaseException as raised:  # recorded, then re-raised
                error = raised
                raise
            finally:
                tracer.close(index)
                if measure is not None:
                    measure(index, args, kwargs, None if error else result, error)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write_jsonl(self, path, corrected_starts, corrected_ends) -> None:
        """Write one JSON object per span, with raw and corrected times."""
        with open(path, "w", encoding="utf-8") as out:
            for i, name in enumerate(self.names):
                record = {
                    "id": i,
                    "name": name,
                    "parent": self.parents[i],
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "start_c": float(corrected_starts[i]),
                    "end_c": float(corrected_ends[i]),
                    "tick": self.ticks[i],
                }
                if self.rids[i] is not None:
                    record["request"] = self.rids[i]
                if self.values[i] or self.values2[i]:
                    record["values"] = [self.values[i], self.values2[i]]
                out.write(json.dumps(record) + "\n")


def aggregate(names, parents, starts, ends, values, values2, window) -> dict:
    """Per-name totals over the spans that start inside ``window``.

    ``starts``/``ends`` are (corrected) times, ``window`` is ``(lo, hi)``.
    Returns ``{name: {"calls", "s", "self_s", "value", "value2",
    "top_s"}}``: ``s`` sums durations, ``self_s`` sums durations minus
    child durations, and ``top_s`` sums the durations of spans with no
    parent.  A name ``"chip.forward"`` whose span runs inside a
    ``lifecycle.probe`` span is booked as ``"probe.forward"``.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    durations = ends - starts
    count = len(names)
    child_total = np.zeros(count)
    in_probe = np.zeros(count, dtype=bool)
    for i in range(count):
        parent = parents[i]
        if parent >= 0:
            child_total[parent] += durations[i]
            in_probe[i] = in_probe[parent] or names[parent] == "lifecycle.probe"
    lo, hi = window
    totals: dict = defaultdict(lambda: {
        "calls": 0, "s": 0.0, "self_s": 0.0, "value": 0.0, "value2": 0.0, "top_s": 0.0,
    })
    for i in range(count):
        if not lo <= starts[i] < hi:
            continue
        name = names[i]
        if name == "chip.forward" and in_probe[i]:
            name = "probe.forward"
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += durations[i]
        entry["self_s"] += durations[i] - child_total[i]
        entry["value"] += values[i]
        entry["value2"] += values2[i]
        if parents[i] < 0:
            entry["top_s"] += durations[i]
    return dict(totals)


# ----------------------------------------------------------------------
# What the traced run wraps
# ----------------------------------------------------------------------
def _layer_namer():
    from repro.backends import fused
    from repro.nn import activations, conv, linear, pooling
    from repro.pim.chip import _ChipLayerModule
    from repro.quant.qlayers import QuantConv2d, QuantLinear

    kinds = (
        ((conv.Conv2d, QuantConv2d, fused._FusedQuantConv2d), "layer.conv"),
        ((linear.Linear, QuantLinear, fused._FusedQuantLinear), "layer.linear"),
        ((_ChipLayerModule, fused._FusedMappedBase), "layer.circuit"),
        ((pooling.MaxPool2d, pooling.AvgPool2d, pooling.GlobalAvgPool2d), "layer.pool"),
        (
            (activations.ReLU, activations.Tanh, activations.Sigmoid, activations.LeakyReLU),
            "layer.act",
        ),
    )
    cache: dict = {}

    def name_of(module) -> str:
        cls = type(module)
        name = cache.get(cls)
        if name is None:
            name = next(
                (label for types, label in kinds if issubclass(cls, types)), "layer.other"
            )
            cache[cls] = name
        return name

    return name_of


def _set_value(tracer, fn):
    def measure(index, args, kwargs, result, error):
        if error is None:
            tracer.values[index] = fn(args, kwargs, result)
    return measure


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.backends import base, circuit, fakequant, fused
    from repro.experiments import runner
    from repro.nn import conv, module, pooling
    from repro.pim import converters, crossbar
    from repro.quant import qlayers
    from repro.serve import batcher, cache, engine, faults, lifecycle, scheduler, telemetry
    from repro.training import loop, qavat
    from repro.variability import sampler

    wrap = tracer.wrap
    rows = _set_value(tracer, lambda args, kwargs, result: np.asarray(args[1]).shape[0])

    # Top level: the calls the client makes per tick.
    wrap(
        engine.InferenceEngine, "submit", "engine.submit",
        rid_of=lambda args, kwargs: kwargs.get(
            "request_id", args[2] if len(args) > 2 else None
        ),
    )
    wrap(engine.InferenceEngine, "step", "engine.step")
    wrap(lifecycle.ChipLifecycle, "advance", "lifecycle.advance")

    # Set-up.
    wrap(runner, "train_method", "training.train")
    wrap(loop, "train_epoch", "training.epoch")
    wrap(qavat.QavatTrainer, "train_epoch", "training.epoch")
    wrap(engine.InferenceEngine, "warm_up", "engine.warm_up")
    wrap(lifecycle.ChipLifecycle, "install", "lifecycle.install")

    # Lifecycle, cache, programming, variability.
    wrap(
        engine.InferenceEngine, "probe_chip", "lifecycle.probe",
        measure=_set_value(tracer, lambda args, kwargs, result: len(args[2])),
    )
    wrap(lifecycle.ChipLifecycle, "recalibrate", "lifecycle.recalibrate")
    wrap(cache.MappingCache, "get_or_program", "cache.lookup")
    wrap(fakequant.FakeQuantBackend, "program", "backend.program")
    wrap(circuit.CircuitBackend, "program", "backend.program")
    wrap(fakequant.FakeQuantChip, "refresh", "chip.refresh")
    wrap(circuit.CircuitChip, "refresh", "chip.refresh")
    wrap(engine.FleetChip, "spill", "chip.spill")
    wrap(sampler.ChipVariation, "epsilon_for", "variability.epsilon_for")

    # Dispatch: fused groups and per-chip forwards.
    def fused_measure(index, args, kwargs, result, error):
        if error is None:
            tracer.values[index] = sum(out.shape[0] for out in result)
            tracer.values2[index] = len(result)

    wrap(fused.FusedFleetForward, "forward", "fused.forward", measure=fused_measure)
    wrap(fused.FusedFleetForward, "build", "fused.build")
    wrap(base.ProgrammedChip, "forward", "chip.forward", measure=rows)

    # repro.nn / repro.quant: im2col at every module that imported it, and
    # every module call classified by layer kind.
    im2col_bytes = _set_value(tracer, lambda args, kwargs, result: result.nbytes)
    for owner in (conv, pooling, qlayers, fused):
        wrap(owner, "im2col", "nn.im2col", measure=im2col_bytes)
    wrap(module.Module, "__call__", _layer_namer())

    # repro.pim: converters and the crossbar MVM.
    wrap(converters.DAC, "convert", "pim.dac")
    wrap(converters.ADC, "convert", "pim.adc")
    wrap(crossbar.CrossbarArray, "mvm", "pim.crossbar_mvm")

    # Engine bookkeeping.
    wrap(batcher.MicroBatcher, "poll", "batcher.poll")
    for policy in scheduler.POLICIES.values():
        if "choose" in policy.__dict__:
            wrap(policy, "choose", "scheduler.choose")
    for attr in list(vars(telemetry.ServeTelemetry)):
        if attr.startswith("record_"):
            wrap(telemetry.ServeTelemetry, attr, "telemetry.record")

    # Faults: one hazard gate per dispatch attempt; a raise is a failure.
    def hazard(index, args, kwargs, result, error):
        tracer.values[index] = 1.0 if error is not None else 0.0

    wrap(faults.FaultInjector, "before_forward", "faults.attempt", measure=hazard)
