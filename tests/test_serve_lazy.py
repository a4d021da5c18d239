"""Tests for lazy fleets: seed-addressed chips and the resident-chip bound.

A fleet constructs in O(descriptors) memory, nothing realizes a chip
except actual traffic, and ``ServeConfig.max_resident_chips`` is a hard
ceiling on resident mappings with deterministic spill/re-realization
(sticky fault maps included).  ``FleetSpec.parse`` validation rides
along, since fleet specs are how large lazy fleets are declared.
"""

import numpy as np
import pytest

from repro.datasets.loaders import batch_iterator
from repro.datasets.synthetic import make_pattern_dataset
from repro.models import build_model
from repro.nn import init
from repro.quant.calibration import calibrate_model
from repro.quant.ptq import convert_to_quantized
from repro.quant.qconfig import QConfig
from repro.serve import FleetSpec, InferenceEngine, ServeConfig
from repro.variability.faults import FaultSpec
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySpec


@pytest.fixture(scope="module")
def served_model():
    init.seed(0)
    dataset = make_pattern_dataset(5, 16, (1, 28, 28), seed=7, max_shift=1, noise=0.2)
    model = build_model("lenet5-mini", num_classes=5, in_channels=1)
    convert_to_quantized(model, QConfig.from_notation("A4W2"))
    calibrate_model(model, batch_iterator(dataset, 16, shuffle=False), max_batches=3)
    model.eval()
    return model, dataset


def _spec(sigma=0.2):
    return VariabilitySpec.mixed(sigma, WeightProportionalVariance())


def _engine(model, num_chips=4, **config):
    config.setdefault("max_batch", 4)
    config.setdefault("max_wait", 2)
    config.setdefault("seed", 5)
    return InferenceEngine(
        model, _spec(), num_chips=num_chips, config=ServeConfig(**config)
    )


def _workload(dataset, requests):
    reps = 1 + (requests - 1) // len(dataset.images)
    return np.concatenate([dataset.images] * reps)[:requests]


def _serve_bursty(engine, workload, per_tick=12, deadline_ticks=20):
    """Submit ``per_tick`` requests between steps: several due batches per
    tick, so the cache sees many chips in quick succession."""
    for i, sample in enumerate(workload):
        engine.submit(
            sample, request_id=f"r{i:04d}", deadline=engine.now + deadline_ticks
        )
        if (i + 1) % per_tick == 0:
            engine.step()
    engine.drain()
    return engine


# ----------------------------------------------------------------------
# FleetSpec.parse validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fragment", ["rram:0", "flash:-2"])
def test_fleet_spec_rejects_nonpositive_counts(fragment):
    with pytest.raises(ValueError, match=fragment):
        FleetSpec.parse(f"rram:2,{fragment}")


def test_fleet_spec_still_parses_valid_groups():
    spec = FleetSpec.parse("rram:2,flash:1@0.5")
    assert spec.num_chips == 3
    assert spec.groups[1].sigma_scale == 0.5


# ----------------------------------------------------------------------
# Lazy fleets: construction, realization, spill
# ----------------------------------------------------------------------
def test_thousand_chip_fleet_constructs_unrealized(served_model):
    model, _ = served_model
    engine = _engine(model, num_chips=1000, max_resident_chips=8)
    assert len(engine.fleet) == 1000
    assert not any(chip.realized for chip in engine.fleet)
    # Effective cache capacity is the resident-chip bound.
    assert engine.cache.capacity == 8


def test_chip_lookup_does_not_force_realization(served_model):
    model, _ = served_model
    engine = _engine(model, num_chips=64)
    chip = engine.chip_by_id("chip32")
    assert chip is not None and chip.index == 32
    assert not chip.realized
    # repr / policy-visible bookkeeping must not realize either.
    repr(chip)
    assert not any(c.realized for c in engine.fleet)


def test_only_dispatched_chips_realize(served_model):
    model, dataset = served_model
    engine = _engine(model, num_chips=8)
    engine.submit(dataset.images[0], request_id="solo")
    engine.step()
    engine.drain()
    assert "solo" in engine.completed
    assert sum(chip.realized for chip in engine.fleet) == 1


def test_max_resident_chips_bounds_cache_and_spills(served_model):
    model, dataset = served_model
    engine = _engine(model, num_chips=12, max_resident_chips=4)
    assert engine.cache.capacity == 4
    _serve_bursty(engine, _workload(dataset, 48))
    stats = engine.cache.stats
    assert stats.peak_resident <= 4
    assert stats.spills > 0
    assert stats.spills <= stats.evictions
    assert len(engine.completed) == 48


def test_spilled_chip_rerealizes_bit_exactly(served_model):
    model, dataset = served_model
    engine = _engine(model, num_chips=2, max_resident_chips=1)
    probe = dataset.images[:3]
    chip0, chip1 = engine.fleet
    before = engine.programmed_for(chip0).forward(probe)
    engine.programmed_for(chip1)  # evicts + spills chip0
    assert engine.cache.stats.spills == 1
    after = engine.programmed_for(chip0).forward(probe)
    assert np.array_equal(before, after)


def test_sticky_faults_survive_spill_and_rerealization(served_model):
    model, dataset = served_model
    engine = _engine(model, num_chips=2, max_resident_chips=1)
    probe = dataset.images[:3]
    chip0, chip1 = engine.fleet
    engine.inject_chip_faults(
        chip0, FaultSpec(p_stuck_off=0.05, p_stuck_on=0.02), seed=9
    )
    faulted = engine.programmed_for(chip0).forward(probe)
    engine.programmed_for(chip1)  # evicts + spills the faulted chip
    refaulted = engine.programmed_for(chip0).forward(probe)
    assert np.array_equal(faulted, refaulted)


def test_replace_chip_on_never_realized_chip(served_model):
    model, dataset = served_model
    engine = _engine(model, num_chips=4)
    victim = engine.fleet[1]
    assert not victim.realized
    replacement = engine.replace_chip(victim, reason="test")
    assert replacement.chip_id == f"{victim.chip_id}+1"
    assert not victim.realized  # replacing never materialized the old chip
    assert not replacement.realized
    _serve_bursty(engine, _workload(dataset, 16))
    assert len(engine.completed) == 16
