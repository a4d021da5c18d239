"""Calibration harness: the lifecycle's probe gate against a probe-every-chip oracle.

The probe gate (``ChipLifecycle._due``) defers a healthy chip whose
quality the aging law predicts will hold its floor through the next sweep.
It changes decisions wherever it defers, so its error rate is measured
here rather than assumed.  Each seeded fleet serves the same trace twice:
once as shipped and once as the *oracle* — the same lifecycle with the
gate off, so every sweep probes every chip.  Two errors are counted:

* a *missed trigger* is an oracle recalibration ``(time, chip)`` at which
  the gated run neither probed nor booked that chip;
* an *extra recalibration* is a gated recalibration the oracle did not
  make.

The served model is a QAVAT-trained ``lenet5-mini``: on a chance-level
model the quality signal is noise and a gate can look perfect for free, so
every run also reports whether its baseline qualities are non-degenerate
(not all 0, not all 1, above chance).  Two tiers:

* smoke (tier-1, a few seconds): two regimes, two seeds, 256 requests;
* full (``slow``): three regimes, five seeds, 512 requests, with a 95%
  bootstrap interval on the per-seed served-accuracy delta (gated − oracle).
"""

import numpy as np
import pytest

from repro.eval.metrics import top1_accuracy
from repro.eval.robustness import RobustnessResult
from repro.eval.statistics import bootstrap_mean_interval
from repro.serve import (
    ChipLifecycle,
    FleetSpec,
    InferenceEngine,
    LifecycleConfig,
    ServeConfig,
    UniformTrace,
)

#: Top-1 chance level of the 10-class synthetic MNIST.
CHANCE = 0.1

#: The full tier fails if a regime's served-accuracy delta interval lies
#: wholly below this (gated − oracle, as a fraction).
DELTA_TOLERANCE = -0.01


def _serve(trained, nu, floor, seed, requests):
    """One lifecycle run: ``(engine, lifecycle, baseline, served accuracy)``."""
    model, test, spec = trained
    engine = InferenceEngine(
        model, spec,
        config=ServeConfig(max_batch=16, max_wait=2, policy="drift-aware", seed=seed),
        fleet_spec=FleetSpec.parse("rram:4,flash:4", scenario="mixed"),
    )
    lifecycle = ChipLifecycle(
        engine, test,
        LifecycleConfig(nu=nu, probe_every=8.0, accuracy_floor=floor, seed=seed),
    )
    baseline = lifecycle.install()
    repeats = -(-requests // len(test.images))
    inputs = np.concatenate([test.images] * repeats)[:requests]
    labels = np.concatenate([test.labels] * repeats)[:requests]
    ids = [f"r{i:04d}" for i in range(requests)]
    outputs = engine.run_trace(inputs, UniformTrace(rate=4.0), ids=ids, lifecycle=lifecycle)
    accuracy = top1_accuracy(np.stack([outputs[rid] for rid in ids]), labels)
    return engine, lifecycle, baseline, accuracy


def _calibrate(trained, nu, floor, seeds, requests):
    """Run each seed's fleet gated and as the oracle; count the gate's errors."""
    result = {
        "missed": [], "extra": [], "oracle_recalibrations": [], "deferred": [],
        "accuracy": [], "oracle_accuracy": [], "baselines": [],
    }
    for seed in seeds:
        engine, lifecycle, baseline, accuracy = _serve(trained, nu, floor, seed, requests)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ChipLifecycle, "_due", lambda self, chip: True)
            _, oracle, _, oracle_accuracy = _serve(trained, nu, floor, seed, requests)
        gated = lifecycle.recalibration_schedule()
        expected = oracle.recalibration_schedule()
        sampled = {
            (time, chip.chip_id)
            for chip in engine.fleet
            for time, _ in engine.telemetry.quality_timeline(chip.chip_id)
        }
        result["missed"].append(sum(event not in sampled for event in expected))
        result["extra"].append(len(set(gated) - set(expected)))
        result["oracle_recalibrations"].append(len(expected))
        result["deferred"].append(engine.telemetry.probes_deferred)
        result["accuracy"].append(accuracy)
        result["oracle_accuracy"].append(oracle_accuracy)
        result["baselines"].extend(baseline.values())
    baselines = np.asarray(result["baselines"])
    result["not_all_zero"] = bool(np.any(baselines != 0.0))
    result["not_all_one"] = bool(np.any(baselines != 1.0))
    result["above_chance"] = bool(np.all(baselines > CHANCE))
    return result


def _assert_non_degenerate(result):
    assert result["not_all_zero"], "every baseline quality is 0"
    assert result["not_all_one"], "every baseline quality is 1"
    assert result["above_chance"], "a baseline quality is at chance level"


@pytest.mark.parametrize("nu, floor", [(0.1, 0.85), (0.6, 0.9)])
def test_gate_smoke(trained_model, nu, floor):
    result = _calibrate(trained_model, nu, floor, seeds=(1, 2), requests=256)
    _assert_non_degenerate(result)
    assert sum(result["oracle_recalibrations"]) > 0, "the oracle must recalibrate"
    assert result["missed"] == [0, 0]
    assert result["extra"] == [0, 0]
    if nu == 0.1:
        assert all(deferred > 0 for deferred in result["deferred"])


@pytest.mark.slow
def test_gate_full(trained_model):
    rows = []
    for nu, floor in [(0.1, 0.85), (0.3, 0.85), (0.6, 0.9)]:
        result = _calibrate(trained_model, nu, floor, seeds=range(1, 6), requests=512)
        _assert_non_degenerate(result)
        deltas = np.subtract(result["accuracy"], result["oracle_accuracy"])
        low, high = bootstrap_mean_interval(RobustnessResult(accuracies=list(deltas)))
        rows.append((nu, floor, result, deltas, low, high))
        print(
            f"nu={nu} floor={floor}: oracle recalibrations "
            f"{sum(result['oracle_recalibrations'])}, missed {result['missed']}, "
            f"extra {result['extra']}, deferred {result['deferred']}, "
            f"accuracy delta (pp) {np.round(100 * deltas, 2).tolist()}, "
            f"95% interval [{100 * low:+.2f}, {100 * high:+.2f}]"
        )
    for nu, floor, result, deltas, low, high in rows:
        if nu in (0.1, 0.6):
            assert sum(result["missed"]) == 0, (nu, result["missed"])
        assert high >= DELTA_TOLERANCE, (nu, deltas.tolist())
