"""Probe-sweep forward benchmark: three ways to probe one resident chunk.

A lifecycle probe round sends the same batch through every chip.  This
measures, per chip, the forward-pass cost of probing one 16-chip chunk
with the tiny-scale LeNet-5 (A4W2, 64 probe images) that
``lifetime-bench`` and the ``drift-lifetime`` benchmark workload serve,
programmed on either backend (``--backend fake-quant`` or ``circuit``):

* ``per-chip`` — each chip's own ``ProgrammedChip.forward``;
* ``merged`` — one 16-chip ``FusedFleetForward`` group over the batch
  repeated per chip (every downstream temporary is 16 times larger);
* ``shared-stem`` — what ``InferenceEngine.probe_fleet`` runs: one stack
  per chunk, each chip a one-chip group through
  ``FusedFleetForward.forward_shared``, so the first layer's patch
  matrix (quantized activations on fake-quant chips, DAC voltages on
  circuit chips) is built once per chunk.

Stack builds count toward their way's time.  The three ways are
interleaved over the rounds, and their outputs are checked bit-equal
first; the script exits 1 on any difference.  Run directly, with BLAS on
one thread for host-comparable numbers::

    OPENBLAS_NUM_THREADS=1 python benchmarks/bench_probe.py [--rounds 21] [--backend circuit]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

import numpy as np

if __name__ == "__main__":  # works without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

CHIPS = 16
PROBE_IMAGES = 64


def build_chunk(backend: str):
    """A calibrated tiny LeNet-5, ``CHIPS`` chips programmed on ``backend``
    and a probe batch."""
    from repro.backends import make_backend
    from repro.datasets.loaders import batch_iterator
    from repro.datasets.synthetic import make_pattern_dataset
    from repro.experiments.configs import EXPERIMENT_SCALES, model_for
    from repro.quant.calibration import calibrate_model
    from repro.quant.ptq import convert_to_quantized
    from repro.quant.qconfig import QConfig
    from repro.variability.models import WeightProportionalVariance
    from repro.variability.sampler import VariabilitySampler, VariabilitySpec

    dataset = make_pattern_dataset(10, 8, (1, 28, 28), seed=0)
    model = model_for("lenet5", "mnist", EXPERIMENT_SCALES["tiny"])
    convert_to_quantized(model, QConfig.from_notation("A4W2"))
    calibrate_model(model, batch_iterator(dataset, 32, shuffle=False), max_batches=2)
    model.eval()
    spec = VariabilitySpec.mixed(0.3 / np.sqrt(2.0), WeightProportionalVariance())
    programmer = make_backend(backend)
    chips = [
        programmer.program(
            model, VariabilitySampler(spec, seed=i).sample_chip(), spec=spec, chip_id=f"c{i}"
        )
        for i in range(CHIPS)
    ]
    return chips, dataset.images[:PROBE_IMAGES]


def main(argv=None) -> int:
    from repro.backends import FusedFleetForward

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--backend", choices=("fake-quant", "circuit"), default="fake-quant")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    chips, batch = build_chunk(args.backend)

    def per_chip():
        return [chip.forward(batch) for chip in chips]

    def merged():
        return FusedFleetForward.build(chips).forward([(chip, batch) for chip in chips])

    def shared_stem():
        stack = FusedFleetForward.build(chips)
        return [stack.forward_shared(chip, batch) for chip in chips]

    ways = {"per-chip": per_chip, "merged": merged, "shared-stem": shared_stem}
    reference = per_chip()
    for name, way in ways.items():
        if not all(np.array_equal(a, b) for a, b in zip(way(), reference)):
            print(f"FAIL: {name} outputs differ from per-chip forwards ({args.backend})")
            return 1
    per_chip_ms = {name: [] for name in ways}
    for _ in range(args.rounds):
        for name, way in ways.items():
            started = time.perf_counter()
            way()
            per_chip_ms[name].append(1e3 * (time.perf_counter() - started) / CHIPS)
    print(
        f"{args.backend}: {CHIPS} chips x {PROBE_IMAGES} probe images, "
        f"{args.rounds} interleaved rounds; outputs bit-equal"
    )
    for name, values in per_chip_ms.items():
        low, _, high = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(
            f"{name:12s} median {statistics.median(values):6.2f} ms/chip "
            f"(IQR {low:.2f}-{high:.2f})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
