"""Ablation: QAVAT vs the Noisy-Machines distillation baseline (ref [16]).

The paper lists distillation-based noise injection (Zhou et al.) among the
prior implicit-robustification methods it improves on.  This bench trains,
at each sigma:

* QAT (variability-oblivious),
* Noisy-Machines: naive single-sample injection + knowledge distillation
  from a clean float teacher,
* QAVAT (reparameterized injection, no teacher),

and compares mean robust accuracy under within-chip variation.  Expected
shape: distillation beats plain QAT at high sigma (its claim), QAVAT at
least matches distillation without needing a teacher.
"""

from __future__ import annotations

from benchmarks.conftest import bench_scale, spec_from, trained, write_result
from repro.datasets.loaders import batch_source
from repro.eval.robustness import evaluate_robustness
from repro.experiments.configs import dataset_for, model_for
from repro.experiments.tables import format_series
from repro.quant.qconfig import QConfig
from repro.training.baselines import _float_pretrain
from repro.training.distill import train_distilled

SIGMAS = (0.3, 0.5)
NOTATION = "A4W2"
VARIANCE_MODEL = "weight-proportional"


def _train_noisy_machines(sigma: float):
    """Float teacher -> distilled quantized noisy student."""
    scale = bench_scale()
    train, test = dataset_for("mnist", scale)
    teacher = model_for("lenet5", "mnist", scale, seed=21)
    source = batch_source(train, scale.batch_size, seed=5)
    _float_pretrain(
        teacher, source, scale.float_pretrain_epochs + scale.train_epochs, scale.lr
    )
    student = model_for("lenet5", "mnist", scale, seed=22)
    _float_pretrain(student, source, scale.float_pretrain_epochs, scale.lr)
    spec = spec_from(sigma, 0.0, VARIANCE_MODEL)
    train_distilled(
        student,
        teacher,
        source,
        QConfig.from_notation(NOTATION),
        spec,
        epochs=scale.train_epochs,
        lr=scale.lr,
    )
    return student, test


def _run_distillation() -> str:
    scale = bench_scale()
    series = {"QAT": [], "NoisyMachines-KD": [], "QAVAT": []}
    for sigma in SIGMAS:
        spec = spec_from(sigma, 0.0, VARIANCE_MODEL)
        qat_model, test = trained(
            "qat", "lenet5", "mnist", NOTATION, sigma, 0.0, VARIANCE_MODEL
        )
        series["QAT"].append(
            100 * evaluate_robustness(qat_model, test, spec, num_chips=scale.num_chips).mean
        )
        kd_model, test = _train_noisy_machines(sigma)
        series["NoisyMachines-KD"].append(
            100 * evaluate_robustness(kd_model, test, spec, num_chips=scale.num_chips).mean
        )
        qavat_model, test = trained(
            "qavat", "lenet5", "mnist", NOTATION, sigma, 0.0, VARIANCE_MODEL
        )
        series["QAVAT"].append(
            100 * evaluate_robustness(qavat_model, test, spec, num_chips=scale.num_chips).mean
        )
    return format_series(
        "sigma",
        SIGMAS,
        series,
        title=(
            f"QAVAT vs Noisy-Machines distillation vs QAT "
            f"(LeNet/{NOTATION}, within-chip {VARIANCE_MODEL}, mean acc %)"
        ),
    )


def test_distillation_baseline(benchmark):
    text = benchmark.pedantic(_run_distillation, rounds=1, iterations=1)
    write_result("distillation", text)
    # QAVAT should at least roughly match the distillation baseline at the
    # highest sigma (within a few points at bench scale).
    last = text.strip().splitlines()[-1].split()
    qavat, kd = float(last[-1]), float(last[-2])
    assert qavat >= kd - 10.0
