"""Ablation: reparameterized (unbiased, Eq. 2) vs naive (biased, Eq. 1) injection.

The paper argues (footnote 1: no prior VAT work had described the need for
reparameterization) that sampling noise numerically and adding it to the
weights yields a biased gradient estimator, because the dependence of the
noise distribution on the weights is invisible to backprop.  This bench
trains QAVAT twice under weight-proportional variance — the model where the
two estimators differ — with identical budgets and compares robustness.
"""

from __future__ import annotations

from benchmarks.conftest import bench_scale, spec_from, write_result
from repro.datasets.loaders import batch_source
from repro.eval.robustness import evaluate_robustness
from repro.experiments.configs import dataset_for, model_for
from repro.experiments.tables import format_table
from repro.quant.qconfig import QConfig
from repro.training.baselines import train_qavat

SIGMA = 0.5
VARIANCE_MODEL = "weight-proportional"


def _train(mode: str, seed: int):
    scale = bench_scale()
    train, test = dataset_for("mnist", scale)
    model = model_for("lenet5", "mnist", scale, seed=seed)
    spec = spec_from(SIGMA, 0.0, VARIANCE_MODEL)
    train_qavat(
        model,
        batch_source(train, scale.batch_size, seed=seed),
        QConfig.from_notation("A4W2"),
        spec,
        epochs=scale.train_epochs,
        lr=scale.lr,
        n_variation_samples=2,
        float_pretrain_epochs=scale.float_pretrain_epochs,
        injection_mode=mode,
    )
    return model, test


def _run_ablation() -> str:
    scale = bench_scale()
    eval_spec = spec_from(SIGMA, 0.0, VARIANCE_MODEL)
    rows = []
    for mode in ("reparameterized", "naive"):
        # Single tiny-scale runs are seed-sensitive; average a few.
        means, stds = [], []
        for seed in (1, 2, 3):
            model, test = _train(mode, seed)
            result = evaluate_robustness(
                model, test, eval_spec, num_chips=scale.num_chips, seed=42
            )
            means.append(100 * result.mean)
            stds.append(100 * result.std)
        rows.append([mode, sum(means) / len(means), sum(stds) / len(stds)])
    return format_table(
        ["injection mode", "mean acc %", "std %"],
        rows,
        title=(
            f"Eq. 1 vs Eq. 2 ablation (sigma={SIGMA}, {VARIANCE_MODEL}, "
            f"LeNet-5) — scale={scale.name}"
        ),
    )


def test_reparam_ablation(benchmark):
    text = benchmark.pedantic(_run_ablation, rounds=1, iterations=1)
    write_result("reparam_ablation", text)
    assert "reparameterized" in text
