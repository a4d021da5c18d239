"""Quickstart: train a variability-robust quantized model in ~30 seconds.

Walks the full QAVAT pipeline on a small LeNet-5:

1. build a model and a synthetic MNIST-like dataset;
2. train with QAVAT (A4W2 quantization + within-chip noise injection);
3. Monte-Carlo evaluate robustness the way the paper does — many sampled
   "chips", mean accuracy across them.

Run:  python examples/quickstart.py
"""

from repro import (
    QConfig,
    VariabilitySpec,
    evaluate_clean,
    evaluate_robustness,
    train_qavat,
)
from repro.datasets import batch_source, synthetic_mnist
from repro.models import build_model
from repro.nn import init
from repro.variability import LayerFixedVariance


def main() -> None:
    # Synthetic stand-in for MNIST (no network access in this environment).
    train, test = synthetic_mnist(train_per_class=32, test_per_class=8)
    print(f"dataset: {len(train)} train / {len(test)} test, shape {train.sample_shape}")

    init.seed(1)
    model = build_model("lenet5-mini")
    print(f"model: LeNet-5 (mini), {model.num_parameters():,} parameters")

    # The paper's hardest Scenario-1 setting: sigma_W = 0.5, layer-fixed.
    spec = VariabilitySpec.within_only(0.5, LayerFixedVariance())
    qconfig = QConfig.from_notation("A4W2")  # 4-bit activations, ternary weights

    print("training QAVAT (float pretrain -> quantize+calibrate -> Algorithm 1)...")
    train_qavat(
        model,
        batch_source(train, batch_size=32, seed=0),
        qconfig,
        spec,
        epochs=12,
        lr=0.02,
        float_pretrain_epochs=6,
        n_variation_samples=4,  # multi-sampling (Fig. 7a)
    )

    clean = evaluate_clean(model, test)
    robust = evaluate_robustness(model, test, spec, num_chips=20)
    print(f"clean accuracy:          {100 * clean:.1f}%")
    print(f"mean accuracy over {len(robust.accuracies)} chips: {100 * robust.mean:.1f}% "
          f"(std {100 * robust.std:.1f}%, worst {100 * robust.worst:.1f}%)")
    if robust.mean > 0.8:
        print("the model survives sigma=0.5 within-chip variation — QAVAT works.")


if __name__ == "__main__":
    main()
