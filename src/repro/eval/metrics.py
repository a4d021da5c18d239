"""Small metric helpers."""

from __future__ import annotations

import numpy as np


def top1_accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the target."""
    return float((np.asarray(logits).argmax(axis=-1) == np.asarray(targets)).mean())


def topk_accuracy(logits: np.ndarray, targets: np.ndarray, k: int = 5) -> float:
    """Fraction of rows whose target lands in the top-``k`` logits.

    ``k`` is clamped to the number of classes, so ``k >= logits.shape[-1]``
    degenerates to 1.0 and ``k=1`` matches :func:`top1_accuracy` exactly
    (ties broken identically via a stable sort on the negated logits).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    logits = np.atleast_2d(np.asarray(logits))
    targets = np.asarray(targets).reshape(-1)
    k = min(k, logits.shape[-1])
    # argsort(kind="stable") on -logits mirrors argmax's first-wins tie rule.
    ranked = np.argsort(-logits, axis=-1, kind="stable")[:, :k]
    return float((ranked == targets[:, None]).any(axis=-1).mean())
