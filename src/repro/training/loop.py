"""Plain training loop for float models."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.nn import functional as F


def train_epoch(model, batches, optimizer, loss_fn=F.cross_entropy) -> float:
    """One epoch of standard training; returns the mean batch loss."""
    model.train()
    losses = []
    for inputs, targets in batches:
        optimizer.zero_grad()
        loss = loss_fn(model(Tensor(inputs)), targets)
        loss.backward()
        optimizer.step()
        losses.append(float(loss.data))
    return float(np.mean(losses)) if losses else 0.0

