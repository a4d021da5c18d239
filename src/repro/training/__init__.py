"""Training: optimizers, schedules, the QAVAT algorithm, and baselines."""

from repro.training.optim import SGD, Adam, AdamW, Optimizer, clip_grad_norm
from repro.training.schedule import ConstantLR, CosineLR, StepLR, WarmupCosineLR
from repro.training.loop import train_epoch
from repro.training.qavat import QavatTrainer
from repro.training.baselines import FloatVatTrainer, train_ptq_vat, train_qat, train_qavat
from repro.training.distill import DistillationTrainer, distillation_loss, train_distilled
from repro.training.ema import ModelEMA
from repro.training.checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "ConstantLR",
    "StepLR",
    "CosineLR",
    "WarmupCosineLR",
    "train_epoch",
    "QavatTrainer",
    "FloatVatTrainer",
    "train_qavat",
    "train_qat",
    "train_ptq_vat",
    "DistillationTrainer",
    "distillation_loss",
    "train_distilled",
    "ModelEMA",
    "save_checkpoint",
    "load_checkpoint",
]
