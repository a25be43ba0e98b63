"""SGD with momentum, decoupled L2 weight decay, and cosine-annealed lr."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter


def cosine_lr(epoch: int, total_epochs: int, lr_max: float = 0.1,
              lr_min: float = 0.001) -> float:
    """lr(t) = lr_min + 0.5 (lr_max - lr_min) (1 + cos(pi t / T))."""
    if total_epochs <= 0:
        return lr_max
    t = min(max(epoch, 0), total_epochs)
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t / total_epochs))


@dataclass
class SGDMomentum:
    params: list[Parameter]
    total_epochs: int
    lr_max: float = 0.1
    lr_min: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epoch: int = 0
    buffers: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for p in self.params:
            self.buffers.setdefault(p.name, np.zeros_like(p.values))

    @property
    def lr(self) -> float:
        return cosine_lr(self.epoch, self.total_epochs, self.lr_max, self.lr_min)

    def step(self):
        lr = self.lr
        for p in self.params:
            v = self.buffers[p.name]
            v *= self.momentum
            v += p.grad + self.weight_decay * p.values
            p.values -= lr * v
            if not np.isfinite(p.values).all():
                raise FloatingPointError(f"non-finite values in parameter '{p.name}'")

    def zero_grad(self):
        for p in self.params:
            p.grad[...] = 0.0
