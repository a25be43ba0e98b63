"""SGD with momentum and decoupled L2 weight decay; the cosine lr schedule."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import FlatParameters


def cosine_lr(epoch: int, total_epochs: int, lr_max: float = 0.1,
              lr_min: float = 0.001) -> float:
    """lr(t) = lr_min + 0.5 (lr_max - lr_min) (1 + cos(pi t / T))."""
    if total_epochs <= 0:
        return lr_max
    t = min(max(epoch, 0), total_epochs)
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t / total_epochs))


class SGDMomentum:
    """Steps a model's flat `values` by its flat `grad` (`FlatParameters`),
    which every `Parameter` views, so a step is a few whole-array ops. The
    optimizer holds only its flat `velocity`; it moves no array."""

    def __init__(self, model: FlatParameters, momentum: float, weight_decay: float):
        self.model, self.momentum, self.weight_decay = model, momentum, weight_decay
        self.velocity = np.zeros_like(model.values)

    def step(self, lr: float):
        m = self.model
        self.velocity *= self.momentum
        self.velocity += m.grad + self.weight_decay * m.values
        m.values -= lr * self.velocity
        finite = np.isfinite(m.values)
        if not finite.all():
            bad = np.searchsorted(m.ends, finite.argmin(), side="right")
            raise FloatingPointError(
                f"non-finite values in parameter '{m.params[bad].name}'")

    def zero_grad(self):
        self.model.grad.fill(0.0)
