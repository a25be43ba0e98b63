"""SGD with momentum and decoupled L2 weight decay; the cosine lr schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """On construction the parameters' values and grads move into one flat
    array each, beside one flat `velocity`, and every `Parameter`'s `values`
    and `grad` become views of them: a step is a few whole-array ops, and a
    parameter written in place (`PointEncoder.load_state`) writes them."""

    params: list[Parameter]
    momentum: float
    weight_decay: float

    def __post_init__(self):
        self.values = np.concatenate([p.values.ravel() for p in self.params])
        self.grad = np.concatenate([p.grad.ravel() for p in self.params])
        self.velocity = np.zeros_like(self.values)
        self.ends = np.cumsum([p.values.size for p in self.params])
        for p, v, g in zip(self.params, np.split(self.values, self.ends[:-1]),
                           np.split(self.grad, self.ends[:-1])):
            p.values, p.grad = v.reshape(p.shape), g.reshape(p.shape)

    def step(self, lr: float):
        self.velocity *= self.momentum
        self.velocity += self.grad + self.weight_decay * self.values
        self.values -= lr * self.velocity
        finite = np.isfinite(self.values)
        if not finite.all():
            bad = np.searchsorted(self.ends, finite.argmin(), side="right")
            raise FloatingPointError(
                f"non-finite values in parameter '{self.params[bad].name}'")

    def zero_grad(self):
        self.grad.fill(0.0)
