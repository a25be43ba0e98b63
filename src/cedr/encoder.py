"""PointNet-lite encoder: shared per-point MLP, max pool, two heads.

The classification head maps the pooled global feature to class
probabilities; the projection head maps it to a unit-norm embedding used by
the contrastive losses. Max pooling makes the whole thing exactly invariant
to point order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    dense_forward,
    l2_normalize_rows,
    pooled_point_mlp,
    softmax_rows,
)


@dataclass
class EncoderConfig:
    num_classes: int
    hidden_dims: list[int] = field(default_factory=lambda: [64, 128])


@dataclass
class ForwardOutputs:
    logits: Tensor       # batch x |C|
    probs: Tensor        # batch x |C|, rows sum to 1
    embeddings: Tensor   # batch x hidden_dims[-1], unit rows


class PointEncoder:
    def __init__(self, config: EncoderConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.params: list[Parameter] = []
        dims = [3] + list(config.hidden_dims)   # points are (x, y, z)
        self.point_layers = [
            self._dense_pair(rng, dims[i], dims[i + 1], f"point{i}")
            for i in range(len(dims) - 1)
        ]
        d = config.hidden_dims[-1]   # width of the pooled global feature
        self.cls_head = self._dense_pair(rng, d, config.num_classes, "cls")
        # the projection space has the width of the global feature
        self.prj_head = self._dense_pair(rng, d, d, "prj")

    def _dense_pair(self, rng, d_in, d_out, name):
        # He init; biases at zero
        w = Parameter(rng.standard_normal((d_in, d_out)) * np.sqrt(2.0 / d_in),
                      f"{name}.w")
        b = Parameter(np.zeros(d_out), f"{name}.b")
        self.params.extend([w, b])
        return (w, b)

    def load_state(self, tensors: dict[str, np.ndarray]):
        """Copy every parameter from `tensors`. All are checked first, so a
        missing name, a wrong shape or a non-finite value raises ValueError
        and leaves the model as it was."""
        for p in self.params:
            if p.name not in tensors:
                raise ValueError(f"checkpoint is missing parameter '{p.name}'")
            if tensors[p.name].shape != p.shape:
                raise ValueError(f"checkpoint parameter '{p.name}' has shape "
                                 f"{tensors[p.name].shape}, expected {p.shape}")
            if not np.all(np.isfinite(tensors[p.name])):
                raise ValueError(f"checkpoint parameter '{p.name}' has "
                                 "non-finite values")
        for p in self.params:
            p.values[...] = tensors[p.name]

    def encode(self, points: np.ndarray) -> ForwardOutputs:
        """points: (batch, n_points, 3) array."""
        _, n_points, _ = points.shape
        if n_points < 1:
            raise ValueError("empty point cloud")
        if not np.all(np.isfinite(points)):
            raise ValueError("non-finite point coordinates")
        global_features = pooled_point_mlp(points, self.point_layers)
        logits = dense_forward(global_features, *self.cls_head)
        probs = softmax_rows(logits)
        embeddings = l2_normalize_rows(dense_forward(global_features, *self.prj_head))
        return ForwardOutputs(logits, probs, embeddings)
