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
    FlatParameters,
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
    probs: Tensor        # batch x |C|, rows sum to 1
    embeddings: Tensor   # batch x hidden_dims[-1], unit rows


class PointEncoder(FlatParameters):
    def __init__(self, config: EncoderConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        dims = [3] + list(config.hidden_dims)   # points are (x, y, z)
        d = config.hidden_dims[-1]   # width of the pooled global feature
        layers = [(f"point{i}", dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
        # the projection space has the width of the global feature
        layers += [("cls", d, config.num_classes), ("prj", d, d)]
        named = []
        for name, d_in, d_out in layers:   # He init; biases at zero
            w = rng.standard_normal((d_in, d_out)) * np.sqrt(2.0 / d_in)
            named += [(f"{name}.w", w), (f"{name}.b", np.zeros(d_out))]
        super().__init__(named)
        pairs = list(zip(self.params[::2], self.params[1::2]))
        self.point_layers, (self.cls_head, self.prj_head) = pairs[:-2], pairs[-2:]

    def load_state(self, tensors: dict[str, np.ndarray]):
        """Copy every parameter from `tensors`. All are checked first, so a
        missing or unknown name, a wrong shape or a non-finite value raises
        ValueError and leaves the model as it was."""
        for p in self.params:
            if p.name not in tensors:
                raise ValueError(f"checkpoint is missing parameter '{p.name}'")
            if tensors[p.name].shape != p.shape:
                raise ValueError(f"checkpoint parameter '{p.name}' has shape "
                                 f"{tensors[p.name].shape}, expected {p.shape}")
            if not np.all(np.isfinite(tensors[p.name])):
                raise ValueError(f"checkpoint parameter '{p.name}' has "
                                 "non-finite values")
        unknown = sorted(tensors.keys() - {p.name for p in self.params})
        if unknown:
            raise ValueError(f"checkpoint tensor '{unknown[0]}' names no "
                             "parameter of the model")
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
        probs = softmax_rows(dense_forward(global_features, *self.cls_head))
        embeddings = l2_normalize_rows(dense_forward(global_features, *self.prj_head))
        return ForwardOutputs(probs, embeddings)
