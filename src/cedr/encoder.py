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
    def __init__(self, config: EncoderConfig, seed: int = 0,
                 state: dict[str, np.ndarray] | None = None):
        """He-initialised from `seed`, biases at zero; or, given `state` (say a
        checkpoint's tensors by name), built from those arrays with no draw,
        and `seed` is not read. Every array is checked first: a missing or
        unknown name, a wrong shape or a non-finite value raises ValueError."""
        self.config = config
        dims = [3] + list(config.hidden_dims)   # points are (x, y, z)
        d = config.hidden_dims[-1]   # width of the pooled feature and of the projection
        layers = [(f"point{i}", dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
        layers += [("cls", d, config.num_classes), ("prj", d, d)]
        shapes = {}
        for name, d_in, d_out in layers:
            shapes |= {f"{name}.w": (d_in, d_out), f"{name}.b": (d_out,)}
        if state is None:
            rng = np.random.default_rng(seed)
            state = {name: rng.standard_normal(shape) * np.sqrt(2.0 / shape[0])
                     if name.endswith(".w") else np.zeros(shape)
                     for name, shape in shapes.items()}
        for name, shape in shapes.items():
            if name not in state:
                raise ValueError(f"missing parameter '{name}'")
            if state[name].shape != shape:
                raise ValueError(f"parameter '{name}' has shape "
                                 f"{state[name].shape}, expected {shape}")
            if not np.all(np.isfinite(state[name])):
                raise ValueError(f"parameter '{name}' has non-finite values")
        unknown = sorted(state.keys() - shapes.keys())
        if unknown:
            raise ValueError(f"tensor '{unknown[0]}' names no parameter of the model")
        super().__init__([(name, state[name]) for name in shapes])
        pairs = list(zip(self.params[::2], self.params[1::2]))
        self.point_layers, (self.cls_head, self.prj_head) = pairs[:-2], pairs[-2:]

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
