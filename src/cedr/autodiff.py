"""Minimal reverse-mode autodiff over a recorded computation graph.

Everything is float64 numpy. The graph has two kinds of node: a `Parameter`
owns a grad buffer, and every other `Tensor` owns none. `Tensor` is a node
only, with no operators or methods: each op is a function that builds one
node with one hand-written vjp, which maps the node's gradient to one
gradient per parent. The ops below are the dense layer, the per-point MLP
and max pool together (its backward runs on the critical points only), the
row softmax and the row l2-normalisation. The losses in `cedr.losses` build
their own one-node ops the same way.
"""

from __future__ import annotations

import numpy as np


class AutodiffError(RuntimeError):
    pass


class Tensor:
    """Node in the recorded graph; it owns no grad. `Tensor(x)`, with no
    inputs, is a constant leaf (inputs, stop-gradient weights). An op result
    has one `vjp` that maps its gradient to one gradient per input, in input
    order. An input with no parents and no grad is a constant: it and its
    gradient are dropped, so a result of constants alone is a constant."""

    __slots__ = ("values", "grad", "parents", "vjp", "op")

    def __init__(self, values, inputs=(), vjp=None, op="leaf"):
        self.values = np.asarray(values, dtype=np.float64)
        self.op = op
        self.grad = None
        keep = [bool(p.parents) or p.grad is not None for p in inputs]
        self.parents = tuple(p for p, k in zip(inputs, keep) if k)
        if self.parents and not all(keep):
            self.vjp = lambda g: [pg for pg, k in zip(vjp(g), keep) if k]
        else:
            self.vjp = vjp if self.parents else None

    @property
    def shape(self):
        return self.values.shape


class Parameter(Tensor):
    """Named trainable leaf: the one kind of node that owns a grad buffer."""

    __slots__ = ("name",)

    def __init__(self, values, name: str):
        super().__init__(values)
        self.grad = np.zeros_like(self.values)
        self.name = name


def _topo_order(root: Tensor) -> list[Tensor]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Backpropagate from a scalar loss, accumulating into the grads of the
    leaves that own one. A loss built only from constants reaches none."""
    if loss.values.size != 1:
        raise AutodiffError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.values):
        raise AutodiffError("backward called on a non-finite loss")
    order = _topo_order(loss)
    # intermediate grads live only in this side table
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise AutodiffError(f"non-finite gradient at op '{node.op}'")
        if node.grad is not None:
            node.grad += g.reshape(node.grad.shape)
        if not node.parents:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = np.asarray(pg, dtype=np.float64)


# -- composite ops ---------------------------------------------------------


def dense_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with b broadcast over rows, as one `dense` node whose bias is
    added in place into the matmul output."""
    xv, wv = x.values, w.values
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] \
            or b.shape != wv.shape[1:]:
        raise AutodiffError(f"dense shape mismatch: input {x.shape}, "
                            f"weight {w.shape}, bias {b.shape}")
    out = xv @ wv
    out += b.values
    return Tensor(out, (x, w, b),
                  lambda g: (g @ wv.T, xv.T @ g, g.sum(axis=0)), "dense")


def softmax_rows(x: Tensor) -> Tensor:
    """Row softmax as one node, shifted by the row max; the vjp is
    p * (g - sum_j g_j p_j)."""
    xv = x.values
    e = np.exp(xv - xv.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    return Tensor(p, (x,), lambda g: (p * (g - (g * p).sum(axis=1, keepdims=True)),),
                  "softmax")


def l2_normalize_rows(x: Tensor) -> Tensor:
    """y = x / |x| per row as one node; the vjp is (g - y (g . y)) / |x|."""
    xv = x.values
    sq = (xv * xv).sum(axis=1, keepdims=True)
    zero_rows = np.flatnonzero(sq.ravel() == 0.0)
    if zero_rows.size:
        raise AutodiffError(f"cannot l2-normalize all-zero row {zero_rows[0]}")
    norm = np.sqrt(sq)
    y = xv / norm
    return Tensor(y, (x,), lambda g: ((g - y * (g * y).sum(axis=1, keepdims=True))
                                      / norm,), "l2_normalize")


def pooled_point_mlp(points: np.ndarray, layers) -> Tensor:
    """relu(h @ w + b) for each `(w, b)` of `layers` over (batch, n_points,
    dim) clouds, then the max over each cloud's points, as one `point_mlp`
    node with a (batch, width) result; points are data and get no gradient.
    The backward runs on the critical points alone: each cloud's first
    maximum per feature."""
    batch, n_points, dim = points.shape
    acts = [points.reshape(batch * n_points, dim)]
    for w, b in layers:
        out = acts[-1] @ w.values
        out += b.values
        np.maximum(out, 0.0, out=out)
        acts.append(out)
    per_cloud = acts[-1].reshape(batch, n_points, acts[-1].shape[1])
    pooled = per_cloud.max(axis=1)

    def vjp(g):
        rows = np.argmax(per_cloud, axis=1) + n_points * np.arange(batch)[:, None]
        crit, inv = np.unique(rows, return_inverse=True)
        # each (cloud, feature) has its own (row, feature) slot
        gz = np.zeros((len(crit), pooled.shape[1]))
        gz[inv.reshape(rows.shape), np.arange(rows.shape[1])] = g * (pooled > 0)
        out = [None] * (2 * len(layers))
        for i in reversed(range(len(layers))):
            a = acts[i][crit]
            out[2 * i:2 * i + 2] = a.T @ gz, gz.sum(axis=0)
            if i:
                gz = (gz @ layers[i][0].values.T) * (a > 0)
        return out

    return Tensor(pooled, [p for layer in layers for p in layer], vjp, "point_mlp")
