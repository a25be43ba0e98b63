"""Minimal reverse-mode autodiff over a recorded computation graph.

Everything is float64 numpy. The graph has two kinds of node: a `Parameter`
owns a grad buffer, and every other `Tensor` owns none. `Tensor` is a node
only, with no operators or methods: each op is a function that builds one
node with one hand-written vjp, which maps the node's gradient to one
gradient per parent. Every input of an op is a parent, constants too; a
constant leaf is handed its gradient and drops it. A tape is used once:
`backward` takes each vjp off its node as it runs it, so the arrays it saved
(a b x b InfoNCE softmax, input points) go then. The ops below are the dense
layer, the per-point MLP and max pool together (built one chunk of clouds at a
time, its top layer laid out as (clouds, width, points); one argmax finds each
cloud's first maximum per feature, and the backward recomputes the lower layers
at those critical points only), the row softmax and the row l2-normalisation.
The losses in `cedr.losses` build their own one-node ops the same way.
"""

from __future__ import annotations

import numpy as np


class AutodiffError(RuntimeError):
    pass


class Tensor:
    """Node in the recorded graph; it owns no grad. `Tensor(x)`, with no
    inputs, is a constant leaf (inputs, stop-gradient weights). An op result
    keeps every input as a parent and has one `vjp` that maps its gradient
    to one gradient per input, in input order."""

    __slots__ = ("values", "grad", "parents", "vjp", "op")

    def __init__(self, values, inputs=(), vjp=None, op="leaf"):
        self.values = np.asarray(values, dtype=np.float64)
        self.op = op
        self.grad = None
        self.parents = tuple(inputs)
        self.vjp = vjp

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
    leaves that own one. A loss built only from constants reaches none. A node
    used by an earlier backward has no vjp: a RuntimeError names its op."""
    if loss.values.size != 1:
        raise AutodiffError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.values):
        raise AutodiffError("backward called on a non-finite loss")
    order = _topo_order(loss)
    # intermediate grads live only in this side table
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for node in reversed(order):
        g = grads.pop(id(node))
        if not np.isfinite(g).all():
            raise AutodiffError(f"non-finite gradient at op '{node.op}'")
        if node.grad is not None:
            node.grad += g.reshape(node.grad.shape)
        if not node.parents:
            continue
        vjp, node.vjp = node.vjp, None
        if vjp is None:
            raise RuntimeError(f"op '{node.op}' was already backpropagated; "
                               "a tape is used once")
        for parent, pg in zip(node.parents, vjp(g)):
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


# point rows (clouds x points) per chunk: the per-point MLP builds every layer
# one chunk of clouds at a time, for a training batch or an evaluation split.
# At width 128 a chunk of 1024 rows holds a 1 MiB top layer and 0.5 MiB of
# lower activations, which fit a 2 MiB L2 cache; in the sweep that CHANGES.md
# records, the lower layers and the argmax ran faster there than in the 8 and
# 4 MiB of an 8192-row chunk
CHUNK_ROWS = 1024


def chunk_bounds(n_clouds: int, n_points: int) -> list[int]:
    """Bounds of consecutive chunks of whole clouds, each of at most
    CHUNK_ROWS point rows but never fewer than 2 clouds: 4 clouds of 256
    points, 8 of 128 or 32 of 32 at the shipped shapes. With an odd
    `n_points` the step is an even count of clouds, so only the last chunk
    may hold an odd count of rows, as the whole batch may: under OpenBLAS's
    Haswell, Zen and Prescott kernels the last row of an odd-row product with
    8 or more inputs has other last bits. A trailing single cloud joins the
    chunk before it, which now matters only for one-point clouds: a one-row
    matmul takes another BLAS path."""
    step = max(2, CHUNK_ROWS // max(n_points, 1))
    step -= step % 2 * (n_points % 2)
    bounds = list(range(0, n_clouds, step)) + [n_clouds]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return bounds


def pooled_point_mlp(points: np.ndarray, layers) -> Tensor:
    """A shared per-point MLP over (batch, n_points, dim) clouds, then the max
    over each cloud's points, as one `point_mlp` node with a (batch, width)
    result; points are data and get no gradient. Each lower `(w, b)` of
    `layers` is relu(h @ w + b) per point. The first, on the points, is
    relu([x, 1] @ [[w], [b]]): the bias rides in the BLAS product as a last
    weight row, added in the accumulation with the bits of a separate `+= b`
    (for 3 coordinates, checked under OpenBLAS's Haswell, Katmai, SkylakeX
    and Sandybridge kernels) and without a pass over the output. A product
    of fewer than 2 rows or 2 columns takes BLAS's matrix-vector path, whose
    bits differ, so there it stays h @ w + b, as the deeper layers always
    do: their input is no data row, and a ones column would cost a copy.
    The top layer is a batched matmul laid out as (clouds, width, n_points),
    contiguous along the points, and numpy runs one BLAS product per cloud
    of it. Every layer is built over the chunks of `chunk_bounds`, one
    chunk's activations alive at a time, few enough to fit in cache
    (`CHUNK_ROWS`).
    The top layer is pooled before its bias and relu, relu(max_p (h @ w)_p + b),
    which gives the same bits because fl(x + b) and relu never decrease as x
    grows. One argmax over the points finds each (cloud, feature)'s critical
    point, the first point with the largest pre-bias value, and the max is
    read there. The backward runs on the critical points alone, or on row 0
    where relu zeroes the feature at every point (it carries no gradient).
    So where fl(h_p + b) ties for unequal h_p, the larger h_p gets the
    gradient. The node keeps no hidden activations: the backward recomputes
    the lower layers on the critical rows. The chunks and the recompute give
    the bits of one whole-batch forward wherever OpenBLAS gives a row the same
    bits in any product of two or more rows (3 inputs, or a width that is a
    multiple of 8; `chunk_bounds` tells of odd rows). With one point per
    cloud the batched matmul is a BLAS matrix-vector product per cloud, whose
    last bits may differ from those of one (batch, width) matrix product."""
    batch, n_points, dim = points.shape

    def lower(h, k):   # relu(h @ w + b) of lower layer k, forward and backward
        w, b = (p.values for p in layers[k])
        if k or min(len(h), w.shape[1]) < 2:
            out = h @ w
            out += b
        else:
            # [h, 1] @ [[w], [b]]: a ones column on the data rows, built per
            # chunk, so the node holds no new array
            h1 = np.ones((len(h), dim + 1))
            h1[:, :-1] = h
            out = h1 @ np.concatenate((w, b[None]))
        return np.maximum(out, 0.0, out=out)

    x = points.reshape(batch * n_points, dim)
    w_top, b_top = layers[-1]
    first = np.empty((batch, w_top.shape[1]), dtype=np.intp)
    top = np.empty(first.shape)
    bounds = chunk_bounds(batch, n_points)
    for lo, hi in zip(bounds, bounds[1:]):
        h = x[lo * n_points:hi * n_points]
        for k in range(len(layers) - 1):
            h = lower(h, k)
        per_cloud = np.matmul(w_top.values.T,
                              h.reshape(hi - lo, n_points, -1).transpose(0, 2, 1))
        per_cloud.argmax(axis=2, out=first[lo:hi])
        top[lo:hi] = np.take_along_axis(per_cloud, first[lo:hi, :, None], 2)[..., 0]
        # one chunk's buffers at a time
        del h, per_cloud
    pooled = np.maximum(top + b_top.values, 0.0)

    def vjp(g):
        rows = first * (pooled > 0)
        rows += n_points * np.arange(batch)[:, None]
        # the sorted critical rows, and each (cloud, feature)'s index into them
        flag = np.zeros(batch * n_points, dtype=bool)
        flag[rows] = True
        crit = np.flatnonzero(flag)
        inv = np.cumsum(flag)[rows] - 1
        # each layer's input at the critical rows, recomputed from the points
        ins = [x[crit]]
        for k in range(len(layers) - 1):
            ins.append(lower(ins[-1], k))
        # each (cloud, feature) has its own (row, feature) slot
        gz = np.zeros((len(crit), pooled.shape[1]))
        g_top = g * (pooled > 0)
        gz[inv, np.arange(rows.shape[1])] = g_top
        # the top bias gradient sums g_top over the clouds: the scatter's
        # nonzero terms in the same order, so the same bits up to signed zeros
        out = [None] * (2 * len(layers))
        out[-1] = g_top.sum(axis=0)
        for i in reversed(range(len(layers))):
            a = ins.pop()
            out[2 * i] = a.T @ gz
            if i:
                # the relu mask, then the product masked in place: the
                # activations and a masked copy are not held beside it
                alive = a > 0
                del a
                gz = gz @ layers[i][0].values.T
                gz *= alive
                out[2 * i - 1] = gz.sum(axis=0)
        return out

    return Tensor(pooled, [p for layer in layers for p in layer], vjp, "point_mlp")
