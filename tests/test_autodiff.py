import tracemalloc
import weakref
from inspect import getclosurevars

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cedr.autodiff import (
    AutodiffError,
    Parameter,
    Tensor,
    backward,
    chunk_bounds,
    dense_forward,
    l2_normalize_rows,
    pooled_point_mlp,
    softmax_rows,
)
from cedr.config import ARMS, ExperimentConfig
from cedr.encoder import EncoderConfig, PointEncoder
from cedr.losses import (
    ContrastiveBatch,
    cross_entropy,
    joint_loss,
    supervised_infonce,
)
from cedr.train import batch_weights

from conftest import fd_gradient, max_rel_err, weighted_sum


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestDense:
    def test_identity(self):
        out = dense_forward(Tensor(np.eye(2)), Tensor(np.eye(2)),
                            Tensor(np.zeros(2)))
        assert np.array_equal(out.values, np.eye(2))

    def test_zero_input_gives_bias_rows(self):
        w = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        b = Tensor([1.0, -2.0, 0.5])
        out = dense_forward(Tensor(np.zeros((5, 4))), w, b)
        assert np.allclose(out.values, np.tile(b.values, (5, 1)))

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)
        out = dense_forward(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(out.values, naive_matmul(x, w) + b, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AutodiffError, match=r"\(2, 3\)"):
            dense_forward(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))),
                          Tensor(np.zeros(2)))

    @pytest.mark.parametrize("x_shape, b_shape, named", [
        ((2, 5, 3), (2,), r"input \(2, 5, 3\)"),  # `@` would batch over axis 0
        ((2, 3), (1,), r"bias \(1,\)"),           # `+=` would broadcast it
    ])
    def test_operand_that_would_broadcast_rejected(self, x_shape, b_shape, named):
        with pytest.raises(AutodiffError, match=named):
            dense_forward(Tensor(np.zeros(x_shape)), Tensor(np.zeros((3, 2))),
                          Tensor(np.zeros(b_shape)))


class TestElementwise:
    def test_l2_normalize_345(self):
        out = l2_normalize_rows(Tensor([[3.0, 4.0]]))
        assert np.allclose(out.values, [[0.6, 0.8]], atol=1e-15)

    def test_l2_normalize_zero_row_names_index(self):
        with pytest.raises(AutodiffError, match="row 1"):
            l2_normalize_rows(Tensor([[1.0, 0.0], [0.0, 0.0]]))

    def test_softmax_uniform(self):
        out = softmax_rows(Tensor([[0.0, 0.0, 0.0, 0.0]]))
        assert np.allclose(out.values, 0.25)

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(2).standard_normal((6, 5)) * 10
        out = softmax_rows(Tensor(x))
        assert np.allclose(out.values.sum(axis=1), 1.0, atol=1e-12)

    def test_relu_clamps(self):
        out = pooled_point_mlp(np.array([[[-1.0, 0.0, 2.0]]]),
                               [(Tensor(np.eye(3)), Tensor(np.zeros(3)))])
        assert np.array_equal(out.values, [[0.0, 0.0, 2.0]])

    def test_max_pool_singleton(self):
        # the pool over one point passes the relu'd layer through
        x = np.random.default_rng(3).standard_normal((2, 5))
        out = pooled_point_mlp(x[:, None, :],
                               [(Tensor(np.eye(5)), Tensor(np.zeros(5)))])
        assert np.array_equal(out.values, np.maximum(x, 0.0))


class TestBackward:
    def test_sum_gives_ones(self):
        p = Parameter(np.random.default_rng(0).standard_normal((3, 4)), "p")
        backward(weighted_sum(p))
        assert np.array_equal(p.grad, np.ones((3, 4)))

    def test_quadratic_gives_param(self):
        # 0.5 * sum(w * w) with w as both inputs: both gradients reach w
        w = Parameter(np.random.default_rng(1).standard_normal((4, 3)), "w")
        half = 0.5 * w.values
        square = Tensor((w.values * w.values).sum() * 0.5, (w, w),
                        lambda g: (g * half, g * half), "square")
        backward(square)
        assert np.allclose(w.grad, w.values, atol=1e-12)

    def test_grad_accumulates_across_calls(self):
        p = Parameter(np.ones(3), "p")
        backward(weighted_sum(p))
        backward(weighted_sum(p))
        assert np.array_equal(p.grad, 2 * np.ones(3))

    def test_nonscalar_loss_rejected(self):
        with pytest.raises(AutodiffError, match="scalar"):
            backward(Tensor(np.zeros(3)))

    def test_nan_loss_rejected(self):
        with pytest.raises(AutodiffError, match="non-finite"):
            backward(Tensor(np.nan))

    # The node gives the points no gradient. Each point here carries a one-hot
    # row tag that an identity-on-features `w` ignores, so `w.grad`'s tag rows
    # hold the gradient that reached each point's row.

    def test_max_pool_tie_routes_to_first_maximum(self):
        h = np.array([[1.0, 5.0], [3.0, 5.0], [3.0, 2.0]])
        w = Parameter(np.vstack([np.eye(2), np.zeros((3, 2))]), "w")
        out = pooled_point_mlp(np.hstack([h, np.eye(3)])[None],
                               [(w, Tensor(np.zeros(2)))])
        backward(weighted_sum(out, [[1.0, 2.0]]))
        assert np.array_equal(w.grad[2:], [[0.0, 2.0], [1.0, 0.0], [0.0, 0.0]])

    def test_max_pool_ties_route_to_each_clouds_first_maximum(self):
        # two clouds of three points, each with a tie in both units; the bias
        # lifts unit 1 above the relu in the second cloud
        h = np.array([[1.0, 5.0], [3.0, 5.0], [3.0, 2.0],
                      [4.0, 0.0], [4.0, 0.0], [2.0, 0.0]])
        w = Parameter(np.vstack([np.eye(2), np.zeros((6, 2))]), "w")
        b = Tensor([0.0, 1.0])
        out = pooled_point_mlp(np.hstack([h, np.eye(6)]).reshape(2, 3, 8),
                               [(w, b)])
        assert np.array_equal(out.values, [[3.0, 5.0], [4.0, 0.0]] + b.values)
        backward(weighted_sum(out, [[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(w.grad[2:], [[0.0, 2.0], [1.0, 0.0], [0.0, 0.0],
                                           [3.0, 4.0], [0.0, 0.0], [0.0, 0.0]])

    def test_unit_negative_at_every_point_gets_zero_gradient(self):
        # relu makes unit 1 zero at every point; the pool routes its gradient
        # to the first point, where the relu mask stops it
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, 3))
        w = Parameter(rng.standard_normal((3, 5)), "w")
        # unit 1 is negative at every point, the others positive
        b = Parameter(np.array([100.0, -100.0, 100.0, 100.0, 100.0]), "b")
        pooled = pooled_point_mlp(x, [(w, b)])
        assert np.array_equal(pooled.values[:, 1], np.zeros(2))
        backward(weighted_sum(pooled, rng.standard_normal((2, 5))))
        assert np.array_equal(w.grad[:, 1], np.zeros(3))
        assert b.grad[1] == 0.0
        assert np.all(b.grad[[0, 2, 3, 4]] != 0.0)

    def test_relu_gradient_is_zero_at_signed_zeros(self):
        # four one-point clouds whose hidden unit is relu(x) for x in
        # (0, -0, -1, 1e-300); the top layer adds 1, so it passes every g
        x = np.array([0.0, -0.0, -1.0, 1e-300])[:, None, None]
        w0, b0 = Parameter([[1.0]], "w0"), Parameter([-0.0], "b0")
        out = pooled_point_mlp(x, [(w0, b0), (Tensor([[1.0]]), Tensor([1.0]))])
        backward(weighted_sum(out))
        # only the 1e-300 point passes the hidden relu
        assert b0.grad[0] == 1.0 and w0.grad[0, 0] == 1e-300

    def test_only_leaves_hold_grads(self):
        model = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]))
        pts = np.random.default_rng(5).standard_normal((2, 5, 3))
        # a tape is used once: one forward per root
        roots = [weighted_sum(getattr(model.encode(pts), head))
                 for head in ("probs", "embeddings")]
        for root in roots:
            backward(root)
        seen, stack, inner = set(), list(roots), 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.parents)
            if node.parents:
                inner += 1
                assert node.grad is None, node.op
        assert inner > 0
        for p in model.params:
            assert p.grad.shape == p.values.shape, p.name

    def test_backward_frees_every_vjp(self):
        # each node's vjp, and the arrays its closure saved, go once backward
        # has run it; the nodes keep their values and parents
        model = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]))
        out = model.encode(np.random.default_rng(5).standard_normal((2, 5, 3)))
        root = weighted_sum(out.probs)
        mlp = out.probs.parents[0].parents[0]
        assert mlp.op == "point_mlp"
        closure = weakref.ref(mlp.vjp)
        saved = weakref.ref(getclosurevars(mlp.vjp).nonlocals["first"])
        backward(root)
        assert closure() is None and saved() is None
        assert root.vjp is out.probs.vjp is mlp.vjp is None
        assert mlp.values.shape == (2, 6) and len(mlp.parents) == 4

    def test_second_backward_names_the_op(self):
        p = Parameter(np.ones(3), "p")
        loss = weighted_sum(p)
        backward(loss)
        with pytest.raises(RuntimeError, match="op 'weighted_sum' was already "
                           "backpropagated; a tape is used once") as info:
            backward(loss)
        # a program defect, not a numeric failure
        assert not isinstance(info.value, AutodiffError)
        assert np.array_equal(p.grad, np.ones(3))

    def test_second_root_through_a_consumed_node_names_it(self):
        # the two heads share the point MLP; the first root consumes it
        model = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]))
        out = model.encode(np.random.default_rng(5).standard_normal((2, 5, 3)))
        backward(weighted_sum(out.probs))
        with pytest.raises(RuntimeError, match="op 'point_mlp' was already "
                           "backpropagated") as info:
            backward(weighted_sum(out.embeddings))
        assert not isinstance(info.value, AutodiffError)

    def test_composed_loss_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 2, 4))
        w1 = rng.standard_normal((4, 5))
        b1 = rng.standard_normal(5)
        w2 = rng.standard_normal((5, 3))

        def loss_of(w1):
            # every node of the training loss: per-point MLP and pool, dense,
            # l2-normalize, softmax, cross-entropy, InfoNCE, joint
            pooled = pooled_point_mlp(x, [(w1, Tensor(b1))])
            z = l2_normalize_rows(dense_forward(pooled, Tensor(w2),
                                                Tensor(np.zeros(3))))
            ce = cross_entropy(softmax_rows(z), np.array([0, 1, 2]))
            nce = supervised_infonce(ContrastiveBatch(z, np.array([0, 0, 1])))
            return joint_loss(ce, nce, 0.5)

        w1p = Parameter(w1, "w1")
        backward(loss_of(w1p))

        fd = fd_gradient(lambda v: float(loss_of(Tensor(v)).values), w1.copy())
        assert max_rel_err(w1p.grad, fd) < 1e-4


def full_buffer_grads(points, layers, g):
    """Plain-numpy reference: each layer's (w-grad, b-grad) from the backward
    over the whole (batch * n_points, width) buffer, with the pool's gradient
    at each cloud's first maximum and the relu masks on every row."""
    batch, n_points, dim = points.shape
    acts = [points.reshape(batch * n_points, dim)]
    for w, b in layers:
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    per_cloud = acts[-1].reshape(batch, n_points, -1)
    full = np.zeros(per_cloud.shape)
    np.put_along_axis(full, np.argmax(per_cloud, axis=1)[:, None, :],
                      g[:, None, :], axis=1)
    gh, grads = full.reshape(batch * n_points, -1), []
    for i in reversed(range(len(layers))):
        gz = gh * (acts[i + 1] > 0)
        grads[:0] = [acts[i].T @ gz, gz.sum(axis=0)]
        gh = gz @ layers[i][0].T
    return grads


def random_layers(rng, dims):
    """He-initialised (w, b) arrays, with small random biases."""
    return [(rng.standard_normal((a, b)) * np.sqrt(2.0 / a),
             rng.standard_normal(b) * 0.1) for a, b in zip(dims[:-1], dims[1:])]


class TestPooledPointMLP:
    # the dead cases give every third top unit a bias of -1000, so relu zeroes
    # it at every point of every cloud (after a first width of 1 a top unit
    # can exceed 10); the row budgets give chunks of 20 and 15 rows and of 8
    # rows, the 1x1 case a one-row first layer; the first widths include 1,
    # a one-column first layer
    @pytest.mark.parametrize("seed, dead, shape, rows", [
        (0, False, (5, 20), 1024), (1, False, (5, 20), 1024),
        (2, False, (5, 20), 1024), (0, True, (5, 20), 1024),
        (1, True, (5, 20), 1024), (2, True, (5, 20), 1024),
        (3, False, (1, 5), 1024), (4, False, (3, 1), 1024),
        (3, True, (1, 5), 1024), (4, True, (3, 1), 1024),
        (5, False, (7, 5), 20), (6, False, (6, 4), 8), (7, False, (1, 1), 1024)],
        ids=["0", "1", "2", "0-dead", "1-dead", "2-dead",
             "1x5", "3x1", "1x5-dead", "3x1-dead", "20+15", "8+8+8", "1x1"])
    @pytest.mark.parametrize("hidden", [[8, 16], [8, 12, 16], [1, 16], [2, 16],
                                        [7, 16], [12, 16], [64, 16]])
    def test_matches_full_buffer_backward(self, chunk_rows, seed, dead, shape,
                                          rows, hidden):
        chunk_rows(rows)
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((*shape, 3))
        arrays = random_layers(rng, [3] + hidden)
        up = rng.standard_normal((shape[0], hidden[-1]))
        cols = np.arange(0, hidden[-1], 3) if dead else []
        arrays[-1][1][cols] = -1000.0
        layers = [(Parameter(w, f"w{k}"), Parameter(b, f"b{k}"))
                  for k, (w, b) in enumerate(arrays)]
        out = pooled_point_mlp(points, layers)
        backward(weighted_sum(out, up))
        expect = full_buffer_grads(points, arrays, up)
        for p, ref in zip([p for layer in layers for p in layer], expect):
            assert np.abs(p.grad - ref).max() <= 1e-12 * np.abs(ref).max(), p.name
        # the bits of the formula with the node's product shapes
        assert np.array_equal(out.values, top_layer_formula(points, arrays)[0])
        # a 2-D top product takes other BLAS paths (a remainder row, or a
        # matrix-vector product per one-point cloud), within the rounding
        # bound of a dot product of length 16 on the live units (the dead
        # ones are 0 on both sides)
        h = points.reshape(-1, 3)
        for w, b in arrays[:-1]:
            h = np.maximum(h @ w + b, 0.0)
        w, b = arrays[-1]
        full = np.maximum((h @ w + b).reshape(*shape, -1).max(axis=1), 0.0)
        live = np.delete(np.arange(hidden[-1]), cols)
        bound = 16 * np.finfo(float).eps * (
            np.abs(h) @ np.abs(w) + np.abs(b))[:, live].max()
        assert np.abs(out.values - full).max() <= bound
        assert not out.values[:, cols].any() and not layers[-1][1].grad[cols].any()
        # the recompute of the first layer's [x, 1] @ [[w0], [b0]] on the
        # critical rows has the forward's bits; a deeper layer of 8 inputs
        # may not, on an odd count of rows under some kernels (`chunk_bounds`)
        if len(hidden) == 2:
            for p, ref in zip([p for layer in layers for p in layer],
                              stored_rows_grads(points, arrays, up)):
                assert p.grad.tobytes() == ref.tobytes(), p.name

    # exact ties: every cloud holds its first three points twice
    @pytest.mark.parametrize("shape, case", [((1, 7), ""), ((1, 1), ""),
                                             ((3, 6), "ties"), ((3, 6), "dead"),
                                             ((4, 1), "")],
                             ids=["1x7", "1x1", "ties", "dead", "4x1"])
    def test_forward_matches_point_major_formula(self, shape, case):
        """The (batch, width, n_points) top layer gives the bits of the
        (batch * n_points, width) one, relu(max_p (h @ w)_p + b), and so do
        the probabilities computed from it. For one-point clouds in a batch
        the top layer is a BLAS matrix-vector product per cloud, not one
        matrix product, and it may differ in the last bits; it stays within
        the rounding bound of a dot product of length 16."""
        rng = np.random.default_rng(5)
        batch, n_points = shape
        points = rng.standard_normal((batch, n_points, 3))
        if case == "ties":
            points[:, 3:] = points[:, :3]
        model = PointEncoder(EncoderConfig(num_classes=4, hidden_dims=[8, 16]), seed=3)
        w, b = model.point_layers[-1]
        if case == "dead":
            b.values[::3] = -10.0
        h = points.reshape(batch * n_points, 3)
        for lw, lb in model.point_layers[:-1]:
            h = np.maximum(h @ lw.values + lb.values, 0.0)
        expect = np.maximum((h @ w.values).reshape(batch, n_points, -1).max(axis=1)
                            + b.values, 0.0)
        pooled = pooled_point_mlp(points, model.point_layers).values
        probs = softmax_rows(dense_forward(Tensor(expect), *model.cls_head)).values
        got = model.encode(points).probs.values
        if batch > 1 and n_points == 1:
            bound = 16 * np.finfo(float).eps * (np.abs(h) @ np.abs(w.values)).max()
            assert np.abs(pooled - expect).max() <= bound
            assert np.allclose(got, probs, rtol=1e-13, atol=0.0)
        else:
            assert np.array_equal(pooled, expect)
            assert np.array_equal(got, probs)
        if case == "dead":
            assert not pooled[:, ::3].any()

    def test_tie_after_the_bias_routes_to_the_larger_pre_bias_value(self):
        # hidden values 0.5 and 1.0 both give 1e16 after the top bias; the
        # gradient follows the larger pre-bias value, the second point
        points = np.array([[[0.5, 0.0, 0.0], [1.0, 0.0, 0.0]]])
        w1, b1 = Parameter([[1.0], [0.0], [0.0]], "w1"), Parameter([0.0], "b1")
        w2, b2 = Parameter([[1.0]], "w2"), Parameter([1e16], "b2")
        out = pooled_point_mlp(points, [(w1, b1), (w2, b2)])
        assert np.array_equal(out.values, [[1e16]])
        backward(weighted_sum(out))
        assert np.array_equal(w2.grad, [[1.0]]) and w1.grad[0] == 1.0

    def test_matches_finite_differences_with_ties(self):
        rng = np.random.default_rng(7)
        # each cloud holds every point twice, so every feature ties
        half = rng.standard_normal((3, 4, 3))
        points = np.concatenate([half, half], axis=1)
        arrays = [a for layer in random_layers(rng, [3, 6, 5]) for a in layer]
        arrays[1][1] = -100.0  # hidden unit 1 is negative at every point
        arrays[3][2] = -100.0  # and so is top unit 2
        up = rng.standard_normal((3, 5))

        def value(k, v):
            held = [Tensor(v if j == k else a) for j, a in enumerate(arrays)]
            out = pooled_point_mlp(points, [held[:2], held[2:]])
            return float(weighted_sum(out, up).values)

        params = [Parameter(a, f"p{k}") for k, a in enumerate(arrays)]
        backward(weighted_sum(pooled_point_mlp(points, [params[:2], params[2:]]), up))
        for k, p in enumerate(params):
            fd = fd_gradient(lambda v: value(k, v), arrays[k].copy())
            assert max_rel_err(p.grad, fd) < 1e-6, k
        w0, b0, w1, b1 = (p.grad for p in params)
        assert not w0[:, 1].any() and b0[1] == 0.0 and not w1[1].any()
        assert not w1[:, 2].any() and b1[2] == 0.0

    # the pairs_wide shape, and two lower layers whose widths are multiples of 8
    @pytest.mark.parametrize("batch, n_points, dims", [
        (512, 32, [3, 32, 64]), (48, 40, [3, 16, 32, 24]), (6, 5, [3, 8, 12])])
    def test_recomputed_rows_give_the_stored_rows_bits(self, batch, n_points, dims):
        """The backward recomputes the lower layers on the critical rows; its
        gradients have the bits of the vjp that gathered them from the
        forward's own activations."""
        rng = np.random.default_rng(batch)
        points = rng.standard_normal((batch, n_points, 3))
        arrays = random_layers(rng, dims)
        up = rng.standard_normal((batch, dims[-1]))
        layers = [(Parameter(w, f"w{k}"), Parameter(b, f"b{k}"))
                  for k, (w, b) in enumerate(arrays)]
        backward(weighted_sum(pooled_point_mlp(points, layers), up))
        expect = stored_rows_grads(points, arrays, up)
        for p, ref in zip([p for layer in layers for p in layer], expect):
            assert p.grad.tobytes() == ref.tobytes(), p.name

    @pytest.mark.parametrize("constant", [0, 1])
    def test_constant_layer_gets_no_edge(self, constant):
        rng = np.random.default_rng(9)
        points = rng.standard_normal((4, 10, 3))
        arrays = random_layers(rng, [3, 8, 6])
        up = rng.standard_normal((4, 6))
        layers = [(Parameter(w, f"w{k}"), Parameter(b, f"b{k}"))
                  for k, (w, b) in enumerate(arrays)]
        layers[constant] = tuple(Tensor(a) for a in arrays[constant])
        out = pooled_point_mlp(points, layers)
        trained = layers[1 - constant]
        backward(weighted_sum(out, up))
        expect = full_buffer_grads(points, arrays, up)[2 * (1 - constant):][:2]
        for p, ref in zip(trained, expect):
            assert np.abs(p.grad - ref).max() <= 1e-12 * np.abs(ref).max(), p.name


def stored_rows_grads(points, arrays, up):
    """The point-MLP vjp as it ran when the node kept the forward's hidden
    activations: the same products, on critical rows gathered from them."""
    batch, n_points, dim = points.shape
    acts = [points.reshape(batch * n_points, dim)]
    for w, b in arrays[:-1]:
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    pooled, first = top_layer_formula(points, arrays)
    rows = first * (pooled > 0) + n_points * np.arange(batch)[:, None]
    crit, inv = np.unique(rows, return_inverse=True)
    gz = np.zeros((len(crit), pooled.shape[1]))
    g_top = up * (pooled > 0)
    gz[inv.reshape(rows.shape), np.arange(rows.shape[1])] = g_top
    grads = [g_top.sum(axis=0)]
    for i in reversed(range(len(arrays))):
        a = acts[i][crit]
        grads.insert(0, a.T @ gz)
        if i:
            gz = (gz @ arrays[i][0].T) * (a > 0)
            grads.insert(0, gz.sum(axis=0))
    return grads


def top_layer_formula(points, arrays):
    """Plain-numpy pooled output and critical points of `pooled_point_mlp`
    with the whole batch's top layer as one batched matmul."""
    batch, n_points, dim = points.shape
    h = points.reshape(batch * n_points, dim)
    for w, b in arrays[:-1]:
        h = np.maximum(h @ w + b, 0.0)
    w, b = arrays[-1]
    per_cloud = np.matmul(w.T, h.reshape(batch, n_points, -1).transpose(0, 2, 1))
    first = per_cloud.argmax(axis=2)
    top = np.take_along_axis(per_cloud, first[..., None], 2)[..., 0]
    return np.maximum(top + b, 0.0), first


class TestChunkedTopLayer:
    # (clouds, points, budget in clouds): chunks that straddle the batch's
    # end, a trailing single cloud that joins the chunk before it, one-point
    # clouds, a budget under 2 clouds, and odd budgets of odd-row clouds
    @pytest.mark.parametrize("batch, n_points, clouds", [
        (10, 6, 3), (7, 6, 3), (13, 5, 4), (9, 1, 2), (6, 1, 3), (5, 8, 1),
        (11, 5, 3)])
    @pytest.mark.parametrize("dead", [False, True], ids=["live", "dead"])
    def test_chunks_give_the_bits_of_one_matmul(self, chunk_rows, batch,
                                                n_points, clouds, dead):
        rng = np.random.default_rng(batch * 10 + n_points)
        points = rng.standard_normal((batch, n_points, 3))
        arrays = random_layers(rng, [3, 8, 12, 16])
        if dead:
            # relu zeroes every third top unit at every point of every cloud
            arrays[-1][1][::3] = -10.0
        up = rng.standard_normal((batch, 16))

        def run():
            layers = [(Parameter(w, f"w{k}"), Parameter(b, f"b{k}"))
                      for k, (w, b) in enumerate(arrays)]
            out = pooled_point_mlp(points, layers)
            # backward takes the vjp, and its closure, off the node
            first = getclosurevars(out.vjp).nonlocals["first"]
            backward(weighted_sum(out, up))
            return out.values, first, [p.grad for layer in layers for p in layer]

        whole_values, whole_first, whole_grads = run()
        assert len(chunk_bounds(batch, n_points)) == 2
        chunk_rows(clouds * n_points)
        bounds = chunk_bounds(batch, n_points)
        assert len(bounds) > 2 and min(np.diff(bounds)) >= 2
        assert not (np.diff(bounds)[:-1] * n_points % 2).any()
        values, first, grads = run()
        expect, expect_first = top_layer_formula(points, arrays)
        assert np.array_equal(values, expect)
        assert np.array_equal(whole_values, expect)
        assert np.array_equal(first, expect_first)
        assert np.array_equal(whole_first, expect_first)
        for got, ref in zip(grads, whole_grads):
            assert got.tobytes() == ref.tobytes()
        if dead:
            assert not values[:, ::3].any() and not grads[-1][::3].any()

    @pytest.mark.parametrize("n_clouds, n_points, rows, bounds", [
        (10, 6, 18, [0, 3, 6, 10]), (7, 6, 18, [0, 3, 7]),
        (5, 8, 8, [0, 2, 5]), (1, 4, 4, [0, 1]), (3, 4, 1000, [0, 3]),
        # an odd cloud step of odd-row clouds rounds down to an even one
        (10, 5, 15, [0, 2, 4, 6, 8, 10]), (7, 1, 3, [0, 2, 4, 7]),
        (9, 5, 20, [0, 4, 9]), (8, 33, 99, [0, 2, 4, 6, 8])])
    def test_chunk_bounds(self, chunk_rows, n_clouds, n_points, rows, bounds):
        chunk_rows(rows)
        assert chunk_bounds(n_clouds, n_points) == bounds

    def test_top_layer_holds_one_chunk_at_a_time(self, chunk_rows):
        rng = np.random.default_rng(0)
        batch, n_points, dims = 32, 128, [3, 16, 64]
        points = rng.standard_normal((batch, n_points, 3))
        layers = [(Parameter(w, f"w{k}"), Parameter(b, f"b{k}"))
                  for k, (w, b) in enumerate(random_layers(rng, dims))]
        chunk_rows(4 * n_points)
        # float64 bytes of one chunk's (clouds, width, points) top layer, of
        # the whole batch's, and of one chunk's lower activations
        chunk = 4 * dims[-1] * n_points * 8
        whole = batch * dims[-1] * n_points * 8
        lower = 4 * n_points * dims[1] * 8
        tracemalloc.start()
        try:
            out = pooled_point_mlp(points, layers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (batch, dims[-1])
        assert peak < 1.5 * (chunk + lower) < whole / 4


class TestTapeRule:
    """Constants, and nodes built from constants alone, never hold grads."""

    def test_constants_never_hold_grads(self):
        c = Tensor([3.0, 4.0])
        # 2c - 1 = [5, 7], from constants alone
        folded = dense_forward(Tensor([c.values]), Tensor(2.0 * np.eye(2)),
                               Tensor([-1.0, -1.0]))
        # x * exp(folded) + c with one of x, w, b trained and the other two
        # constants, so one of the node's three gradients lands in a grad
        x, w = np.array([[1.0, -2.0]]), np.diag(np.exp(folded.values[0]))
        g = np.ones((1, 2))
        for trained, expect in (("x", g @ w.T), ("w", x.T @ g), ("b", g.sum(axis=0))):
            p = Parameter({"x": x, "w": w, "b": c.values}[trained], trained)
            out = dense_forward(p if trained == "x" else Tensor(x),
                                p if trained == "w" else Tensor(w),
                                p if trained == "b" else c)
            backward(weighted_sum(out))
            for node in (c, folded):
                assert node.grad is None
            assert np.allclose(p.grad, expect, rtol=1e-15), trained
            if trained == "x":
                assert np.allclose(p.grad, np.exp([[5.0, 7.0]]), rtol=1e-15)

    @pytest.mark.parametrize("arm", ARMS)
    def test_loss_graph_reaches_only_leaves_with_grads(self, arm):
        # one training step's graph, built as train() builds it: no constant
        # reaches it, so keeping every input on the tape costs training nothing
        model = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]))
        rng = np.random.default_rng(6)
        labels = np.array([0, 0, 1, 1, 2])
        out = model.encode(rng.standard_normal((5, 7, 3)))
        loss = cross_entropy(out.probs, labels)
        if arm != "ce_only":
            weights = batch_weights(ExperimentConfig(arm=arm), out.probs.values,
                                    out.embeddings.values, labels)
            nce = supervised_infonce(
                ContrastiveBatch(out.embeddings, labels, 0.5), weights)
            loss = joint_loss(loss, nce, 1.0)
        seen, stack, leaves = set(), [loss], []
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node.parents)
                if not node.parents:
                    leaves.append(node)
        assert all(leaf.grad is not None for leaf in leaves)
        # ce alone does not reach the projection head
        reached = [p for p in model.params
                   if arm != "ce_only" or not p.name.startswith("prj.")]
        assert {id(leaf) for leaf in leaves} == {id(p) for p in reached}

    def test_backward_through_constants_only_does_nothing(self):
        loss = weighted_sum(Tensor([1.0, 2.0]), 3.0)
        backward(loss)
        assert loss.grad is None


# Where the exact gradient is 0, the node checks see fd_gradient's error
# alone, hence their absolute tolerance. Its rounding is about 3 machine
# epsilons times |f| / eps, some 1e-10 here. A plain central difference
# also truncates at eps^2 f''' / 6, and l2-normalize's f''' grows as
# 1 / |row|^3: at rows of norm 0.125 (its example below) that was 3.8e-8,
# above the tolerance. The extrapolated difference truncates at order
# eps^4 f^(5), below the rounding at row norms above 0.1 (2.2e-10 in all at
# the example). Softmax's derivatives are bounded over all inputs, so its
# truncation does not grow anywhere in its +-50 range.
@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-50, 50)),
       arrays(np.float64, (3, 4), elements=st.floats(-1, 1)))
def test_softmax_gradient_property(x, up):
    leaf = Parameter(x, "x")
    backward(weighted_sum(softmax_rows(leaf), up))
    fd = fd_gradient(lambda v: float(weighted_sum(softmax_rows(Tensor(v)), up).values),
                     x.copy())
    assert np.allclose(leaf.grad, fd, rtol=1e-4, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-3, 3)),
       arrays(np.float64, (3, 4), elements=st.floats(-1, 1)))
@example(x=np.full((3, 4), 0.0625), up=np.ones((3, 4)))
def test_l2_normalize_gradient_property(x, up):
    assume(np.linalg.norm(x, axis=1).min() > 0.1)
    leaf = Parameter(x, "x")
    backward(weighted_sum(l2_normalize_rows(leaf), up))
    fd = fd_gradient(
        lambda v: float(weighted_sum(l2_normalize_rows(Tensor(v)), up).values),
        x.copy())
    assert np.allclose(leaf.grad, fd, rtol=1e-4, atol=1e-8)
