import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cedr.autodiff import (
    AutodiffError,
    Parameter,
    Tensor,
    backward,
    dense_forward,
    l2_normalize_rows,
    pooled_point_mlp,
    softmax_rows,
)
from cedr.encoder import EncoderConfig, PointEncoder
from cedr.losses import (
    ContrastiveBatch,
    PairWeightMatrix,
    cross_entropy,
    joint_loss,
    supervised_infonce,
)

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
        out = model.encode(pts)
        roots = [weighted_sum(out.probs), weighted_sum(out.embeddings)]
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
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("hidden", [[8, 16], [8, 12, 16]])
    def test_matches_full_buffer_backward(self, seed, hidden):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((5, 20, 3))
        arrays = random_layers(rng, [3] + hidden)
        up = rng.standard_normal((5, hidden[-1]))
        layers = [(Parameter(w, f"w{k}"), Parameter(b, f"b{k}"))
                  for k, (w, b) in enumerate(arrays)]
        out = pooled_point_mlp(points, layers)
        backward(weighted_sum(out, up))
        expect = full_buffer_grads(points, arrays, up)
        for p, ref in zip([p for layer in layers for p in layer], expect):
            assert np.abs(p.grad - ref).max() <= 1e-12 * np.abs(ref).max(), p.name
        per_cloud = points.reshape(100, 3)
        for w, b in arrays:
            per_cloud = np.maximum(per_cloud @ w + b, 0.0)
        assert np.array_equal(out.values, per_cloud.reshape(5, 20, -1).max(axis=1))

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
        assert out.parents == trained
        backward(weighted_sum(out, up))
        expect = full_buffer_grads(points, arrays, up)[2 * (1 - constant):][:2]
        for p, ref in zip(trained, expect):
            assert np.abs(p.grad - ref).max() <= 1e-12 * np.abs(ref).max(), p.name


class TestTapeRule:
    """Constants, and nodes built from constants alone, stay off the tape."""

    def test_constants_never_hold_grads(self):
        c = Tensor([3.0, 4.0])
        # 2c - 1 = [5, 7], from constants alone
        folded = dense_forward(Tensor([c.values]), Tensor(2.0 * np.eye(2)),
                               Tensor([-1.0, -1.0]))
        # x * exp(folded) + c with one of x, w, b trained and the other two
        # constants, so the node keeps one of its three gradients
        x, w = np.array([[1.0, -2.0]]), np.diag(np.exp(folded.values[0]))
        g = np.ones((1, 2))
        for trained, expect in (("x", g @ w.T), ("w", x.T @ g), ("b", g.sum(axis=0))):
            p = Parameter({"x": x, "w": w, "b": c.values}[trained], trained)
            out = dense_forward(p if trained == "x" else Tensor(x),
                                p if trained == "w" else Tensor(w),
                                p if trained == "b" else c)
            assert out.parents == (p,)
            backward(weighted_sum(out))
            for node in (c, folded):
                assert node.grad is None and node.parents == ()
            assert np.allclose(p.grad, expect, rtol=1e-15), trained
            if trained == "x":
                assert np.allclose(p.grad, np.exp([[5.0, 7.0]]), rtol=1e-15)

    def test_loss_graph_reaches_only_leaves_with_grads(self):
        model = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]))
        rng = np.random.default_rng(6)
        labels = np.array([0, 0, 1, 1, 2])
        out = model.encode(rng.standard_normal((5, 7, 3)))
        weights = PairWeightMatrix(rng.uniform(0.5, 2.0, (5, 5)),
                                   rng.uniform(0.5, 2.0, (5, 5)))
        nce = supervised_infonce(ContrastiveBatch(out.embeddings, labels, 0.5),
                                 weights)
        loss = joint_loss(cross_entropy(out.probs, labels), nce, 1.0)
        seen, stack, leaves = set(), [loss], []
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node.parents)
                if not node.parents:
                    leaves.append(node)
        assert all(leaf.grad is not None for leaf in leaves)
        assert {id(leaf) for leaf in leaves} == {id(p) for p in model.params}

    def test_backward_through_constants_only_does_nothing(self):
        loss = weighted_sum(Tensor([1.0, 2.0]), 3.0)
        assert loss.parents == ()
        backward(loss)
        assert loss.grad is None


# Finite differences with eps 1e-5 carry about 1e-10 of rounding noise where
# the exact gradient is 0, hence the absolute tolerance of the node checks.
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
def test_l2_normalize_gradient_property(x, up):
    assume(np.linalg.norm(x, axis=1).min() > 0.1)
    leaf = Parameter(x, "x")
    backward(weighted_sum(l2_normalize_rows(leaf), up))
    fd = fd_gradient(
        lambda v: float(weighted_sum(l2_normalize_rows(Tensor(v)), up).values),
        x.copy())
    assert np.allclose(leaf.grad, fd, rtol=1e-4, atol=1e-8)
