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
    max_pool_points,
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

    def test_fused_relu_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        xv = rng.standard_normal((6, 4))
        wv = rng.standard_normal((4, 3))
        bv = rng.standard_normal(3)
        bv[1] = -100.0  # unit 1 is negative on every row
        up = rng.standard_normal((6, 3))

        def value(xa, wa, ba):
            out = dense_forward(Tensor(xa), Tensor(wa), Tensor(ba), relu=True)
            return float(weighted_sum(out, up).values)

        x, w, b = Parameter(xv, "x"), Parameter(wv, "w"), Parameter(bv, "b")
        backward(weighted_sum(dense_forward(x, w, b, relu=True), up))
        assert max_rel_err(x.grad, fd_gradient(lambda v: value(v, wv, bv),
                                                xv.copy())) < 1e-6
        assert max_rel_err(w.grad, fd_gradient(lambda v: value(xv, v, bv),
                                                wv.copy())) < 1e-6
        assert max_rel_err(b.grad, fd_gradient(lambda v: value(xv, wv, v),
                                                bv.copy())) < 1e-6
        assert np.array_equal(w.grad[:, 1], np.zeros(4))
        assert b.grad[1] == 0.0


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
        out = dense_forward(Tensor([[-1.0, 0.0, 2.0]]), Tensor(np.eye(3)),
                            Tensor(np.zeros(3)), relu=True)
        assert np.array_equal(out.values, [[0.0, 0.0, 2.0]])

    def test_max_pool_singleton(self):
        x = np.random.default_rng(3).standard_normal((2, 5))
        out = max_pool_points(Tensor(x), 1)
        assert np.array_equal(out.values, x)


class TestBackward:
    def test_sum_gives_ones(self):
        p = Parameter(np.random.default_rng(0).standard_normal((3, 4)), "p")
        backward(weighted_sum(p))
        assert np.array_equal(p.grad, np.ones((3, 4)))

    def test_quadratic_gives_param(self):
        # 0.5 * sum(w * w) with one edge per factor: both edges reach w
        w = Parameter(np.random.default_rng(1).standard_normal((4, 3)), "w")
        half = 0.5 * w.values
        square = Tensor((w.values * w.values).sum() * 0.5,
                        ((w, lambda g: g * half), (w, lambda g: g * half)), "square")
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

    def test_max_pool_tie_routes_to_first_maximum(self):
        h = Parameter(np.array([[1.0, 5.0], [3.0, 5.0], [3.0, 2.0]]), "h")
        backward(weighted_sum(max_pool_points(h, 3), [[1.0, 2.0]]))
        assert np.array_equal(h.grad, [[0.0, 2.0], [1.0, 0.0], [0.0, 0.0]])

    def test_max_pool_ties_route_to_each_clouds_first_maximum(self):
        # two clouds of three points, each with a tie in both units
        h = Parameter(np.array([[1.0, 5.0], [3.0, 5.0], [3.0, 2.0],
                                [4.0, 0.0], [4.0, 0.0], [2.0, 0.0]]), "h")
        out = max_pool_points(h, 3)
        assert np.array_equal(out.values, [[3.0, 5.0], [4.0, 0.0]])
        backward(weighted_sum(out, [[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(h.grad, [[0.0, 2.0], [1.0, 0.0], [0.0, 0.0],
                                       [3.0, 4.0], [0.0, 0.0], [0.0, 0.0]])

    def test_unit_negative_at_every_point_gets_zero_gradient(self):
        # relu makes unit 1 zero at every point; the pool routes its gradient
        # to the first point, where the relu mask stops it
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2 * 4, 3)))
        w = Parameter(rng.standard_normal((3, 5)), "w")
        # unit 1 is negative at every point, the others positive
        b = Parameter(np.array([100.0, -100.0, 100.0, 100.0, 100.0]), "b")
        pooled = max_pool_points(dense_forward(x, w, b, relu=True), 4)
        assert np.array_equal(pooled.values[:, 1], np.zeros(2))
        backward(weighted_sum(pooled, rng.standard_normal((2, 5))))
        assert np.array_equal(w.grad[:, 1], np.zeros(3))
        assert b.grad[1] == 0.0
        assert np.all(b.grad[[0, 2, 3, 4]] != 0.0)

    def test_relu_gradient_is_zero_at_signed_zeros(self):
        x = Parameter(np.array([[0.0], [-0.0], [-1.0], [1e-300]]), "x")
        out = dense_forward(x, Tensor([[1.0]]), Tensor([0.0]), relu=True)
        backward(weighted_sum(out))
        assert np.array_equal(x.grad.ravel(), [0.0, 0.0, 0.0, 1.0])

    def test_only_leaves_hold_grads(self):
        model = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]))
        pts = np.random.default_rng(5).standard_normal((2, 5, 3))
        out = model.encode(pts)
        roots = [weighted_sum(out.logits), weighted_sum(out.embeddings)]
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
            # every node of the training loss: dense + relu, pool, dense,
            # l2-normalize, softmax, cross-entropy, InfoNCE, joint
            h = dense_forward(Tensor(x.reshape(6, 4)), w1, Tensor(b1), relu=True)
            pooled = max_pool_points(h, 2)
            z = l2_normalize_rows(dense_forward(pooled, Tensor(w2),
                                                Tensor(np.zeros(3))))
            ce = cross_entropy(softmax_rows(z), np.array([0, 1, 2]))
            nce = supervised_infonce(ContrastiveBatch(z, np.array([0, 0, 1])))
            return joint_loss(ce, nce, 0.5)

        w1p = Parameter(w1, "w1")
        backward(loss_of(w1p))

        fd = fd_gradient(lambda v: float(loss_of(Tensor(v)).values), w1.copy())
        assert max_rel_err(w1p.grad, fd) < 1e-4


class TestTapeRule:
    """Constants, and nodes built from constants alone, stay off the tape."""

    def test_constants_never_hold_grads(self):
        p = Parameter(np.array([[1.0, -2.0]]), "p")
        c = Tensor([3.0, 4.0])
        # 2c - 1 = [5, 7], from constants alone
        folded = dense_forward(Tensor([c.values]), Tensor(2.0 * np.eye(2)),
                               Tensor([-1.0, -1.0]))
        # p * exp(folded) + c
        out = dense_forward(p, Tensor(np.diag(np.exp(folded.values[0]))), c)
        backward(weighted_sum(out))
        for node in (c, folded):
            assert node.grad is None and node.parents == ()
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
