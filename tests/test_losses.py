import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cedr.autodiff import Parameter, Tensor, backward
from cedr.losses import (
    ContrastiveBatch,
    InfoNCEResult,
    PairWeightMatrix,
    cross_entropy,
    joint_loss,
    pair_masks,
    supervised_infonce,
)

from conftest import fd_gradient, max_rel_err


def infonce_oracle(z, labels, tau=1.0, w_pos=None, w_neg=None):
    """Scalar double-loop reference: per anchor, per pair, no vectorization."""
    b = len(labels)
    per_anchor = np.zeros(b)
    valid = []
    for i in range(b):
        pos = [j for j in range(b) if j != i and labels[j] == labels[i]]
        neg = [k for k in range(b) if labels[k] != labels[i]]
        if not pos:
            continue
        wp_mean = (sum(w_pos[i, j] for j in pos) / len(pos)
                   if w_pos is not None else 1.0)
        total = 0.0
        for j in pos:
            wp = (w_pos[i, j] / wp_mean) if w_pos is not None else 1.0
            num = wp * math.exp(np.dot(z[i], z[j]) / tau)
            if neg:
                ws = [w_neg[i, k] if w_neg is not None else 1.0 for k in neg]
                es = [math.exp(np.dot(z[i], z[k]) / tau) for k in neg]
                block = len(neg) * sum(w * e for w, e in zip(ws, es)) / sum(ws)
            else:
                block = 0.0
            total += -math.log(num / (num + block))
        per_anchor[i] = total / len(pos)
        valid.append(i)
    return per_anchor, sum(per_anchor[i] for i in valid) / len(valid)


def infonce_decimal_oracle(z, labels, tau, w_pos, w_neg):
    """Mean of infonce_oracle's double loop in decimal.Decimal, whose exponent
    range holds the e^{s/tau} that overflow a float at small tau."""
    with localcontext() as ctx:
        ctx.prec = 40
        b = len(labels)
        exp_sim = [[(Decimal(float(np.dot(z[i], z[j]))) / Decimal(tau)).exp()
                    for j in range(b)] for i in range(b)]
        anchors = []
        for i in range(b):
            pos = [j for j in range(b) if j != i and labels[j] == labels[i]]
            neg = [k for k in range(b) if labels[k] != labels[i]]
            if not pos:
                continue
            wp_mean = sum(Decimal(w_pos[i, j]) for j in pos) / len(pos)
            ws = [Decimal(w_neg[i, k]) for k in neg]
            block = (len(neg) * sum(w * exp_sim[i][k] for w, k in zip(ws, neg))
                     / sum(ws)) if neg else Decimal(0)
            total = Decimal(0)
            for j in pos:
                num = Decimal(w_pos[i, j]) / wp_mean * exp_sim[i][j]
                total += -(num / (num + block)).ln()
            anchors.append(total / len(pos))
        return float(sum(anchors) / len(anchors))


def unit_embeddings(rng, b, d):
    z = rng.standard_normal((b, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        probs = np.eye(4)
        assert float(cross_entropy(probs, np.arange(4)).values) == 0.0

    def test_half_probability_is_ln2(self):
        probs = np.array([[0.5, 0.5]])
        assert float(cross_entropy(probs, [0]).values) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0.05, 1.0, size=(7, 5))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 5, 7)
        expected = np.mean([-math.log(probs[i, labels[i]]) for i in range(7)])
        assert float(cross_entropy(probs, labels).values) == pytest.approx(
            expected, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(np.full((2, 3), 1 / 3), [0, 3])


class TestInfoNCE:
    def test_symmetric_logits_give_ln2(self):
        z = np.tile([1.0, 0.0], (3, 1))
        labels = np.array([0, 0, 1])
        result = supervised_infonce(ContrastiveBatch(z, labels))
        # anchors 0 and 1: one positive, one negative, all similarities equal
        assert result.per_anchor[0] == pytest.approx(math.log(2), abs=1e-12)
        assert result.per_anchor[1] == pytest.approx(math.log(2), abs=1e-12)

    def test_constant_weights_cancel(self):
        """A constant on both weight fields, or on the negative weights alone
        (fuse_weights' 1/sqrt(2) is one), changes neither the loss nor its
        embedding gradient."""
        rng = np.random.default_rng(1)
        z = unit_embeddings(rng, 8, 6)
        labels = rng.integers(0, 3, 8)
        w_pos = rng.uniform(0.5, 2.0, (8, 8))
        w_neg = rng.uniform(0.5, 2.0, (8, 8))

        def run(weights):
            leaf = Parameter(z, "z")
            result = supervised_infonce(ContrastiveBatch(leaf, labels), weights)
            backward(result.mean)
            return result, leaf.grad

        cases = [(None, PairWeightMatrix(np.full((8, 8), c), np.full((8, 8), c)))
                 for c in (0.25, 1.0, 7.5)]
        cases += [(PairWeightMatrix(w_pos, w_neg), PairWeightMatrix(w_pos, w_neg * c))
                  for c in (1 / math.sqrt(2.0), 0.25, 7.5)]
        for weights, scaled_weights in cases:
            base, base_grad = run(weights)
            scaled, scaled_grad = run(scaled_weights)
            assert abs(float(scaled.mean.values) - float(base.mean.values)) < 1e-12
            assert np.allclose(scaled.per_anchor, base.per_anchor, rtol=0, atol=1e-12)
            assert np.allclose(scaled_grad, base_grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("source", ["unit", "random_pos", "random_neg", "both"])
    def test_matches_pairwise_oracle(self, source):
        rng = np.random.default_rng(hash(source) % 2**32)
        for b, d, tau in [(4, 3, 1.0), (8, 5, 0.5), (10, 4, 2.0)]:
            z = unit_embeddings(rng, b, d)
            labels = rng.integers(0, 3, b)
            if not all((labels == c).sum() >= 2 for c in np.unique(labels)):
                labels[0] = labels[1]
            w_pos = w_neg = None
            weights = None
            if source != "unit":
                w_pos = (rng.uniform(0.5, 2.0, (b, b)) if source in
                         ("random_pos", "both") else np.ones((b, b)))
                w_neg = (rng.uniform(0.5, 2.0, (b, b)) if source in
                         ("random_neg", "both") else np.ones((b, b)))
                weights = PairWeightMatrix(w_pos, w_neg)
            result = supervised_infonce(ContrastiveBatch(z, labels, tau), weights)
            per_anchor, mean = infonce_oracle(z, labels, tau, w_pos, w_neg)
            assert np.max(np.abs(result.per_anchor - per_anchor)) < 1e-10
            assert abs(float(result.mean.values) - mean) < 1e-10

    def test_anchor_without_negatives_contributes_zero(self):
        z = unit_embeddings(np.random.default_rng(2), 3, 4)
        labels = np.array([1, 1, 1])
        result = supervised_infonce(ContrastiveBatch(z, labels))
        assert np.allclose(result.per_anchor, 0.0, atol=1e-12)

    def test_skipped_anchor_counted(self):
        z = unit_embeddings(np.random.default_rng(3), 5, 4)
        labels = np.array([0, 0, 1, 1, 2])
        result = supervised_infonce(ContrastiveBatch(z, labels))
        assert result.skipped_anchors == 1
        assert result.per_anchor[4] == 0.0

    def test_batch_without_positives_is_constant_zero(self):
        # every anchor is skipped, so the mean over unskipped anchors is empty
        z = unit_embeddings(np.random.default_rng(4), 3, 4)
        leaf = Parameter(z, "z")
        result = supervised_infonce(ContrastiveBatch(leaf, np.array([0, 1, 2])))
        assert float(result.mean.values) == 0.0
        assert result.mean.parents == ()
        assert np.array_equal(result.per_anchor, np.zeros(3))
        assert result.skipped_anchors == 3
        backward(joint_loss(Tensor(1.5), result, 0.2))
        assert np.array_equal(leaf.grad, np.zeros((3, 4)))

    def test_positive_similarity_decreases_loss(self):
        rng = np.random.default_rng(5)
        z = unit_embeddings(rng, 6, 8)
        labels = np.array([0, 0, 1, 1, 2, 2])
        base = float(supervised_infonce(ContrastiveBatch(z, labels)).mean.values)
        # nudging a positive pair together lowers the loss
        closer = z.copy()
        closer[1] = closer[1] + 0.05 * closer[0]
        lower = float(supervised_infonce(ContrastiveBatch(closer, labels)).mean.values)
        assert lower < base
        # nudging a negative pair together raises it
        harder = z.copy()
        harder[2] = harder[2] + 0.05 * harder[0]
        higher = float(supervised_infonce(ContrastiveBatch(harder, labels)).mean.values)
        assert higher > base

    def test_equal_similarities_keep_loss_nonnegative(self):
        z = np.tile([0.0, 1.0], (6, 1))
        labels = np.array([0, 0, 0, 1, 1, 1])
        result = supervised_infonce(ContrastiveBatch(z, labels))
        assert (result.per_anchor >= 0).all()
        # symmetry bound: -log(1/(1+|N|)) with |N| = 3
        assert result.per_anchor[0] == pytest.approx(math.log(4), abs=1e-12)

    @staticmethod
    def small_tau_batch():
        """12 samples of 3 classes with random positive pair weights."""
        rng = np.random.default_rng(11)
        weights = PairWeightMatrix(rng.uniform(0.5, 2.0, (12, 12)),
                                   rng.uniform(0.5, 2.0, (12, 12)))
        return unit_embeddings(rng, 12, 6), np.arange(12) % 3, weights

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tau", [1e-3, 1e-4, 1e-6])
    def test_small_temperature_is_finite(self, tau):
        z, labels, weights = self.small_tau_batch()
        leaf = Parameter(z, "z")
        result = supervised_infonce(ContrastiveBatch(leaf, labels, tau), weights)
        backward(result.mean)
        assert np.isfinite(result.per_anchor).all()
        assert np.isfinite(float(result.mean.values))
        assert np.isfinite(leaf.grad).all()

    def test_small_temperature_matches_decimal_oracle(self):
        z, labels, weights = self.small_tau_batch()
        result = supervised_infonce(ContrastiveBatch(z, labels, 1e-4), weights)
        mean = infonce_decimal_oracle(z, labels, 1e-4, weights.w_pos, weights.w_neg)
        assert abs(float(result.mean.values) - mean) <= 1e-10 * abs(mean)

    def test_embedding_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        z = unit_embeddings(rng, 6, 4)
        labels = np.array([0, 0, 1, 1, 2, 2])
        w = PairWeightMatrix(rng.uniform(0.5, 1.5, (6, 6)),
                             rng.uniform(0.5, 1.5, (6, 6)))

        def value(v):
            return float(supervised_infonce(
                ContrastiveBatch(v.copy(), labels, 0.7), w).mean.values)

        leaf = Parameter(z, "z")
        backward(supervised_infonce(ContrastiveBatch(leaf, labels, 0.7), w).mean)
        fd = fd_gradient(value, z.copy())
        assert max_rel_err(leaf.grad, fd) < 1e-4


class TestJointLoss:
    def test_arithmetic(self):
        nce = InfoNCEResult(Tensor(5.0), np.zeros(2), 0)
        total = joint_loss(Tensor(2.0), nce, 0.1)
        assert float(total.values) == pytest.approx(2.5, abs=1e-15)

    def test_lambda_zero_is_pure_ce(self):
        nce = InfoNCEResult(Tensor(3.7), np.zeros(2), 0)
        total = joint_loss(Tensor(1.25), nce, 0.0)
        assert float(total.values) == 1.25

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            joint_loss(Tensor(1.0), InfoNCEResult(Tensor(1.0), np.zeros(1), 0),
                       -0.1)


def test_pair_masks_partition():
    labels = np.array([0, 1, 0, 2])
    pos, neg = pair_masks(labels)
    assert pos[0, 2] == 1 and pos[2, 0] == 1
    assert np.all(np.diag(pos) == 0) and np.all(np.diag(neg) == 0)
    # every off-diagonal pair is exactly one of positive / negative
    off = ~np.eye(4, dtype=bool)
    assert np.array_equal((pos + neg)[off], np.ones(12))


# Finite differences with eps 1e-5 carry about 1e-10 of rounding noise where
# the exact gradient is 0, hence the absolute tolerance of the node checks.
@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (4, 3), elements=st.floats(0.05, 1.0)),
       arrays(np.int64, 4, elements=st.integers(0, 2)))
def test_cross_entropy_gradient_property(probs, labels):
    # row 0's true-class probability sits below the 1e-12 floor
    probs[0, labels[0]] = 1e-13
    leaf = Parameter(probs, "probs")
    backward(cross_entropy(leaf, labels))
    assert leaf.grad[0, labels[0]] == 0.0
    fd = fd_gradient(lambda v: float(cross_entropy(v, labels).values), probs.copy())
    fd[0, labels[0]] = 0.0  # a step of 1e-5 there crosses the floor
    assert np.allclose(leaf.grad, fd, rtol=1e-4, atol=1e-8)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(0, 0, 1, 1, 2, 2), (0, 0, 1, 1, 2), (1, 1, 1)]),
       st.data())
def test_infonce_gradient_property(labels, data):
    """Weighted InfoNCE: a full batch, one with a skipped anchor (sample 4),
    and one whose anchors have no negatives."""
    b = len(labels)
    labels = np.array(labels)
    z = data.draw(arrays(np.float64, (b, 3), elements=st.floats(-1, 1)))
    weights = PairWeightMatrix(
        data.draw(arrays(np.float64, (b, b), elements=st.floats(0.5, 2.0))),
        data.draw(arrays(np.float64, (b, b), elements=st.floats(0.5, 2.0))))

    def value(v):
        return float(supervised_infonce(ContrastiveBatch(v, labels, 0.7),
                                        weights).mean.values)

    leaf = Parameter(z, "z")
    backward(supervised_infonce(ContrastiveBatch(leaf, labels, 0.7), weights).mean)
    fd = fd_gradient(value, z.copy())
    assert np.allclose(leaf.grad, fd, rtol=1e-4, atol=1e-8)
