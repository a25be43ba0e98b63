import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedr.cpcm import (
    ClassCenters,
    ClassPairWeights,
    class_pair_weights,
    compute_centers,
    cpcm_negative_weights,
)
from cedr.losses import ContrastiveBatch, supervised_infonce


def centers_from_distances(d01, d02, d12):
    """Place three 2-D centers realizing the given pairwise distances."""
    x = (d01**2 + d02**2 - d12**2) / (2 * d01)
    y = math.sqrt(max(d02**2 - x**2, 0.0))
    return np.array([[0.0, 0.0], [d01, 0.0], [x, y]])


class TestCenters:
    def test_singleton_classes(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        centers = compute_centers(emb, np.array([0, 1]), 2)
        assert np.array_equal(centers.centers, emb)
        assert centers.mask.all()

    def test_identical_samples(self):
        emb = np.array([[0.5, 0.5], [0.5, 0.5]])
        centers = compute_centers(emb, np.array([1, 1]), 3)
        assert np.array_equal(centers.centers[1], [0.5, 0.5])
        assert list(centers.mask) == [False, True, False]

    def test_matches_grouped_mean_oracle(self):
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((20, 4))
        labels = rng.integers(0, 5, 20)
        centers = compute_centers(emb, labels, 5)
        for c in range(5):
            rows = emb[labels == c]
            if len(rows):
                expected = sum(rows) / len(rows)
                assert np.allclose(centers.centers[c], expected, atol=1e-12)
            else:
                assert not centers.mask[c]


def weight_at(d):
    """class_pair_weights of two 1-D centers a distance d apart."""
    centers = ClassCenters(np.array([[0.0], [d]]), np.ones(2, dtype=bool))
    return class_pair_weights(centers).w_minus[0, 1]


class TestWeightFormula:
    def test_coincident_centers(self):
        assert weight_at(0.0) == 2.0

    def test_far_limit(self):
        assert abs(weight_at(50.0) - 1.0) < 1e-12

    def test_unit_distance(self):
        assert weight_at(1.0) == pytest.approx(1.0 + math.exp(-2.0), abs=1e-12)

    @given(st.floats(0.0, 15.0), st.floats(0.0, 15.0))
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_and_bounded(self, d1, d2):
        # beyond d ~ 17 the exp underflows past float64 resolution of 1.0
        w1, w2 = weight_at(d1), weight_at(d2)
        assert 1.0 < w1 <= 2.0
        if d1 + 1e-9 < d2:
            assert w1 > w2


class TestNegativeWeights:
    def test_coincident_centers_weight_two(self):
        emb = np.tile([1.0, 0.0], (4, 1))
        labels = np.array([0, 0, 1, 1])
        pw = class_pair_weights(compute_centers(emb, labels, 2))
        result = cpcm_negative_weights(labels, pw, "all_pairs")
        neg = labels[:, None] != labels[None, :]
        assert np.allclose(result[neg], 2.0, atol=1e-12)
        assert (result[~neg] == 1.0).all()

    def test_distant_centers_weight_near_one(self):
        emb = np.array([[0.0, 0.0], [0.0, 0.0], [50.0, 0.0], [50.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        pw = class_pair_weights(compute_centers(emb, labels, 2))
        result = cpcm_negative_weights(labels, pw, "all_pairs")
        neg = labels[:, None] != labels[None, :]
        assert np.max(np.abs(result[neg] - 1.0)) < 1e-12

    def test_nearest_only_margin_rule(self):
        centers = centers_from_distances(1.0, 3.0, 3.5)
        labels = np.array([0, 1, 2])
        mask = np.ones(3, dtype=bool)
        pw = class_pair_weights(
            compute_centers(centers, labels, 3))
        assert np.allclose(pw.dist[0, 1], 1.0, atol=1e-12)
        result = cpcm_negative_weights(labels, pw, "nearest_only")
        # only the d=1.0 pair clears the 0.8 margin over its runner-up
        assert result[0, 1] == pytest.approx(1.0 + math.exp(-2.0), abs=1e-12)
        assert result[1, 0] == pytest.approx(1.0 + math.exp(-2.0), abs=1e-12)
        assert result[0, 2] == 1.0
        assert result[1, 2] == 1.0

    def test_nearest_only_margin_not_met(self):
        # no class sees a nearest/second-nearest gap above 0.8
        centers = centers_from_distances(1.0, 1.5, 1.6)
        labels = np.array([0, 1, 2])
        pw = class_pair_weights(compute_centers(centers, labels, 3))
        result = cpcm_negative_weights(labels, pw, "nearest_only")
        assert np.allclose(result, 1.0)

    def test_method1_dominates_method2(self):
        rng = np.random.default_rng(1)
        emb = rng.standard_normal((24, 6))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        labels = rng.integers(0, 4, 24)
        pw = class_pair_weights(compute_centers(emb, labels, 4))
        m1 = cpcm_negative_weights(labels, pw, "all_pairs")
        m2 = cpcm_negative_weights(labels, pw, "nearest_only")
        assert (m1 >= m2 - 1e-12).all()

    @pytest.mark.parametrize("method", ["all_pairs", "nearest_only"])
    def test_expansion_is_the_class_matrix_gathered(self, method):
        """Gathering rows, then columns gives the bits of one 2-D gather of the
        class weights, and a C-contiguous array."""
        rng = np.random.default_rng(8)
        labels = rng.permutation(np.arange(30) % 3)
        # classes 0 and 1 are each other's nearest, by more than the margin
        emb = centers_from_distances(1.0, 3.0, 3.5)[labels]
        pw = class_pair_weights(compute_centers(emb, labels, 3))
        class_w = cpcm_negative_weights(np.arange(3), pw, method)
        assert (class_w > 1.0).sum() == (6 if method == "all_pairs" else 2)
        result = cpcm_negative_weights(labels, pw, method)
        assert result.flags.c_contiguous
        assert np.array_equal(result, class_w[labels[:, None], labels[None, :]])

    def test_missing_centers_named_once_in_order(self):
        pw = class_pair_weights(
            compute_centers(np.ones((2, 3)), np.array([0, 0]), 4))
        with pytest.raises(ValueError, match=re.escape("class(es) [2, 3]")):
            cpcm_negative_weights(np.array([3, 0, 2, 3]), pw)

    def test_missing_center_rejected(self):
        pw = class_pair_weights(
            compute_centers(np.ones((2, 3)), np.array([0, 0]), 3))
        with pytest.raises(ValueError, match=r"\[2\]"):
            cpcm_negative_weights(np.array([0, 0, 2]), pw)

    def test_unknown_method_rejected(self):
        pw = class_pair_weights(
            compute_centers(np.eye(2), np.array([0, 1]), 2))
        with pytest.raises(ValueError, match="method"):
            cpcm_negative_weights(np.array([0, 1]), pw, "method3")


def test_single_class_batch_reduces_to_positive_only_loss():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((4, 5))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    labels = np.zeros(4, dtype=int)
    pw = class_pair_weights(compute_centers(z, labels, 1))
    weights = cpcm_negative_weights(labels, pw, "all_pairs")
    weighted = supervised_infonce(ContrastiveBatch(z, labels), weights)
    plain = supervised_infonce(ContrastiveBatch(z, labels))
    assert abs(float(weighted.mean.values) - float(plain.mean.values)) < 1e-12
    # no negatives at all: every anchor's loss collapses to zero
    assert np.allclose(plain.per_anchor, 0.0, atol=1e-12)


def test_pair_weight_monotone_in_center_distance():
    # sorted center distances must give reversed-sorted weights
    rng = np.random.default_rng(3)
    emb = rng.standard_normal((30, 8))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    labels = rng.integers(0, 5, 30)
    pw = class_pair_weights(compute_centers(emb, labels, 5))
    iu = np.triu_indices(5, k=1)
    order = np.argsort(pw.dist[iu])
    weights_sorted = pw.w_minus[iu][order]
    assert all(a >= b for a, b in zip(weights_sorted, weights_sorted[1:]))
