import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cedr.eaa import (
    EntropyProfile,
    classify_samples,
    eaa_pair_weights,
    entropy_scale,
    fuse_weights,
    sample_weight,
    shannon_entropy,
)
from cedr.losses import ContrastiveBatch, supervised_infonce


def entropy_loop(probs):
    out = []
    for row in probs:
        total = sum(row)
        e = 0.0
        for p in row:
            p = p / total
            if p > 0:
                e -= p * math.log2(p)
        out.append(e)
    return np.array(out)


class TestEntropy:
    def test_uniform_four_classes(self):
        assert shannon_entropy(np.full((1, 4), 0.25))[0] == pytest.approx(2.0, abs=1e-12)

    def test_one_hot_is_zero(self):
        assert shannon_entropy(np.array([[0.0, 1.0, 0.0]]))[0] == 0.0

    def test_two_way_split(self):
        assert shannon_entropy(np.array([[0.5, 0.5, 0.0, 0.0]]))[0] == pytest.approx(
            1.0, abs=1e-12)

    def test_unnormalized_rows_are_renormalized(self):
        assert shannon_entropy(np.array([[2.0, 2.0]]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_row_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            shannon_entropy(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            shannon_entropy(np.array([[0.5, -0.1]]))

    @given(arrays(np.float64, (3, 6), elements=st.floats(1e-6, 1.0)))
    @settings(max_examples=50, deadline=None)
    def test_bounds_property(self, raw):
        e = shannon_entropy(raw)
        assert (e >= -1e-12).all()
        assert (e <= math.log2(6) + 1e-9).all()

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(0.01, 1.0, (10, 5))
        assert np.max(np.abs(shannon_entropy(probs) - entropy_loop(probs))) < 1e-12


def profile_with(entropies, tags, scale=1.0):
    entropies = np.asarray(entropies, float)
    return EntropyProfile(entropies,
                          np.array([t != "outlier" for t in tags]),
                          np.array(tags, dtype=object), scale)


def probs_with_entropy(num_classes, peaked_class, spread):
    """One row whose entropy grows with spread."""
    row = np.full(num_classes, spread / (num_classes - 1))
    row[peaked_class] = 1.0 - spread
    return row


class TestClassify:
    def test_low_entropy_wrong_is_outlier(self):
        probs = np.array([probs_with_entropy(15, 3, 0.02)])
        profile = classify_samples(probs, np.array([5]))
        assert profile.entropy[0] < 1.0
        assert profile.tag[0] == "outlier"

    def test_high_entropy_correct_is_unstable(self):
        probs = np.array([probs_with_entropy(15, 3, 0.75)])
        profile = classify_samples(probs, np.array([3]))
        assert profile.entropy[0] > 2.5
        assert profile.tag[0] == "unstable"

    def test_high_entropy_wrong_is_normal(self):
        probs = np.array([probs_with_entropy(15, 3, 0.75)])
        profile = classify_samples(probs, np.array([5]))
        assert profile.entropy[0] > 2.5
        assert profile.tag[0] == "normal"

    def test_low_entropy_correct_is_normal(self):
        probs = np.array([probs_with_entropy(15, 3, 0.02)])
        profile = classify_samples(probs, np.array([3]))
        assert profile.tag[0] == "normal"

    def test_thresholds_rescale_to_eight_classes(self):
        # at 8 classes the tags switch at 1.0 s and 2.5 s bits, not at the
        # 15-class 1.0 and 2.5
        s = math.log2(8) / math.log2(15)

        def row_with_entropy(target):
            lo, hi = 0.0, 7 / 8     # entropy rises with the spread up to 7/8
            for _ in range(200):
                mid = (lo + hi) / 2
                row = probs_with_entropy(8, 3, mid)
                if shannon_entropy(row[None])[0] < target:
                    lo = mid
                else:
                    hi = mid
            return probs_with_entropy(8, 3, lo)

        # (entropy, label, tag); label 3 is the peak, so label 5 is wrong
        cases = [(1.0 * s * (1 - 1e-6), 5, "outlier"),
                 (1.0 * s * (1 + 1e-6), 5, "normal"),
                 (2.5 * s * (1 + 1e-6), 3, "unstable"),
                 (2.5 * s * (1 - 1e-6), 3, "normal")]
        probs = np.array([row_with_entropy(e) for e, _, _ in cases])
        profile = classify_samples(probs, np.array([y for _, y, _ in cases]))
        assert np.allclose(profile.entropy, [e for e, _, _ in cases], rtol=1e-9)
        assert list(profile.tag) == [tag for _, _, tag in cases]
        assert profile.scale == pytest.approx(s, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            classify_samples(np.ones((1, 1)), np.array([0]))


class TestSampleWeight:
    def test_varying_weights(self):
        profile = profile_with([0.6, 3.0, 1.5], ["outlier", "unstable", "normal"])
        a = sample_weight(profile, "varying")
        assert a[0] == pytest.approx(0.6, abs=1e-12)
        assert a[1] == pytest.approx(1.8, abs=1e-12)
        assert a[2] == 1.0

    def test_fixed_weights(self):
        profile = profile_with([0.6, 3.0, 1.5], ["outlier", "unstable", "normal"])
        assert list(sample_weight(profile, "fixed")) == [0.8, 1.2, 1.0]

    def test_outlier_below_one_unstable_above(self):
        rng = np.random.default_rng(1)
        # entropies consistent with the reference taxonomy
        out_e = rng.uniform(0.01, 0.99, 20)
        uns_e = rng.uniform(2.51, 3.9, 20)
        profile = profile_with(np.concatenate([out_e, uns_e]),
                               ["outlier"] * 20 + ["unstable"] * 20)
        a = sample_weight(profile, "varying")
        assert (a[:20] < 1.0).all()
        assert (a[20:] > 1.3).all()

    def test_rescaled_entropy_keeps_ordering(self):
        s = entropy_scale(8)
        profile = profile_with([0.5 * s, 2.8 * s], ["outlier", "unstable"], s)
        a = sample_weight(profile, "varying")
        assert a[0] == pytest.approx(0.5, abs=1e-12)
        assert a[1] == pytest.approx(2.8 - 1.2, abs=1e-12)

    def test_profile_carries_the_class_count_scale(self):
        # 8 classes: a confidently wrong row, a diffuse correct row, a
        # confident correct row
        probs = np.array([probs_with_entropy(8, 3, 0.02),
                          probs_with_entropy(8, 3, 0.75),
                          probs_with_entropy(8, 3, 0.02)])
        profile = classify_samples(probs, np.array([5, 3, 3]))
        assert list(profile.tag) == ["outlier", "unstable", "normal"]
        e = profile.entropy / entropy_scale(8)
        a = sample_weight(profile, "varying")
        assert a[0] == pytest.approx(e[0], abs=1e-12)
        assert a[1] == pytest.approx(e[1] - 1.2, abs=1e-12)
        assert a[2] == 1.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            sample_weight(profile_with([1.0], ["normal"]), "adaptive")


class TestPairSelect:
    def test_both_above_one_takes_max(self):
        pw = eaa_pair_weights(np.array([1.5, 1.3]))
        assert pw[0, 1] == 1.5

    def test_mixed_takes_min(self):
        pw = eaa_pair_weights(np.array([1.5, 0.5]))
        assert pw[0, 1] == 0.5
        assert pw[1, 0] == 0.5

    def test_both_below_one_takes_min(self):
        pw = eaa_pair_weights(np.array([0.5, 0.3]))
        assert pw[0, 1] == 0.3

    def test_matches_literal_four_case_table(self):
        grid = np.linspace(0.05, 2.0, 40)
        pw = eaa_pair_weights(grid)
        for i, ai in enumerate(grid):
            for j, aj in enumerate(grid):
                if ai >= 1 and aj >= 1:
                    expected = max(ai, aj)
                elif ai >= 1 and aj <= 1:
                    expected = min(ai, aj)
                elif ai <= 1 and aj >= 1:
                    expected = min(ai, aj)
                else:
                    expected = min(ai, aj)
                assert pw[i, j] == expected

    @pytest.mark.parametrize("a", [
        [1.0, 1.3, 2.0, 1.0, 1.3],      # no sample below 1, two exactly 1
        [1.2, 0.4, 1.0, 1.7, 1.0],      # one
        [0.3, 0.9, 0.5, 0.99, 0.3],     # every one
        np.random.default_rng(6).choice([0.2, 0.7, 1.0, 1.4, 2.6], 64),
    ], ids=["none_below_one", "one_below_one", "all_below_one", "b64"])
    def test_matches_the_broadcast_where(self, a):
        """The max outer product with the min written over the down-weighted
        rows and columns has the bits of the rule as one np.where."""
        a = np.asarray(a, dtype=np.float64)
        ai, aj = a[:, None], a[None, :]
        expected = np.where((ai >= 1) & (aj >= 1), np.maximum(ai, aj),
                            np.minimum(ai, aj))
        pw = eaa_pair_weights(a)
        assert pw.flags.c_contiguous
        assert np.array_equal(pw, expected)

    def test_nonpositive_rejected(self):
        for a in ([0.0, 1.0], [1.0, np.nan, 0.5], [1.0, np.inf]):
            with pytest.raises(ValueError,
                               match="sample weights must be positive and finite"):
                eaa_pair_weights(np.array(a))


class TestPairWeights:
    def test_all_normal_is_identity(self):
        profile = profile_with([1.5] * 4, ["normal"] * 4)
        labels = np.array([0, 0, 1, 1])
        pw = eaa_pair_weights(sample_weight(profile, "varying"))
        assert np.allclose(pw, 1.0)
        rng = np.random.default_rng(2)
        z = rng.standard_normal((4, 5))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        weighted = supervised_infonce(ContrastiveBatch(z, labels), pw)
        plain = supervised_infonce(ContrastiveBatch(z, labels))
        assert abs(float(weighted.mean.values) - float(plain.mean.values)) < 1e-12

    def test_outlier_pairs_all_downweighted(self):
        profile = profile_with([0.4, 1.5, 3.0, 1.5],
                               ["outlier", "normal", "unstable", "normal"])
        pw = eaa_pair_weights(sample_weight(profile, "varying"))
        assert (pw[0, 1:] < 1.0).all()
        assert (pw[1:, 0] < 1.0).all()

    def test_matches_per_pair_oracle(self):
        profile = profile_with(
            [0.4, 0.7, 3.0, 2.9, 1.5, 1.8],
            ["outlier", "outlier", "unstable", "unstable", "normal", "normal"])
        a = sample_weight(profile, "varying")
        pw = eaa_pair_weights(a)
        for i in range(6):
            for j in range(6):
                expected = (max(a[i], a[j]) if (a[i] >= 1 and a[j] >= 1)
                            else min(a[i], a[j]))
                assert pw[i, j] == expected

    def test_lower_outlier_weight_shrinks_negative_contribution(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 6))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        labels = np.array([0, 0, 1, 1])

        def weighted_negative_sum(a_out):
            pw = eaa_pair_weights(np.array([a_out, 1.0, 1.0, 1.0]))
            sims = np.exp(z @ z.T)
            neg = labels[:, None] != labels[None, :]
            w = pw * neg
            return (w * sims)[2].sum()  # anchor 2 pairs with the outlier

        assert weighted_negative_sum(0.3) < weighted_negative_sum(0.6)


class TestFuse:
    # two classes of one sample each: (0, 1) and (1, 0) are negative pairs
    LABELS = np.array([0, 1])

    def test_three_four_five(self):
        fused = fuse_weights(np.full((2, 2), 3.0), np.full((2, 2), 4.0), self.LABELS)
        assert fused[0, 1] == pytest.approx(5.0 / math.sqrt(2.0), abs=1e-12)

    def test_renormalized_neutral_maps_to_one(self):
        fused = fuse_weights(np.ones((2, 2)), np.ones((2, 2)), self.LABELS)
        assert np.allclose(fused, 1.0, atol=1e-12)

    def test_direct_evaluation(self):
        fused = fuse_weights(np.full((2, 2), 2.0), np.full((2, 2), 1.8), self.LABELS)
        assert fused[0, 1] == pytest.approx(math.sqrt(3.62), abs=1e-12)

    def test_positive_pairs_keep_attention_weights(self):
        # (0, 1) is a positive pair, (0, 2) a negative one
        fused = fuse_weights(np.full((3, 3), 2.0), np.full((3, 3), 1.7),
                             np.array([0, 0, 1]))
        assert fused[0, 1] == fused[1, 0] == 1.7
        assert fused[0, 2] == pytest.approx(math.sqrt(3.445), abs=1e-12)

    def test_fused_lies_between_inputs(self):
        # a quadratic mean lies between the smaller and the larger input
        rng = np.random.default_rng(4)
        a = rng.uniform(1.0, 2.0, (3, 3))
        b = rng.uniform(0.5, 2.0, (3, 3))
        fused = fuse_weights(a, b, np.arange(3))
        assert (fused >= np.minimum(a, b)).all()
        assert (fused <= np.maximum(a, b)).all()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
        arrays(np.float64, (n, n), elements=st.floats(1e-150, 1e150)),
        arrays(np.float64, (n, n), elements=st.floats(1e-150, 1e150)),
        arrays(np.int64, n, elements=st.integers(0, 3)))))
    def test_bits_of_the_formula(self, drawn):
        """The in-place mean has the bits of the formula as written, and
        neither input is written."""
        c, e, labels = drawn
        c0, e0 = c.copy(), e.copy()
        expected = np.where(labels[:, None] != labels,
                            np.sqrt(c**2 + e**2) / np.sqrt(2.0), e)
        assert fuse_weights(c, e, labels).tobytes() == expected.tobytes()
        assert c.tobytes() == c0.tobytes() and e.tobytes() == e0.tobytes()

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="pair sets"):
            fuse_weights(np.ones((2, 2)), np.ones((3, 3)), self.LABELS)
