import csv
import json
import os
import sys
import tracemalloc
import weakref
from inspect import getclosurevars
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cedr import cpcm, eaa
from cedr.autodiff import backward, chunk_bounds, pooled_point_mlp
from cedr.config import ExperimentConfig
from cedr.data import build_dataset, default_shape_specs
from cedr.eaa import shannon_entropy
from cedr.encoder import EncoderConfig, PointEncoder
from cedr.losses import supervised_infonce
from cedr.train import (
    LAMBDA_GRID,
    AblationResult,
    NumericFailure,
    batch_weights,
    check_forward,
    encode_split,
    lambda_grid_variants,
    run_ablation,
    run_lambda_grid,
    train,
)

from conftest import pair_masks, run_python, strict_json


def small_config(**overrides):
    base = dict(arm="full", epochs=2, batch_size=16, hidden_dims=[8, 16],
                n_points=64, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestTrainLoop:
    @pytest.mark.parametrize("classes", [0, 1])
    def test_fewer_than_two_classes_rejected(self, classes):
        split = build_dataset(default_shape_specs()[:classes], 2, 2, seed=0,
                              n_points=32)
        with pytest.raises(ValueError, match="needs at least 2 classes, the "
                           f"dataset has {classes}$"):
            train(small_config(), split)

    def test_zero_epochs_evaluates_once(self, tiny_dataset):
        record, _ = train(small_config(epochs=0), tiny_dataset)
        assert len(record.epochs) == 1
        assert record.epochs[0].epoch == -1
        first = record.epochs[0]
        assert (first.ce, first.nce, first.total) == (None, None, None)
        assert 0.0 <= record.final["overall_acc"] <= 1.0

    def test_ce_only_has_zero_contrastive_term(self, tiny_dataset):
        record, _ = train(small_config(arm="ce_only"), tiny_dataset)
        for e in record.epochs[1:]:
            assert e.nce == 0.0
            assert e.total == pytest.approx(e.ce, abs=1e-15)

    @pytest.mark.parametrize("arm", ["scc", "full"])
    def test_batch_without_positive_pair_trains(self, tiny_dataset, arm):
        # batches of 4 from 8 classes: some hold no two samples of one class
        record, _ = train(small_config(arm=arm, epochs=1, batch_size=4),
                          tiny_dataset)
        epoch = record.epochs[1]
        assert epoch.skipped_anchors > 0
        assert np.isfinite([epoch.ce, epoch.nce, epoch.total]).all()

    def test_full_arm_trains_under_nearest_only_and_fixed(self, tiny_dataset):
        record, _ = train(small_config(epochs=1, cpcm_method="nearest_only",
                                       eaa_mode="fixed"), tiny_dataset)
        epoch = record.epochs[1]
        assert np.isfinite([epoch.ce, epoch.nce, epoch.total]).all()
        text = record.canonical_json()
        payload = strict_json(text)
        assert payload["config"]["cpcm_method"] == "nearest_only"
        assert payload["config"]["eaa_mode"] == "fixed"
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == text

    def test_same_seed_is_deterministic(self, tiny_dataset):
        a, _ = train(small_config(), tiny_dataset)
        b, _ = train(small_config(), tiny_dataset)
        assert a.canonical_json() == b.canonical_json()

    def test_training_leaves_the_dataset_unchanged(self, chunk_rows):
        # training and evaluation index the split's own arrays, not copies
        split = build_dataset(default_shape_specs(), 6, 4, seed=7, n_points=64)

        def split_bytes():
            return [a.tobytes() for clouds in (split.train, split.test)
                    for a in (clouds.points, clouds.labels)]

        before = split_bytes()
        train(small_config(arm="full", epochs=2), split)
        # 3 clouds a chunk of the per-point MLP, each a view of the test
        # split's points
        chunk_rows(3 * 64)
        model = PointEncoder(EncoderConfig(num_classes=8, hidden_dims=[8, 16]))
        encode_split(model, split.test.points, "test sample")
        assert split_bytes() == before

    @pytest.mark.parametrize("arm", ["scc_cpcm", "scc_eaa", "full"])
    def test_pair_weights_freed_before_backward(self, tiny_dataset,
                                                monkeypatch, arm):
        # the b x b weights of a batch live through its InfoNCE forward only
        module = sys.modules["cedr.train"]
        refs = []

        def tracked(*args):
            weights = batch_weights(*args)
            refs.append(weakref.ref(weights))
            return weights

        def checked(loss):
            assert refs[-1]() is None
            backward(loss)

        monkeypatch.setattr(module, "batch_weights", tracked)
        monkeypatch.setattr(module, "backward", checked)
        train(small_config(arm=arm, epochs=1), tiny_dataset)
        # 48 clouds in batches of 16
        assert len(refs) == 3

    def test_infonce_q_freed_before_point_mlp_vjp(self, tiny_dataset,
                                                  monkeypatch):
        # backward drops the InfoNCE's b x b q once its vjp has run, so it is
        # dead when the per-point MLP's vjp allocates its critical rows
        refs, runs = [], []

        def tracked_infonce(*args):
            nce = supervised_infonce(*args)
            q = getclosurevars(nce.mean.vjp).nonlocals["q"]
            refs.append(weakref.ref(q))
            return nce

        def tracked_mlp(*args):
            node = pooled_point_mlp(*args)
            vjp = node.vjp

            def checked(g):
                assert refs[-1]() is None
                runs.append(len(refs))
                return vjp(g)

            node.vjp = checked
            return node

        monkeypatch.setattr(sys.modules["cedr.train"], "supervised_infonce",
                            tracked_infonce)
        monkeypatch.setattr(sys.modules["cedr.encoder"], "pooled_point_mlp",
                            tracked_mlp)
        train(small_config(epochs=1), tiny_dataset)
        # 48 clouds in batches of 16
        assert runs == [1, 2, 3]

    def test_different_seeds_differ(self, tiny_dataset):
        a, _ = train(small_config(seed=0), tiny_dataset)
        b, _ = train(small_config(seed=1), tiny_dataset)
        assert a.canonical_json() != b.canonical_json()

    def test_lambda_zero_matches_ce_only_trajectory(self, tiny_dataset):
        ce, _ = train(small_config(arm="ce_only", epochs=3), tiny_dataset)
        scc, _ = train(small_config(arm="scc", lam=0.0, epochs=3), tiny_dataset)
        for a, b in zip(ce.epochs, scc.epochs):
            assert a.overall_acc == b.overall_acc
            assert a.macro_f1 == b.macro_f1

    def test_linear_lambda_schedule_reaches_the_loss(self, tiny_dataset):
        # each epoch trains with its own scheduled lambda, and the recorded
        # total is the joint loss at that lambda
        config = small_config(arm="scc", epochs=3, lam=0.1,
                              lambda_schedule="linear", lambda_end=0.3)
        record, _ = train(config, tiny_dataset)
        for k, e in enumerate(record.epochs[1:]):
            assert e.lam == config.lam_at(k)
            assert e.total == pytest.approx(e.ce + e.lam * e.nce, rel=1e-12)
        assert [e.lam for e in record.epochs[1:]] == pytest.approx([0.1, 0.2, 0.3])

    def test_every_sample_trains_including_a_final_batch_of_two(
            self, tiny_dataset, monkeypatch):
        module = sys.modules["cedr.train"]
        cross_entropy, encode = module.cross_entropy, PointEncoder.encode
        sizes, batches = [], []

        def spy(probs, labels):
            sizes.append(len(labels))
            return cross_entropy(probs, labels)

        def encode_spy(self, points):
            # an evaluation encodes the test split's own array
            if points is not tiny_dataset.test.points:
                batches.append(points)
            return encode(self, points)

        monkeypatch.setattr(module, "cross_entropy", spy)
        monkeypatch.setattr(PointEncoder, "encode", encode_spy)
        train(small_config(epochs=2, batch_size=23, seed=5), tiny_dataset)
        # 48 clouds in batches of 23
        assert sizes == [23, 23, 2] * 2
        # each epoch's shuffle, drawn from its own (seed, epoch) stream
        expected = []
        for epoch in range(2):
            order = np.random.default_rng(
                np.random.SeedSequence((5, epoch))).permutation(48)
            expected += [order[start:start + 23] for start in (0, 23, 46)]
        assert len(batches) == len(expected)
        for points, idx in zip(batches, expected):
            assert np.array_equal(points, tiny_dataset.train.points[idx])

    def test_step_graph_freed_before_next_forward(self, tiny_dataset,
                                                  monkeypatch):
        # the input is held only by the per-point MLP's vjp, so a dead input
        # means nothing holds the previous step's saved arrays any more
        inputs = []
        encode = PointEncoder.encode

        def tracked(self, points):
            assert all(ref() is None for ref in inputs)
            # an evaluation encodes the test split's own array, which the
            # dataset holds
            if points is not tiny_dataset.test.points:
                inputs.append(weakref.ref(points))
            return encode(self, points)

        monkeypatch.setattr(PointEncoder, "encode", tracked)
        train(small_config(epochs=2), tiny_dataset)
        # 48 clouds in batches of 16, over 2 epochs
        assert len(inputs) == 6

    def test_wall_time_excluded_from_canonical_bytes(self, tiny_dataset):
        record, _ = train(small_config(epochs=0), tiny_dataset)
        canonical = record.canonical_json()
        record.wall_time = 123.0
        assert record.canonical_json() == canonical
        assert "wall_time" not in canonical

    def test_record_save_includes_wall_time(self, tiny_dataset, tmp_path):
        import json

        record, _ = train(small_config(epochs=0), tiny_dataset)
        path = tmp_path / "run.json"
        record.save(path)
        payload = json.loads(path.read_text())
        assert payload["wall_time"] >= 0.0
        assert payload["config"]["arm"] == "full"


class TestEncodeSplit:
    @pytest.fixture
    def encode_sizes(self, monkeypatch):
        """The cloud count of every `encode` call."""
        sizes = []
        encode = PointEncoder.encode

        def counted(self, points):
            sizes.append(len(points))
            return encode(self, points)

        monkeypatch.setattr(PointEncoder, "encode", counted)
        return sizes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    # 7, 13, 9 and 11 clouds leave a trailing single cloud at most of the
    # budgets; 33 and 5 points put odd row counts in the lower layers, and the
    # last shape has three hidden layers
    @pytest.mark.parametrize("n_clouds, n_points, hidden", [
        (7, 32, [8, 16]), (13, 64, [16, 32]), (9, 128, [32, 64]),
        (11, 33, [16, 32]), (9, 5, [8, 12, 16])])
    # the budget in clouds: half a cloud and one cloud still give 2 a chunk
    @pytest.mark.parametrize("clouds", [0.5, 1, 3, 4, 100])
    def test_chunks_equal_one_whole_split_forward(self, chunk_rows,
                                                  encode_sizes, seed, n_clouds,
                                                  n_points, hidden, clouds):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n_clouds, n_points, 3)) * rng.uniform(0.5, 2.0)
        model = PointEncoder(EncoderConfig(num_classes=4, hidden_dims=hidden),
                             seed=seed)
        whole = model.encode(pts)
        encode_sizes.clear()
        chunk_rows(int(clouds * n_points))
        probs, emb = encode_split(model, pts, "test sample")
        assert np.array_equal(probs, whole.probs.values)
        assert np.array_equal(emb, whole.embeddings.values)
        # one forward; its per-point MLP runs in chunks of even row counts,
        # then a last one that may take in a trailing single cloud
        assert encode_sizes == [n_clouds]
        rows = np.diff(chunk_bounds(n_clouds, n_points)) * n_points
        assert (len(rows) > 1) == (clouds < 100)
        assert not (rows[:-1] % 2).any()

    def test_default_budget_keeps_a_chunk_in_cache(self):
        # the budget's reason: at every shipped shape (an evaluation split of
        # 256-point clouds at width 128, training batches at width 64) one
        # chunk's (clouds, width, points) top layer is at most 1 MiB, half of
        # a 2 MiB L2 cache
        for n_clouds, n_points, width in [(160, 256, 128), (32, 128, 64),
                                          (128, 128, 64), (512, 32, 64)]:
            clouds = max(np.diff(chunk_bounds(n_clouds, n_points)))
            assert clouds * width * n_points * 8 <= 2**20
        # so an eval_cli-shaped split's forward holds one such chunk, not the
        # 12 MiB of a chunk of 8192 rows
        model = PointEncoder(EncoderConfig(num_classes=8, hidden_dims=[64, 128]))
        pts = np.random.default_rng(0).standard_normal((160, 256, 3))
        tracemalloc.start()
        try:
            probs, _ = encode_split(model, pts, "test sample")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.shape == (160, 8)
        assert peak < 3 * 2**20, peak / 2**20

    def test_zero_clouds_give_empty_outputs(self):
        model = PointEncoder(EncoderConfig(num_classes=5, hidden_dims=[8, 12]))
        pts = np.zeros((0, 16, 3))
        out = model.encode(pts)
        probs, emb = encode_split(model, pts, "test sample")
        for got in (out.probs.values, probs):
            assert got.shape == (0, 5)
        for got in (out.embeddings.values, emb):
            assert got.shape == (0, 12)


class TestBatchWeights:
    def setup_batch(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((16, 8))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        raw = rng.uniform(0.05, 1.0, (16, 8))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = np.repeat(np.arange(8), 2)
        return probs, z, labels

    def confusable_batch(self):
        """setup_batch with classes 0 and 1 sharing one embedding, far from
        the other classes: nearest_only weights exactly their cross pairs and
        leaves every other cross-class pair at 1."""
        probs, z, labels = self.setup_batch()
        v = -z[4:].sum(axis=0)
        z[:4] = v / np.linalg.norm(v)
        return probs, z, labels

    def test_plain_arms_have_no_weights(self):
        probs, z, labels = self.setup_batch()
        for arm in ("ce_only", "scc"):
            assert batch_weights(small_config(arm=arm), probs, z, labels) is None

    @staticmethod
    def arm_weights(arm, cpcm_method, eaa_mode, batch):
        config = small_config(arm=arm, cpcm_method=cpcm_method, eaa_mode=eaa_mode)
        return batch_weights(config, *batch)

    @pytest.mark.parametrize("eaa_mode", ["varying", "fixed"])
    @pytest.mark.parametrize("cpcm_method", ["all_pairs", "nearest_only"])
    def test_cpcm_arm_leaves_positive_pairs_alone(self, cpcm_method, eaa_mode):
        batch = self.confusable_batch()
        w = self.arm_weights("scc_cpcm", cpcm_method, eaa_mode, batch)
        pos, neg = pair_masks(batch[2])
        assert (w[pos] == 1.0).all()
        if cpcm_method == "all_pairs":
            assert (w[neg] > 1.0).all()
        else:
            assert (w[neg] >= 1.0).all()
            assert (w[neg] == 1.0).any() and (w[neg] > 1.0).any()

    @pytest.mark.parametrize("eaa_mode", ["varying", "fixed"])
    @pytest.mark.parametrize("cpcm_method", ["all_pairs", "nearest_only"])
    def test_full_arm_fuses_both_sources(self, cpcm_method, eaa_mode):
        batch = self.confusable_batch()
        cpcm_only, eaa_only, fused = (
            self.arm_weights(arm, cpcm_method, eaa_mode, batch)
            for arm in ("scc_cpcm", "scc_eaa", "full"))
        pos, neg = pair_masks(batch[2])
        if cpcm_method == "nearest_only":
            # a cross-class pair at exactly 1.0 must still fuse as a negative
            assert (cpcm_only[neg] == 1.0).any()
        assert np.array_equal(fused[pos], eaa_only[pos])
        expected = np.sqrt((cpcm_only**2 + eaa_only**2) / 2)
        assert np.allclose(fused[neg], expected[neg], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("eaa_mode", ["varying", "fixed"])
    @pytest.mark.parametrize("cpcm_method", ["all_pairs", "nearest_only"])
    def test_full_arm_matches_the_broadcast_formulas(self, cpcm_method, eaa_mode):
        """The full arm keeps the bits of each formula written as (b, b)
        broadcasts: a 2-D gather of the class weights, the attention rule as
        one np.where, and their quadratic mean on the cross-class pairs."""
        probs, z, labels = batch = self.confusable_batch()
        # a confident wrong prediction: an outlier, weighted below 1
        probs[3] = 0.01
        probs[3, 5] = 0.93
        pw = cpcm.class_pair_weights(cpcm.compute_centers(z, labels, 8))
        class_w = cpcm.cpcm_negative_weights(np.arange(8), pw, cpcm_method)
        c = class_w[labels[:, None], labels[None, :]]
        a = eaa.sample_weight(eaa.classify_samples(probs, labels), eaa_mode)
        assert (a < 1).sum() == 1
        ai, aj = a[:, None], a[None, :]
        e = np.where((ai >= 1) & (aj >= 1), np.maximum(ai, aj), np.minimum(ai, aj))
        fused = np.where(labels[:, None] != labels[None, :],
                         np.sqrt(c**2 + e**2) / np.sqrt(2.0), e)
        assert np.array_equal(self.arm_weights("full", cpcm_method, eaa_mode, batch),
                              fused)

    @settings(max_examples=60, deadline=None)
    @given(arm=st.sampled_from(["scc_eaa", "full"]), row=st.integers(0, 15),
           spread=st.floats(0.0, 1e-305))
    @example(arm="full", row=3, spread=0.0)
    def test_zero_entropy_outlier(self, arm, row, spread):
        """A wrong prediction with entropy in [0, 1e-300] gets finite positive
        pair weights or a NumericFailure naming it, never a ValueError."""
        probs, z, labels = self.setup_batch()
        probs[row] = spread
        probs[row, (labels[row] + 1) % 8] = 1.0
        assert 0.0 <= shannon_entropy(probs[row:row + 1])[0] <= 1e-300
        try:
            w = batch_weights(small_config(arm=arm), probs, z, labels)
        except NumericFailure as exc:
            assert f"batch sample {row} " in str(exc)
            return
        assert np.isfinite(w).all() and (w > 0).all()

    @pytest.mark.parametrize("cpcm_method, eaa_mode",
                             [("all_pairs", "varying"), ("nearest_only", "fixed")])
    def test_full_arm_peaks_under_four_pair_arrays(self, cpcm_method, eaa_mode):
        # b = 512: the mining weights are handed to fuse_weights, which frees
        # them once squared and builds the mean in one array, so no more than
        # three b x b float arrays are alive at once, beside small ones
        rng = np.random.default_rng(5)
        b = 512
        z = rng.standard_normal((b, 64))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        raw = rng.uniform(0.05, 1.0, (b, 8))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.permutation(np.arange(b) % 8)
        config = small_config(cpcm_method=cpcm_method, eaa_mode=eaa_mode)
        tracemalloc.start()
        try:
            w = batch_weights(config, probs, z, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.shape == (b, b)
        assert peak < 3.5 * w.nbytes

    @pytest.mark.parametrize("arm", ["scc_eaa", "full"])
    def test_nan_attention_weight_raises(self, monkeypatch, arm):
        probs, z, labels = self.setup_batch()
        weight = eaa.sample_weight

        def with_nan(profile, mode):
            a = weight(profile, mode)
            a[5] = np.nan
            return a

        monkeypatch.setattr(eaa, "sample_weight", with_nan)
        with pytest.raises(NumericFailure, match="batch sample 5 has attention weight nan"):
            batch_weights(small_config(arm=arm), probs, z, labels)


def forward_of(embeddings, probs=None):
    """The two arrays of a forward that check_forward reads."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if probs is None:
        probs = np.full((len(embeddings), 2), 0.5)
    return SimpleNamespace(probs=SimpleNamespace(values=probs),
                           embeddings=SimpleNamespace(values=embeddings))


class TestNumericFailure:
    def test_unit_norm_bound_is_iscloses(self):
        """check_forward accepts a squared norm exactly where np.isclose(sq,
        1.0) does: here the last floats inside 1 +- 1.001e-5 and the first
        ones outside, on both sides of 1."""
        # 80 consecutive floats around each edge
        xs = np.concatenate([edge + np.arange(-40, 40) * np.spacing(edge) for edge
                             in (np.sqrt(1.0 + 1.001e-5), np.sqrt(1.0 - 1.001e-5))])
        sq = xs ** 2
        accepted = []
        for i, x in enumerate(xs):
            try:
                check_forward(forward_of([[x]]), "sample", [i])
                accepted.append(True)
            except NumericFailure:
                accepted.append(False)
        assert accepted == list(np.isclose(sq, 1.0))
        assert 0 < sum(accepted[:80]) < 80 and 0 < sum(accepted[80:]) < 80

    @pytest.mark.parametrize("row, probs_row", [
        ([np.nan, 0.0], [0.5, 0.5]), ([np.inf, 0.0], [0.5, 0.5]),
        ([0.0, 0.0], [0.5, 0.5]), ([1.0, 0.0], [np.nan, 0.5])])
    def test_non_finite_or_zero_rows_fail(self, row, probs_row):
        out = forward_of([[0.6, 0.8], row], np.array([[0.5, 0.5], probs_row]))
        with pytest.raises(NumericFailure, match="^train sample 8: non-finite"):
            check_forward(out, "train sample", [7, 8])

    @pytest.mark.parametrize("arm", ["ce_only", "scc", "scc_cpcm", "full"])
    def test_overflowed_embeddings_raise(self, arm):
        # every train embedding's squared norm overflows, which normalises it
        # to an all-zero row
        split = build_dataset(default_shape_specs(), 4, 2, seed=1, n_points=32)
        split.train.points *= 1e160
        with pytest.raises(NumericFailure, match=r"^epoch 0, batch 0: the forward "
                                                 r"overflows on train sample \d+: "):
            train(small_config(arm=arm, n_points=32), split)

    def test_overflowed_test_split_raises(self):
        # the evaluation before the first step already sees the overflow
        split = build_dataset(default_shape_specs(), 4, 2, seed=1, n_points=32)
        split.test.points *= 1e160
        with pytest.raises(NumericFailure, match=r"^epoch -1 evaluation: the "
                                                 r"forward overflows on test "
                                                 r"sample 0: "):
            train(small_config(n_points=32), split)

    def test_overflow_past_the_first_chunk_names_its_test_sample(
            self, chunk_rows):
        split = build_dataset(default_shape_specs(), 4, 2, seed=1, n_points=32)
        split.test.points[4] *= 1e160
        # 2 clouds a chunk, which puts sample 4 in the third chunk
        chunk_rows(64)
        with pytest.raises(NumericFailure, match=r"^epoch -1 evaluation: the "
                                                 r"forward overflows on test "
                                                 r"sample 4: "):
            train(small_config(n_points=32), split)

    def test_divergent_lr_raises(self, tiny_dataset):
        config = small_config(arm="scc", epochs=4, lr_max=1e18, lr_min=1e18)
        # the diverged weights overflow the embeddings' squared norms
        with pytest.raises(NumericFailure, match=r"^epoch 1, batch 1: the forward "
                                                 r"overflows on train sample \d+: "):
            train(config, tiny_dataset)


class TestAblationRunner:
    def test_rows_cover_arms_and_seeds(self, tiny_dataset):
        result = run_ablation(small_config(epochs=1), tiny_dataset,
                              seeds=(0, 1), arms=("ce_only", "scc"))
        pairs = {(r["variant"], r["seed"]) for r in result.rows}
        assert pairs == {("ce_only", 0), ("ce_only", 1), ("scc", 0), ("scc", 1)}

    def test_csv_layout_and_means(self, tmp_path):
        rows = [
            {"variant": "ce_only", "seed": 0, "overall_acc": 0.5, "avg_class_acc": 0.4},
            {"variant": "ce_only", "seed": 1, "overall_acc": 0.7, "avg_class_acc": 0.6},
            {"variant": "scc", "seed": 0, "overall_acc": 0.8, "avg_class_acc": 0.8},
            {"variant": "scc", "seed": 1, "overall_acc": 0.9, "avg_class_acc": 0.7},
        ]
        result = AblationResult(rows)
        path = tmp_path / "ablation.csv"
        result.write_csv(path)
        table = list(csv.reader(path.open()))
        assert table[0] == ["variant",
                            "overall_acc_seed0", "avg_class_acc_seed0",
                            "overall_acc_seed1", "avg_class_acc_seed1",
                            "overall_acc_mean", "overall_acc_std",
                            "avg_class_acc_mean", "avg_class_acc_std"]
        ce = table[1]
        assert ce[0] == "ce_only"
        assert float(ce[5]) == pytest.approx(0.6)
        assert result.mean_overall("scc") == pytest.approx(0.85)

    def test_lambda_grid_labels(self, tiny_dataset):
        result = run_lambda_grid(small_config(arm="scc", epochs=1), tiny_dataset,
                                 seeds=(0,))
        variants = [r["variant"] for r in result.rows]
        assert variants == ["constant_0.05", "constant_0.1", "constant_0.2",
                            "constant_0.3", "linear_0.1_0.2"]
        constant = result.rows[0]["record"].config
        assert (constant["lambda_schedule"], constant["lam"]) == ("constant", 0.05)
        linear = result.rows[4]["record"].config
        assert (linear["lambda_schedule"], linear["lam"], linear["lambda_end"]) \
            == ("linear", 0.1, 0.2)

    def test_lambda_grid_values_match_their_labels(self):
        # every label names its schedule and its numbers: lam, then lambda_end
        # for a linear schedule; each label runs on the default seeds 0-4
        variants = lambda_grid_variants(small_config(arm="scc"))
        for label, _ in LAMBDA_GRID:
            configs = [c for name, c in variants if name == label]
            assert [c.seed for c in configs] == [0, 1, 2, 3, 4]
            schedule, *numbers = label.split("_")
            for c in configs:
                assert c.lambda_schedule == schedule
                assert c.lam == float(numbers[0])
                if schedule == "linear":
                    assert c.lambda_end == float(numbers[1])
        assert len(variants) == 5 * len(LAMBDA_GRID)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# two epochs of scc_cpcm on the acceptance config; prints the record and a
# digest of the parameters
TRAIN_TWO_EPOCHS = """
import hashlib
from cedr import ExperimentConfig, build_dataset, default_shape_specs, train
from cedr.data import PerturbationConfig
dataset = build_dataset(default_shape_specs(), 80, 16, seed=0, n_points=128,
                        perturb=PerturbationConfig.moderate())
record, model = train(ExperimentConfig(arm="scc_cpcm", epochs=2, batch_size=32,
                                       hidden_dims=[32, 64], temperature=0.5,
                                       lam=0.2), dataset)
print(record.canonical_json())
print(hashlib.sha256(b"".join(p.values.tobytes() for p in model.params)).hexdigest())
"""


def test_training_bytes_do_not_depend_on_unset_blas_threads():
    """Importing cedr first pins one BLAS thread unless the caller set a
    count, so training with the thread variables unset gives the bytes of
    training with OPENBLAS_NUM_THREADS=1. Without the pin a 2-core machine
    trains other bytes; on a 1-core machine OpenBLAS runs one thread either
    way, and this passes trivially."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    outputs = [run_python(["-c", TRAIN_TWO_EPOCHS], env={**env, **threads},
                          check=True).stdout
               for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"})]
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 2
