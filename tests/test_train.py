import csv
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cedr.checkpoint import load_checkpoint
from cedr.config import ExperimentConfig
from cedr.data import build_dataset, default_shape_specs
from cedr.eaa import shannon_entropy
from cedr.encoder import PointEncoder
from cedr.train import (
    AblationResult,
    NumericFailure,
    batch_weights,
    run_ablation,
    run_lambda_grid,
    train,
)


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

    def test_same_seed_is_deterministic(self, tiny_dataset):
        a, _ = train(small_config(), tiny_dataset)
        b, _ = train(small_config(), tiny_dataset)
        assert a.canonical_json() == b.canonical_json()

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

    def test_checkpoint_written_and_loadable(self, tiny_dataset, tmp_path):
        path = tmp_path / "model.ckpt"
        _, model = train(small_config(epochs=1), tiny_dataset,
                         checkpoint_path=path)
        tensors = load_checkpoint(path)
        for p in model.params:
            assert np.array_equal(tensors[p.name], p.values)

    def test_step_graph_freed_before_next_forward(self, tiny_dataset,
                                                  monkeypatch):
        # every non-leaf node of a step's graph reaches the input leaf, so a
        # dead input means nothing holds the previous step's graph any more
        inputs = []
        encode = PointEncoder.encode

        def tracked(self, points):
            assert all(ref() is None for ref in inputs)
            inputs.append(weakref.ref(points))
            return encode(self, points)

        monkeypatch.setattr(PointEncoder, "encode", tracked)
        train(small_config(epochs=2), tiny_dataset)
        assert len(inputs) > 4

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


class TestBatchWeights:
    def setup_batch(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((16, 8))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        raw = rng.uniform(0.05, 1.0, (16, 8))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = np.repeat(np.arange(8), 2)
        return probs, z, labels

    def test_plain_arms_have_no_weights(self):
        probs, z, labels = self.setup_batch()
        for arm in ("ce_only", "scc"):
            assert batch_weights(small_config(arm=arm), probs, z, labels) is None

    def test_cpcm_arm_leaves_positive_pairs_alone(self):
        probs, z, labels = self.setup_batch()
        w = batch_weights(small_config(arm="scc_cpcm"), probs, z, labels)
        assert np.allclose(w.w_pos, 1.0)
        neg = labels[:, None] != labels[None, :]
        assert (w.w_neg[neg] > 1.0).all()

    def test_full_arm_fuses_both_sources(self):
        probs, z, labels = self.setup_batch()
        cpcm_only = batch_weights(small_config(arm="scc_cpcm"), probs, z, labels)
        eaa_only = batch_weights(small_config(arm="scc_eaa"), probs, z, labels)
        fused = batch_weights(small_config(arm="full"), probs, z, labels)
        neg = labels[:, None] != labels[None, :]
        expected = np.sqrt((cpcm_only.w_neg**2 + eaa_only.w_neg**2) / 2)
        assert np.allclose(fused.w_neg[neg], expected[neg], atol=1e-12)
        assert np.allclose(fused.w_pos, eaa_only.w_pos)

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
        for m in (w.w_pos, w.w_neg):
            assert np.isfinite(m).all() and (m > 0).all()


class TestNumericFailure:
    @pytest.mark.parametrize("arm", ["ce_only", "scc", "scc_cpcm", "full"])
    def test_overflowed_embeddings_raise(self, arm):
        # every train embedding's squared norm overflows, which normalises it
        # to an all-zero row
        split = build_dataset(default_shape_specs(), 4, 2, seed=1, n_points=32)
        for s in split.train:
            s.points *= 1e160
        with pytest.raises(NumericFailure, match=r"^epoch 0, batch 0: the forward "
                                                 r"overflows on train sample \d+: "):
            train(small_config(arm=arm, n_points=32), split)

    def test_overflowed_test_split_raises(self):
        # the evaluation before the first step already sees the overflow
        split = build_dataset(default_shape_specs(), 4, 2, seed=1, n_points=32)
        for s in split.test:
            s.points *= 1e160
        with pytest.raises(NumericFailure, match=r"^epoch -1 evaluation: the "
                                                 r"forward overflows on test "
                                                 r"sample 0: "):
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
