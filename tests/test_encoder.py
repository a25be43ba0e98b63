import tracemalloc

import numpy as np
import pytest

from cedr.autodiff import backward
from cedr.data import PerturbationConfig, build_dataset, default_shape_specs
from cedr.encoder import EncoderConfig, PointEncoder
from cedr.losses import cross_entropy


@pytest.fixture
def model():
    return PointEncoder(EncoderConfig(num_classes=5, hidden_dims=[8, 12]), seed=11)


def random_batch(rng, batch=4, n=16):
    return rng.standard_normal((batch, n, 3))


class TestEncode:
    def test_permutation_invariance_bitwise(self, model):
        rng = np.random.default_rng(0)
        pts = random_batch(rng)
        perm = rng.permutation(pts.shape[1])
        a = model.encode(pts)
        b = model.encode(pts[:, perm, :])
        assert np.array_equal(a.probs.values, b.probs.values)
        assert np.array_equal(a.embeddings.values, b.embeddings.values)

    def test_duplicate_samples_give_identical_rows(self, model):
        pts = random_batch(np.random.default_rng(1), batch=1)
        doubled = np.concatenate([pts, pts])
        out = model.encode(doubled)
        assert np.array_equal(out.probs.values[0], out.probs.values[1])
        assert np.array_equal(out.embeddings.values[0], out.embeddings.values[1])

    def test_single_point_cloud_pool_is_identity(self, model):
        p = np.random.default_rng(2).standard_normal((1, 1, 3))
        # hand-evaluate the shared two-layer MLP on the single point
        h = p[0]
        for w, b in model.point_layers:
            h = np.maximum(h @ w.values + b.values, 0.0)
        w, b = model.cls_head
        out = model.encode(p)
        logits = h[0] @ w.values + b.values
        e = np.exp(logits - logits.max())
        assert np.allclose(out.probs.values[0], e / e.sum(), atol=1e-12)

    def test_output_invariants(self, model):
        out = model.encode(random_batch(np.random.default_rng(3), batch=6))
        assert np.allclose(out.probs.values.sum(axis=1), 1.0, atol=1e-9)
        norms = np.linalg.norm(out.embeddings.values, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_empty_cloud_rejected(self, model):
        with pytest.raises(ValueError, match="empty"):
            model.encode(np.zeros((2, 0, 3)))

    def test_nonfinite_coordinates_rejected(self, model):
        pts = np.zeros((1, 4, 3))
        pts[0, 2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            model.encode(pts)

    def test_peak_memory_is_one_array_per_layer(self):
        # dense, bias and relu of a per-point layer share one buffer
        model = PointEncoder(EncoderConfig(num_classes=5, hidden_dims=[16, 32]))
        pts = random_batch(np.random.default_rng(4), batch=8, n=64)
        layer_bytes = 8 * 64 * (16 + 32) * 8
        tracemalloc.start()
        try:
            out = model.encode(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.probs.shape == (8, 5)
        assert peak < 2 * layer_bytes, peak / layer_bytes

    def test_tape_holds_no_hidden_activations(self):
        # a pairs_wide-shaped batch (512 clouds of 32 points, hidden dims 32
        # and 64), traced from before the forward: the tape keeps none of the
        # per-point hidden activations, and the point-MLP vjp recomputes only
        # their critical rows (about 60% of the rows here), so its peak holds
        # those rows and the top layer's gradient rows, not the full array
        split = build_dataset(default_shape_specs(), 128, 2, seed=0,
                              perturb=PerturbationConfig.moderate(), n_points=32)
        idx = np.random.default_rng(0).permutation(len(split.train.labels))[:512]
        pts, labels = split.train.points[idx], split.train.labels[idx]
        model = PointEncoder(EncoderConfig(num_classes=8, hidden_dims=[32, 64]))
        hidden_bytes = 512 * 32 * 32 * 8
        tracemalloc.start()
        try:
            loss = cross_entropy(model.encode(pts).probs, labels)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(model.params[0].grad).all()
        assert held < 0.5 * hidden_bytes, held / hidden_bytes
        assert peak < 3.0 * hidden_bytes, peak / hidden_bytes

    def test_config_ties_projection_to_global_dim(self):
        model = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 7]))
        assert model.prj_head[0].shape == (7, 7)
        assert model.cls_head[0].shape == (7, 3)


def test_load_state_missing_parameter(model, tmp_path):
    with pytest.raises(ValueError, match="point0.w"):
        model.load_state({})


@pytest.mark.parametrize("value, match", [
    (np.zeros(1), r"'cls.b' has shape \(1,\), expected \(5,\)"),
    (np.full(5, np.nan), "'cls.b' has non-finite values"),
])
def test_load_state_rejects_bad_tensor(model, value, match):
    tensors = {p.name: np.ones(p.shape) for p in model.params}
    tensors["cls.b"] = value
    before = [p.values.copy() for p in model.params]
    with pytest.raises(ValueError, match=match):
        model.load_state(tensors)
    for p, old in zip(model.params, before):
        assert np.array_equal(p.values, old), p.name
