import re

import numpy as np
import pytest

from cedr.autodiff import FlatParameters, Parameter, backward
from cedr.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from cedr.config import ExperimentConfig
from cedr.encoder import EncoderConfig, PointEncoder
from cedr.optim import SGDMomentum, cosine_lr
from cedr.train import train

from conftest import weighted_sum


class TestCosineSchedule:
    def test_starts_at_lr_max(self):
        assert cosine_lr(0, 300) == pytest.approx(0.1, abs=1e-15)

    def test_ends_at_lr_min(self):
        assert cosine_lr(300, 300) == pytest.approx(0.001, abs=1e-15)

    def test_midpoint(self):
        assert cosine_lr(150, 300) == pytest.approx(0.0505, abs=1e-15)

    def test_monotone_nonincreasing(self):
        lrs = [cosine_lr(t, 200) for t in range(201)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_bounded(self):
        for t in range(0, 61):
            assert 0.001 <= cosine_lr(t, 60) <= 0.1


class TestSGD:
    def test_momentum_update_formula(self):
        model = FlatParameters([("p", np.array([1.0, -2.0]))])
        (p,) = model.params
        opt = SGDMomentum(model, momentum=0.9, weight_decay=0.01)
        lr = cosine_lr(0, 10)
        p.grad[...] = np.array([0.5, 0.5])
        v_expected = 0.9 * 0.0 + p.grad + 0.01 * p.values
        expected = p.values - lr * v_expected
        opt.step(lr)
        assert np.allclose(p.values, expected, atol=1e-15)
        # second step folds the buffer in
        prev = p.values.copy()
        p.grad[...] = np.array([0.1, 0.1])
        v_expected = 0.9 * v_expected + p.grad + 0.01 * prev
        opt.step(lr)
        assert np.allclose(p.values, prev - lr * v_expected, atol=1e-15)

    def test_descends_convex_quadratic(self):
        # f(x) = 0.5 x^T A x with curvature <= 4; lr below 2/4 descends
        a = np.diag([4.0, 1.0, 0.25])
        model = FlatParameters([("x", np.array([3.0, -2.0, 1.0]))])
        (x,) = model.params
        opt = SGDMomentum(model, momentum=0.0, weight_decay=0.0)

        def f():
            return 0.5 * x.values @ a @ x.values

        prev = f()
        for _ in range(50):
            x.grad[...] = a @ x.values
            opt.step(0.1)
            cur = f()
            assert cur < prev
            prev = cur

    def test_rejects_nonfinite_result(self):
        model = FlatParameters([("p", np.array([1.0]))])
        (p,) = model.params
        opt = SGDMomentum(model, momentum=0.9, weight_decay=1e-4)
        p.grad[...] = np.array([np.inf])
        with pytest.raises(FloatingPointError, match="'p'"):
            opt.step(cosine_lr(0, 10))

    def test_names_the_first_non_finite_parameter(self):
        model = FlatParameters([("a.w", np.ones((2, 3))), ("a.b", np.ones(3))])
        params = model.params
        opt = SGDMomentum(model, momentum=0.9, weight_decay=1e-4)
        params[1].grad[2] = np.nan
        with pytest.raises(FloatingPointError, match="'a.b'"):
            opt.step(0.1)

    def test_zero_grad_clears_every_parameter(self):
        model = FlatParameters([("a.w", np.ones((2, 3))), ("a.b", np.ones(3))])
        params = model.params
        opt = SGDMomentum(model, momentum=0.9, weight_decay=1e-4)
        for p in params:
            p.grad[...] = 5.0
        opt.zero_grad()
        assert all(not p.grad.any() for p in params)

    def test_parameters_are_views_of_the_flat_arrays(self):
        other = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]),
                             seed=1)
        model = PointEncoder(other.config,
                             state={p.name: p.values for p in other.params})
        SGDMomentum(model, momentum=0.9, weight_decay=1e-4)   # moves no array
        assert not np.shares_memory(model.values, other.values)
        for p, q in zip(model.params, other.params):
            assert np.shares_memory(p.values, model.values)
            assert np.shares_memory(p.grad, model.grad)
            assert np.array_equal(p.values, q.values)
        assert model.values.size == sum(p.values.size for p in model.params)

    def test_step_after_load_before_the_optimizer(self):
        # the optimizer reads the model's buffers when it steps, so a model
        # built from loaded values is stepped from those values
        other = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]),
                             seed=1)
        model = PointEncoder(other.config,
                             state={p.name: p.values for p in other.params})
        opt = SGDMomentum(model, momentum=0.9, weight_decay=0.01)
        rng = np.random.default_rng(0)
        for p in model.params:
            p.grad[...] = rng.standard_normal(p.shape)
        lr = cosine_lr(0, 10)
        opt.step(lr)
        for p, q in zip(model.params, other.params):
            v_expected = 0.9 * 0.0 + p.grad + 0.01 * q.values
            assert np.allclose(p.values, q.values - lr * v_expected, atol=1e-15)

    def test_names_the_parameter_at_each_boundary(self):
        # a NaN at the first and at the last flat index of each parameter
        config = EncoderConfig(num_classes=3, hidden_dims=[4, 6])
        ends = PointEncoder(config).ends
        for k, (start, end) in enumerate(zip([0, *ends[:-1]], ends)):
            for i in (start, end - 1):
                model = PointEncoder(config)
                opt = SGDMomentum(model, momentum=0.9, weight_decay=1e-4)
                model.grad[i] = np.nan
                name = model.params[k].name
                with pytest.raises(FloatingPointError, match=f"'{re.escape(name)}'$"):
                    opt.step(0.1)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = [Parameter(rng.standard_normal((3, 4)), "a.w"),
                  Parameter(rng.standard_normal(4), "a.b")]
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert set(loaded) == {"a.w", "a.b"}
        for p in params:
            assert np.array_equal(loaded[p.name], p.values)

    def test_trained_model_roundtrip(self, tiny_dataset, tmp_path):
        _, model = train(ExperimentConfig(epochs=1, batch_size=16,
                                          hidden_dims=[4, 8]), tiny_dataset)
        save_checkpoint(tmp_path / "m.ckpt", model.params)
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        assert list(loaded) == [p.name for p in model.params]
        for p in model.params:
            assert np.array_equal(loaded[p.name], p.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX\x01\x00")
        with pytest.raises(CheckpointError, match="offset 0"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"CEDR\x63\x00")
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda b: b[:5], "truncated version at offset 4"),
        (lambda b: b[:9], "truncated tensor name at offset 8"),
        (lambda b: b[:40], "truncated values of 'a.w' at offset 21"),
        (lambda b: b + b"\x00", "truncated tensor name length at offset 160"),
        (lambda b: b[:121] + b"w" + b[122:], "repeated tensor 'a.w' at offset 117"),
    ])
    def test_malformed_file_names_the_offset(self, tmp_path, edit, match):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, [Parameter(np.ones((3, 4)), "a.w"),
                               Parameter(np.ones(4), "a.b")])
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(CheckpointError, match=match) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")


def test_gradients_reach_optimizer_through_backward():
    model = FlatParameters([("w", np.array([[2.0]]))])
    (p,) = model.params
    opt = SGDMomentum(model, momentum=0.0, weight_decay=0.0)
    backward(weighted_sum(p, p.values.copy()))  # the gradient of 0.5 * p^2
    before = p.values.copy()
    lr = cosine_lr(0, 4)
    opt.step(lr)
    assert p.values[0, 0] == pytest.approx(before[0, 0] * (1 - lr), rel=1e-12)
