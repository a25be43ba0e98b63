import numpy as np
import pytest

from cedr.autodiff import Parameter, backward
from cedr.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from cedr.optim import SGDMomentum, cosine_lr

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
        p = Parameter(np.array([1.0, -2.0]), "p")
        opt = SGDMomentum([p], total_epochs=10, momentum=0.9, weight_decay=0.01)
        p.grad[...] = np.array([0.5, 0.5])
        v_expected = 0.9 * 0.0 + p.grad + 0.01 * p.values
        expected = p.values - opt.lr * v_expected
        opt.step()
        assert np.allclose(p.values, expected, atol=1e-15)
        # second step folds the buffer in
        prev = p.values.copy()
        p.grad[...] = np.array([0.1, 0.1])
        v_expected = 0.9 * v_expected + p.grad + 0.01 * prev
        opt.step()
        assert np.allclose(p.values, prev - opt.lr * v_expected, atol=1e-15)

    def test_descends_convex_quadratic(self):
        # f(x) = 0.5 x^T A x with curvature <= 4; lr below 2/4 descends
        a = np.diag([4.0, 1.0, 0.25])
        x = Parameter(np.array([3.0, -2.0, 1.0]), "x")
        opt = SGDMomentum([x], total_epochs=1000, lr_max=0.1, lr_min=0.1,
                          momentum=0.0, weight_decay=0.0)

        def f():
            return 0.5 * x.values @ a @ x.values

        prev = f()
        for _ in range(50):
            x.grad[...] = a @ x.values
            opt.step()
            cur = f()
            assert cur < prev
            prev = cur

    def test_rejects_nonfinite_result(self):
        p = Parameter(np.array([1.0]), "p")
        opt = SGDMomentum([p], total_epochs=10)
        p.grad[...] = np.array([np.inf])
        with pytest.raises(FloatingPointError, match="'p'"):
            opt.step()


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
    p = Parameter(np.array([[2.0]]), "w")
    opt = SGDMomentum([p], total_epochs=4, momentum=0.0, weight_decay=0.0)
    backward(weighted_sum(p, p.values.copy()))  # the gradient of 0.5 * p^2
    before = p.values.copy()
    opt.step()
    assert p.values[0, 0] == pytest.approx(before[0, 0] * (1 - opt.lr), rel=1e-12)
