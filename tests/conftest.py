import json

# cedr first: importing it pins the BLAS thread count, which numpy reads at
# its own first import, so the suite trains with one thread as CI does
from cedr import autodiff
from cedr.autodiff import Tensor
from cedr.data import PerturbationConfig, build_dataset, default_shape_specs

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def fd_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Worst-case elementwise relative error, with an absolute floor for
    entries near zero."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / scale))


def weighted_sum(node: Tensor, upstream=1.0) -> Tensor:
    """Scalar sum(upstream * node) as one tape node: backward hands `node`
    the fixed array `upstream` (broadcast to its shape) as its gradient."""
    up = np.broadcast_to(np.asarray(upstream, dtype=np.float64), node.shape)
    return Tensor((node.values * up).sum(), (node,), lambda g: (g * up,),
                  "weighted_sum")


def pair_masks(labels) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) bool masks over ordered pairs, diagonal excluded."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    return same & ~np.eye(len(labels), dtype=bool), ~same


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which standard JSON lacks."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small perturbed 8-class dataset shared across tests."""
    return build_dataset(default_shape_specs(), 6, 4, seed=7, n_points=64)


@pytest.fixture(scope="session")
def clean_dataset():
    return build_dataset(default_shape_specs(), 4, 2, seed=3,
                         perturb=PerturbationConfig.none(), n_points=64)


@pytest.fixture
def chunk_rows(monkeypatch):
    """Setter of cedr.autodiff's row budget per chunk of clouds, undone after
    the test."""
    return lambda rows: monkeypatch.setattr(autodiff, "CHUNK_ROWS", rows)
