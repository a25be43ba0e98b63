import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

# cedr first: importing it pins the BLAS thread count, which numpy reads at
# its own first import, so the suite trains with one thread as CI does
import cedr
from cedr import autodiff
from cedr.autodiff import Tensor
from cedr.cli import main
from cedr.data import PerturbationConfig, build_dataset, default_shape_specs

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def fd_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise, extrapolated
    from steps eps and eps / 2 (Richardson): 4/3 D(eps / 2) - 1/3 D(eps)
    cancels the eps^2 f'''(x) / 6 error of a central difference D, leaving
    a truncation error of order eps^4 f^(5)(x) and a rounding error of about
    3 machine epsilons times |f| / eps."""
    x = x.astype(np.float64)
    flat = x.ravel()

    def central(i, step):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        return (hi - lo) / (2 * step)

    return np.array([(4 * central(i, eps / 2) - central(i, eps)) / 3
                     for i in range(flat.size)]).reshape(x.shape)


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


# the src/ that the cedr under test comes from, which a child process imports
CEDR_SRC = str(Path(cedr.__file__).resolve().parent.parent)


def run_python(args, env=os.environ, check=False):
    """Run `python *args` as one child process, with CEDR_SRC first on its
    PYTHONPATH and `env` as the rest of its environment. Returns the
    CompletedProcess, stdout and stderr as text; a child still running
    after ten minutes fails the test."""
    path = os.pathsep.join(filter(None, [CEDR_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**env, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600, check=check)


def cedr_process(*argv):
    """(exit code, stdout, stderr) of `python -m cedr.cli *argv`, whose
    `sys.exit(main())` gives the exit code as the console script does."""
    done = run_python(["-m", "cedr.cli", *argv])
    return done.returncode, done.stdout, done.stderr


@pytest.fixture
def run_cedr(capsys):
    """Runner of one cedr command in this process: run_cedr(*argv) returns
    (exit code, stdout, stderr) of `cli.main(argv)`. An argparse SystemExit
    gives its code, and each warning is written to stderr as a process
    prints it. `test_cli.TestAsAProcess` overrides it with cedr_process."""
    def run(*argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        out, err = capsys.readouterr()
        return code, out, err + "".join(
            warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
            for w in caught)
    return run


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
