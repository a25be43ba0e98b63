#!/usr/bin/env python3
"""cedr benchmark: run one workload in this process and report its metrics.

    python3 benchmark/run.py --workload train_accept --seed 0 --seconds 15 --trace 0

Run it from the root of a cedr checkout: it imports ``cedr`` from ``src/``
and builds every input from ``--seed``. It prints a report (environment,
checks, per-arm record hashes, wall-time metrics under their long names)
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. benchmark/README.md describes them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread whatever the caller's environment says: every op runs
# serially on one core. Set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def fix_malloc() -> str:
    """Fix glibc's heap policy for this process: blocks below 32 MiB come
    from the heap and freed memory is not trimmed. With the defaults the
    mmap threshold moves with the sizes freed so far, so numpy's large
    temporaries are reused in one process and faulted in afresh in the next,
    and the same epoch costs 0.21 s of CPU or 0.30 s by chance."""
    try:
        libc = ctypes.CDLL("libc.so.6")
        ok = (libc.mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
              and libc.mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1)
    except (OSError, AttributeError):
        return "default (no glibc mallopt)"
    return "mmap threshold 32 MiB, no trim" if ok else "default (mallopt refused)"


def environment(malloc: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=30)
        top, commit = git.stdout.split()
        if git.returncode or Path(top).resolve() != ROOT:
            raise ValueError
    except (OSError, ValueError, subprocess.TimeoutExpired):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "malloc": malloc,
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_accept", "pairs_wide", "eval_cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cedr" / "__init__.py").is_file():
        print(f"error: no cedr package at {SRC}; run the benchmark from a "
              f"cedr checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    malloc = fix_malloc()
    sys.path.insert(0, str(SRC))
    import workloads as w

    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        run, tracer = w.run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), Path(tmp))

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(malloc),
              "setup_cpu_s_repeats": run.setup_cpu,
              "dataset_sha256": run.fingerprint,
              "checks": run.checks,
              "failed_frac": run.failed / max(run.attempted, 1)}
    if run.arms:
        report["arms"] = w.arm_report(run)
    else:
        report["expected"] = run.expected
    if tracer is None:
        metrics, report["sampling"] = w.end_to_end(run)
    else:
        metrics = w.per_layer(run, tracer)
        report["traced_ops"] = len(run.traced_cpu)
        report["untraced_ops"] = len(run.op_cpu)
        report["moves"] = {name: f"{target} on {workload}"
                           for name, (_, target, workload) in w.LAYERS.items()}
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": all(run.checks.values()) and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
