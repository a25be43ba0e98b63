"""The cedr benchmark workloads: set-up, timed loop, output checks, metrics.

Every workload is a closed loop with one caller on one thread. Training
workloads time each epoch of ``cedr.train.train``; ``eval_cli`` times
in-process ``cedr.cli.main(["eval", ...])`` calls. Inputs come from the
seed only. Outputs are checked against a plain-numpy forward pass of the
encoder, written here so that it shares no code with cedr's autodiff.

Each op is timed twice: CPU time of this process (user + system), which the
bounded metrics use, and wall time, which the report gives under the long
names. The process runs one thread, so the two differ only by the time the
host takes the CPU away, which swings between runs on a shared machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cedr import cli, cpcm, data, eaa
from cedr.checkpoint import load_checkpoint, save_checkpoint
from cedr.config import ARMS, ExperimentConfig
from cedr.encoder import EncoderConfig, PointEncoder
from cedr.metrics import evaluate
from cedr.optim import SGDMomentum

from tracing import Target, Tracer

# cedr/__init__.py rebinds the package attribute ``cedr.train`` to the
# train() function, so ``import cedr.train`` would hand back the function.
TRAIN = sys.modules["cedr.train"]

SETUP_REPEATS = 6
MIN_OPS = 24        # enough ops for a tail with 10 samples beyond it
TAIL_BEYOND = 10
WARMUP_EPOCHS = 1   # per arm, before timing; the first epoch of a process runs slow
WARMUP_CALLS = 2
ABLATION_RUNS = 5 * 60   # seeds x epochs per arm in the acceptance ablation
# the acceptance suite's "moderate" perturbation (tests/test_acceptance.py)
MODERATE = dict(translate_frac=0.3, clutter_fraction=0.05, occlusion_radius_frac=0.1)
# printed by `cedr eval` and compared with the reference evaluation
CHECKED_KEYS = ("overall_acc", "avg_class_acc", "macro_f1")


@dataclass(frozen=True)
class Workload:
    n_train: int              # clouds per class
    n_test: int
    n_points: int
    hidden_dims: tuple
    moderate: bool            # acceptance perturbation, else the CLI default
    arms: tuple = ()          # no arms: eval_cli, which only evaluates
    batch_size: int = 32
    epochs: int = 0           # epochs per train() call
    # Seconds per op when the benchmark was defined (2-core x86 VM). A run
    # times --seconds / nominal_op_s ops, the same count on every commit, so
    # the tail is the same percentile on both sides of a change.
    nominal_op_s: float = 0.25


WORKLOADS = {
    # Tier-1's inner loop: the acceptance config, all five arms in turn
    "train_accept": Workload(80, 16, 128, (32, 64), True, ARMS, 32, 6, 0.25),
    # few points, wide batches: the b x b InfoNCE and pair weights dominate
    "pairs_wide": Workload(128, 16, 32, (32, 64), True, ("full",), 512, 12, 0.18),
    # README quick start: forward only, default encoder, 256 points
    "eval_cli": Workload(50, 20, 256, (64, 128), False, nominal_op_s=0.2),
}


@dataclass
class Run:
    """Everything one benchmark process measured and checked."""

    workload: Workload
    setup_cpu: list[float] = field(default_factory=list)
    setup_wall: list[float] = field(default_factory=list)
    build_cpu: list[float] = field(default_factory=list)     # traced runs only
    op_cpu: list[float] = field(default_factory=list)        # untraced ops
    op_wall: list[float] = field(default_factory=list)
    traced_cpu: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    arms: dict[str, dict] = field(default_factory=dict)
    expected: dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""
    samples_per_op: int = 0
    layers: Counter = field(default_factory=Counter)         # CPU s, traced ops
    # (arm, final accuracy, trained weights, epochs, failed already) per call
    unchecked: list[tuple] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        if not ok and self.checks.get(name, True):
            print(f"check failed: {name} {detail}".rstrip(), file=sys.stderr)
        self.checks[name] = self.checks.get(name, True) and ok
        return ok


def now() -> tuple[float, float, int]:
    """Wall time, CPU time and minor page faults of this process so far."""
    return (time.perf_counter(), time.process_time(),
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt)


# -- tracing targets and their layer metrics ----------------------------------

def _count_tape(counts, args):
    """Nodes of the step's graph, found by walking .parents from the loss
    before backward runs, so the count holds whatever backward does to it."""
    seen, stack = set(), [args[0]]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    counts["tape_nodes"] += len(seen)
    counts["steps"] += 1


def _count_anchors(counts, args, result):
    counts["skipped_anchors"] += result.skipped_anchors
    counts["anchors"] += len(args[0].labels)


def _count_tags(counts, args, result):
    counts["outlier"] += int((result.tag == "outlier").sum())
    counts["unstable"] += int((result.tag == "unstable").sum())
    counts["tagged"] += len(result.tag)


def trace_targets() -> list[Target]:
    """Each public function at the attribute its caller looks it up by."""
    return [
        Target(data, "build_dataset", "data.build_dataset"),
        Target(PointEncoder, "encode", "encoder.encode"),
        Target(TRAIN, "cross_entropy", "losses.cross_entropy"),
        Target(TRAIN, "batch_weights", "train.batch_weights"),
        Target(cpcm, "compute_centers", "cpcm.compute_centers"),
        Target(cpcm, "class_pair_weights", "cpcm.class_pair_weights"),
        Target(cpcm, "cpcm_negative_weights", "cpcm.cpcm_negative_weights"),
        Target(eaa, "classify_samples", "eaa.classify_samples", _count_tags),
        Target(eaa, "sample_weight", "eaa.sample_weight"),
        Target(eaa, "eaa_pair_weights", "eaa.eaa_pair_weights"),
        Target(eaa, "fuse_weights", "eaa.fuse_weights"),
        Target(TRAIN, "supervised_infonce", "losses.supervised_infonce", _count_anchors),
        Target(TRAIN, "backward", "autodiff.backward", count_before=_count_tape),
        Target(SGDMomentum, "step", "optim.step"),
        Target(TRAIN, "evaluate_model", "train.evaluate_model"),
        Target(TRAIN, "evaluate", "metrics.evaluate"),
        Target(cli, "main", "cli.main"),
        Target(cli, "load_checkpoint", "checkpoint.load_checkpoint"),
        Target(cli, "read_dataset", "data.read_dataset"),
        Target(cli, "evaluate", "metrics.evaluate"),
    ]


EVAL_ROOTS = {"train.evaluate_model", "cli.main"}
TRAIN_SPANS = {t.name for t in trace_targets()} - {
    "cli.main", "checkpoint.load_checkpoint", "data.read_dataset"}
EVAL_SPANS = {"data.build_dataset", "cli.main", "checkpoint.load_checkpoint",
              "data.read_dataset", "encoder.encode", "metrics.evaluate"}

# per-layer metric -> (unit, the end-to-end metric it moves, on which workload)
LAYERS = {
    "encoder.encode.train_s": ("s/op", "op_cpu_s.p50", "train_accept"),
    "autodiff.backward_s": ("s/op", "op_cpu_s.p50", "train_accept"),
    "autodiff.tape_nodes": ("count", "op_cpu_s.p50", "train_accept"),
    "train.evaluate_model_s": ("s/op", "op_cpu_s.p50", "train_accept"),
    "metrics.evaluate_s": ("s/op", "op_cpu_s.p50", "train_accept"),
    "optim.step_s": ("s/op", "op_cpu_s.p50", "train_accept"),
    "train.loop_other_s": ("s/op", "op_cpu_s.p50", "train_accept"),
    "process.minor_faults": ("count/op", "op_cpu_s.p50", "train_accept"),
    "losses.supervised_infonce_s": ("s/op", "op_cpu_s.p50", "pairs_wide"),
    "losses.cross_entropy_s": ("s/op", "op_cpu_s.p50", "pairs_wide"),
    "losses.skipped_anchor_frac": ("frac", "op_cpu_s.p50", "pairs_wide"),
    "train.batch_weights_s": ("s/op", "op_cpu_s.p50", "pairs_wide"),
    "cpcm.s": ("s/op", "op_cpu_s.p50", "pairs_wide"),
    "eaa.s": ("s/op", "op_cpu_s.p50", "pairs_wide"),
    "eaa.outlier_frac": ("frac", "op_cpu_s.p50", "pairs_wide"),
    "eaa.unstable_frac": ("frac", "op_cpu_s.p50", "pairs_wide"),
    "encoder.encode.eval_s": ("s/op", "op_cpu_s.p50 and peak_rss_mb", "eval_cli"),
    "data.read_dataset_s": ("s/op", "op_cpu_s.p50", "eval_cli"),
    "checkpoint.load_checkpoint_s": ("s/op", "op_cpu_s.p50", "eval_cli"),
    "cli.main_s": ("s/op", "op_cpu_s.p50", "eval_cli"),
    "data.build_dataset_s": ("s", "setup_s", "every workload"),
    "trace.overhead_frac": ("frac", "op_cpu_s.p50", "every workload"),
}


def layer_metric(span: str, in_eval: bool) -> str:
    if span == "encoder.encode":
        return "encoder.encode.eval_s" if in_eval else "encoder.encode.train_s"
    module = span.split(".")[0]
    return f"{module}.s" if module in ("cpcm", "eaa") else f"{span}_s"


def add_layer_times(tracer: Tracer, first: int, window_start: float,
                    layers: Counter) -> float:
    """Add the self time of spans[first:] that start inside the op window to
    their layer metrics; return the sum, which is the time spans cover."""
    covered = 0.0
    flags = tracer.under(first, EVAL_ROOTS)
    for (span, self_s), in_eval in zip(tracer.self_times(first), flags):
        if span.start >= window_start:
            layers[layer_metric(span.name, in_eval)] += self_s
            covered += self_s
    return covered


# -- set-up and reference ------------------------------------------------------

def setup(wl: Workload, seed: int, workdir: Path):
    """Generate the dataset; for eval_cli also write its files and a checkpoint
    of a freshly initialised default encoder."""
    perturb = (data.PerturbationConfig(**MODERATE) if wl.moderate
               else data.PerturbationConfig())
    dataset = data.build_dataset(data.default_shape_specs(), wl.n_train,
                                 wl.n_test, seed, perturb, n_points=wl.n_points)
    if not wl.arms:
        data.write_dataset(dataset, workdir / "data")
        model = PointEncoder(EncoderConfig(num_classes=len(dataset.class_names),
                                           hidden_dims=list(wl.hidden_dims)),
                             seed=seed)
        save_checkpoint(workdir / "model.ckpt", model.params)
    return dataset


def fingerprint(dataset) -> str:
    h = hashlib.sha256()
    for split in (dataset.train, dataset.test):
        pts, labels = data.stack_points(split)
        h.update(pts.tobytes())
        h.update(labels.tobytes())
    return h.hexdigest()


def reference_probs(tensors: dict, points: np.ndarray) -> np.ndarray:
    """Class probabilities of the encoder, in plain numpy: shared dense+relu
    per point, max pool over points, dense head, softmax."""
    b, n, d = points.shape
    h = points.reshape(b * n, d)
    i = 0
    while f"point{i}.w" in tensors:
        h = np.maximum(h @ tensors[f"point{i}.w"] + tensors[f"point{i}.b"], 0.0)
        i += 1
    logits = h.reshape(b, n, -1).max(axis=1) @ tensors["cls.w"] + tensors["cls.b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_eval(tensors: dict, samples) -> dict:
    pts, labels = data.stack_points(samples)
    return evaluate(reference_probs(tensors, pts), labels).summary()


# -- schedule ----------------------------------------------------------------

def op_count(wl: Workload, seconds: float) -> int:
    return max(MIN_OPS, round(seconds / wl.nominal_op_s))


def schedule(ops: int, ops_per_call: int, calls_per_round: int,
             tracer: Tracer | None):
    """Yield (call index, tracer for this call or None) for whole rounds of
    calls covering `ops`. A traced run alternates untraced and traced
    rounds, so both kinds see every call of a round."""
    rounds = -(-ops // (ops_per_call * calls_per_round))
    if tracer:
        rounds = max(rounds, 2)
    for c in range(rounds * calls_per_round):
        traced = (c // calls_per_round) % 2
        yield c, tracer if traced else None


# -- training workloads ---------------------------------------------------------

def train_config(wl: Workload, arm: str, seed: int, epochs: int) -> ExperimentConfig:
    return ExperimentConfig(arm=arm, seed=seed, epochs=epochs,
                            batch_size=wl.batch_size,
                            hidden_dims=list(wl.hidden_dims),
                            n_points=wl.n_points, temperature=0.5, lam=0.2)


@contextlib.contextmanager
def epoch_stamps():
    """now() at each return of train.evaluate_model.
    train() calls it once before the first epoch and at the end of every
    epoch, so consecutive stamps bound one epoch, including its eval."""
    stamps: list[tuple[float, float, int]] = []
    inner = TRAIN.evaluate_model

    def stamped(*args, **kwargs):
        report = inner(*args, **kwargs)
        stamps.append(now())
        return report

    TRAIN.evaluate_model = stamped
    try:
        yield stamps
    finally:
        TRAIN.evaluate_model = inner


def train_once(run: Run, arm: str, seed: int, dataset, tracer: Tracer | None):
    wl = run.workload
    first = len(tracer.spans) if tracer else 0
    with tracer or contextlib.nullcontext(), epoch_stamps() as stamps:
        try:
            record, model = TRAIN.train(train_config(wl, arm, seed, wl.epochs), dataset)
        except Exception:
            traceback.print_exc()
            run.attempted += max(len(stamps), 1)   # epochs done and the one that raised
            run.failed += 1
            run.check("train() returns", False, f"arm {arm}")
            return
    wall = [b[0] - a[0] for a, b in zip(stamps, stamps[1:])]
    cpu = [b[1] - a[1] for a, b in zip(stamps, stamps[1:])]

    finite = all(math.isfinite(v) for e in record.epochs[1:]
                 for v in (e.ce, e.nce, e.total))
    sha = hashlib.sha256(record.canonical_json().encode()).hexdigest()
    acc = record.final["overall_acc"]
    stats = run.arms.setdefault(arm, {"sha256": sha, "overall_acc": acc,
                                      "epoch_wall": [], "epoch_cpu": []})
    ok = all([
        run.check("every epoch's loss is finite", finite, f"arm {arm}"),
        run.check("canonical record repeats per arm", sha == stats["sha256"],
                  f"arm {arm}"),
    ])
    run.attempted += len(cpu)
    if not ok:
        run.failed += len(cpu)
    run.unchecked.append((arm, acc, {p.name: p.values.copy() for p in model.params},
                          len(cpu), not ok))
    if tracer is None:
        run.op_cpu += cpu
        run.op_wall += wall
        stats["epoch_wall"] += wall
        stats["epoch_cpu"] += cpu
    else:
        run.traced_cpu += cpu
        covered = add_layer_times(tracer, first, stamps[0][1], run.layers)
        run.layers["train.loop_other_s"] += sum(cpu) - covered
        run.layers["process.minor_faults"] += stamps[-1][2] - stamps[0][2]


def measure_train(run: Run, dataset, seed: int, seconds: float,
                  tracer: Tracer | None):
    wl = run.workload
    for arm in wl.arms:
        TRAIN.train(train_config(wl, arm, seed, WARMUP_EPOCHS), dataset)
    # a round trains every arm once, so every arm gets the same number of epochs
    for c, traced in schedule(op_count(wl, seconds), wl.epochs, len(wl.arms),
                              tracer):
        train_once(run, wl.arms[c % len(wl.arms)], seed, dataset, traced)
    # after the timed loop: the reference forward's large temporaries would
    # change the heap that the next train() call allocates from
    for arm, acc, weights, epochs, failed in run.unchecked:
        ref = reference_eval(weights, dataset.test)["overall_acc"]
        if not run.check("final accuracy matches the reference forward",
                         acc == ref, f"arm {arm}: {acc} vs {ref}") and not failed:
            run.failed += epochs


# -- eval_cli ------------------------------------------------------------------

def _printed_matches(printed: dict, key: str, expected: float) -> bool:
    """`cedr eval` prints 6 decimals."""
    try:
        return abs(float(printed[key]) - expected) <= 5e-7
    except (KeyError, ValueError):
        return False


def eval_once(run: Run, argv: list[str], tracer: Tracer | None):
    out = io.StringIO()
    first = len(tracer.spans) if tracer else 0
    with tracer or contextlib.nullcontext(), contextlib.redirect_stdout(out):
        start = now()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        end = now()
    wall, cpu = end[0] - start[0], end[1] - start[1]
    printed = dict(line.split(" = ", 1) for line in out.getvalue().splitlines()
                   if " = " in line)
    ok = run.check("cedr eval exits 0", code == 0, f"exit {code}") and all(
        run.check("printed accuracy matches the reference evaluation",
                  _printed_matches(printed, key, run.expected[key]),
                  f"{key}: {printed.get(key)} vs {run.expected[key]}")
        for key in CHECKED_KEYS)
    run.attempted += 1
    run.failed += not ok
    if tracer is None:
        run.op_cpu.append(cpu)
        run.op_wall.append(wall)
    else:
        run.traced_cpu.append(cpu)
        covered = add_layer_times(tracer, first, start[1], run.layers)
        run.layers["train.loop_other_s"] += cpu - covered
        run.layers["process.minor_faults"] += end[2] - start[2]


def measure_eval(run: Run, dataset, workdir: Path, seconds: float,
                 tracer: Tracer | None):
    checkpoint = workdir / "model.ckpt"
    tensors = load_checkpoint(checkpoint)
    run.expected = reference_eval(tensors, dataset.test)
    argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(workdir / "data")]
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(WARMUP_CALLS):
            cli.main(argv)
    for _, traced in schedule(op_count(run.workload, seconds), 1, 1, tracer):
        eval_once(run, argv, traced)
    # an untrained encoder predicts near chance, so its printed accuracy
    # alone would miss a forward that kept the argmax: check every probability
    pts, _ = data.stack_points(dataset.test)
    probs = cli.model_from_checkpoint(checkpoint).encode(pts).probs.values
    ref = reference_probs(tensors, pts)
    if not run.check("encoder probabilities match the reference forward",
                     np.allclose(probs, ref, rtol=1e-9, atol=1e-12),
                     f"max diff {np.abs(probs - ref).max():.3g}"):
        run.failed = run.attempted


# -- one process, one workload --------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[Run, Tracer | None]:
    run = Run(WORKLOADS[name])
    tracer = Tracer(trace_targets()) if trace else None
    measure(run, seed, seconds, tracer, workdir)
    if tracer:
        fired = {s.name for s in tracer.spans}
        expected = TRAIN_SPANS if run.workload.arms else EVAL_SPANS
        missing = sorted(expected - fired)
        if missing:
            raise SystemExit(f"benchmark self-test failed: traced functions "
                             f"never called: {', '.join(missing)}")
    return run, tracer


def measure(run: Run, seed: int, seconds: float, tracer: Tracer | None,
            workdir: Path):
    prints = set()
    for _ in range(SETUP_REPEATS):
        first = len(tracer.spans) if tracer else 0
        with tracer or contextlib.nullcontext():
            start = now()
            dataset = setup(run.workload, seed, workdir)
            end = now()
        run.setup_wall.append(end[0] - start[0])
        run.setup_cpu.append(end[1] - start[1])
        if tracer:
            run.build_cpu += [s.end - s.start for s in tracer.spans[first:]
                              if s.name == "data.build_dataset"]
        prints.add(fingerprint(dataset))
    run.samples_per_op = len(dataset.train if run.workload.arms else dataset.test)
    run.fingerprint = min(prints)
    run.check("set-up is deterministic", len(prints) == 1)

    if run.workload.arms:
        measure_train(run, dataset, seed, seconds, tracer)
    else:
        measure_eval(run, dataset, workdir, seconds, tracer)


# -- metrics -------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end(run: Run) -> tuple[dict, dict]:
    """(bounded metrics, report section). The bounded metrics time ops in
    CPU time; the report adds the wall-time metrics under the long names."""
    rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    cpu_tail, pct = tail(run.op_cpu)
    bounded = {
        "setup_s": (median(run.setup_cpu), "s"),
        "op_cpu_s.p50": (median(run.op_cpu), "s"),
        "op_cpu_s.tail": (cpu_tail, "s"),
        "samples_per_cpu_s": (run.samples_per_op * len(run.op_cpu) / sum(run.op_cpu),
                              "1/s"),
        "peak_rss_mb": rss,
    }
    op = "epoch" if run.workload.arms else "eval_call"
    samples = "train_samples_per_s" if run.workload.arms else "eval_samples_per_s"
    wall = {
        "setup_wall_s": (median(run.setup_wall), "s"),
        f"{op}_s.p50": (median(run.op_wall), "s"),
        f"{op}_s.tail": (tail(run.op_wall)[0], "s"),
        samples: (run.samples_per_op * len(run.op_wall) / sum(run.op_wall), "1/s"),
    }
    if run.workload.arms == ARMS:
        wall["ablation_est_s"] = (ABLATION_RUNS * sum(
            median(a["epoch_wall"]) for a in run.arms.values()), "s")
    report = {"op": op.replace("_", " "), "ops_timed": len(run.op_cpu),
              "tail_percentile": round(pct, 2), "tail_samples_beyond": TAIL_BEYOND,
              "wall_time": wall}
    return bounded, report


def per_layer(run: Run, tracer: Tracer) -> dict:
    ops = len(run.traced_cpu)
    counts = tracer.counts
    values = {name: run.layers[name] / ops
              for name, (unit, _, _) in LAYERS.items() if unit.endswith("/op")}
    values["autodiff.tape_nodes"] = counts["tape_nodes"] / max(counts["steps"], 1)
    values["losses.skipped_anchor_frac"] = (counts["skipped_anchors"]
                                            / max(counts["anchors"], 1))
    values["eaa.outlier_frac"] = counts["outlier"] / max(counts["tagged"], 1)
    values["eaa.unstable_frac"] = counts["unstable"] / max(counts["tagged"], 1)
    values["data.build_dataset_s"] = median(run.build_cpu)
    values["trace.overhead_frac"] = median(run.traced_cpu) / median(run.op_cpu) - 1.0
    return {name: (values[name], unit) for name, (unit, _, _) in LAYERS.items()}


def arm_report(run: Run) -> dict:
    return {arm: {"sha256": a["sha256"], "overall_acc": a["overall_acc"],
                  "epochs_timed": len(a["epoch_cpu"]),
                  "epoch_cpu_s.p50": median(a["epoch_cpu"]),
                  "epoch_s.p50": median(a["epoch_wall"])}
            for arm, a in run.arms.items()}
