"""Acceptance suite. Each criterion is one test that prints a PASS/FAIL line.

The training-based criteria (5, 6, 7) share a single scaled-down ablation:
8 classes x 80 train / 16 test samples, 128 points, moderate perturbation,
hidden dims [32, 64], 60 epochs, seeds 0-4. That run takes some minutes;
everything else is seconds.
"""

import csv
import math
import time

import numpy as np
import pytest

from cedr.autodiff import backward
from cedr.config import ExperimentConfig
from cedr.cpcm import ClassCenters, class_pair_weights
from cedr.data import (
    CONFUSABLE_PAIRS,
    PerturbationConfig,
    build_dataset,
    default_shape_specs,
    stack_points,
    write_dataset,
)
from cedr.eaa import eaa_pair_weights, fuse_weights, shannon_entropy
from cedr.encoder import EncoderConfig, PointEncoder
from cedr.losses import (
    ContrastiveBatch,
    cross_entropy,
    joint_loss,
    supervised_infonce,
)
from cedr.metrics import center_distance_report
from cedr.train import (LAMBDA_GRID, ablation_variants, batch_weights,
                        run_variants, train)

from test_losses import (WEIGHT_SOURCES, infonce_oracle, one_matrix,
                         unit_embeddings)

ARMS = ("ce_only", "scc", "scc_cpcm", "scc_eaa", "full")

# shared configuration of the training-based criteria
ACCEPT = dict(epochs=60, batch_size=32, hidden_dims=[32, 64], n_points=128,
              temperature=0.5, lam=0.2)
SEEDS = (0, 1, 2, 3, 4)


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {tag} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def accept_dataset():
    # moderate perturbation: at the full translation strength the confusion
    # is dominated by placement noise, which no pair weighting can mine
    perturb = PerturbationConfig(translate_frac=0.3, clutter_fraction=0.05,
                                 occlusion_radius_frac=0.1)
    return build_dataset(default_shape_specs(), 80, 16, seed=0, n_points=128,
                         perturb=perturb)


@pytest.fixture(scope="module")
def ablation(accept_dataset):
    """The shared 5-arm x 5-seed x 60-epoch run used by criteria 5-7."""
    t0 = time.perf_counter()
    result = run_variants(ablation_variants(ExperimentConfig(**ACCEPT), SEEDS),
                          accept_dataset)
    return result, time.perf_counter() - t0


def arm_loss(config, model, pts, labels, weights):
    """The joint loss with the pair weights frozen (they are stop-gradient
    constants in training, so finite differences must hold them fixed)."""
    out = model.encode(pts)
    ce = cross_entropy(out.probs, labels)
    if config.arm == "ce_only":
        return ce
    nce = supervised_infonce(
        ContrastiveBatch(out.embeddings, labels, config.temperature), weights)
    return joint_loss(ce, nce, config.lam)


def test_criterion_1_gradient_suite():
    dataset = build_dataset(default_shape_specs()[:4], 2, 2, seed=3,
                            n_points=48)
    pts, labels = stack_points(dataset.train)
    t0 = time.perf_counter()
    worst = 0.0
    for arm in ARMS:
        config = ExperimentConfig(arm=arm, temperature=0.7, lam=0.15,
                                  hidden_dims=[8, 12], n_points=48)
        model = PointEncoder(EncoderConfig(num_classes=8, hidden_dims=[8, 12]),
                             seed=1)
        base = model.encode(pts)
        weights = batch_weights(config, base.probs.values,
                                base.embeddings.values, labels)
        loss = arm_loss(config, model, pts, labels, weights)
        model.grad.fill(0.0)
        backward(loss)
        eps = 1e-5
        for p in model.params:
            fd = np.zeros_like(p.values)
            flat_v = p.values.reshape(-1)
            flat_fd = fd.reshape(-1)
            for k in range(flat_v.size):
                orig = flat_v[k]
                flat_v[k] = orig + eps
                hi = float(arm_loss(config, model, pts, labels, weights).values)
                flat_v[k] = orig - eps
                lo = float(arm_loss(config, model, pts, labels, weights).values)
                flat_v[k] = orig
                flat_fd[k] = (hi - lo) / (2 * eps)
            denom = np.maximum(np.abs(fd), 1e-6)
            worst = max(worst, float(np.max(np.abs(p.grad - fd) / denom)))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-4 and elapsed < 60.0,
           f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_weight_identity(tiny_dataset):
    rng = np.random.default_rng(1)
    z = unit_embeddings(rng, 10, 6)
    labels = rng.integers(0, 3, 10)
    labels[:2] = 0
    base = float(supervised_infonce(ContrastiveBatch(z, labels)).mean.values)
    max_dev = 0.0
    for c in (0.2, 1.0, 3.7):
        w = np.full((10, 10), c)
        got = float(supervised_infonce(ContrastiveBatch(z, labels), w).mean.values)
        max_dev = max(max_dev, abs(got - base))

    shared = dict(epochs=3, batch_size=16, hidden_dims=[8, 16], n_points=64,
                  seed=0)
    _, m_ce = train(ExperimentConfig(arm="ce_only", **shared), tiny_dataset)
    _, m_scc = train(ExperimentConfig(arm="scc", lam=0.0, **shared),
                     tiny_dataset)
    bitwise = all(np.array_equal(a.values, b.values)
                  for a, b in zip(m_ce.params, m_scc.params))
    report(2, max_dev < 1e-12 and bitwise,
           f"(weight dev {max_dev:.1e}, lambda=0 params bitwise: {bitwise})")


def test_criterion_3_formula_oracles():
    # closed-form center-distance weight on a 1e3 grid: 1-D centers at d, so
    # center 0 sits at distance d_k from center k
    d = np.linspace(0.0, 12.0, 1001)
    w = class_pair_weights(ClassCenters(d[:, None], np.ones(len(d), dtype=bool)))
    dev_w = max(abs(w.w_minus[0, k] - (1.0 + math.exp(-2.0 * x)))
                for k, x in enumerate(d))

    # literal four-case pair-selection table on a 40x40 grid, both pair sets
    grid = np.linspace(0.05, 2.0, 40)
    pw = eaa_pair_weights(grid)
    dev_sel = 0.0
    for i, ai in enumerate(grid):
        for j, aj in enumerate(grid):
            expected = max(ai, aj) if (ai >= 1 and aj >= 1) else min(ai, aj)
            dev_sel = max(dev_sel, abs(pw[i, j] - expected))

    # loop entropy on 1000 random rows
    rng = np.random.default_rng(2)
    probs = rng.uniform(1e-4, 1.0, (1000, 7))
    probs /= probs.sum(axis=1, keepdims=True)
    loop = np.array([-sum(p * math.log2(p) for p in row if p > 0)
                     for row in probs])
    dev_ent = float(np.max(np.abs(shannon_entropy(probs) - loop)))

    # quadratic-mean fusion on 1024 weight pairs: 32 classes of one sample,
    # so every pair but the diagonal is negative; the diagonal keeps b
    a = rng.uniform(1.0, 2.0, (32, 32))
    b = rng.uniform(0.5, 2.0, (32, 32))
    fused = fuse_weights(a, b, np.arange(32))
    expected = np.where(np.eye(32, dtype=bool), b, np.sqrt((a**2 + b**2) / 2))
    dev_fuse = float(np.max(np.abs(fused - expected)))

    worst = max(dev_w, dev_sel, dev_ent, dev_fuse)
    report(3, worst < 1e-12,
           f"(max dev {worst:.1e} over cpcm/select/entropy/fuse oracles)")


def test_criterion_4_pairwise_loss_oracle():
    worst = 0.0
    for seed, source in enumerate(WEIGHT_SOURCES):
        rng = np.random.default_rng(seed)
        for b in (4, 6, 8, 10):
            z = unit_embeddings(rng, b, 5)
            labels = rng.integers(0, 3, b)
            labels[:2] = labels[0]
            w_pos = w_neg = None
            weights = None
            if source != "unit":
                w_pos = (rng.uniform(0.5, 2.0, (b, b))
                         if source in ("random_pos", "both") else np.ones((b, b)))
                w_neg = (rng.uniform(0.5, 2.0, (b, b))
                         if source in ("random_neg", "both") else np.ones((b, b)))
                weights = one_matrix(labels, w_pos, w_neg)
            result = supervised_infonce(ContrastiveBatch(z, labels, 0.6), weights)
            per_anchor, mean = infonce_oracle(z, labels, 0.6, w_pos, w_neg)
            worst = max(worst,
                        float(np.max(np.abs(result.per_anchor - per_anchor))),
                        abs(float(result.mean.values) - mean))
    report(4, worst < 1e-10, f"(max dev {worst:.1e} across 4 weight sources)")


def test_criterion_5_ablation_trend(ablation, tmp_path):
    result, elapsed = ablation
    means = {arm: result.mean_overall(arm) for arm in ARMS}
    margin_scc = means["scc"] - means["ce_only"]
    margin_full = means["full"] - means["scc"]
    path = tmp_path / "ablation.csv"
    result.write_csv(path)
    rows = list(csv.reader(path.open()))
    shaped = ([r[0] for r in rows[1:]] == list(ARMS)
              and rows[0][-4:] == ["overall_acc_mean", "overall_acc_std",
                                   "avg_class_acc_mean", "avg_class_acc_std"]
              and len(rows[0]) == 1 + 2 * len(SEEDS) + 4)
    detail = (f"(means {' '.join(f'{a}={means[a]:.4f}' for a in ARMS)}; "
              f"margins scc-ce={margin_scc:+.4f} full-scc={margin_full:+.4f}; "
              f"{elapsed / 60:.1f} min)")
    report(5, margin_scc > 0 and margin_full > 0 and shaped
           and elapsed < 30 * 60, detail)


def pair_distance(model, samples, num_classes):
    pts, labels = stack_points(samples)
    emb = model.encode(pts).embeddings.values
    dist = center_distance_report(emb, labels, num_classes)
    return sum(dist[i, j] for i, j in CONFUSABLE_PAIRS)


def test_criterion_6_cpcm_separation(ablation, accept_dataset):
    result, _ = ablation
    by = {(r["variant"], r["seed"]): r["model"] for r in result.rows}
    wins = 0
    deltas = []
    for seed in SEEDS:
        d_scc = pair_distance(by[("scc", seed)], accept_dataset.test, 8)
        d_cpcm = pair_distance(by[("scc_cpcm", seed)], accept_dataset.test, 8)
        deltas.append(d_cpcm - d_scc)
        wins += d_cpcm > d_scc
    report(6, wins >= 4,
           f"({wins}/5 seeds, deltas {' '.join(f'{d:+.3f}' for d in deltas)})")


def test_criterion_7_entropy_semantics(ablation, accept_dataset):
    result, _ = ablation
    pts, labels = stack_points(accept_dataset.test)
    wins = 0
    in_range = True
    for seed in SEEDS:
        model = next(r["model"] for r in result.rows
                     if r["variant"] == "full" and r["seed"] == seed)
        probs = model.encode(pts).probs.values
        ent = shannon_entropy(probs)
        in_range &= bool((ent >= -1e-12).all()
                         and (ent <= math.log2(8) + 1e-9).all())
        correct = probs.argmax(axis=1) == labels
        if correct.any() and (~correct).any():
            wins += ent[correct].mean() < ent[~correct].mean()
    report(7, wins >= 4 and in_range,
           f"({wins}/5 seeds, entropies in [0, log2 8]: {in_range})")


def test_criterion_8_determinism(tmp_path):
    config = dict(arm="full", epochs=2, batch_size=16, hidden_dims=[8, 16],
                  n_points=64, seed=4)
    dataset = build_dataset(default_shape_specs(), 4, 2, seed=11, n_points=64)
    rec_a, _ = train(ExperimentConfig(**config), dataset)
    rec_b, _ = train(ExperimentConfig(**config), dataset)
    records_equal = rec_a.canonical_json() == rec_b.canonical_json()

    for run in ("a", "b"):
        split = build_dataset(default_shape_specs(), 3, 2, seed=11, n_points=48)
        write_dataset(split, tmp_path / run)
    files_equal = all(
        (tmp_path / f"a.{part}.cpcd").read_bytes()
        == (tmp_path / f"b.{part}.cpcd").read_bytes()
        for part in ("train", "test"))
    report(8, records_equal and files_equal,
           f"(run records identical: {records_equal}, "
           f"dataset bytes identical: {files_equal})")


def test_criterion_9_lambda_grid(tiny_dataset, tmp_path):
    base = ExperimentConfig(arm="scc", epochs=2, batch_size=16,
                            hidden_dims=[8, 16], n_points=64)
    result = run_variants(ablation_variants(base, (0,), LAMBDA_GRID),
                          tiny_dataset)
    path = tmp_path / "lambda.csv"
    result.write_csv(path)
    rows = list(csv.reader(path.open()))
    variants = [r[0] for r in rows[1:]]
    expected = ["constant_0.05", "constant_0.1", "constant_0.2",
                "constant_0.3", "linear_0.1_0.2"]
    report(9, variants == expected, f"(grid variants: {variants})")
