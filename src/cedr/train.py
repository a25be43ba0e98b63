"""Training loop, per-arm weight assembly, and the ablation runner."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import cpcm, eaa
from .autodiff import backward
from .config import ARMS, ExperimentConfig
from .data import Clouds, DatasetSplit, stack_points
from .encoder import EncoderConfig, PointEncoder
from .losses import (
    ContrastiveBatch,
    cross_entropy,
    joint_loss,
    supervised_infonce,
)
from .metrics import EvalReport, evaluate, write_csv, write_json
from .optim import SGDMomentum, cosine_lr


class NumericFailure(RuntimeError):
    """A forward or a weight that training cannot go on from (exit code 3)."""


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    lam: float
    ce: float | None      # the three losses are None at epoch -1, the
    nce: float | None     # evaluation before the first step
    total: float | None
    skipped_anchors: int
    overall_acc: float
    avg_class_acc: float
    macro_f1: float


@dataclass
class RunRecord:
    config: dict
    epochs: list[EpochRecord] = field(default_factory=list)
    final: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def canonical_json(self) -> str:
        """Deterministic serialization; wall time varies between otherwise
        identical runs and is deliberately excluded."""
        payload = {
            "config": self.config,
            "epochs": [asdict(e) for e in self.epochs],
            "final": self.final,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)

    def save(self, path):
        write_json(path, {**json.loads(self.canonical_json()),
                          "wall_time": self.wall_time})


def batch_weights(config: ExperimentConfig, probs: np.ndarray,
                  embeddings: np.ndarray,
                  labels: np.ndarray) -> np.ndarray | None:
    """Assemble the (batch, batch) pair weights for the configured arm, or
    None (unit weights) for ce_only and scc. All inputs are plain arrays from
    the current forward pass; nothing here is on the tape."""
    if config.arm in ("ce_only", "scc"):
        return None

    if config.arm in ("scc_cpcm", "full"):
        centers = cpcm.compute_centers(embeddings, labels, probs.shape[1])
        pair_w = cpcm.class_pair_weights(centers)
        if config.arm == "scc_cpcm":
            return cpcm.cpcm_negative_weights(labels, pair_w, config.cpcm_method)

    profile = eaa.classify_samples(probs, labels)
    a = eaa.sample_weight(profile, config.eaa_mode)
    # a wrong, exactly one-hot prediction has entropy 0, so its weight is 0
    bad = np.flatnonzero(~(a > 0))
    if bad.size:
        why = ("is a wrong prediction with zero entropy, which gives it"
               if a[bad[0]] == 0 else "has")
        raise NumericFailure(f"batch sample {bad[0]} {why} attention weight "
                             f"{a[bad[0]]:g}")
    eaa_w = eaa.eaa_pair_weights(a)
    if config.arm == "scc_eaa":
        return eaa_w
    return eaa.fuse_weights(cpcm.cpcm_negative_weights(
        labels, pair_w, config.cpcm_method), eaa_w, labels)


def check_forward(out, where: str, ids) -> None:
    """Raise NumericFailure naming the first of `ids` whose forward overflowed:
    its probabilities are not finite, or its embedding is not unit-norm (a
    row whose squared norm overflows is normalised to zeros, not to a unit
    row)."""
    emb = out.embeddings.values
    # np.isclose(sq, 1.0)'s bound, written out; NaN and inf fail it too
    ok = (np.isfinite(out.probs.values).all(axis=1)
          & (np.abs((emb * emb).sum(axis=1) - 1.0) <= 1e-8 + 1e-5))
    if not ok.all():
        raise NumericFailure(
            f"{where} {ids[np.flatnonzero(~ok)[0]]}: non-finite "
            "probabilities or an embedding that is not unit-norm")


def encode_split(model: PointEncoder, points: np.ndarray,
                 where: str) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and embeddings of a stacked split from one forward,
    checked under the split's own sample indices. The per-point MLP builds
    its layers one chunk of clouds at a time (`autodiff.chunk_bounds`) and the
    heads run once over the split, so the results are one whole-split
    forward's bits by construction."""
    # an overflow ends in a NumericFailure that names it, not in a warning
    with np.errstate(over="ignore", invalid="ignore"):
        out = model.encode(points)
    check_forward(out, where, range(len(points)))
    return out.probs.values, out.embeddings.values


def evaluate_model(model: PointEncoder, clouds: Clouds, epoch: int) -> EvalReport:
    pts, labels = stack_points(clouds)
    probs, _ = encode_split(model, pts, f"epoch {epoch} evaluation: the "
                            "forward overflows on test sample")
    return evaluate(probs, labels)


def train(config: ExperimentConfig,
          dataset: DatasetSplit) -> tuple[RunRecord, PointEncoder]:
    config.validate()
    num_classes = len(dataset.class_names)
    if num_classes < 2:
        raise ValueError("training needs at least 2 classes, "
                         f"the dataset has {num_classes}")
    t0 = time.perf_counter()
    enc_config = EncoderConfig(num_classes=num_classes,
                               hidden_dims=list(config.hidden_dims))
    model = PointEncoder(enc_config, seed=config.seed)
    opt = SGDMomentum(model.params, config.momentum, config.weight_decay)

    train_pts, train_labels = stack_points(dataset.train)
    record = RunRecord(config=json.loads(json.dumps(asdict(config),
                                                    allow_nan=False)))

    report = evaluate_model(model, dataset.test, -1)
    record.epochs.append(EpochRecord(
        epoch=-1, lr=cosine_lr(0, config.epochs, config.lr_max, config.lr_min),
        lam=config.lam_at(0), ce=None, nce=None, total=None, skipped_anchors=0,
        overall_acc=report.overall_acc, avg_class_acc=report.avg_class_acc,
        macro_f1=report.macro_f1))

    n = len(train_labels)
    for epoch in range(config.epochs):
        lr = cosine_lr(epoch, config.epochs, config.lr_max, config.lr_min)
        lam = config.lam_at(epoch)
        order = np.random.default_rng(
            np.random.SeedSequence((config.seed, epoch))).permutation(n)
        sums = {"ce": 0.0, "nce": 0.0, "total": 0.0}
        skipped = 0
        n_batches = 0
        for bi, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            if len(idx) < 2:
                continue
            labels = train_labels[idx]
            # an overflow ends in an error that names it, not in a warning
            with np.errstate(over="ignore", invalid="ignore"):
                out = model.encode(train_pts[idx])
                check_forward(out, f"epoch {epoch}, batch {bi}: the forward "
                              "overflows on train sample", idx)
                ce = cross_entropy(out.probs, labels)
                total, nce = ce, None
                if config.arm != "ce_only":
                    # no local holds the b x b weights, so they are freed
                    # when the InfoNCE forward returns, before backward
                    nce = supervised_infonce(
                        ContrastiveBatch(out.embeddings, labels,
                                         config.temperature),
                        batch_weights(config, out.probs.values,
                                      out.embeddings.values, labels))
                    total = joint_loss(ce, nce, lam)
                opt.zero_grad()
                backward(total)
                opt.step(lr)
            sums["ce"] += float(ce.values)
            sums["total"] += float(total.values)
            if nce is not None:
                sums["nce"] += float(nce.mean.values)
                skipped += nce.skipped_anchors
            n_batches += 1

        report = evaluate_model(model, dataset.test, epoch)
        record.epochs.append(EpochRecord(
            epoch=epoch, lr=lr, lam=lam,
            ce=sums["ce"] / max(n_batches, 1),
            nce=sums["nce"] / max(n_batches, 1),
            total=sums["total"] / max(n_batches, 1),
            skipped_anchors=skipped,
            overall_acc=report.overall_acc,
            avg_class_acc=report.avg_class_acc,
            macro_f1=report.macro_f1))

    record.final = report.json_summary()
    record.wall_time = time.perf_counter() - t0
    return record, model


@dataclass
class AblationResult:
    rows: list[dict]

    def write_csv(self, path):
        seeds = sorted({r["seed"] for r in self.rows})
        header = ["variant"]
        for s in seeds:
            header += [f"overall_acc_seed{s}", f"avg_class_acc_seed{s}"]
        table = [header + ["overall_acc_mean", "overall_acc_std",
                           "avg_class_acc_mean", "avg_class_acc_std"]]
        for v in dict.fromkeys(r["variant"] for r in self.rows):
            sub = {r["seed"]: r for r in self.rows if r["variant"] == v}
            oa = np.array([sub[s]["overall_acc"] for s in seeds])
            aca = np.array([sub[s]["avg_class_acc"] for s in seeds])
            row = [v]
            for s in seeds:
                row += [f"{sub[s]['overall_acc']:.6f}",
                        f"{sub[s]['avg_class_acc']:.6f}"]
            row += [f"{oa.mean():.6f}", f"{oa.std():.6f}",
                    f"{aca.mean():.6f}", f"{aca.std():.6f}"]
            table.append(row)
        write_csv(path, table)

    def mean_overall(self, variant: str) -> float:
        vals = [r["overall_acc"] for r in self.rows if r["variant"] == variant]
        return float(np.mean(vals))


def ablation_variants(base: ExperimentConfig, seeds=(0, 1, 2, 3, 4),
                      arms=ARMS) -> list:
    """Every arm on every seed with otherwise shared config, as validated
    (label, config) pairs."""
    return [(arm, replace(base, arm=arm, seed=seed).validate())
            for arm in arms for seed in seeds]


# (label, config overrides) of each balance-coefficient setting
LAMBDA_GRID = (
    ("constant_0.05", dict(lambda_schedule="constant", lam=0.05)),
    ("constant_0.1", dict(lambda_schedule="constant", lam=0.1)),
    ("constant_0.2", dict(lambda_schedule="constant", lam=0.2)),
    ("constant_0.3", dict(lambda_schedule="constant", lam=0.3)),
    ("linear_0.1_0.2", dict(lambda_schedule="linear", lam=0.1, lambda_end=0.2)),
)


def lambda_grid_variants(base: ExperimentConfig, seeds=(0, 1, 2, 3, 4)) -> list:
    """Every balance-coefficient setting on every seed, as validated (label,
    config) pairs."""
    return [(label, replace(base, seed=seed, **overrides).validate())
            for label, overrides in LAMBDA_GRID for seed in seeds]


def run_variants(variants, dataset: DatasetSplit, progress=None) -> AblationResult:
    """Train each (label, config) pair in order; one result row per pair.
    The builders above validate every config before any run trains."""
    rows = []
    for label, config in variants:
        record, model = train(config, dataset)
        rows.append({
            "variant": label, "seed": config.seed,
            "overall_acc": record.final["overall_acc"],
            "avg_class_acc": record.final["avg_class_acc"],
            "record": record, "model": model,
        })
        if progress:
            progress(rows[-1])
    return AblationResult(rows)


def run_ablation(base: ExperimentConfig, dataset: DatasetSplit,
                 seeds=(0, 1, 2, 3, 4), arms=ARMS,
                 progress=None) -> AblationResult:
    """Train every arm on every seed with otherwise shared config."""
    return run_variants(ablation_variants(base, seeds, arms), dataset, progress)


def run_lambda_grid(base: ExperimentConfig, dataset: DatasetSplit,
                    seeds=(0, 1, 2, 3, 4), progress=None) -> AblationResult:
    """Balance-coefficient study over the contrastive arm."""
    return run_variants(lambda_grid_variants(base, seeds), dataset, progress)
