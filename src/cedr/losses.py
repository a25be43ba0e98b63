"""Cross-entropy, weighted supervised InfoNCE, and the joint objective.

The contrastive loss treats every same-class sample in the batch as a
positive for its anchor and every other-class sample as a negative. Pair
weights (from class-confusion mining, entropy attention, or their fusion)
enter as constants: gradients never flow through batch statistics.

For anchor i with positives P_i and negatives N_i, each positive j
contributes

    -log[ wp_ij e^{s_ij} / ( wp_ij e^{s_ij} + |N_i| * S_i ) ]

where s_ij = z_i . z_j / tau and S_i is the weight-normalized sum
sum_k wn_ik e^{s_ik} / sum_k wn_ik over negatives. Positive weights are
normalized by their per-anchor mean, so scaling every weight by the same
constant leaves the loss unchanged and unit weights reproduce the
unweighted loss exactly. An anchor without positives is skipped (it
contributes 0 and is not counted in the mean); a batch in which no anchor
has a positive gives a constant loss of 0.

Each loss is one tape node with a closed-form vjp. For upstream g:

    cross-entropy   d/dp_{i,y_i} = -g / (n p_{i,y_i}) where p_{i,y_i} >= 1e-12,
                    0 below the floor and at every other entry
    InfoNCE         c_ij = pos_ij * g / (|P_i| * #valid anchors),
                    r_i = sum_j c_ij / D_ij with D_ij the denominator above,
                    G = c (wp e / D - 1) + e wn (|N_i| / sum_k wn_ik) r_i,
                    dz = (G + G^T) z / tau   (Khosla et al., SupCon)
    joint           d/dce = g, d/dnce = lambda g
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor

CE_EPS = 1e-12


@dataclass
class PairWeightMatrix:
    """Per-pair multipliers fed to the weighted InfoNCE. Entries are only
    meaningful on their pair set (w_pos on positive pairs, w_neg on negative
    pairs); everything else is ignored by the loss."""

    w_pos: np.ndarray   # batch x batch
    w_neg: np.ndarray   # batch x batch


@dataclass
class ContrastiveBatch:
    embeddings: Tensor          # batch x D, unit rows
    labels: np.ndarray          # batch int class ids
    temperature: float = 1.0

    def __post_init__(self):
        if not isinstance(self.embeddings, Tensor):
            self.embeddings = Tensor(self.embeddings)
        self.labels = np.asarray(self.labels)
        if len(self.labels) != self.embeddings.shape[0]:
            raise ValueError("labels and embeddings disagree on batch size")
        if len(self.labels) < 2:
            raise ValueError("contrastive batch needs at least 2 samples")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


@dataclass
class InfoNCEResult:
    mean: Tensor                # scalar
    per_anchor: np.ndarray      # batch; 0.0 at skipped anchors
    skipped_anchors: int


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """Mean -log p(true class), probability floored at 1e-12."""
    if not isinstance(probs, Tensor):
        probs = Tensor(probs)
    labels = np.asarray(labels)
    n, n_classes = probs.shape
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(
            f"label out of range [0, {n_classes}): {labels.min()}..{labels.max()}"
        )
    rows = np.arange(n)
    picked = probs.values[rows, labels]
    floored = np.maximum(picked, CE_EPS)

    def vjp(g):
        # the floor passes no gradient below 1e-12
        grad = np.zeros((n, n_classes))
        grad[rows, labels] = -g * (picked >= CE_EPS) / (n * floored)
        return grad

    return Tensor(-(np.log(floored).sum() * (1.0 / n)), ((probs, vjp),),
                  "cross_entropy")


def pair_masks(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) 0/1 masks over ordered pairs, diagonal excluded."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    eye = np.eye(len(labels), dtype=bool)
    return (same & ~eye).astype(np.float64), (~same).astype(np.float64)


def supervised_infonce(batch: ContrastiveBatch, weights=None) -> InfoNCEResult:
    """Weighted supervised InfoNCE over a batch.

    weights: optional PairWeightMatrix (see .eaa); absent entries default to 1.
    """
    z = batch.embeddings
    labels = batch.labels
    b = len(labels)
    pos_mask, neg_mask = pair_masks(labels)
    n_pos = pos_mask.sum(axis=1)
    n_neg = neg_mask.sum(axis=1)
    valid = n_pos > 0

    w_pos = np.ones((b, b)) if weights is None else np.asarray(weights.w_pos, float)
    w_neg = np.ones((b, b)) if weights is None else np.asarray(weights.w_neg, float)
    if w_pos.shape != (b, b) or w_neg.shape != (b, b):
        raise ValueError("pair weight matrices must be batch x batch")
    if (w_pos[pos_mask > 0] <= 0).any() or (w_neg[neg_mask > 0] <= 0).any():
        raise ValueError("pair weights must be positive")
    if not valid.any():
        return InfoNCEResult(mean=Tensor(0.0), per_anchor=np.zeros(b),
                             skipped_anchors=b)

    # normalize positive weights by their per-anchor mean; masked-out entries
    # are set to 1 so the log below stays finite everywhere
    pos_mean = np.where(valid, (w_pos * pos_mask).sum(axis=1) / np.maximum(n_pos, 1), 1.0)
    wp = np.where(pos_mask > 0, w_pos / pos_mean[:, None], 1.0)

    neg_w = w_neg * neg_mask
    neg_w_sum = neg_w.sum(axis=1)
    # |N_i| / sum of negative weights; zero when the anchor has no negatives
    neg_scale = np.where(neg_w_sum > 0, n_neg / np.maximum(neg_w_sum, 1e-300), 0.0)

    zv = z.values
    inv_tau = 1.0 / batch.temperature
    e = np.exp((zv @ zv.T) * inv_tau)
    pos_term = e * wp                                             # b x b
    neg_block = (e * neg_w).sum(axis=1) * neg_scale               # b
    denom = pos_term + neg_block.reshape(b, 1)
    ratio = pos_term / denom
    pair_loss = -np.log(ratio) * pos_mask

    anchor_scale = np.where(valid, 1.0 / np.maximum(n_pos, 1), 0.0)
    per_anchor = pair_loss.sum(axis=1) * anchor_scale
    n_valid = valid.sum()

    def vjp(g):
        c = pos_mask * (anchor_scale * (g / n_valid))[:, None]
        r = (c / denom).sum(axis=1)
        grad_sims = c * (ratio - 1.0) + e * neg_w * (neg_scale * r)[:, None]
        return (grad_sims + grad_sims.T) @ zv * inv_tau

    mean = Tensor(per_anchor.sum() * (1.0 / n_valid), ((z, vjp),), "infonce")
    return InfoNCEResult(mean=mean, per_anchor=per_anchor,
                         skipped_anchors=int(b - n_valid))


def joint_loss(ce: Tensor, nce: InfoNCEResult, lam: float) -> Tensor:
    """Scalar total = ce + lambda * nce."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return Tensor(ce.values + nce.mean.values * lam,
                  ((ce, lambda g: g), (nce.mean, lambda g: g * lam)), "joint")
