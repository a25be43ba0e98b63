"""Cross-entropy, weighted supervised InfoNCE, and the joint objective.

The contrastive loss treats every same-class sample in the batch as a
positive for its anchor and every other-class sample as a negative. Pair
weights (from class-confusion mining, entropy attention, or their fusion)
enter as constants: gradients never flow through batch statistics.

For anchor i with positives P_i and negatives N_i, each positive j
contributes

    -log[ wp_ij e^{s_ij} / ( wp_ij e^{s_ij} + |N_i| * S_i ) ]

where s_ij = z_i . z_j / tau and S_i is the weight-normalized sum
sum_k wn_ik e^{s_ik} / sum_k wn_ik over negatives. It is computed in the log
domain, as softplus(lse_i - log wp_ij - s_ij) with lse_i = log(|N_i| S_i)
shifted by the anchor's largest negative similarity, so every tau > 0 gives
a finite loss and gradient. Positive weights are normalized by their
per-anchor mean, so scaling every weight by the same constant leaves the
loss unchanged and unit weights reproduce the unweighted loss exactly. An
anchor without positives is skipped (it contributes 0 and is not counted in
the mean); a batch in which no anchor has a positive gives a constant loss
of 0.

Each loss is one tape node with a closed-form vjp. For upstream g:

    cross-entropy   d/dp_{i,y_i} = -g / (n p_{i,y_i}) where p_{i,y_i} >= 1e-12,
                    0 below the floor and at every other entry
    InfoNCE         c_ij = pos_ij * g / (|P_i| * #valid anchors), rho_ij the
                    fraction above, q_ik = wn_ik e^{s_ik} / sum_N_i wn e^s,
                    G = c (rho - 1) + q sum_j c_ij (1 - rho_ij),
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
        return (grad,)

    return Tensor(-(np.log(floored).sum() * (1.0 / n)), (probs,), vjp,
                  "cross_entropy")


def pair_masks(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) bool masks over ordered pairs, diagonal excluded."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    return same & ~np.eye(len(labels), dtype=bool), ~same


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
    if (w_pos[pos_mask] <= 0).any() or (w_neg[neg_mask] <= 0).any():
        raise ValueError("pair weights must be positive")
    if not valid.any():
        return InfoNCEResult(mean=Tensor(0.0), per_anchor=np.zeros(b),
                             skipped_anchors=b)

    zv = z.values
    inv_tau = 1.0 / batch.temperature
    s = (zv @ zv.T) * inv_tau
    # positive pairs (row-major), a_ij = log wp_ij + s_ij with the weight over
    # its anchor's mean
    pi, pj = np.nonzero(pos_mask)
    w_p = w_pos[pi, pj]
    a = np.log(w_p * n_pos[pi] / np.bincount(pi, w_p, b)[pi]) + s[pi, pj]

    # shift each anchor's logsumexp by its largest negative similarity; the
    # clamp only touches entries off the negatives, whose weight is 0
    shift = np.where(neg_mask, s, -np.inf).max(axis=1)
    neg_w = w_neg * neg_mask
    q = np.exp(np.minimum(s - shift[:, None], 0.0)) * neg_w
    has_neg = n_neg > 0
    q_sum = np.where(has_neg, q.sum(axis=1), 1.0)
    # lse_i = log(|N_i| S_i), -inf at the anchors without negatives
    lse = shift + np.log(n_neg * q_sum / np.where(has_neg, neg_w.sum(axis=1), 1.0),
                         where=has_neg, out=np.full(b, -np.inf))

    x = lse[pi] - a   # the pair loss is softplus(x)
    pair_loss = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    rho = np.exp(-pair_loss)
    per_anchor = np.bincount(pi, pair_loss / n_pos[pi], b)
    n_valid = valid.sum()

    def vjp(g):
        c = g / (n_valid * n_pos[pi])
        # q / q_sum is the softmax over each anchor's negatives
        grad_sims = q * (np.bincount(pi, c * (1.0 - rho), b) / q_sum)[:, None]
        grad_sims[pi, pj] += c * (rho - 1.0)
        return ((grad_sims + grad_sims.T) @ zv * inv_tau,)

    mean = Tensor(per_anchor.sum() * (1.0 / n_valid), (z,), vjp, "infonce")
    return InfoNCEResult(mean=mean, per_anchor=per_anchor,
                         skipped_anchors=int(b - n_valid))


def joint_loss(ce: Tensor, nce: InfoNCEResult, lam: float) -> Tensor:
    """Scalar total = ce + lambda * nce."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return Tensor(ce.values + nce.mean.values * lam, (ce, nce.mean),
                  lambda g: (g, g * lam), "joint")
