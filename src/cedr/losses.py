"""Cross-entropy, weighted supervised InfoNCE, and the joint objective.

The contrastive loss treats every same-class sample in the batch as a
positive for its anchor and every other-class sample as a negative. The pair
weights (from class-confusion mining, entropy attention, or their fusion) are
one (batch, batch) array w, read as wp on the positive pairs and as wn on the
negative pairs; the diagonal is on neither set and is ignored. They enter as
constants: gradients never flow through batch statistics.

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

Without weights (the scc arm) the pair weights are all ones, and the loss
takes the same path as every weighted arm. The Gram matrix z z^T is
numpy's SYRK product. A GEMM against a contiguous z^T is faster at batch
512, but under OpenBLAS 0.3.31 its last bits differ from SYRK's at most
batch sizes that are not a multiple of 8. The forward weights the exponentials
q of the negatives in place, and the vjp writes its gradient into q.

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
class ContrastiveBatch:
    embeddings: Tensor          # batch x D, unit rows
    labels: np.ndarray          # batch int class ids
    temperature: float = 1.0

    def __post_init__(self):
        if not isinstance(self.embeddings, Tensor):
            self.embeddings = Tensor(self.embeddings)
        self.labels = np.asarray(self.labels)
        if self.labels.dtype.kind not in "iu" or (self.labels < 0).any():
            raise ValueError("labels must be nonnegative integer class ids")
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


def supervised_infonce(batch: ContrastiveBatch, weights=None) -> InfoNCEResult:
    """Weighted supervised InfoNCE over a batch.

    weights: optional (batch, batch) pair weights (see .cpcm and .eaa), each
    > 0 and finite on its pair and never written; None means all ones.
    """
    z = batch.embeddings
    labels = batch.labels
    b = len(labels)
    class_sizes = np.bincount(labels)
    # compared as the smallest unsigned type that holds them, which numpy
    # does several times faster than int64
    small = labels.astype(np.min_scalar_type(len(class_sizes) - 1))
    same = small[:, None] == small
    counts = class_sizes[labels]
    n_pos = counts - 1
    n_neg = b - counts
    valid = n_pos > 0

    w = np.ones((b, b)) if weights is None else np.asarray(weights, float)
    if w.shape != (b, b):
        raise ValueError(f"pair weights have shape {w.shape}, not {(b, b)}")
    # every off-diagonal pair is positive or negative; w > 0 is also
    # False for NaN, and q *= w below needs a finite weight
    ok = (w > 0) & (w < np.inf)
    ok.flat[::b + 1] = True
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        kind = "positive" if same[i, j] else "negative"
        raise ValueError(f"pair weight w[{i}, {j}] = {w[i, j]:g} on a {kind} "
                         f"pair is not {'finite' if w[i, j] > 0 else 'positive'}")
    del ok
    neg_w_sum = np.where(same, 0.0, w).sum(axis=1)   # before s exists
    if not valid.any():
        return InfoNCEResult(mean=Tensor(0.0), per_anchor=np.zeros(b),
                             skipped_anchors=b)

    zv = z.values
    inv_tau = 1.0 / batch.temperature
    s = zv @ zv.T
    s *= inv_tau

    # positive pairs by flat index, row-major, so anchor i has n_pos[i] in a
    # run; a_ij = log wp_ij + s_ij with the weight over its anchor's mean
    # (log 1 = 0 for unit weights). They are read before s turns into q.
    same.flat[::b + 1] = False   # the diagonal is no positive pair,
    pos = np.flatnonzero(same)
    same.flat[::b + 1] = True    # and no negative one
    pi = np.repeat(np.arange(b), n_pos)
    w_p = w.take(pos)
    a = np.log(w_p * n_pos[pi] / np.bincount(pi, w_p, b)[pi]) + s.take(pos)
    del w_p

    # q is s in place, -inf off the negatives, so one b x b float array
    # lives beside the inputs; shift each anchor's logsumexp by its largest
    # negative similarity (0 at an anchor without negatives, whose row stays
    # -inf)
    q = s
    np.copyto(q, -np.inf, where=same)
    shift = q.max(axis=1)
    has_neg = n_neg > 0
    q -= np.where(has_neg, shift, 0.0)[:, None]
    np.exp(q, out=q)
    # q is +0 off the negatives and w finite on the positives, so they stay
    # +0; the diagonal, where w may be anything, is reset
    with np.errstate(invalid="ignore"):
        q *= w
    q.flat[::b + 1] = 0.0
    q_sum = np.where(has_neg, q.sum(axis=1), 1.0)
    # lse_i = log(|N_i| S_i), -inf at the anchors without negatives
    lse = shift + np.log(n_neg * q_sum / np.where(has_neg, neg_w_sum, 1.0),
                         where=has_neg, out=np.full(b, -np.inf))

    x = lse[pi] - a   # the pair loss is softplus(x)
    pair_loss = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    rho = np.exp(-pair_loss)
    per_anchor = np.bincount(pi, pair_loss / n_pos[pi], b)
    n_valid = valid.sum()

    def vjp(g):
        c = g / (n_valid * n_pos[pi])
        # q / q_sum is the softmax over each anchor's negatives; G goes into q
        np.multiply(q, (np.bincount(pi, c * (1.0 - rho), b) / q_sum)[:, None], out=q)
        np.add.at(q.ravel(), pos, c * (rho - 1.0))
        return ((q + q.T) @ zv * inv_tau,)

    mean = Tensor(per_anchor.sum() * (1.0 / n_valid), (z,), vjp, "infonce")
    return InfoNCEResult(mean=mean, per_anchor=per_anchor,
                         skipped_anchors=int(b - n_valid))


def joint_loss(ce: Tensor, nce: InfoNCEResult, lam: float) -> Tensor:
    """Scalar total = ce + lambda * nce."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return Tensor(ce.values + nce.mean.values * lam, (ce, nce.mean),
                  lambda g: (g, g * lam), "joint")
