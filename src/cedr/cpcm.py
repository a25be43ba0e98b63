"""Confusion-prone class mining: class centers, center distances, and the
negative-pair weights that push near-center class pairs apart harder.

The per-pair weight is W(i, j) = 1 + exp(-2 d(i, j)) with d the Euclidean
distance between the class centers, so coincident centers get weight 2 and
well-separated classes fall back towards 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEAREST_MARGIN = 0.8  # required gap between nearest and second-nearest class


@dataclass
class ClassCenters:
    centers: np.ndarray   # n_classes x D; rows undefined where mask is False
    mask: np.ndarray      # n_classes bools: class has samples in the batch


@dataclass
class ClassPairWeights:
    w_minus: np.ndarray   # n_classes x n_classes, symmetric, in (1, 2]
    dist: np.ndarray      # n_classes x n_classes Euclidean center distances
    mask: np.ndarray


def compute_centers(embeddings: np.ndarray, labels: np.ndarray,
                    num_classes: int) -> ClassCenters:
    """Per-class mean embedding over one batch."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("cannot compute centers of an empty batch")
    centers = np.zeros((num_classes, embeddings.shape[1]))
    mask = np.zeros(num_classes, dtype=bool)
    for c in range(num_classes):
        rows = labels == c
        if rows.any():
            centers[c] = embeddings[rows].mean(axis=0)
            mask[c] = True
    return ClassCenters(centers, mask)


def class_pair_weights(centers: ClassCenters) -> ClassPairWeights:
    diff = centers.centers[:, None, :] - centers.centers[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    w = 1.0 + np.exp(-2.0 * dist)
    return ClassPairWeights(w, dist, centers.mask.copy())


def cpcm_negative_weights(labels: np.ndarray, pair_weights: ClassPairWeights,
                          method: str = "all_pairs") -> np.ndarray:
    """Expand class-pair weights to a (batch, batch) array of sample-pair
    weights: class weights on the negative pairs, 1 on same-class pairs.

    all_pairs: every cross-class pair gets its class weight. nearest_only:
    only each class's nearest class pair is weighted, and only when the
    nearest distance beats the second nearest by more than the 0.8 margin;
    everything else stays at 1.
    """
    labels = np.asarray(labels)
    undefined = ~pair_weights.mask[labels]
    if undefined.any():
        missing = [int(c) for c in np.unique(labels[undefined])]
        raise ValueError(f"no center defined for class(es) {missing}")

    n_classes = pair_weights.w_minus.shape[0]
    if method == "all_pairs":
        class_w = pair_weights.w_minus.copy()
    elif method == "nearest_only":
        class_w = np.ones((n_classes, n_classes))
        defined = np.flatnonzero(pair_weights.mask)
        for c in defined:
            others = defined[defined != c]
            if len(others) < 2:
                continue
            d = pair_weights.dist[c, others]
            order = np.argsort(d, kind="stable")
            nearest, second = others[order[0]], others[order[1]]
            if d[order[0]] + NEAREST_MARGIN < d[order[1]]:
                class_w[c, nearest] = pair_weights.w_minus[c, nearest]
                class_w[nearest, c] = pair_weights.w_minus[nearest, c]
    else:
        raise ValueError(f"unknown mining method '{method}'")

    # a class with itself gives the same-class pairs, which mining leaves at 1
    np.fill_diagonal(class_w, 1.0)
    # rows, then columns: two 1-D gathers beat one 2-D fancy gather; the
    # transposes keep the result C-contiguous, like the arrays it meets later
    return class_w.T[labels][:, labels].T
