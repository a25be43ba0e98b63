"""Entropy-aware attention: prediction-entropy taxonomy and pair weights.

Misclassified samples with confidently peaked predictions (low entropy) are
outliers and get down-weighted; correctly classified samples with diffuse
predictions (high entropy) sit near the decision boundary and get
up-weighted. The reference thresholds (1.0 / 2.5 bits) and the 1.2 offset
assume a 15-class output; for C classes, the width of the probabilities,
everything is rescaled by log2(C) / log2(15), the scale the profile carries,
so the same fractions of the entropy range apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REFERENCE_CLASSES = 15
LOW_THRESHOLD = 1.0     # bits, at 15 classes
HIGH_THRESHOLD = 2.5    # bits, at 15 classes
UNSTABLE_OFFSET = 1.2   # subtracted from entropy for unstable samples
FIXED_OUTLIER_WEIGHT = 0.8
FIXED_UNSTABLE_WEIGHT = 1.2


@dataclass
class EntropyProfile:
    entropy: np.ndarray    # bits
    correct: np.ndarray    # bools
    tag: np.ndarray        # 'outlier' | 'unstable' | 'normal'
    scale: float           # entropy_scale of the class count


def entropy_scale(num_classes: int) -> float:
    """Threshold/offset rescale factor for a non-reference class count."""
    return np.log2(num_classes) / np.log2(REFERENCE_CLASSES)


def shannon_entropy(probs: np.ndarray) -> np.ndarray:
    """Row-wise base-2 entropy; rows are renormalized, 0 log 0 := 0."""
    probs = np.asarray(probs, dtype=np.float64)
    if (probs < 0).any():
        raise ValueError("probabilities must be nonnegative")
    totals = probs.sum(axis=1)
    bad = np.flatnonzero(totals <= 0)
    if bad.size:
        raise ValueError(f"all-zero probability row {bad[0]}")
    p = probs / totals[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=1)


def classify_samples(probs: np.ndarray, labels: np.ndarray) -> EntropyProfile:
    """Tag each sample outlier / unstable / normal from its entropy."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape[1] < 2:
        raise ValueError("need at least 2 classes")
    scale = entropy_scale(probs.shape[1])
    ent = shannon_entropy(probs)
    correct = probs.argmax(axis=1) == labels
    tag = np.full(len(labels), "normal", dtype=object)
    tag[(ent < LOW_THRESHOLD * scale) & ~correct] = "outlier"
    tag[(ent > HIGH_THRESHOLD * scale) & correct] = "unstable"
    return EntropyProfile(ent, correct, tag, scale)


def sample_weight(profile: EntropyProfile, mode: str = "varying") -> np.ndarray:
    """Per-sample attention weights.

    varying: outlier -> E, unstable -> E - 1.2, normal -> 1, with E measured
    on the reference 15-class scale (entropy / profile.scale). fixed: 0.8 / 1.2 / 1.
    """
    if mode == "varying":
        e = profile.entropy / profile.scale
        a = np.ones(len(e))
        a[profile.tag == "outlier"] = e[profile.tag == "outlier"]
        a[profile.tag == "unstable"] = e[profile.tag == "unstable"] - UNSTABLE_OFFSET
    elif mode == "fixed":
        a = np.ones(len(profile.entropy))
        a[profile.tag == "outlier"] = FIXED_OUTLIER_WEIGHT
        a[profile.tag == "unstable"] = FIXED_UNSTABLE_WEIGHT
    else:
        raise ValueError(f"unknown weight mode '{mode}'")
    return a


def eaa_pair_weights(a: np.ndarray) -> np.ndarray:
    """(batch, batch) pair weights from the sample weights a, by one rule on
    both pair sets: max(a_i, a_j) when neither sample is down-weighted
    (a >= 1), min(a_i, a_j) otherwise."""
    a = np.asarray(a, dtype=np.float64)
    if (~((a > 0) & (a < np.inf))).any():
        raise ValueError("sample weights must be positive and finite")
    w = np.maximum.outer(a, a)
    # the rows and columns of the few down-weighted samples take the min
    low = np.flatnonzero(a < 1)
    if low.size:
        w[low] = np.minimum.outer(a[low], a)
        w[:, low] = w[low].T
    return w


def fuse_weights(cpcm: np.ndarray, eaa: np.ndarray,
                 labels: np.ndarray) -> np.ndarray:
    """Combine the mining and attention pair weights of one batch. Negative
    pairs get their quadratic mean, sqrt(c**2 + e**2) / sqrt(2), so two
    neutral (=1) inputs map to 1; same-class pairs carry the attention
    weights alone (mining defines none).

    supervised_infonce divides each anchor's negative weights by their sum,
    so the 1/sqrt(2) leaves training unchanged; it keeps the fused weights
    on the scale of their inputs. No input is written, and `cpcm` is freed
    once squared if the caller holds no other reference to it.
    """
    if cpcm.shape != eaa.shape:
        raise ValueError(f"pair sets differ: {cpcm.shape} vs {eaa.shape}")
    # compared as the smallest unsigned type that holds them (see supervised_infonce)
    small = labels.astype(np.min_scalar_type(labels.max()))
    fused = np.square(cpcm)
    del cpcm
    fused += np.square(eaa)
    np.divide(np.sqrt(fused, out=fused), np.sqrt(2.0), out=fused)
    return np.where(small[:, None] != small, fused, eaa)
