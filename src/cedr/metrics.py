"""Evaluation metrics and analysis exports.

Overall accuracy is trace(confusion)/total; average class accuracy is the
mean of per-class recalls; macro F1 averages the per-class harmonic means
of precision and recall (0 where a class has neither predictions nor
support credit).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .cpcm import class_pair_weights, compute_centers
from .eaa import classify_samples, shannon_entropy


@dataclass
class EvalReport:
    overall_acc: float
    avg_class_acc: float
    macro_f1: float
    confusion: np.ndarray          # true x predicted counts
    mean_entropy_correct: float
    mean_entropy_wrong: float

    def summary(self) -> dict:
        return {
            "overall_acc": self.overall_acc,
            "avg_class_acc": self.avg_class_acc,
            "macro_f1": self.macro_f1,
            "mean_entropy_correct": self.mean_entropy_correct,
            "mean_entropy_wrong": self.mean_entropy_wrong,
        }

    def json_summary(self) -> dict:
        """summary() with each non-finite value as None, JSON's null."""
        return {k: v if math.isfinite(v) else None
                for k, v in self.summary().items()}


def confusion_matrix(labels: np.ndarray, predicted: np.ndarray,
                     num_classes: int) -> np.ndarray:
    cm = np.zeros((num_classes, num_classes), dtype=int)
    np.add.at(cm, (labels, predicted), 1)
    return cm


def evaluate(probs: np.ndarray, labels: np.ndarray) -> EvalReport:
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    num_classes = probs.shape[1]
    predicted = probs.argmax(axis=1)
    cm = confusion_matrix(labels, predicted, num_classes)

    support = cm.sum(axis=1)
    pred_counts = cm.sum(axis=0)
    diag = np.diag(cm).astype(float)
    recall = np.divide(diag, support, out=np.zeros(num_classes), where=support > 0)
    precision = np.divide(diag, pred_counts, out=np.zeros(num_classes),
                          where=pred_counts > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros(num_classes),
                   where=pr > 0)

    present = support > 0
    ent = shannon_entropy(probs)
    correct = predicted == labels
    return EvalReport(
        overall_acc=float(diag.sum() / len(labels)),
        avg_class_acc=float(recall[present].mean()),
        macro_f1=float(f1[present].mean()),
        confusion=cm,
        mean_entropy_correct=float(ent[correct].mean()) if correct.any() else float("nan"),
        mean_entropy_wrong=float(ent[~correct].mean()) if (~correct).any() else float("nan"),
    )


def center_distance_report(embeddings: np.ndarray, labels: np.ndarray,
                           num_classes: int) -> np.ndarray:
    """Pairwise Euclidean distances between class-mean embeddings. Classes
    with no samples get nan rows."""
    centers = compute_centers(embeddings, labels, num_classes)
    centers.centers[~centers.mask] = np.nan
    return class_pair_weights(centers).dist


# -- exports ---------------------------------------------------------------

def write_csv(path, rows):
    """Write `rows`, each a list of cells, as one CSV file."""
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def write_json(path, payload):
    """Write `payload` as standard JSON: indent 2, sorted keys, a trailing
    newline. A NaN or infinite number raises ValueError before the file is
    opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w") as f:
        f.write(text)


def write_confusion_csv(path, cm: np.ndarray, class_names: list[str]):
    write_csv(path, [["true\\pred", *class_names]]
              + [[name, *(int(x) for x in row)]
                 for name, row in zip(class_names, cm)])


def write_center_distance_csv(path, dist: np.ndarray, class_names: list[str]):
    write_csv(path, [["", *class_names]]
              + [[name, *(f"{x:.9g}" for x in row)]
                 for name, row in zip(class_names, dist)])


def write_entropy_csv(path, probs: np.ndarray, labels: np.ndarray):
    profile = classify_samples(probs, labels)
    write_csv(path, [["sample_id", "entropy", "correct", "tag"]]
              + [[i, f"{e:.9g}", int(c), t] for i, (e, c, t) in enumerate(
                  zip(profile.entropy, profile.correct, profile.tag))])


def export_embeddings(path, embeddings: np.ndarray, probs: np.ndarray,
                      labels: np.ndarray):
    """sample_id, label, entropy, tag, then one column per embedding dim."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    profile = classify_samples(probs, labels)
    header = (["sample_id", "label", "entropy", "tag"]
              + [f"e{k}" for k in range(embeddings.shape[1])])
    write_csv(path, [header] + [
        [i, int(labels[i]), f"{profile.entropy[i]:.9g}", profile.tag[i],
         *(f"{x:.9g}" for x in embeddings[i])] for i in range(len(labels))])
