import csv
import json
import math

import numpy as np
import pytest

from cedr.metrics import (
    center_distance_report,
    confusion_matrix,
    evaluate,
    export_embeddings,
    write_center_distance_csv,
    write_confusion_csv,
    write_entropy_csv,
    write_json,
)

from conftest import strict_json


def one_hot_probs(predicted, num_classes, peak=0.97):
    probs = np.full((len(predicted), num_classes),
                    (1.0 - peak) / (num_classes - 1))
    probs[np.arange(len(predicted)), predicted] = peak
    return probs


class TestConfusion:
    def test_counts_match_loop(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, 30)
        predicted = rng.integers(0, 4, 30)
        cm = confusion_matrix(labels, predicted, 4)
        for t in range(4):
            for p in range(4):
                assert cm[t, p] == np.sum((labels == t) & (predicted == p))

    def test_row_sums_are_class_counts(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        cm = confusion_matrix(labels, np.zeros(6, dtype=int), 3)
        assert list(cm.sum(axis=1)) == [2, 1, 3]

    def test_column_sums_are_prediction_counts(self):
        predicted = np.array([1, 1, 1, 0])
        cm = confusion_matrix(np.zeros(4, dtype=int), predicted, 2)
        assert list(cm.sum(axis=0)) == [1, 3]


class TestEvaluate:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        report = evaluate(one_hot_probs(labels, 3), labels)
        assert report.overall_acc == 1.0
        assert report.avg_class_acc == 1.0
        assert report.macro_f1 == 1.0
        assert np.array_equal(np.diag(report.confusion), [2, 2, 2])

    def test_overall_acc_matches_fraction(self):
        labels = np.array([0, 0, 0, 1])
        predicted = np.array([0, 0, 1, 1])
        report = evaluate(one_hot_probs(predicted, 2), labels)
        assert report.overall_acc == 0.75

    def test_avg_class_acc_ignores_class_imbalance(self):
        # class 0 has 9 samples at 100% recall, class 1 has 1 sample at 0%;
        # the average class accuracy must be 0.5, not the overall 0.9
        labels = np.array([0] * 9 + [1])
        predicted = np.zeros(10, dtype=int)
        report = evaluate(one_hot_probs(predicted, 2), labels)
        assert report.overall_acc == 0.9
        assert report.avg_class_acc == 0.5

    def test_precision_recall_f1_oracle(self):
        labels = np.array([0, 0, 0, 1, 1, 2])
        predicted = np.array([0, 0, 1, 1, 0, 2])
        report = evaluate(one_hot_probs(predicted, 3), labels)
        # class 0: tp=2, fp=1, fn=1, so precision = recall = f1 = 2/3;
        # class 1: tp=1, fp=1, fn=1, all three 1/2; class 2 is perfect.
        # Each class's f1 equals its recall, so both means agree.
        expected = (2 / 3 + 1 / 2 + 1) / 3
        assert report.macro_f1 == pytest.approx(expected, abs=1e-15)
        assert report.avg_class_acc == pytest.approx(expected, abs=1e-15)

    def test_macro_f1_averages_present_classes_only(self):
        labels = np.array([0, 0, 1, 1])
        predicted = np.array([0, 0, 1, 1])
        report = evaluate(one_hot_probs(predicted, 5), labels)
        assert report.macro_f1 == 1.0

    def test_absent_class_scores_zero_not_nan(self):
        labels = np.array([0, 0])
        report = evaluate(one_hot_probs(np.array([0, 0]), 3), labels)
        # absent classes 1 and 2 leave both means at the present class's 1
        assert report.macro_f1 == report.avg_class_acc == 1.0

    def test_mean_entropy_split_by_correctness(self):
        # confident correct sample and a maximally uncertain wrong one
        probs = np.array([[0.99, 0.005, 0.005],
                          [1 / 3, 1 / 3, 1 / 3]])
        report = evaluate(probs, np.array([0, 1]))
        assert report.mean_entropy_correct < 0.2
        assert report.mean_entropy_wrong == pytest.approx(math.log2(3), abs=1e-9)

    def test_all_correct_leaves_wrong_mean_nan(self):
        labels = np.array([0, 1])
        report = evaluate(one_hot_probs(labels, 2), labels)
        assert math.isnan(report.mean_entropy_wrong)


class TestCenterDistances:
    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        emb = rng.standard_normal((30, 5))
        labels = rng.integers(0, 4, 30)
        dist = center_distance_report(emb, labels, 4)
        centers = [emb[labels == c].mean(axis=0) for c in range(4)]
        for a in range(4):
            for b in range(4):
                expected = np.linalg.norm(centers[a] - centers[b])
                assert dist[a, b] == pytest.approx(expected, abs=1e-12)

    def test_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(3)
        emb = rng.standard_normal((12, 4))
        labels = rng.integers(0, 3, 12)
        dist = center_distance_report(emb, labels, 3)
        assert np.allclose(dist, dist.T)
        assert np.allclose(np.diag(dist), 0.0)

    def test_missing_class_gets_nan_row(self):
        emb = np.ones((4, 2))
        labels = np.array([0, 0, 1, 1])
        dist = center_distance_report(emb, labels, 3)
        assert np.isnan(dist[2]).all()
        assert np.isnan(dist[:, 2]).all()
        assert np.isfinite(dist[:2, :2]).all()


class TestExports:
    def make_report(self):
        rng = np.random.default_rng(4)
        raw = rng.uniform(0.05, 1.0, (20, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, 20)
        return probs, labels, evaluate(probs, labels)

    def test_confusion_csv_round_trips(self, tmp_path):
        _, _, report = self.make_report()
        path = tmp_path / "cm.csv"
        write_confusion_csv(path, report.confusion, ["a", "b", "c"])
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["true\\pred", "a", "b", "c"]
        back = np.array([[int(x) for x in row[1:]] for row in rows[1:]])
        assert np.array_equal(back, report.confusion)

    def test_confusion_csv_quotes_class_names(self, tmp_path):
        """A class name that holds the delimiter and the quote character
        reads back whole."""
        _, _, report = self.make_report()
        names = ["a", 'flat, "thin" box', "c"]
        path = tmp_path / "cm.csv"
        write_confusion_csv(path, report.confusion, names)
        rows = list(csv.reader(path.open(newline="")))
        assert rows[0] == ["true\\pred", *names]
        assert [row[0] for row in rows[1:]] == names
        assert '"flat, ""thin"" box"' in path.read_text()

    def test_center_distance_csv_shape(self, tmp_path):
        rng = np.random.default_rng(5)
        dist = center_distance_report(rng.standard_normal((9, 4)),
                                      np.repeat([0, 1, 2], 3), 3)
        path = tmp_path / "cd.csv"
        write_center_distance_csv(path, dist, ["x", "y", "z"])
        rows = list(csv.reader(path.open()))
        assert len(rows) == 4
        back = float(rows[1][2])
        assert back == pytest.approx(dist[0, 1], rel=1e-8)

    def test_entropy_csv_one_row_per_sample(self, tmp_path):
        probs, labels, _ = self.make_report()
        path = tmp_path / "ent.csv"
        write_entropy_csv(path, probs, labels)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["sample_id", "entropy", "correct", "tag"]
        assert len(rows) == 21
        assert all(row[3] in ("outlier", "unstable", "normal") for row in rows[1:])

    def test_embedding_export_columns(self, tmp_path):
        probs, labels, _ = self.make_report()
        emb = np.random.default_rng(6).standard_normal((20, 7))
        path = tmp_path / "emb.csv"
        export_embeddings(path, emb, probs, labels)
        rows = list(csv.reader(path.open()))
        assert rows[0][:4] == ["sample_id", "label", "entropy", "tag"]
        assert rows[0][4:] == [f"e{k}" for k in range(7)]
        assert float(rows[3][4]) == pytest.approx(emb[2, 0], rel=1e-8)

    def test_summary_json_content(self, tmp_path):
        _, _, report = self.make_report()
        path = tmp_path / "summary.json"
        write_json(path, report.json_summary())
        payload = json.loads(path.read_text())
        assert payload["overall_acc"] == pytest.approx(report.overall_acc)
        assert "macro_f1" in payload

    def test_summary_json_writes_null_for_nan(self, tmp_path):
        labels = np.array([0, 1])
        report = evaluate(one_hot_probs(labels, 2), labels)
        path = tmp_path / "summary.json"
        write_json(path, report.json_summary())
        payload = strict_json(path.read_text())
        # every prediction is right: no mean entropy of wrong ones
        assert payload["mean_entropy_wrong"] is None
        assert math.isnan(report.summary()["mean_entropy_wrong"])

    def test_json_bytes(self, tmp_path):
        payload = {"b": [1, 2.5], "a": {"z": None, "y": "text"}}
        path = tmp_path / "out.json"
        write_json(path, payload)
        assert path.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True)
                                     + "\n").encode()

    def test_json_refuses_nan_before_writing(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            write_json(path, {"overall_acc": float("nan")})
        assert not path.exists()
