import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcdm.dataset import Dataset, FeatureScaler, LabeledPoint
from fcdm.grid import GridSpec, PixelIndex
from fcdm.inference import evaluate, predict
from fcdm.trainer import ClassifierModel


def _model_from_fields(fields, labels, n=8, scaler=None):
    grid = GridSpec(n)
    return ClassifierModel(
        labels=labels,
        grid=grid,
        scaler=scaler or FeatureScaler(0, 1, 0, 1),
        n_final=3,
        epsilon=0.01,
        probabilities=np.stack(fields),
    )


def _flat_model(probs, n=8):
    k = len(probs)
    fields = [np.full((n, n), p) for p in probs]
    return _model_from_fields(fields, tuple(f"k{c}" for c in range(k)), n=n)


def _split_model():
    """Class A owns the left half of the square, B the right half."""
    a = np.zeros((8, 8))
    a[:, :4] = 1.0
    return _model_from_fields([a, 1.0 - a], ("A", "B"))


def test_predict_reads_probabilities_and_argmax():
    model = _flat_model((0.7, 0.2, 0.1))
    pred = predict(model, (0.3, 0.6))
    assert pred.label == "k0"
    assert pred.probabilities == (0.7, 0.2, 0.1)


def test_predict_tie_breaks_to_lowest_index():
    model = _flat_model((0.5, 0.5))
    assert predict(model, (0.9, 0.9)).label == "k0"


def test_predict_reports_pixel():
    model = _flat_model((0.5, 0.5))
    assert predict(model, (0.5, 0.5)).pixel == PixelIndex(4, 4)


def test_predict_clamps_far_points_to_boundary():
    model = _split_model()
    assert predict(model, (1e9, 0.5)).label == "B"
    assert predict(model, (-1e9, 0.5)).label == "A"
    # identical to evaluating at the boundary pixel itself
    assert predict(model, (1e9, 0.5)).probabilities == \
        predict(model, (0.999, 0.5)).probabilities


def test_predict_rejects_nan():
    model = _flat_model((0.5, 0.5))
    with pytest.raises(ValueError):
        predict(model, (float("nan"), 0.5))


def test_predict_uses_scaler():
    # raw data on [10, 20] x [0, 100]; left half of the raw range is class A
    model = _model_from_fields(
        [np.hstack([np.ones((8, 4)), np.zeros((8, 4))]),
         np.hstack([np.zeros((8, 4)), np.ones((8, 4))])],
        ("A", "B"),
        scaler=FeatureScaler(10, 20, 0, 100),
    )
    assert predict(model, (12.0, 50.0)).label == "A"
    assert predict(model, (19.0, 50.0)).label == "B"


def test_evaluate_perfect_predictions():
    model = _split_model()
    pts = tuple(
        [LabeledPoint(0.1, 0.1 * k, "A") for k in range(5)]
        + [LabeledPoint(0.9, 0.1 * k, "B") for k in range(5)]
    )
    report = evaluate(model, Dataset(points=pts, labels=("A", "B")))
    assert report.macro_recall == 1.0
    assert report.accuracy == 1.0
    assert np.array_equal(report.confusion, np.array([[5, 0], [0, 5]]))


def test_evaluate_known_confusion_matrix():
    model = _split_model()
    pts = []
    pts += [LabeledPoint(0.2, 0.5, "A")] * 9 + [LabeledPoint(0.8, 0.5, "A")] * 1
    pts += [LabeledPoint(0.2, 0.5, "B")] * 2 + [LabeledPoint(0.8, 0.5, "B")] * 8
    report = evaluate(model, Dataset(points=tuple(pts), labels=("A", "B")))
    assert np.array_equal(report.confusion, np.array([[9, 1], [2, 8]]))
    assert report.per_class_recall == pytest.approx([0.9, 0.8], abs=1e-12)
    assert report.macro_recall == pytest.approx(0.85, abs=1e-12)
    assert report.accuracy == pytest.approx(17 / 20, abs=1e-12)
    assert report.n_points == 20


def test_evaluate_rows_follow_model_vocabulary_order():
    model = _split_model()  # labels ("A", "B")
    pts = (LabeledPoint(0.9, 0.5, "B"), LabeledPoint(0.1, 0.5, "A"))
    # dataset vocabulary lists B first; the report must still index by model order
    report = evaluate(model, Dataset(points=pts, labels=("B", "A")))
    assert report.labels == ("A", "B")
    assert np.array_equal(report.confusion, np.eye(2, dtype=np.int64))


def test_evaluate_macro_skips_absent_classes():
    model = _split_model()
    pts = (LabeledPoint(0.1, 0.5, "A"), LabeledPoint(0.15, 0.4, "A"))
    report = evaluate(model, Dataset(points=pts, labels=("A", "B")))
    assert report.per_class_recall[0] == 1.0
    assert report.per_class_recall[1] == 0.0  # placeholder for an absent class
    assert report.macro_recall == 1.0


def test_evaluate_rejects_unknown_label():
    model = _split_model()
    pts = (LabeledPoint(0.1, 0.5, "A"), LabeledPoint(0.2, 0.5, "Z"))
    with pytest.raises(ValueError, match="'Z'"):
        evaluate(model, Dataset(points=pts, labels=("A", "Z")))


def test_evaluate_rejects_empty_dataset():
    model = _split_model()
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, Dataset(points=(), labels=("A", "B")))


def test_report_to_dict_is_json_ready():
    model = _split_model()
    pts = (LabeledPoint(0.1, 0.5, "A"), LabeledPoint(0.9, 0.5, "B"))
    report = evaluate(model, Dataset(points=pts, labels=("A", "B")))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["labels"] == ["A", "B"]
    assert payload["n_points"] == 2
    assert payload["confusion"] == [[1, 0], [0, 1]]
    assert payload["macro_recall"] == 1.0


@given(
    x1=st.floats(min_value=-5, max_value=5, allow_nan=False),
    x2=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
@settings(max_examples=40)
def test_prediction_probabilities_always_sum_to_one(small_model, x1, x2):
    pred = predict(small_model, (x1, x2))
    assert math.isclose(sum(pred.probabilities), 1.0, abs_tol=1e-9)
    assert all(-1e-12 <= p <= 1.0 + 1e-12 for p in pred.probabilities)
    assert pred.label in small_model.labels
