import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcdm.dataset import Dataset, FeatureScaler, apply_scaler
from fcdm.grid import GridSpec, _pixel_rows_cols
from fcdm.inference import evaluate, predict, predict_batch
from fcdm.trainer import ClassifierModel
from oracles import evaluate_pointwise, model_from_fields


def _flat_model(probs, n=8):
    k = len(probs)
    fields = [np.full((n, n), p) for p in probs]
    return model_from_fields(fields, tuple(f"k{c}" for c in range(k)), n=n)


def _split_model():
    """Class A owns the left half of the square, B the right half."""
    a = np.zeros((8, 8))
    a[:, :4] = 1.0
    return model_from_fields([a, 1.0 - a], ("A", "B"))


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
    assert predict(model, (0.5, 0.5)).pixel == (4, 4)


def test_predict_clamps_far_points_to_boundary():
    model = _split_model()
    assert predict(model, (1e9, 0.5)).label == "B"
    assert predict(model, (-1e9, 0.5)).label == "A"
    # identical to evaluating at the boundary pixel itself
    assert predict(model, (1e9, 0.5)).probabilities == \
        predict(model, (0.999, 0.5)).probabilities


def test_predict_rejects_nan():
    model = _flat_model((0.5, 0.5))
    for point in ((float("nan"), 0.5), (0.5, float("nan")), (float("nan"), float("inf"))):
        with pytest.raises(ValueError, match="NaN"):
            predict(model, point)


@pytest.mark.parametrize("point", [(0.1, 0.2, 0.3), np.zeros(3), (), (1,), np.zeros((1, 2))])
def test_predict_takes_exactly_one_pair(point):
    with pytest.raises(ValueError, match="values to unpack"):
        predict(_flat_model((0.5, 0.5)), point)


@pytest.mark.parametrize("point", ["12", b"12", np.str_("12")], ids=["str", "bytes", "np.str_"])
def test_both_lookups_refuse_a_string_point(point):
    model = _flat_model((0.5, 0.5))
    with pytest.raises(ValueError, match="not a string"):
        predict(model, point)
    with pytest.raises(ValueError):
        predict_batch(model, [point])


def test_a_pair_of_numeric_strings_reads_the_same_pixel_in_both_lookups():
    model = _split_model()
    pred = predict(model, ("0.1", "0.2"))
    codes, probs = predict_batch(model, [("0.1", "0.2")])
    assert pred == predict(model, (0.1, 0.2))
    assert model.labels[codes[0]] == pred.label
    assert tuple(probs[0].tolist()) == pred.probabilities


def test_predict_uses_scaler():
    # raw data on [10, 20] x [0, 100]; left half of the raw range is class A
    model = model_from_fields(
        [np.hstack([np.ones((8, 4)), np.zeros((8, 4))]),
         np.hstack([np.zeros((8, 4)), np.ones((8, 4))])],
        ("A", "B"),
        scaler=FeatureScaler(10, 20, 0, 100),
    )
    assert predict(model, (12.0, 50.0)).label == "A"
    assert predict(model, (19.0, 50.0)).label == "B"


def test_evaluate_perfect_predictions():
    model = _split_model()
    coords = [(0.1, 0.1 * k) for k in range(5)] + [(0.9, 0.1 * k) for k in range(5)]
    data = Dataset(coords=coords, codes=[0] * 5 + [1] * 5, labels=("A", "B"))
    report = evaluate(model, data)
    assert report.macro_recall == 1.0
    assert report.accuracy == 1.0
    assert np.array_equal(report.confusion, np.array([[5, 0], [0, 5]]))


def test_evaluate_known_confusion_matrix():
    model = _split_model()
    coords = [(0.2, 0.5)] * 9 + [(0.8, 0.5)] * 1 + [(0.2, 0.5)] * 2 + [(0.8, 0.5)] * 8
    codes = [0] * 10 + [1] * 10
    report = evaluate(model, Dataset(coords=coords, codes=codes, labels=("A", "B")))
    assert np.array_equal(report.confusion, np.array([[9, 1], [2, 8]]))
    assert report.per_class_recall == pytest.approx([0.9, 0.8], abs=1e-12)
    assert report.macro_recall == pytest.approx(0.85, abs=1e-12)
    assert report.accuracy == pytest.approx(17 / 20, abs=1e-12)
    assert report.n_points == 20


def test_evaluate_rows_follow_model_vocabulary_order():
    model = _split_model()  # labels ("A", "B")
    data = Dataset(coords=[(0.9, 0.5), (0.1, 0.5)], codes=[0, 1], labels=("B", "A"))
    # dataset vocabulary lists B first; the report must still index by model order
    report = evaluate(model, data)
    assert report.labels == ("A", "B")
    assert np.array_equal(report.confusion, np.eye(2, dtype=np.int64))


def test_evaluate_macro_skips_absent_classes():
    model = _split_model()
    data = Dataset(coords=[(0.1, 0.5), (0.15, 0.4)], codes=[0, 0], labels=("A", "B"))
    report = evaluate(model, data)
    assert report.per_class_recall[0] == 1.0
    assert report.per_class_recall[1] == 0.0  # placeholder for an absent class
    assert report.macro_recall == 1.0


def test_evaluate_rejects_unknown_label():
    model = _split_model()
    data = Dataset(coords=[(0.1, 0.5), (0.2, 0.5)], codes=[0, 1], labels=("A", "Z"))
    with pytest.raises(ValueError, match="'Z'"):
        evaluate(model, data)


def test_evaluate_rejects_empty_dataset():
    model = _split_model()
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, Dataset(coords=np.empty((0, 2)), codes=[], labels=("A", "B")))


def test_report_to_dict_is_json_ready():
    model = _split_model()
    data = Dataset(coords=[(0.1, 0.5), (0.9, 0.5)], codes=[0, 1], labels=("A", "B"))
    report = evaluate(model, data)
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


# per-pixel class probabilities, many with an exact tie for the maximum
_TRIPLES = [
    (1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5),
    (0.25, 0.25, 0.5), (0.4, 0.2, 0.4), (0.2, 0.4, 0.4), (0.6, 0.2, 0.2),
]


def _tie_model(scaler, n=8):
    picks = np.random.default_rng(5).integers(len(_TRIPLES), size=(n, n))
    fields = np.moveaxis(np.array(_TRIPLES)[picks], -1, 0)
    return model_from_fields(list(fields), ("A", "B", "C"), n=n, scaler=scaler)


_TIE_MODELS = [
    _tie_model(FeatureScaler(0, 1, 0, 1)),
    _tie_model(FeatureScaler(-2.0, 3.0, 10.0, 14.0)),
]
# pixel edges k/N of the unit square and their float neighbours
_EDGE = st.integers(min_value=0, max_value=8).map(lambda k: k / 8)
_UNIT = st.one_of(
    _EDGE,
    _EDGE.map(lambda u: math.nextafter(u, -math.inf)),
    _EDGE.map(lambda u: math.nextafter(u, math.inf)),
)
_FAR = st.sampled_from([math.inf, -math.inf, 1e308, -1e308])


@given(st.data())
def test_predict_pixel_and_label_match_the_vector_rule(data):
    # the scalar lookup's pixel is the pixel rule's on the scaled point,
    # and the label is the first maximum of the pixel's column;
    # predict_batch over the same points gives that label's index and
    # that column, bit for bit
    model = data.draw(st.sampled_from(_TIE_MODELS))
    s = model.scaler

    def coordinate(lo, hi):
        return st.one_of(
            _UNIT.map(lambda u: lo + u * (hi - lo)), _FAR, st.floats(allow_nan=False)
        )

    points = data.draw(st.lists(
        st.tuples(coordinate(s.min1, s.max1), coordinate(s.min2, s.max2)),
        min_size=1, max_size=6,
    ))
    codes, probs = predict_batch(model, np.array(points))
    assert codes.shape == (len(points),)
    assert probs.shape == (len(points), 3)
    for point, code, row in zip(points, codes.tolist(), probs):
        pred = predict(model, point)
        i, j = _pixel_rows_cols(apply_scaler([point], s), model.grid)
        assert pred.pixel == (int(i[0]), int(j[0]))
        column = model.probabilities[:, i[0], j[0]]
        assert pred.probabilities == tuple(column.tolist())
        assert pred.label == model.labels[int(np.argmax(column))]
        assert model.labels[code] == pred.label
        assert row.tobytes() == np.array(pred.probabilities).tobytes()


@pytest.mark.parametrize("point, pixel", [
    ((1e308, 0.1), (12, 63)),
    ((-1e308, 0.1), (12, 0)),
    ((0.1, 1e308), (63, 12)),
    ((0.1, -1.7e308), (0, 12)),
])
def test_far_out_points_read_the_boundary_pixel_without_a_warning(point, pixel):
    # a fitted range below 1 scales these finite points past float64's
    # range, and a RuntimeWarning fails this suite
    weights = np.random.default_rng(3).uniform(size=(3, 64, 64))
    model = ClassifierModel(
        labels=("a", "b", "c"), grid=GridSpec(64),
        scaler=FeatureScaler(0.05, 0.3, 0.05, 0.3), n_final=3, epsilon=0.01,
        probabilities=weights / weights.sum(axis=0),
    )
    column = model.probabilities[:, pixel[0], pixel[1]]
    pred = predict(model, point)
    assert pred.pixel == pixel
    assert pred.label == model.labels[int(np.argmax(column))]
    codes, probs = predict_batch(model, np.array([point]))
    assert model.labels[codes[0]] == pred.label
    assert probs[0].tobytes() == column.tobytes()
    with np.errstate(over="ignore"):
        assert np.isinf(apply_scaler([point], model.scaler)).sum() == 1


@pytest.mark.parametrize("where", [(0, 0), (0, 1), (2, 0), (2, 1)])
def test_predict_batch_rejects_nan_anywhere(where):
    points = np.array([[0.2, 0.3], [0.5, 0.5], [0.9, -1.0]])
    points[where] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        predict_batch(_TIE_MODELS[1], points)


@pytest.mark.parametrize("shape", [(4, 3), (3,), (4, 2, 1)])
def test_predict_batch_and_apply_scaler_name_a_wrong_shape(shape):
    model = _TIE_MODELS[0]
    message = re.escape(f"expected an (n, 2) coordinate array, got shape {shape}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        predict_batch(model, np.full(shape, 0.5))
    with pytest.raises(ValueError, match=f"^{message}$"):
        apply_scaler(np.full(shape, 0.5), model.scaler)


def test_predict_batch_of_no_points_is_empty():
    codes, probs = predict_batch(_TIE_MODELS[0], np.empty((0, 2)))
    assert codes.shape == (0,)
    assert probs.shape == (0, 3)


def test_tie_model_has_ties_and_edges_land_on_the_upper_pixel():
    model = _TIE_MODELS[0]
    probs = model.probabilities
    assert ((probs == probs.max(axis=0)).sum(axis=0) >= 2).sum() >= 16
    # an edge k/N belongs to pixel k; the far edge 1 clamps into pixel N - 1
    assert predict(model, (3 / 8, 5 / 8)).pixel == (5, 3)
    assert predict(model, (1.0, 1.0)).pixel == (7, 7)


@st.composite
def _small_models(draw):
    """A 2- to 5-class model on mesh 8 or 16, its fields small integer
    weights normalized per pixel, so that many pixels hold exact ties."""
    k = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.sampled_from([8, 16]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    weights = np.random.default_rng(seed).integers(3, size=(k, n, n)).astype(float)
    weights[:, weights.sum(axis=0) == 0] = 1.0
    scaler = draw(st.sampled_from([m.scaler for m in _TIE_MODELS]))
    labels = tuple(f"k{c}" for c in range(k))
    return model_from_fields(list(weights / weights.sum(axis=0)), labels, n=n, scaler=scaler)


@given(st.data())
@settings(max_examples=80)
def test_evaluate_matches_the_pointwise_count(data):
    # the dataset's vocabulary is a permutation or a subset of the model's,
    # and its codes need not use every class
    model = data.draw(st.one_of(st.sampled_from(_TIE_MODELS), _small_models()))
    k, s = len(model.labels), model.scaler
    vocabulary = data.draw(st.permutations(model.labels))
    vocabulary = vocabulary[: data.draw(st.integers(min_value=2, max_value=k))]
    n = data.draw(st.integers(min_value=1, max_value=40))
    codes = data.draw(st.lists(st.integers(0, len(vocabulary) - 1), min_size=n, max_size=n))
    x1 = st.floats(s.min1 - 1.0, s.max1 + 1.0)
    x2 = st.floats(s.min2 - 1.0, s.max2 + 1.0)
    coords = data.draw(st.lists(st.tuples(x1, x2), min_size=n, max_size=n))
    dataset = Dataset(coords=coords, codes=codes, labels=vocabulary)

    report, ref = evaluate(model, dataset), evaluate_pointwise(model, dataset)
    assert report.labels == ref.labels
    assert report.confusion.dtype == ref.confusion.dtype == np.int64
    assert np.array_equal(report.confusion, ref.confusion)
    assert report.per_class_recall.tobytes() == ref.per_class_recall.tobytes()
    assert report.macro_recall == ref.macro_recall
    assert report.accuracy == ref.accuracy
    assert report.n_points == ref.n_points == n
    # the same count over predict_batch's codes
    truth = np.array([model.labels.index(lab) for lab in vocabulary])[dataset.codes]
    pred = predict_batch(model, dataset.coords)[0]
    assert np.array_equal(np.bincount(truth * k + pred, minlength=k * k).reshape(k, k),
                          report.confusion)
