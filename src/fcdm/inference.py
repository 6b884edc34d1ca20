"""Prediction and evaluation against a trained model."""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import _points, apply_scaler
from .grid import _pixel_rows_cols


@dataclass(frozen=True)
class Prediction:
    """Argmax outcome for one point: label, per-class probabilities, (i, j) pixel."""

    label: str
    probabilities: tuple
    pixel: tuple


@dataclass
class EvalReport:
    """Aggregate accuracy statistics over a labeled dataset.

    confusion[t, p] counts points of true class t predicted as p, indexed
    in model vocabulary order. macro_recall averages recall over classes
    that actually appear (true count > 0).
    """

    labels: tuple
    confusion: np.ndarray
    per_class_recall: np.ndarray
    macro_recall: float
    accuracy: float
    n_points: int

    def to_dict(self):
        return {
            "labels": list(self.labels),
            "confusion": self.confusion.tolist(),
            "per_class_recall": [float(r) for r in self.per_class_recall],
            "macro_recall": float(self.macro_recall),
            "accuracy": float(self.accuracy),
            "n_points": int(self.n_points),
        }


def predict(model, point):
    """Classify one raw (x1, x2) pair of numbers; a string, another length or NaN: ValueError.

    The lookup rule, shared with predict_batch: clamp into the scaler's fitted
    box (so scaling lands in [0, 1] and cannot overflow), scale, and take the
    pixel of fcdm.grid._pixel_rows_cols, here min(int(u * n), n - 1), exact as
    n is a power of two. The largest probability wins, ties to the lowest class.
    """
    if isinstance(point, (str, bytes)):  # else "12" would unpack as the pair (1, 2)
        raise ValueError(f"a point is a pair of numbers, not a string: {point!r}")
    s = model.scaler
    x1, x2 = point
    x1, x2 = float(x1), float(x2)
    if math.isnan(x1) or math.isnan(x2):
        raise ValueError("cannot map NaN coordinates to a pixel")
    x1 = s.min1 if x1 < s.min1 else s.max1 if x1 > s.max1 else x1
    x2 = s.min2 if x2 < s.min2 else s.max2 if x2 > s.max2 else x2
    (u1, u2), = apply_scaler(np.array([[x1, x2]]), s).tolist()
    n = model.grid.n_mesh
    i, j = min(int(u2 * n), n - 1), min(int(u1 * n), n - 1)
    probs = model.probabilities[:, i, j].tolist()
    best = probs.index(max(probs))
    return Prediction(label=model.labels[best], probabilities=tuple(probs), pixel=(i, j))


def predict_batch(model, coords):
    """Classify an (n, 2) array of raw points in one vector lookup.

    predict's rule: clamp into the fitted box, scale, fcdm.grid._pixel_rows_cols
    (NaN raises ValueError); the first maximum wins. Returns the codes (n,) into
    model.labels and the probabilities (n, K), bit-equal to predict's.
    """
    s = model.scaler
    boxed = np.clip(_points(coords), (s.min1, s.min2), (s.max1, s.max2))
    i, j = _pixel_rows_cols(apply_scaler(boxed, s), model.grid)
    probs = model.probabilities[:, i, j]
    return probs.argmax(axis=0), probs.T


def evaluate(model, data):
    """Score a labeled dataset in the model's vocabulary: scalar predict, then one bincount."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    unknown = sorted(set(data.labels) - set(model.labels))
    if unknown:
        raise ValueError(
            f"dataset labels not in model vocabulary: {', '.join(map(repr, unknown))}"
        )
    k = len(model.labels)
    index = {lab: i for i, lab in enumerate(model.labels)}
    truth = np.array([index[lab] for lab in data.labels])[data.codes]
    pred = [index[predict(model, point).label] for point in data.coords.tolist()]
    confusion = np.bincount(truth * k + pred, minlength=k * k).reshape(k, k)
    row_sums = confusion.sum(axis=1)
    present = row_sums > 0
    recall = np.divide(confusion.diagonal(), row_sums, out=np.zeros(k), where=present)
    macro = float(recall[present].mean())
    accuracy = float(confusion.trace() / len(data))
    return EvalReport(
        labels=model.labels,
        confusion=confusion,
        per_class_recall=recall,
        macro_recall=macro,
        accuracy=accuracy,
        n_points=len(data),
    )
