"""Prediction and evaluation against a trained model."""

from dataclasses import dataclass

import numpy as np

from .dataset import apply_scaler
from .grid import _pixel_rows_cols, map_to_pixel


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
    """Classify one raw-coordinate point.

    The point is clamped into the scaler's fitted box (far-out points read
    the boundary pixel all the same, and scaling cannot overflow), scaled
    and located on the grid; NaN raises ValueError. The largest probability
    there wins, ties to the lowest class index: predict_batch's pixel rule.
    """
    s = model.scaler
    x1, x2 = float(point[0]), float(point[1])  # NaN fails both tests and stays
    x1 = s.min1 if x1 < s.min1 else s.max1 if x1 > s.max1 else x1
    x2 = s.min2 if x2 < s.min2 else s.max2 if x2 > s.max2 else x2
    i, j = map_to_pixel(apply_scaler(np.array([[x1, x2]]), s)[0], model.grid)
    probs = model.probabilities[:, i, j].tolist()
    best = probs.index(max(probs))
    return Prediction(label=model.labels[best], probabilities=tuple(probs), pixel=(i, j))


def predict_batch(model, coords):
    """Classify an (n, 2) array of raw points in one vector lookup.

    The same pixel rule as predict: scale (far-out points overflow to +/-inf
    quietly), clip to the unit square (so x * n cannot overflow), floor; the
    first maximum wins. Returns the codes (n,) into model.labels and the
    probabilities (n, K), bit-equal to predict's. NaN raises ValueError.
    """
    with np.errstate(over="ignore"):
        scaled = apply_scaler(coords, model.scaler)
    if np.isnan(scaled).any():
        raise ValueError("cannot map NaN coordinates to a pixel")
    i, j = _pixel_rows_cols(np.clip(scaled, 0.0, 1.0), model.grid)
    probs = model.probabilities[:, i, j]
    return probs.argmax(axis=0), probs.T


def evaluate(model, data):
    """Score a labeled dataset; every label must exist in the model vocabulary."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    unknown = sorted(set(data.labels) - set(model.labels))
    if unknown:
        raise ValueError(
            f"dataset labels not in model vocabulary: {', '.join(map(repr, unknown))}"
        )
    k = len(model.labels)
    index = {lab: i for i, lab in enumerate(model.labels)}
    truth = [index[lab] for lab in data.labels]
    confusion = np.zeros((k, k), dtype=np.int64)
    for point, code in zip(data.coords.tolist(), data.codes.tolist()):
        pred = predict(model, point)
        confusion[truth[code], index[pred.label]] += 1
    row_sums = confusion.sum(axis=1)
    present = row_sums > 0
    recall = np.zeros(k, dtype=np.float64)
    recall[present] = confusion.diagonal()[present] / row_sums[present]
    macro = float(recall[present].mean()) if present.any() else 0.0
    accuracy = float(confusion.diagonal().sum() / confusion.sum())
    return EvalReport(
        labels=model.labels,
        confusion=confusion,
        per_class_recall=recall,
        macro_recall=macro,
        accuracy=accuracy,
        n_points=len(data),
    )
