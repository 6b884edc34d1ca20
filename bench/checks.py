"""Output checks that do not trust the code under test.

References are computed here with plain numpy from the model file itself
(format v1, documented in the fcdm README and in ``fcdm.model_io``) and
from the CSVs the benchmark wrote, so they stay valid while fcdm's
internals are rewritten: labels by scale, clamp, floor, gather and
argmax; recall from the resulting confusion matrix; the decision image
from the per-pixel argmax and the hue palette.
"""

import colorsys
import csv
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

# a probability row (one pixel, or one prediction) must sum to 1 within this
SUM_TOL = 1e-9
# recorded and reference recalls are compared to within this
RECALL_TOL = 1e-12


@dataclass
class ModelFile:
    labels: tuple
    n_mesh: int
    n_final: int
    scaler: tuple          # min1, max1, min2, max2
    fields: np.ndarray     # (K, n_mesh, n_mesh) probabilities


def parse_model(raw):
    """Decode a v1 model file; raises ValueError when it is malformed."""
    if raw[:4] != b"FCDM":
        raise ValueError("model file has a bad magic")
    version, k, n, n_final = struct.unpack_from("<IIII", raw, 4)
    if version != 1:
        raise ValueError(f"model file version {version}, expected 1")
    scaler = struct.unpack_from("<4d", raw, 28)
    offset = 60
    labels = []
    for _ in range(k):
        (length,) = struct.unpack_from("<I", raw, offset)
        labels.append(raw[offset + 4:offset + 4 + length].decode("utf-8"))
        offset += 4 + length
    if offset + 8 * k * n * n != len(raw):
        raise ValueError("model file length does not match its header")
    fields = np.frombuffer(raw, dtype="<f8", count=k * n * n, offset=offset)
    return ModelFile(tuple(labels), n, n_final, scaler, fields.reshape(k, n, n))


def read_points(path):
    """Coordinates (n, 2) and the third column of a headerless CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    xy = np.array([(float(r[0]), float(r[1])) for r in rows], dtype=np.float64)
    return xy.reshape(-1, 2), [r[2] for r in rows]


def predict_codes(model, xy):
    """Class index the model's argmax lookup assigns to each raw point."""
    min1, max1, min2, max2 = model.scaler
    n = model.n_mesh
    u = np.clip((xy[:, 0] - min1) / (max1 - min1), 0.0, 1.0)
    v = np.clip((xy[:, 1] - min2) / (max2 - min2), 0.0, 1.0)
    j = np.floor(np.clip(u * n, 0.0, n - 1.0)).astype(np.intp)
    i = np.floor(np.clip(v * n, 0.0, n - 1.0)).astype(np.intp)
    return model.fields[:, i, j].argmax(axis=0)  # first maximum wins ties


def predict_labels(model, xy):
    return [model.labels[c] for c in predict_codes(model, xy)]


def confusion_and_recall(model, xy, labels):
    """Confusion matrix (rows true, columns predicted) and macro recall."""
    k = len(model.labels)
    index = {lab: c for c, lab in enumerate(model.labels)}
    truth = np.array([index[lab] for lab in labels], dtype=np.intp)
    confusion = np.bincount(
        truth * k + predict_codes(model, xy), minlength=k * k).reshape(k, k)
    row_sums = confusion.sum(axis=1)
    present = row_sums > 0
    recall = np.zeros(k, dtype=np.float64)
    recall[present] = confusion.diagonal()[present] / row_sums[present]
    return confusion, float(recall[present].mean())


def probability_problem(model):
    total = model.fields.sum(axis=0)
    worst = float(np.abs(total - 1.0).max())
    if worst > SUM_TOL:
        return f"probability fields sum to 1 only within {worst:.3e}"
    if model.fields.min() < -1e-12 or model.fields.max() > 1.0 + 1e-12:
        return "probability fields leave [0, 1]"
    return None


def decision_image(model):
    """The P6 decision map: hue k / K for the per-pixel argmax class k."""
    k = len(model.labels)
    palette = np.array(
        [[int(round(255 * c)) for c in colorsys.hsv_to_rgb(h / k, 1.0, 1.0)]
         for h in range(k)], dtype=np.uint8)
    n = model.n_mesh
    return f"P6\n{n} {n}\n255\n".encode("ascii") + palette[model.fields.argmax(axis=0)].tobytes()


def predictions_problem(preds, want):
    """Failure messages for predict results against reference labels."""
    failures = []
    for k, (pred, label) in enumerate(zip(preds, want)):
        if isinstance(pred, Exception):
            failures.append(f"point {k}: {pred!r}")
        elif pred.label != label:
            failures.append(f"point {k}: label {pred.label!r}, reference {label!r}")
        elif abs(math.fsum(pred.probabilities) - 1.0) > SUM_TOL:
            failures.append(f"point {k}: probabilities do not sum to 1")
    if len(preds) != len(want):
        failures.append(f"{len(preds)} predictions for {len(want)} points")
    return failures


def labels_problem(path, want):
    """Whether a predict output CSV carries exactly the wanted labels."""
    _, got = read_points(path)
    if len(got) != len(want):
        return f"{len(got)} output rows for {len(want)} points"
    for k, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"row {k + 1}: label {a!r}, library predict gave {b!r}"
    return None


def evaluate_output(stdout):
    """The JSON report `fcdm evaluate` prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


class Expected:
    """The outputs recorded for a seed, checked on every iteration.

    With nothing recorded for the seed (another seed, or the tiny sizes)
    the first iteration's outputs are adopted after a sanity floor on
    the recall, and every later iteration must repeat them.
    """

    def __init__(self, recorded, recall_floor):
        self.recorded = recorded is not None
        self.values = dict(recorded) if recorded is not None else None
        self.recall_floor = recall_floor

    def problem(self, got):
        if self.values is None:
            self.values = dict(got)
            if got["test_macro_recall"] < self.recall_floor:
                return (f"test macro recall {got['test_macro_recall']!r} is below "
                        f"the floor {self.recall_floor}")
            return None
        for key, want in self.values.items():
            have = got.get(key)
            if isinstance(want, float):
                ok = have is not None and abs(have - want) <= RECALL_TOL
            else:
                ok = have == want
            if not ok:
                return f"{key} = {have!r}, recorded {want!r}"
        return None
