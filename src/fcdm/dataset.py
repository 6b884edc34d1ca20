"""Labeled 2-feature point sets in arrays: CSV ingestion, spirals, scaling, splits.

A Dataset is columnar: an (n, 2) float64 coordinate array, an (n,) intp
array of class codes indexing the label vocabulary, and the vocabulary
itself. Generation, scaling, counting and splitting work on whole
arrays; CSV is read by numpy's C reader (or csv.reader) and written by column.
"""

import csv
import math
import warnings
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from types import SimpleNamespace

import numpy as np


def _readonly(values, dtype):
    out = np.array(values, dtype=dtype)  # a copy: no outside view can change it later
    out.flags.writeable = False
    return out


def _vocabulary(labels):
    """The label rule of datasets, models and model files: 2+ distinct non-empty strings."""
    labels = tuple(labels)
    if not all(isinstance(lab, str) and lab for lab in labels):
        raise ValueError(f"labels must be non-empty strings, got {labels!r}")
    if len(set(labels)) != len(labels):
        raise ValueError("label vocabulary contains duplicates")
    if len(labels) < 2:
        raise ValueError(f"need at least 2 classes, got {len(labels)}")
    return labels


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled points: coords[r] = (x1, x2) is a point of class labels[codes[r]].

    labels is the vocabulary, 2+ distinct non-empty strings (_vocabulary's rule,
    which models share); it fixes the class order of rasters, fields and confusion
    matrices. Both arrays are read-only copies; coordinates must be finite.
    """

    coords: np.ndarray
    codes: np.ndarray
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", _vocabulary(self.labels))
        coords = _readonly(self.coords, np.float64)
        codes = _readonly(self.codes, np.intp)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"coords must have shape (n, 2), got {coords.shape}")
        if codes.shape != (len(coords),):
            raise ValueError(f"got {codes.size} codes for {len(coords)} points")
        if not np.isfinite(coords).all():
            raise ValueError("point coordinates must be finite")
        outside = codes[(codes < 0) | (codes >= len(self.labels))]
        if outside.size:
            raise ValueError(f"point label code {outside[0]} missing from vocabulary")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "codes", codes)

    def __len__(self):
        return len(self.codes)

    def xy(self):
        """Alias of coords."""
        return self.coords

    def label_indices(self):
        """Alias of codes."""
        return self.codes

    def class_counts(self):
        counts = np.bincount(self.codes, minlength=len(self.labels))
        return dict(zip(self.labels, counts.tolist()))


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature affine map onto the unit square: x -> (x - min) / (max - min)."""

    min1: float
    max1: float
    min2: float
    max2: float

    def __post_init__(self):
        for lo, hi, name in ((self.min1, self.max1, "x1"), (self.min2, self.max2, "x2")):
            if not (hi > lo):
                raise ValueError(f"degenerate scaler range for {name}: [{lo}, {hi}]")
            if not math.isfinite(hi - lo):
                raise ValueError(f"scaler range for {name} overflows: [{lo}, {hi}]")


def fit_scaler(data):
    """Per-feature min/max over a dataset.

    Raises ValueError on an empty dataset; FeatureScaler raises it, naming
    x1 or x2, when a feature is constant (the affine map would be undefined).
    """
    if len(data) == 0:
        raise ValueError("cannot fit a scaler to an empty dataset")
    x1, x2 = data.coords.T  # a 1-D reduction per column: min(axis=0) over rows of 2 is slow
    # + 0.0 stores a zero bound as +0.0, whichever zero the reduction order picked
    return FeatureScaler(
        min1=float(x1.min()) + 0.0, max1=float(x1.max()) + 0.0,
        min2=float(x2.min()) + 0.0, max2=float(x2.max()) + 0.0,
    )


def _points(points):
    xy = np.asarray(points, dtype=np.float64)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) coordinate array, got shape {xy.shape}")
    return xy


def apply_scaler(points, scaler):
    """The scaler's raw affine map of coordinate pairs. Returns an (n, 2) array.

    Points inside the fitted box land in [0, 1]^2, points outside it
    outside that range; predict and predict_batch clamp into the box first.
    """
    xy = _points(points)
    out = np.empty_like(xy)
    out[:, 0] = (xy[:, 0] - scaler.min1) / (scaler.max1 - scaler.min1)
    out[:, 1] = (xy[:, 1] - scaler.min2) / (scaler.max2 - scaler.min2)
    return out


def normalize_dataset(data, scaler):
    """Return a copy of the dataset with coordinates pushed through the scaler."""
    with np.errstate(over="ignore"):  # a far-out point scales to inf, which Dataset rejects
        return Dataset(apply_scaler(data.coords, scaler), data.codes, data.labels)


def _gaussian_pairs(rng, n):
    """Standard-normal pairs from a Box-Muller transform on PCG64 uniforms.

    Done by hand (rather than rng.normal) so that generated datasets are
    reproducible from the seed alone, independent of the numpy version's
    normal-sampling internals. u1 is reflected into (0, 1] to keep the log
    finite.
    """
    u1 = 1.0 - rng.random(n)
    u2 = rng.random(n)
    r = np.sqrt(-2.0 * np.log(u1))
    return r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)


def generate_spirals(n_classes, n_per_class, noise_sigmas, turns, seed):
    """Interleaved noisy spiral arms, one arm per class.

    Arm k is offset by angle 2*pi*k/n_classes; the arc parameter t is
    uniform on [0.2, 1], radius grows as 0.45*t around center (0.5, 0.5),
    and isotropic Gaussian noise with per-class sigma is added to both
    coordinates. Labels are "c0", "c1", ..., checked first by _vocabulary's
    rule (0 or 1 classes fail there, < 0 just before). Deterministic for a fixed (n_classes,
    n_per_class, noise_sigmas, turns, seed); draws come from a PCG64 stream
    in a fixed order (t first, then the noise pair, class by class).
    """
    if n_classes < 0:  # an empty range would reach _vocabulary as 0 classes
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    labels = _vocabulary(f"c{k}" for k in range(n_classes))
    if n_per_class < 1:
        raise ValueError(f"need at least 1 point per class, got {n_per_class}")
    sigmas = [float(s) for s in noise_sigmas]
    if len(sigmas) != n_classes:
        raise ValueError(f"got {len(sigmas)} noise sigmas for {n_classes} classes")
    if any(not math.isfinite(s) or s < 0 for s in sigmas):
        raise ValueError("noise sigmas must be finite and nonnegative")
    if not math.isfinite(turns):
        raise ValueError(f"turns must be finite, got {turns}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    coords = np.empty((n_classes, n_per_class, 2))
    for k, sigma in enumerate(sigmas):
        t = 0.2 + 0.8 * rng.random(n_per_class)
        g1, g2 = _gaussian_pairs(rng, n_per_class)
        angle = 2.0 * np.pi * turns * t + 2.0 * np.pi * k / n_classes
        coords[k, :, 0] = 0.5 + 0.45 * t * np.cos(angle) + sigma * g1
        coords[k, :, 1] = 0.5 + 0.45 * t * np.sin(angle) + sigma * g2
    return Dataset(
        coords=coords.reshape(-1, 2),
        codes=np.repeat(np.arange(n_classes), n_per_class),
        labels=labels,
    )


def split(data, test_fraction, seed):
    """Stratified train/test split, deterministic in the seed.

    Each class is shuffled separately (PCG64 permutation) and the first
    round(m * (1 - test_fraction)) points go to train, clamped so both
    halves keep at least one point per class. Rounding is half-up. Output
    order is class by class in vocabulary order, shuffled within a class.
    Both halves carry the parent vocabulary. A class of fewer than two points
    (so any class of an empty dataset) cannot be stratified: ValueError.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.Generator(np.random.PCG64(seed))
    train_rows, test_rows = [], []
    for k, lab in enumerate(data.labels):
        members = np.flatnonzero(data.codes == k)
        m = len(members)
        if m < 2:
            raise ValueError(f"class {lab!r} has {m} point(s); need at least 2 to stratify")
        perm = rng.permutation(m)
        n_train = int(math.floor((1.0 - test_fraction) * m + 0.5))
        n_train = min(max(n_train, 1), m - 1)
        train_rows.append(members[perm[:n_train]])
        test_rows.append(members[perm[n_train:]])
    return tuple(
        Dataset(data.coords[rows], data.codes[rows], data.labels)
        for rows in (np.concatenate(train_rows), np.concatenate(test_rows))
    )


def _csv_rows(path, has_header, field_counts):
    """Yield (line_no, x1, x2, row) for each non-blank CSV row.

    line_no is the 1-based line a row starts on, counting a skipped header and quoted
    newlines. A wrong field count, unparsable coordinates or a csv.Error (a field over
    csv.field_size_limit(), say) raise ValueError naming it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader, end = csv.reader(fh), 0  # end: the line the previous row ended on
        try:
            if has_header:
                next(reader, None)
            end = reader.line_num
            for row in reader:
                line_no, end = end + 1, reader.line_num
                try:  # the common row first: two numbers and an allowed field count
                    x1, x2 = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    x1 = x2 = None
                if x1 is not None and len(row) in field_counts:
                    yield line_no, x1, x2, row
                elif any(field.strip() for field in row):  # blank rows are skipped
                    if len(row) not in field_counts:
                        raise ValueError(
                            f"{path}: line {line_no}: expected "
                            f"{' or '.join(map(str, field_counts))} fields, got {len(row)}"
                        )
                    raise ValueError(
                        f"{path}: line {line_no}: cannot parse coordinates "
                        f"{row[0]!r}, {row[1]!r}"
                    )
        except csv.Error as exc:
            raise ValueError(f"{path}: line {end + 1}: {exc}") from None


def _fast_rows(path, has_header, third=None, converter=None):
    """The rows _csv_rows reads (the file opened alike, csv skipping the header), by numpy's
    C reader: x1, x2 in field "xy" and, if third is a dtype, the third field (through
    converter if given) in "f". None on any numpy error or warning; coordinates as parsed."""
    fields = [("xy", np.float64, (2,))] + ([("f", third)] if third else [])
    try:
        with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty file's warning, say, refuses it too
            if has_header:
                next(csv.reader(fh), None)
            rows = np.loadtxt(fh, dtype=fields, delimiter=",", comments=None, quotechar='"',
                              ndmin=1, converters={2: converter} if converter else None,
                              encoding="utf-8")  # str to the converter, not numpy 1's bytes
    except (ValueError, Warning, csv.Error):  # csv.Error: from the header
        return None
    return rows


def load_csv(path, has_header=False):
    """Read a labeled dataset from CSV rows of the form x1,x2,label.

    Blank lines are skipped. Malformed rows (wrong field count, unparsable
    or non-finite coordinates, empty label) raise ValueError naming the
    1-based line number. The vocabulary is the labels in order of first
    appearance.
    """
    raw = defaultdict(count().__next__)  # label -> code as read: a lookup in C a row
    rows = _fast_rows(path, has_header, np.intp, raw.__getitem__)
    if rows is None or not (np.isfinite(rows["xy"]).all() and all(map(str.strip, raw))
                            and max(map(len, raw), default=0) <= csv.field_size_limit()):
        # the reference loop, which names the line at fault (and refuses a label over csv's limit)
        raw, coords, codes = defaultdict(count().__next__), array("d"), []
        for line_no, x1, x2, row in _csv_rows(path, has_header, (3,)):
            if not (math.isfinite(x1) and math.isfinite(x2)):
                raise ValueError(f"{path}: line {line_no}: coordinates must be finite")
            if not row[2].strip():
                raise ValueError(f"{path}: line {line_no}: empty label")
            coords.extend((x1, x2))
            codes.append(raw[row[2]])
        rows = {"xy": np.frombuffer(coords).reshape(-1, 2), "f": np.array(codes, np.intp)}
    vocab = {}  # the stripped labels in order of first appearance
    recode = np.array([vocab.setdefault(lab.strip(), len(vocab)) for lab in raw], np.intp)
    if len(vocab) < 2:
        raise ValueError(f"{path}: need at least 2 classes, found {len(vocab)}")
    return Dataset(rows["xy"], recode[rows["f"]], tuple(vocab))


def read_points(path, has_header=False):
    """The (n, 2) coordinates of CSV rows x1,x2[,anything], by load_csv's CSV rules: ±inf
    is kept; a NaN, a bad row or a file without rows raises ValueError naming it."""
    rows = _fast_rows(path, has_header, "U1")  # a one-character third field keeps no labels
    if rows is None:
        rows = _fast_rows(path, has_header)
    if rows is not None and not np.isnan(rows["xy"]).any():
        return rows["xy"]
    coords = array("d")  # the reference loop, which names the line at fault
    for line_no, x1, x2, _ in _csv_rows(path, has_header, (2, 3)):
        if math.isnan(x1) or math.isnan(x2):
            raise ValueError(f"{path}: line {line_no}: NaN coordinate")
        coords.extend((x1, x2))
    if not coords:
        raise ValueError(f"{path}: no points found")
    return np.frombuffer(coords).reshape(-1, 2)


def write_csv(data, path):
    """Write x1,x2,label rows (no header, LF line endings, repr precision)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_rows(fh, data.coords, data.labels, data.codes)


def _write_rows(fh, xy, labels, codes, probs=None):
    """Write rows x1,x2,label[,p_1..p_K] of repr floats to the text stream fh, one
    write per 4096-row tile, byte for byte as csv.writer(fh, lineterminator="\\n"):
    a csv.writer quotes each label once, its write (str) handing back the row's text."""
    row_text = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    quoted = [row_text(["", label])[1:-1] for label in labels]
    columns = [xy[:, 0], xy[:, 1]] + ([] if probs is None else list(probs.T))
    for s in range(0, len(codes), 4096):
        cells = [map(repr, column[s:s + 4096].tolist()) for column in columns]
        cells.insert(2, map(quoted.__getitem__, codes[s:s + 4096].tolist()))
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
