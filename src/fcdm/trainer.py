"""One-vs-rest training: bandwidth search, cross-class cap, probability fields.

The bandwidth schedule widens the low-pass filter one step at a time
(sigma_tilde = n / L). Each class stops when the correlation between
consecutive smoothed fields flattens out; the final bandwidth shared by
all classes is the largest of the per-class stops, which keeps every
class at least as sharp as its own optimum.
"""

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .dataset import FeatureScaler, _vocabulary, fit_scaler, normalize_dataset
from .grid import GridSpec, rasterize_signed
from .spectral import PrunedSpectrum, consecutive_correlations, row_tiles, smooth_density

# below this total shifted density a pixel carries no information and
# falls back to the uniform distribution
_DEGENERATE_EPS = 1e-12
_EPSILON = 0.01  # the stopping rule's threshold on |d2(n)|: part of the method, not a setting


@dataclass
class TrainConfig:
    """The one knob of train(), n_mesh. n_max, the search cap, follows from the mesh."""

    n_mesh: int = 512

    def __post_init__(self):
        self.n_mesh = GridSpec(self.n_mesh).n_mesh  # the mesh rule lives there

    @property
    def n_max(self):
        return max(4, self.n_mesh // 8)  # 4 is the stopping rule's least cap


@dataclass
class ConvergenceTrace:
    """Diagnostics from one class's bandwidth search.

    correlations[t] is c(n) for n = 2 + t: the Pearson correlation between
    the fields smoothed at n and n - 1. second_derivatives[t], computed from
    it, is the central difference d2(n) = c(n+1) - 2 c(n) + c(n-1), n = 3 + t.
    """

    correlations: list
    n_k: int
    converged: bool

    @property
    def second_derivatives(self):
        c = self.correlations
        return [c[t + 2] - 2.0 * c[t + 1] + c[t] for t in range(len(c) - 2)]


@dataclass
class ClassifierModel:
    """A trained classifier: per-class probability fields over the unit square.

    labels obeys Dataset's label rule, as a tuple. probabilities is one C-contiguous
    (K, n_mesh, n_mesh) float64 array, probabilities[k] for labels[k]. traces[k] is
    the bandwidth search of class labels[k], the one training diagnostic; models
    restored from disk carry None there.
    """

    labels: tuple
    grid: GridSpec
    scaler: FeatureScaler
    n_final: int
    epsilon: float
    probabilities: np.ndarray = field(repr=False)
    traces: list = field(default=None, repr=False)

    def __post_init__(self):
        self.labels = _vocabulary(self.labels)
        k = len(self.labels)
        probs = self.probabilities = np.ascontiguousarray(self.probabilities, dtype=np.float64)
        shape = (k, self.grid.n_mesh, self.grid.n_mesh)
        if probs.shape != shape:
            raise ValueError(f"probabilities have shape {probs.shape}, expected {shape}")
        if not (isinstance(self.n_final, int) and self.n_final >= 1):
            raise ValueError(f"n_final must be a positive integer, got {self.n_final!r}")
        if not (self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        worst = 0.0  # per row tile, no copy; NaN fails the range test, which wins
        for tile in (probs[:, rows] for rows in row_tiles(probs)):
            if not (tile.min() >= -1e-12 and tile.max() <= 1.0 + 1e-12):
                raise ValueError("probability fields leave [0, 1]")
            total = _class_sum(tile)  # finite: the range passed
            worst = max(worst, total.max() - 1.0, 1.0 - total.min())  # max |total - 1|
        if not (worst <= 1e-9):
            raise ValueError("probability fields do not sum to 1 per pixel")
        if self.traces is not None:
            if len(self.traces) != k:
                raise ValueError(f"got {len(self.traces)} traces for {k} classes")
            if max(t.n_k for t in self.traces) != self.n_final:
                raise ValueError("n_final is not the maximum per-class iteration")

    @property
    def class_iterations(self):
        """{label: n_k} read from the traces; None on a model restored from disk."""
        if self.traces is None:
            return None
        return {lab: t.n_k for lab, t in zip(self.labels, self.traces)}


def pearson_correlation(x, y):
    """Pearson correlation of two same-shape arrays over their flattened entries.

    Two constant arrays give 1.0; a shape mismatch, or one constant array
    next to one with variance, raises ValueError. Clipped into [-1, 1].
    """
    if np.shape(x) != np.shape(y):
        raise ValueError(f"cannot correlate arrays of shapes {np.shape(x)} and {np.shape(y)}")
    x = np.ravel(x)
    y = np.ravel(y)
    # tested on the values themselves: the mean of a constant array can
    # be off by roundoff, which leaves a tiny nonzero spread below
    flat = (x.min() == x.max(), y.min() == y.max())
    if all(flat):
        return 1.0  # two constants: equal up to a shift, as in consecutive_correlations
    if any(flat):
        raise ValueError("correlation undefined for a constant array")
    dx_ = x - x.mean()
    dy_ = y - y.mean()
    sx = float(np.sqrt(dx_ @ dx_))
    sy = float(np.sqrt(dy_ @ dy_))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for a constant array")
    r = float(dx_ @ dy_) / (sx * sy)
    return min(max(r, -1.0), 1.0)


def stopping_rule(correlations, epsilon, n_max):
    """Pick the bandwidth step where the correlation curve flattens.

    correlations yields c(2), c(3), ... in order. The discrete second
    derivative d2(n) = c(n+1) - 2 c(n) + c(n-1) is checked at centers
    n = 3, 4, ..., n_max - 1 in order; the first with |d2(n)| < epsilon
    wins. If none falls below epsilon the result is n_max with
    converged=False. The sequence is read no further than the deciding
    value, and never past c(n_max). Returns the ConvergenceTrace of the
    values read.
    """
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if n_max < 4:
        raise ValueError(f"n_max must be at least 4, got {n_max}")
    corr = []
    for n, c in zip(range(2, n_max + 1), correlations):
        corr.append(c)
        if len(corr) >= 3 and abs(corr[-1] - 2.0 * corr[-2] + corr[-3]) < epsilon:
            return ConvergenceTrace(corr, n_k=n - 1, converged=True)
    return ConvergenceTrace(corr, n_k=n_max, converged=False)


def find_optimal_iteration(spectrum, epsilon, n_max):
    """Run stopping_rule on a raster's correlation curve; returns the ConvergenceTrace.

    spectrum is PrunedSpectrum(raster, grid). c(n), the Pearson correlation
    of the raster smoothed at steps n and n - 1, comes from it by Parseval's
    theorem (consecutive_correlations), with no inverse transform.
    """
    return stopping_rule(consecutive_correlations(spectrum), epsilon, n_max)


def _class_sum(tile):
    """tile.sum(axis=0) of a (K, rows, n) tile by K - 1 in-place adds, in numpy's order."""
    return functools.reduce(operator.iadd, tile[2:], tile[0] + tile[1])


def build_probabilities(probs):
    """Normalize a (K, n, n) float64 stack of smoothed class densities in place.

    Shifts all fields by the single global minimum (so the smallest value
    becomes 0) and divides by the per-pixel sum across classes. Pixels
    where that sum is below 1e-12 carry no evidence and get the uniform
    1/K instead. All but the minimum runs a row tile at a time. The output,
    the same array, sums to 1 at every pixel with each entry in [0, 1].
    """
    if probs.ndim != 3 or len(probs) < 2 or probs.shape[1] != probs.shape[2]:
        raise ValueError(f"need at least 2 square class fields, got shape {probs.shape}")
    low = probs.min()
    for tile in (probs[:, rows] for rows in row_tiles(probs)):
        tile -= low
        total = _class_sum(tile)
        degenerate = total < _DEGENERATE_EPS
        total[degenerate] = 1.0
        tile /= total
        tile[:, degenerate] = 1.0 / len(probs)
    return probs


def train(data, config=None):
    """Fit a classifier on a labeled dataset.

    Pipeline: fit the feature scaler, normalize onto the unit square,
    rasterize each class one-vs-rest and transform each raster as soon as
    it is built (only the spectra are kept), run the per-class bandwidth
    search on each spectrum, cap every class at the largest per-class
    stop n_final, keep the spectrum columns smoothing there reads, smooth
    and normalize into probability fields.
    """
    if config is None:
        config = TrainConfig()
    empty = [lab for lab, c in data.class_counts().items() if c == 0]
    if empty:
        raise ValueError(f"classes without points: {', '.join(map(repr, empty))}")
    scaler = fit_scaler(data)
    normalized = normalize_dataset(data, scaler)
    grid = GridSpec(n_mesh=config.n_mesh)
    spectra = [PrunedSpectrum(rasterize_signed(normalized, lab, grid).values, grid)
               for lab in data.labels]
    traces = [find_optimal_iteration(s, _EPSILON, config.n_max) for s in spectra]
    n_final = max(t.n_k for t in traces)
    for s in spectra:
        s.keep(n_final)
    probs = np.empty((len(spectra), grid.n_mesh, grid.n_mesh))
    for k, s in enumerate(spectra):
        smooth_density(s, n_final, probs[k])
    build_probabilities(probs)
    return ClassifierModel(
        labels=data.labels,
        grid=grid,
        scaler=scaler,
        n_final=n_final,
        epsilon=_EPSILON,
        probabilities=probs,
        traces=traces,
    )
