"""Reference implementations the tests compare the production code against.

smooth_density_direct sums the spatial kernel point by point; the
library smooths on the spectrum instead. full_plane_smooth and
full_plane_correlations are the spectral route on the whole rfft2 half
plane, with the 2-D rfft2 / irfft2 pair and no pruning: the pruned
transforms must reproduce them bit for bit. underflow_axis is the filter
axis with no floor, cut only where float64 exp underflows; fed to the
full-plane routes, it must give the same bytes too.
build_probabilities_whole, check_probabilities_whole and
decision_ppm_whole are the passes over the probability stack as
whole-array operations, with no row tiles: the tiled passes must
reproduce them byte for byte. csv_rows_text writes CSV rows with one
csv.writer call per row: the column-wise row writer must reproduce it
byte for byte. evaluate_pointwise builds the confusion matrix with one
increment per point: evaluate's single bincount must give the same
report, bit for bit. naive_dft2 is the 2-D DFT as its quadruple-loop
definition. model_from_fields builds a ClassifierModel straight from
given probability fields, with no training.
"""

import csv
import io
import itertools

import numpy as np

from fcdm.dataset import FeatureScaler
from fcdm.grid import GridSpec
from fcdm.inference import EvalReport, predict
from fcdm.render import class_palette
from fcdm.spectral import PrunedSpectrum, _aliased_gaussian, _transfer_axis, smooth_density
from fcdm.trainer import ClassifierModel


def smooth(values, grid, n_iter):
    """smooth_density applied to an (N, N) array through its own spectrum; an array."""
    return smooth_density(PrunedSpectrum(values, grid), n_iter)


def half_plane(values, grid):
    """PrunedSpectrum(values, grid) extended to its full width, columns 0..N/2."""
    return PrunedSpectrum(values, grid).columns(grid.n_mesh // 2 + 1)


def floored_axis(grid, n_iter):
    """The filter axis smooth_density uses, its entries below 1e-100 set to 0.0."""
    return _transfer_axis(grid, n_iter)[0]


def underflow_axis(grid, n_iter):
    """The filter axis with no floor: zero only where float64 exp underflows."""
    return _aliased_gaussian(grid, int(n_iter) / grid.domain_width)


def full_plane_transfer(grid, n_iter, axis_of=floored_axis):
    """smooth_density's transfer function at step n_iter on every half-plane
    column, its zeros included: a new (N, N/2 + 1) array."""
    axis = axis_of(grid, n_iter)
    st = int(n_iter) / grid.domain_width
    return np.outer(axis, axis[: grid.n_mesh // 2 + 1]) / (2.0 * np.pi * st * st)


def full_plane_smooth(values, grid, n_iter, axis_of=floored_axis):
    """smooth_density's values as one rfft2, full_plane_transfer and one irfft2."""
    n = grid.n_mesh
    transfer = full_plane_transfer(grid, n_iter, axis_of)
    return np.fft.irfft2(np.fft.rfft2(values) * transfer, s=(n, n))


def full_plane_correlations(values, grid, axis_of=floored_axis):
    """consecutive_correlations on the full rfft2 half plane, every power column at once."""
    s = np.fft.rfft2(values)
    half = s.shape[1]
    power = s.real * s.real + s.imag * s.imag
    power[:, 1 : half - 1] *= 2.0
    power[0, 0] = 0.0

    def energy(u):
        return float(u @ power @ u[:half])

    prev = axis_of(grid, 1)
    prev_energy = energy(prev * prev)
    for n in itertools.count(2):
        axis = axis_of(grid, n)
        cur_energy = energy(axis * axis)
        if cur_energy == 0.0 and prev_energy == 0.0:
            yield 1.0  # both fields are the same constant
        elif cur_energy == 0.0 or prev_energy == 0.0:
            raise ValueError("correlation undefined for a constant field")
        else:
            r = energy(axis * prev) / (np.sqrt(cur_energy) * np.sqrt(prev_energy))
            yield min(max(float(r), -1.0), 1.0)
        prev, prev_energy = axis, cur_energy


def smooth_density_direct(impulses, n_iter, grid):
    """Brute-force reference for smooth_density, O(points * N^2).

    Takes the raster as a sparse list of ((i, j), sign) impulses and sums
    the spatial Gaussian kernel dx^2 * exp(-2 pi^2 sigma_tilde^2 r^2)
    directly, over the 3x3 block of periodic images so the circularity of
    the spectral route is reproduced. Images farther out are left out,
    which limits the accuracy at small n_iter (wide kernels): up to a few
    1e-9 relative to the peak at n_iter = 1, roundoff from n_iter = 2.
    Intended for oracle checks on small grids, not production use.
    Returns the (N, N) array.
    """
    if n_iter != int(n_iter) or int(n_iter) < 1:
        raise ValueError(f"iteration number must be a positive integer, got {n_iter}")
    st = int(n_iter) / grid.domain_width
    L = grid.domain_width
    dx = grid.pixel_size
    centers = (np.arange(grid.n_mesh) + 0.5) * dx
    X1 = centers[np.newaxis, :]  # column coordinate (x1)
    X2 = centers[:, np.newaxis]  # row coordinate (x2)
    out = np.zeros((grid.n_mesh, grid.n_mesh), dtype=np.float64)
    coef = 2.0 * np.pi * np.pi * st * st
    for (i, j), sign in impulses:
        c1 = (j + 0.5) * dx
        c2 = (i + 0.5) * dx
        acc = np.zeros_like(out)
        for m1 in (-L, 0.0, L):
            for m2 in (-L, 0.0, L):
                d1 = X1 - c1 + m1
                d2 = X2 - c2 + m2
                acc += np.exp(-coef * (d1 * d1 + d2 * d2))
        out += float(sign) * acc
    return dx * dx * out


def build_probabilities_whole(probs):
    """build_probabilities in whole-stack steps: shift, sum, fall back, divide."""
    probs -= probs.min()
    total = probs.sum(axis=0)
    degenerate = total < 1e-12
    total[degenerate] = 1.0
    probs /= total
    probs[:, degenerate] = 1.0 / len(probs)
    return probs


def check_probabilities_whole(probs):
    """ClassifierModel's probability checks over the whole stack; the message, or None."""
    if not (probs.min() >= -1e-12 and probs.max() <= 1.0 + 1e-12):
        return "probability fields leave [0, 1]"
    deviation = probs.sum(axis=0)
    deviation -= 1.0
    if not (np.abs(deviation, out=deviation).max() <= 1e-9):
        return "probability fields do not sum to 1 per pixel"
    return None


def decision_ppm_whole(model):
    """decision_ppm with whole-plane winners and one palette lookup."""
    best = model.probabilities[0].copy()
    winners = np.zeros(best.shape, dtype=np.intp)
    for k, p in enumerate(model.probabilities[1:], start=1):
        winners[p > best] = k
        np.maximum(best, p, out=best)
    palette = np.array(class_palette(len(model.labels)), dtype=np.uint8)
    rgb = np.take(palette, winners, axis=0)
    n = model.grid.n_mesh
    return f"P6\n{n} {n}\n255\n".encode("ascii") + rgb.tobytes()


def csv_rows_text(xy, labels, codes, probs=None):
    """Rows x1,x2,label[,p_1..p_K] of repr floats as csv.writer writes them,
    one writerow per row with LF line ends; the text, or "" for no rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for r, code in enumerate(codes.tolist()):
        tail = [] if probs is None else [repr(p) for p in probs[r].tolist()]
        writer.writerow([repr(x) for x in xy[r].tolist()] + [labels[code]] + tail)
    return buf.getvalue()


def evaluate_pointwise(model, data):
    """evaluate with one confusion[t, p] += 1 per point; the EvalReport."""
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


def naive_dft2(a):
    """The transform written as its quadruple-loop definition, O(N^4)."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    for k1 in range(n):
        for k2 in range(n):
            acc = 0.0 + 0.0j
            for m1 in range(n):
                for m2 in range(n):
                    acc += a[m1, m2] * np.exp(-2j * np.pi * (k1 * m1 + k2 * m2) / n)
            out[k1, k2] = acc
    return out


def model_from_fields(fields, labels, n=8, scaler=None):
    """A ClassifierModel over the given (n, n) probability fields, one per label."""
    grid = GridSpec(n)
    return ClassifierModel(
        labels=labels,
        grid=grid,
        scaler=scaler or FeatureScaler(0, 1, 0, 1),
        n_final=3,
        epsilon=0.01,
        probabilities=np.stack(fields),
    )
