"""Reference implementations the tests compare the production code against.

smooth_density_direct sums the spatial kernel point by point; the
library smooths on the spectrum instead. full_plane_smooth and
full_plane_correlations are the spectral route on the whole rfft2 half
plane, with the 2-D rfft2 / irfft2 pair and no pruning: the pruned
transforms must reproduce them bit for bit.
"""

import itertools

import numpy as np

from fcdm.spectral import PrunedSpectrum, _transfer_axis, smooth_density


def smooth(field, n_iter):
    """smooth_density applied to a DensityField through its own spectrum; an array."""
    return smooth_density(PrunedSpectrum(field), n_iter)


def half_plane(field):
    """PrunedSpectrum(field) extended to its full width, columns 0..N/2."""
    return PrunedSpectrum(field).columns(field.grid.n_mesh // 2 + 1)


def full_plane_smooth(field, n_iter):
    """smooth_density's values as one rfft2, the transfer function on every
    half-plane column (its zeros included) and one irfft2."""
    n = field.grid.n_mesh
    axis = _transfer_axis(field.grid, n_iter)
    st = int(n_iter) / field.grid.domain_width
    transfer = np.outer(axis, axis[: n // 2 + 1]) / (2.0 * np.pi * st * st)
    return np.fft.irfft2(np.fft.rfft2(field.values) * transfer, s=(n, n))


def full_plane_correlations(field):
    """consecutive_correlations on the full rfft2 half plane, every power column at once."""
    grid = field.grid
    s = np.fft.rfft2(field.values)
    half = s.shape[1]
    power = s.real * s.real + s.imag * s.imag
    power[:, 1 : half - 1] *= 2.0
    power[0, 0] = 0.0

    def energy(u):
        return float(u @ power @ u[:half])

    prev = _transfer_axis(grid, 1)
    prev_energy = energy(prev * prev)
    for n in itertools.count(2):
        axis = _transfer_axis(grid, n)
        cur_energy = energy(axis * axis)
        if cur_energy == 0.0 or prev_energy == 0.0:
            raise ValueError("correlation undefined for a constant field")
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
