"""Reference implementations the tests compare the production code against.

smooth_density_direct sums the spatial kernel point by point; the
library smooths on the spectrum instead.
"""

import numpy as np

from fcdm.grid import DensityField
from fcdm.spectral import half_spectrum, smooth_density


def smooth(field, n_iter):
    """smooth_density applied to a DensityField through its own spectrum."""
    return smooth_density(half_spectrum(field), n_iter)


def smooth_density_direct(impulses, n_iter, grid):
    """Brute-force reference for smooth_density, O(points * N^2).

    Takes the raster as a sparse list of ((i, j), sign) impulses and sums
    the spatial Gaussian kernel dx^2 * exp(-2 pi^2 sigma_tilde^2 r^2)
    directly, over the 3x3 block of periodic images so the circularity of
    the spectral route is reproduced. Images farther out are left out,
    which limits the accuracy at small n_iter (wide kernels): up to a few
    1e-9 relative to the peak at n_iter = 1, roundoff from n_iter = 2.
    Intended for oracle checks on small grids, not production use.
    """
    if n_iter != int(n_iter) or int(n_iter) < 1:
        raise ValueError(f"iteration number must be a positive integer, got {n_iter}")
    st = int(n_iter) / grid.domain_width
    L = grid.domain_width
    dx = grid.pixel_size
    centers = grid.pixel_centers()
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
    return DensityField(grid=grid, values=dx * dx * out)
