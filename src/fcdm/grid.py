"""Equidistant unit-square mesh and signed one-vs-rest rasterization."""

import operator
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Square mesh with n_mesh pixels per axis over [0, L)^2, L = domain_width = 1.

    n_mesh must be a power of two (at least 8) so the mesh is compatible
    with radix-2 transforms. Pixel (i, j) covers
    [j*dx, (j+1)*dx) x [i*dx, (i+1)*dx) with i the row (x2) index and
    j the column (x1) index; its center sits at ((j+0.5)*dx, (i+0.5)*dx).
    """

    n_mesh: int
    domain_width = 1.0

    def __post_init__(self):
        n = self.n_mesh
        if not hasattr(n, "__index__") or n < 8 or n & (n - 1):
            raise ValueError(f"n_mesh must be a power of two >= 8, got {n!r}")
        object.__setattr__(self, "n_mesh", operator.index(n))  # numpy integers become int

    @property
    def pixel_size(self):
        return self.domain_width / self.n_mesh


@dataclass
class DensityField:
    """rasterize_signed's result: its (N, N) float64 raster, row-major (i, j), and the grid."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)


def _pixel_rows_cols(xy, grid):
    """The pixel rule: rows i (from x2) and columns j (from x1) of (n, 2) unit-scale points.

    index = min(floor(clip(x, 0, L) * n / L), n - 1): points off the unit square,
    infinite ones too, read the edge pixel, and x * n cannot overflow. NaN raises ValueError.
    """
    if np.isnan(xy).any():
        raise ValueError("cannot map NaN coordinates to a pixel")
    n = grid.n_mesh
    u = np.clip(xy, 0.0, grid.domain_width)
    u *= n / grid.domain_width
    np.minimum(np.floor(u, out=u), n - 1, out=u)
    return u[:, 1].astype(np.intp), u[:, 0].astype(np.intp)


def rasterize_signed(data, target_class, grid):
    """Signed raster for one class against the rest.

    Pixels holding at least one target-class point get +1, pixels holding
    only other-class points get -1, empty pixels stay 0. When a pixel
    holds both kinds the target class wins. The coordinates are scaled by the
    scaler fitted on them, so in its box; _pixel_rows_cols places them.
    """
    if target_class not in data.labels:
        raise ValueError(f"target class {target_class!r} not in vocabulary")
    n = grid.n_mesh
    flat, j = _pixel_rows_cols(data.coords, grid)
    flat *= n
    flat += j  # pixel (i, j) is entry i * n + j of the row-major raster
    values = np.zeros(n * n, dtype=np.float64)
    values[flat] = -1.0
    # written last so shared pixels resolve to the target class
    values[flat[data.codes == data.labels.index(target_class)]] = 1.0
    return DensityField(grid=grid, values=values.reshape(n, n))
