"""Equidistant unit-square mesh and signed one-vs-rest rasterization."""

import math
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
    """A real-valued function sampled on a grid, stored row-major (i, j)."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        n = self.grid.n_mesh
        if self.values.shape != (n, n):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid ({n}, {n})"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("field contains non-finite values")


def map_to_pixel(point, grid):
    """The (i, j) pixel containing a point; out-of-range points clamp to the edge.

    The first coordinate (x1) selects the column j, the second (x2) the
    row i: index = clamp(floor(x / dx), 0, n_mesh - 1). NaN coordinates
    raise ValueError.
    """
    x1, x2 = float(point[0]), float(point[1])
    if math.isnan(x1) or math.isnan(x2):
        raise ValueError("cannot map NaN coordinates to a pixel")
    n = grid.n_mesh
    # clamp before floor so even infinite coordinates stay on the grid
    j = int(math.floor(min(max(x1 * n / grid.domain_width, 0.0), n - 1.0)))
    i = int(math.floor(min(max(x2 * n / grid.domain_width, 0.0), n - 1.0)))
    return i, j


def _pixel_rows_cols(xy, grid):
    """Vectorized map_to_pixel for an (n, 2) coordinate array."""
    n = grid.n_mesh
    scale = n / grid.domain_width
    j = np.clip(np.floor(xy[:, 0] * scale), 0, n - 1).astype(np.intp)
    i = np.clip(np.floor(xy[:, 1] * scale), 0, n - 1).astype(np.intp)
    return i, j


def rasterize_signed(data, target_class, grid):
    """Signed raster for one class against the rest.

    Pixels holding at least one target-class point get +1, pixels holding
    only other-class points get -1, empty pixels stay 0. When a pixel
    holds both kinds the target class wins. Expects normalized (unit
    square) coordinates; anything outside clamps to the boundary pixels.
    """
    if target_class not in data.labels:
        raise ValueError(f"target class {target_class!r} not in vocabulary")
    i, j = _pixel_rows_cols(data.coords, grid)
    is_target = data.codes == data.labels.index(target_class)
    values = np.zeros((grid.n_mesh, grid.n_mesh), dtype=np.float64)
    values[i[~is_target], j[~is_target]] = -1.0
    # written last so shared pixels resolve to the target class
    values[i[is_target], j[is_target]] = 1.0
    return DensityField(grid=grid, values=values)
