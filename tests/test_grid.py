import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from fcdm.dataset import Dataset
from fcdm.grid import GridSpec, _pixel_rows_cols, rasterize_signed


def test_gridspec_accepts_powers_of_two():
    for n in (8, 16, 64, 512):
        assert GridSpec(n).n_mesh == n


def test_gridspec_rejects_bad_sizes():
    for n in (0, 4, 7, 100, 500, -8):
        with pytest.raises(ValueError):
            GridSpec(n)


def test_gridspec_stores_any_integer_as_int():
    for n in (np.int64(64), np.uint16(64), np.int32(64)):
        grid = GridSpec(n)
        assert type(grid.n_mesh) is int
        assert grid == GridSpec(64) and hash(grid) == hash(GridSpec(64))
    for bad in (64.0, np.float64(64), "64", None):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            GridSpec(bad)


def test_domain_width_is_fixed_at_one():
    # model files do not store it, so it is not a constructor option
    assert GridSpec(8).domain_width == 1.0
    with pytest.raises(TypeError):
        GridSpec(8, 2.0)


def test_pixel_size_exact():
    assert GridSpec(512).pixel_size == 1.0 / 512
    assert GridSpec(8).pixel_size == 0.125


def _pixel(point, grid):
    """The (i, j) pixel of one unit-scale point by the pixel rule."""
    i, j = _pixel_rows_cols(np.array([point], dtype=np.float64), grid)
    return int(i[0]), int(j[0])


def test_pixel_centers():
    # the center of pixel (i, j) sits at ((j + 0.5) dx, (i + 0.5) dx)
    grid = GridSpec(8)
    centers = (np.arange(8) + 0.5) * grid.pixel_size
    assert centers[0] == 0.5 / 8
    assert centers[-1] == 7.5 / 8
    assert [_pixel((c, c), grid) for c in centers] == [(i, i) for i in range(8)]


def test_map_center_point():
    assert _pixel((0.5, 0.5), GridSpec(8)) == (4, 4)


def test_map_clamps_at_upper_edge():
    assert _pixel((1.0, 0.0), GridSpec(8)) == (0, 7)


def test_map_clamps_below_zero():
    assert _pixel((-0.2, 0.3), GridSpec(8)) == (2, 0)


def test_map_rejects_nan():
    for where in ((0, 0), (0, 1), (1, 0), (1, 1)):
        xy = np.array([[0.25, 0.5], [0.75, 0.125]])
        xy[where] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            _pixel_rows_cols(xy, GridSpec(8))


@pytest.mark.parametrize("x, edge", [
    (np.inf, 7), (1e308, 7), (np.finfo(np.float64).max, 7),
    (-np.inf, 0), (-1e308, 0), (-np.finfo(np.float64).max, 0),
])
def test_far_out_unit_scale_points_read_the_edge_pixel_without_overflow(x, edge):
    # a RuntimeWarning (such as "overflow encountered in multiply") fails this suite
    i, j = _pixel_rows_cols(np.array([[x, 0.3], [0.3, x]]), GridSpec(8))
    assert i.tolist() == [2, edge]
    assert j.tolist() == [edge, 2]


@given(
    x1=st.one_of(st.floats(allow_nan=False, width=64), st.sampled_from([1e308, -1e308])),
    x2=st.one_of(st.floats(allow_nan=False, width=64), st.sampled_from([1e308, -1e308])),
    exponent=st.integers(min_value=3, max_value=9),
)
def test_map_always_lands_on_grid(x1, x2, exponent):
    grid = GridSpec(2**exponent)
    i, j = _pixel((x1, x2), grid)
    assert 0 <= i < grid.n_mesh
    assert 0 <= j < grid.n_mesh


@given(
    i=st.integers(min_value=0, max_value=63),
    j=st.integers(min_value=0, max_value=63),
)
def test_pixel_center_maps_to_own_pixel(i, j):
    grid = GridSpec(64)
    dx = grid.pixel_size
    assert _pixel(((j + 0.5) * dx, (i + 0.5) * dx), grid) == (i, j)


def _single_point_data(label_of_point, vocab=("A", "B")):
    return Dataset(
        coords=[(0.5, 0.5)], codes=[vocab.index(label_of_point)], labels=vocab
    )


def test_rasterize_single_target_point():
    field = rasterize_signed(_single_point_data("A"), "A", GridSpec(8))
    expected = np.zeros((8, 8))
    expected[4, 4] = 1.0
    assert np.array_equal(field.values, expected)


def test_rasterize_single_other_point():
    field = rasterize_signed(_single_point_data("A"), "B", GridSpec(8))
    expected = np.zeros((8, 8))
    expected[4, 4] = -1.0
    assert np.array_equal(field.values, expected)


def test_rasterize_collision_target_wins():
    data = Dataset(coords=[(0.5, 0.5), (0.51, 0.51)], codes=[0, 1], labels=("A", "B"))
    # both points share pixel (4, 4) on an 8-mesh
    field = rasterize_signed(data, "A", GridSpec(8))
    assert field.values[4, 4] == 1.0
    assert np.count_nonzero(field.values) == 1


def test_rasterize_unknown_target_rejected():
    with pytest.raises(ValueError, match="vocabulary"):
        rasterize_signed(_single_point_data("A"), "C", GridSpec(8))


def test_rasterize_axis_convention():
    # x1 picks the column, x2 the row
    data = Dataset(coords=[(0.9, 0.1), (0.1, 0.9)], codes=[0, 1], labels=("A", "B"))
    field = rasterize_signed(data, "A", GridSpec(8))
    assert field.values[0, 7] == 1.0   # (i=row from x2, j=col from x1)
    assert field.values[7, 0] == -1.0


# pixel edges k/16 of a 16-mesh, 0.0 and 1.0 among them, make points of all
# three classes share pixels and reach the clamp at the top edge
_EDGE_OR_UNIFORM = st.one_of(
    st.sampled_from([k / 16 for k in range(17)]), st.floats(min_value=0, max_value=1)
)


@given(
    st.integers(min_value=1, max_value=200).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, (n, 2), elements=_EDGE_OR_UNIFORM),
            arrays(np.intp, n, elements=st.integers(min_value=0, max_value=2)),
        )
    )
)
def test_rasterize_values_are_signed_indicators(columns):
    coords, codes = columns
    data = Dataset(coords=coords, codes=codes, labels=("A", "B", "C"))
    grid = GridSpec(16)
    for target, lab in enumerate(data.labels):
        field = rasterize_signed(data, lab, grid)
        # reference, point by point: every other-class pixel reads -1, then
        # every target pixel +1, so a shared pixel goes to the target class
        expected = np.zeros((16, 16))
        for is_target in (False, True):
            for (x1, x2), code in zip(coords.tolist(), codes.tolist()):
                if (code == target) == is_target:
                    expected[_pixel((x1, x2), grid)] = 1.0 if is_target else -1.0
        assert field.values.tobytes() == expected.tobytes()


# the contract PrunedSpectrum relies on without checking it: an (N, N) float64
# C-contiguous raster on the grid it was asked for, with only finite values
def test_rasterize_raster_has_grid_shape():
    data = Dataset(coords=[(0.1, 0.2), (0.9, 0.7)], codes=[0, 1], labels=("A", "B"))
    for n_mesh in (8, 64, 512):
        grid = GridSpec(n_mesh)
        field = rasterize_signed(data, "A", grid)
        assert field.grid == grid
        assert field.values.shape == (n_mesh, n_mesh)
        assert field.values.dtype == np.float64
        assert field.values.flags.c_contiguous


def test_rasterize_raster_is_finite_for_far_out_points():
    # huge coordinates of either sign read the edge pixels, never a non-finite value
    coords = [(1e308, -1e308), (1e308, 0.5), (-1e308, 1e308), (0.5, 0.5)]
    data = Dataset(coords=coords, codes=[0, 1, 0, 1], labels=("A", "B"))
    field = rasterize_signed(data, "A", GridSpec(8))
    assert np.isfinite(field.values).all()
    assert set(np.unique(field.values)) <= {-1.0, 0.0, 1.0}
    assert field.values[0, 7] == 1.0   # (1e308, -1e308): column 7 from x1, row 0 from x2
    assert field.values[7, 0] == 1.0   # (-1e308, 1e308)
    assert field.values[4, 7] == -1.0  # (1e308, 0.5)
    assert field.values[4, 4] == -1.0  # (0.5, 0.5)
