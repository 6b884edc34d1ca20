"""The row-tiled passes over a probability stack against whole-array references.

The tile budget is patched down so that mesh-16 and mesh-64 stacks split
into tiles of 5 rows with a short last tile (16 and 64 are not multiples
of 5). Uniform-fallback pixels, argmax ties and check failures are put on
the rows where two tiles meet.
"""

import numpy as np
import pytest

import fcdm.spectral
from fcdm.dataset import FeatureScaler, generate_spirals
from fcdm.grid import DensityField, GridSpec
from fcdm.model_io import model_to_bytes
from fcdm.render import class_palette, decision_ppm
from fcdm.spectral import PrunedSpectrum, row_tiles, smooth_density
from fcdm.trainer import ClassifierModel, TrainConfig, _class_sum, build_probabilities, train
from oracles import (
    build_probabilities_whole,
    check_probabilities_whole,
    decision_ppm_whole,
    full_plane_smooth,
)

ROWS = 5  # rows per tile under the patched budget


def _five_row_tiles(monkeypatch, stack):
    """Patch the byte budget to 5 rows of stack (rows along axis -2)."""
    monkeypatch.setattr(fcdm.spectral, "_TILE_BYTES", ROWS * stack.nbytes // stack.shape[-2])
    tiles = row_tiles(stack)
    assert len(tiles) >= 3 and tiles[-1].stop > stack.shape[-2]  # a short last tile
    return tiles


def _seams(n):
    """The rows where two 5-row tiles meet, and the last row."""
    return sorted({r for r in range(n) if r % ROWS in (0, ROWS - 1)} - {0} | {n - 1})


def _model(probs):
    k, n = probs.shape[:2]
    return ClassifierModel(
        labels=tuple(f"k{c}" for c in range(k)), grid=GridSpec(n),
        scaler=FeatureScaler(0.0, 1.0, 0.0, 1.0), n_final=2, epsilon=0.01,
        probabilities=probs,
    )


def _check_message(probs):
    try:
        _model(probs)
    except ValueError as exc:
        return str(exc)
    return None


# ------------------------------------------------------------- the slices

@pytest.mark.parametrize("shape", [(3, 16, 16), (64, 64), (2, 7, 3), (5, 1, 8)])
def test_row_tiles_cover_every_row_once_in_order(monkeypatch, shape):
    stack = np.zeros(shape)
    monkeypatch.setattr(fcdm.spectral, "_TILE_BYTES", ROWS * stack.nbytes // shape[-2])
    tiles = row_tiles(stack)
    rows = np.arange(shape[-2])
    assert np.array_equal(np.concatenate([rows[t] for t in tiles]), rows)
    assert all(t.stop - t.start == ROWS for t in tiles)


def test_tile_height_comes_from_the_byte_budget():
    # 1 MiB: 42 rows of a K = 3, mesh-1024 stack, 170 at mesh 256 (two
    # tiles), 128 rows of one mesh-1024 plane
    tiles = row_tiles(np.empty((3, 1024, 1024)))
    assert (tiles[0], len(tiles)) == (slice(0, 42), 25)
    assert row_tiles(np.empty((3, 256, 256))) == [slice(0, 170), slice(170, 340)]
    assert row_tiles(np.empty((1024, 1024)))[-1] == slice(896, 1024)


def test_a_row_larger_than_the_budget_is_a_tile_of_its_own(monkeypatch):
    monkeypatch.setattr(fcdm.spectral, "_TILE_BYTES", 100)
    assert row_tiles(np.empty((2, 3, 64))) == [slice(0, 1), slice(1, 2), slice(2, 3)]


# ---------------------------------------------------------- normalization

def _smoothed_like(k, n, seed):
    """Signed fields; every third seam pixel is degenerate (all classes at the
    global minimum, or within 1e-14 of it)."""
    rng = np.random.default_rng(seed)
    fields = rng.normal(size=(k, n, n))
    low = fields.min()
    seams = _seams(n)
    fields[:, seams, ::3] = low
    fields[:, seams, 1::3] = low + 1e-14
    return fields


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_tiled_normalization_matches_the_whole_stack(monkeypatch, k, n):
    fields = _smoothed_like(k, n, seed=k * n)
    whole = build_probabilities_whole(fields.copy())
    _five_row_tiles(monkeypatch, fields)
    tiled = build_probabilities(fields)
    assert tiled is fields
    assert tiled.tobytes() == whole.tobytes()
    seams = _seams(n)
    assert np.all(tiled[:, seams, ::3] == 1.0 / k)
    assert np.all(tiled[:, seams, 1::3] == 1.0 / k)
    assert _check_message(tiled) is None


# ---------------------------------------------------------------- checks

def _valid(k, n, seed):
    weights = np.random.default_rng(seed).uniform(0.1, 1.0, size=(k, n, n))
    return weights / weights.sum(axis=0)


def _off_sum_in_first_tile(p):
    p[0, ROWS - 1, 2] += 1e-6


def _off_range_in_last_tile(p):
    p[:, -1, 0] = 0.0
    p[:2, -1, 0] = (-0.5, 1.5)  # the pixel still sums to 1


def _both(p):
    _off_sum_in_first_tile(p)
    _off_range_in_last_tile(p)


def _value_in_last_pixel(value):
    def poison(p):
        p[-1, -1, -1] = value
    return poison


def _within_tolerance(p):
    p[1, ROWS, 3] += p[0, ROWS, 3]
    p[0, ROWS, 3] = -1e-13
    p[1, -1, 1] += 5e-10


_CASES = {
    "valid": (lambda p: None, None),
    "within-tolerance": (_within_tolerance, None),
    "sum-first-tile": (_off_sum_in_first_tile, "sum"),
    "range-last-tile": (_off_range_in_last_tile, "leave"),
    "sum-first-range-last": (_both, "leave"),
    "nan-last-pixel": (_value_in_last_pixel(np.nan), "leave"),
    "inf-last-pixel": (_value_in_last_pixel(np.inf), "leave"),
    "neg-inf-last-pixel": (_value_in_last_pixel(-np.inf), "leave"),
}


@pytest.mark.parametrize("case", sorted(_CASES))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_tiled_model_checks_match_the_whole_stack(monkeypatch, k, case):
    poison, expected = _CASES[case]
    probs = _valid(k, 64, seed=k)
    poison(probs)
    whole = check_probabilities_whole(probs)
    assert (whole is None) == (expected is None)
    if expected is not None:
        assert expected in whole
    _five_row_tiles(monkeypatch, probs)
    assert _check_message(probs) == whole


# ---------------------------------------------------------- decision map

@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_tiled_decision_map_matches_the_whole_plane(monkeypatch, k, n):
    # few integer weight levels give many exact ties; on the seam rows every
    # class but 0 ties, above class 0, so the lowest tied class, 1, wins there
    rng = np.random.default_rng(k + n)
    weights = rng.integers(0, 3, size=(k, n, n)).astype(np.float64)
    seams = _seams(n)
    weights[0, seams] = 1.0
    weights[1:, seams] = 2.0
    weights[:, weights.sum(axis=0) == 0] = 1.0
    model = _model(weights / weights.sum(axis=0))
    whole = decision_ppm_whole(model)
    _five_row_tiles(monkeypatch, model.probabilities)
    tiled = decision_ppm(model)
    assert tiled == whole
    header = f"P6\n{n} {n}\n255\n".encode("ascii")
    rgb = np.frombuffer(tiled[len(header):], dtype=np.uint8).reshape(n, n, 3)
    assert np.all(rgb[seams] == class_palette(k)[1])


# ------------------------------------------------------------- smoothing

@pytest.mark.parametrize("n", [16, 64])
def test_tiled_smoothing_fills_the_given_array_bit_for_bit(monkeypatch, n):
    rng = np.random.default_rng(n)
    values = np.where(rng.random((n, n)) < 0.2, np.where(rng.random((n, n)) < 0.5, -1.0, 1.0), 0.0)
    raster = DensityField(grid=GridSpec(n), values=values)
    spectrum = PrunedSpectrum(raster)
    out = np.full((n, n), np.nan)
    _five_row_tiles(monkeypatch, out)
    for n_iter in (1, 2, 3):
        assert smooth_density(spectrum, n_iter, out) is out
        assert out.tobytes() == full_plane_smooth(raster, n_iter).tobytes()
        assert smooth_density(spectrum, n_iter).tobytes() == out.tobytes()


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_training_is_byte_identical_under_a_small_tile_budget(monkeypatch, k):
    data = generate_spirals(k, 60, [0.01] * k, 1.75, k)
    config = TrainConfig(n_mesh=64)
    reference = train(data, config)
    expected = model_to_bytes(reference) + decision_ppm(reference)
    _five_row_tiles(monkeypatch, reference.probabilities)
    model = train(data, config)
    assert model_to_bytes(model) + decision_ppm(model) == expected


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_class_sum_is_the_axis_0_sum_bit_for_bit(k):
    rng = np.random.default_rng(k)
    stack = rng.random((k, 40, 64)) * 10.0 ** rng.integers(-8, 9, size=(k, 40, 64))
    for tile in (stack, stack[:, 5:17]):  # a whole stack and a row tile of it
        assert _class_sum(tile).tobytes() == tile.sum(axis=0).tobytes()
