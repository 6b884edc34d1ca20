import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fcdm.spectral
from fcdm.dataset import generate_spirals, fit_scaler, normalize_dataset
from fcdm.grid import DensityField, GridSpec, rasterize_signed
from fcdm.spectral import (
    PrunedSpectrum,
    _support,
    _transfer_axis,
    _transfer_function,
    consecutive_correlations,
    smooth_density,
)
from fcdm.trainer import find_optimal_iteration, pearson_correlation, stopping_rule
from oracles import (
    full_plane_correlations,
    full_plane_smooth,
    half_plane,
    smooth,
    smooth_density_direct,
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


def _random_field(grid, seed, low=-1.0, high=1.0):
    rng = np.random.default_rng(seed)
    return DensityField(
        grid=grid, values=rng.uniform(low, high, size=(grid.n_mesh, grid.n_mesh))
    )


# ------------------------------------------------------ rfft2 / irfft2

def test_half_spectrum_matches_naive_definition():
    grid = GridSpec(8)
    field = _random_field(grid, 123)
    expected = naive_dft2(field.values)[:, :5]
    got = half_plane(field)
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()


def test_zero_field_has_zero_spectrum():
    grid = GridSpec(8)
    spectrum = half_plane(DensityField(grid=grid, values=np.zeros((8, 8))))
    assert np.all(spectrum == 0)


def test_impulse_at_origin_has_flat_spectrum():
    grid = GridSpec(8)
    values = np.zeros((8, 8))
    values[0, 0] = 1.0
    spectrum = half_plane(DensityField(grid=grid, values=values))
    assert spectrum.shape == (8, 5)
    assert np.abs(spectrum - 1.0).max() <= 1e-13


def test_all_ones_spectrum_is_origin_impulse():
    field = np.fft.irfft2(np.ones((8, 5), dtype=complex), s=(8, 8))
    assert abs(field[0, 0] - 1.0) <= 1e-13
    off_origin = field.copy()
    off_origin[0, 0] = 0.0
    assert np.abs(off_origin).max() <= 1e-13


def test_round_trip_on_signed_raster():
    grid = GridSpec(16)
    rng = np.random.default_rng(7)
    values = rng.choice([-1.0, 0.0, 1.0], size=(16, 16))
    back = np.fft.irfft2(half_plane(DensityField(grid=grid, values=values)), s=(16, 16))
    assert np.abs(back - values).max() <= 1e-12


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25)
def test_parseval(seed):
    # on the half plane columns 1..N/2-1 also stand for their mirrors
    grid = GridSpec(16)
    field = _random_field(grid, seed)
    power = np.abs(half_plane(field)) ** 2
    power[:, 1:8] *= 2.0
    spatial = float((field.values**2).sum())
    spectral = float(power.sum()) / grid.n_mesh**2
    assert abs(spatial - spectral) <= 1e-10 * max(spatial, 1.0)


def test_wrapped_frequency_layout(monkeypatch, cold_transfer_caches):
    # the filter reads its axis frequencies from np.fft.fftfreq at the
    # pixel spacing, which gives the wrapped layout in units of 1 / L
    fftfreq = fcdm.spectral.np.fft.fftfreq
    calls = []

    def recorded(*args):
        calls.append((args, fftfreq(*args)))
        return calls[-1][1]

    monkeypatch.setattr(fcdm.spectral.np.fft, "fftfreq", recorded)
    _transfer_axis(GridSpec(8), 1)
    assert [args for args, _ in calls] == [(8, 0.125)]
    assert calls[0][1].tolist() == [0, 1, 2, 3, -4, -3, -2, -1]


# ---------------------------------------------------------------- filter

def test_filter_zero_frequency_value():
    transfer = _transfer_function(GridSpec(64), 1)
    assert abs(transfer[0, 0] - 1.0 / (2 * np.pi)) <= 1e-12
    assert abs(transfer[0, 0] - 0.15915494) <= 1e-7


def test_filter_value_at_unit_exponent():
    # f1 = f2 = 1 gives exponent -(1+1)/2 = -1 at sigma_tilde = 1
    transfer = _transfer_function(GridSpec(64), 1)
    expected = np.exp(-1.0) / (2 * np.pi)
    assert abs(transfer[1, 1] - expected) <= 1e-12
    assert abs(expected - 0.05854983) <= 1e-7


@given(
    n_iter=st.integers(min_value=1, max_value=16),
    exponent=st.integers(min_value=3, max_value=6),
)
def test_filter_even_symmetry(n_iter, exponent):
    # the rows carry every x2 frequency, so row f2 mirrors onto row -f2;
    # the mirrors of columns 1..N/2-1 are not stored, and swapping f1 and
    # f2 (transposing the square block) stands in for them
    n = 2**exponent
    transfer = _transfer_function(GridSpec(n), n_iter)
    assert np.array_equal(transfer, transfer[(-np.arange(n)) % n])
    width = transfer.shape[1]
    block = transfer[:width]
    assert np.array_equal(block, block.T)


@pytest.mark.parametrize("n_mesh", [64, 256, 1024, 2048])
@pytest.mark.parametrize("n_iter", [1, 5, 6, 32])
def test_filter_stops_where_its_axis_is_exactly_zero(n_mesh, n_iter):
    # the stored columns end at the last nonzero of the axis; every later
    # half-plane column of the full outer product is exactly 0.0
    grid = GridSpec(n_mesh)
    axis = _transfer_axis(grid, n_iter)
    width = _transfer_function(grid, n_iter).shape[1]
    assert width == _support(axis)
    assert axis[width - 1] != 0.0
    assert not axis[width : n_mesh // 2 + 1].any()


@pytest.mark.parametrize("n_iter, width", [(5, 194), (6, 232)])
def test_filter_support_is_mesh_independent(n_iter, width):
    # exp underflows at the same frequency whatever the mesh, once the
    # mesh is fine enough for the aliased copies to underflow as well
    for n_mesh in (512, 1024, 2048):
        assert _support(_transfer_axis(GridSpec(n_mesh), n_iter)) == width


def test_transfer_axes_and_functions_are_memoised_read_only(cold_transfer_caches):
    # the N-float axes are shared and read-only; the (N, m) transfer
    # functions are built per call, so no cache keeps one alive
    grid = GridSpec(64)
    axis = _transfer_axis(grid, 3)
    assert _transfer_axis(GridSpec(64), 3) is axis
    with pytest.raises(ValueError, match="read-only"):
        axis[0] = 0.0
    assert _transfer_axis.cache_info().maxsize <= 64
    assert _transfer_function(grid, 3) is not _transfer_function(grid, 3)


def test_filter_rejects_nonpositive_sigma():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            _transfer_function(GridSpec(8), bad)


def test_filter_decreases_with_frequency():
    transfer = _transfer_function(GridSpec(32), 2)
    assert transfer[0, 0] == transfer.max()
    assert transfer[16, 16] == transfer.min()  # the corner holds the extreme frequency


# ---------------------------------------------------------------- smoothing

def test_smooth_zero_raster_is_zero():
    grid = GridSpec(32)
    out = smooth(DensityField(grid=grid, values=np.zeros((32, 32))), 3)
    assert out.shape == (32, 32) and out.dtype == np.float64
    assert np.abs(out).max() <= 1e-15


def test_smooth_rejects_bad_iteration():
    grid = GridSpec(8)
    field = DensityField(grid=grid, values=np.zeros((8, 8)))
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            smooth(field, bad)


def test_center_impulse_matches_gaussian_bump():
    grid = GridSpec(64)
    values = np.zeros((64, 64))
    values[32, 32] = 1.0
    out = smooth(DensityField(grid=grid, values=values), 2)
    direct = smooth_density_direct([((32, 32), 1.0)], 2, grid)
    bound = 1e-4 * np.abs(direct).max()
    assert np.abs(out - direct).max() <= bound
    # peak sits at the impulse with height dx^2 (images are negligible here)
    dx2 = grid.pixel_size**2
    assert abs(out[32, 32] - dx2) <= 1e-12 * dx2
    assert out.max() == out[32, 32]


@pytest.mark.parametrize(
    "n_mesh, n_iter",
    # cells where a filter cut off at the N-point frequency window misses
    # the oracle by 1e-2 or more, plus n far above n_mesh // 8 so many
    # aliased copies of the profile are needed
    [(8, 2), (16, 4), (32, 6), (8, 16)],
)
def test_single_impulse_matches_direct_route(n_mesh, n_iter):
    grid = GridSpec(n_mesh)
    values = np.zeros((n_mesh, n_mesh))
    values[0, 0] = 1.0
    out = smooth(DensityField(grid=grid, values=values), n_iter)
    direct = smooth_density_direct([((0, 0), 1.0)], n_iter, grid)
    bound = 1e-4 * np.abs(direct).max()
    assert np.abs(out - direct).max() <= bound


def test_twenty_random_impulses_match_direct_route():
    grid = GridSpec(64)
    rng = np.random.default_rng(20240416)
    flat = rng.choice(64 * 64, size=20, replace=False)
    signs = rng.choice([-1.0, 1.0], size=20)
    impulses = [
        ((int(f) // 64, int(f) % 64), s) for f, s in zip(flat, signs)
    ]
    values = np.zeros((64, 64))
    for (i, j), s in impulses:
        values[i, j] = s
    raster = DensityField(grid=grid, values=values)
    for n in (1, 2, 3, 4):
        fft_route = smooth(raster, n)
        direct = smooth_density_direct(impulses, n, grid)
        bound = 1e-4 * np.abs(direct).max()
        assert np.abs(fft_route - direct).max() <= bound


def test_direct_route_empty_and_cancelling_inputs():
    grid = GridSpec(16)
    assert np.all(smooth_density_direct([], 2, grid) == 0)
    pair = [((3, 5), 1.0), ((3, 5), -1.0)]
    assert np.all(smooth_density_direct(pair, 2, grid) == 0)


def test_uneven_transfer_function_rejected(monkeypatch, cold_transfer_caches):
    # irfft2 returns a real field even when the filtered spectrum is not
    # conjugate-symmetric; an uneven transfer axis must raise instead
    even = fcdm.spectral._aliased_gaussian

    def uneven(grid, sigma_tilde):
        axis = even(grid, sigma_tilde)
        axis[1] *= 1.0 + 1e-15
        return axis

    monkeypatch.setattr(fcdm.spectral, "_aliased_gaussian", uneven)
    grid = GridSpec(16)
    spectrum = PrunedSpectrum(_random_field(grid, 3))
    with pytest.raises(ValueError, match="even"):
        smooth_density(spectrum, 2)
    with pytest.raises(ValueError, match="even"):
        next(consecutive_correlations(spectrum))


@given(seed=st.integers(min_value=0, max_value=2**31),
       n_iter=st.integers(min_value=1, max_value=6))
@settings(max_examples=20)
def test_smoothing_is_linear(seed, n_iter):
    grid = GridSpec(16)
    a = _random_field(grid, seed)
    b = _random_field(grid, seed + 1)
    combined = DensityField(grid=grid, values=a.values + b.values)
    lhs = smooth(combined, n_iter)
    rhs = smooth(a, n_iter) + smooth(b, n_iter)
    assert np.abs(lhs - rhs).max() <= 1e-12


@given(
    di=st.integers(min_value=0, max_value=15),
    dj=st.integers(min_value=0, max_value=15),
)
@settings(max_examples=20)
def test_smoothing_commutes_with_cyclic_shifts(di, dj):
    grid = GridSpec(16)
    field = _random_field(grid, 99)
    n_iter = 2
    smoothed = smooth(field, n_iter)
    shifted_in = DensityField(grid=grid, values=np.roll(field.values, (di, dj), (0, 1)))
    lhs = smooth(shifted_in, n_iter)
    rhs = np.roll(smoothed, (di, dj), (0, 1))
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(smoothed).max())


def test_correlation_with_raster_grows_with_bandwidth():
    # wider bandwidth (larger n) smooths less, so the field resembles the
    # raw raster more and more
    data = generate_spirals(3, 400, [0.01, 0.015, 0.02], 1.75, 42)
    normalized = normalize_dataset(data, fit_scaler(data))
    grid = GridSpec(64)
    raster = rasterize_signed(normalized, "c0", grid)
    corrs = [
        pearson_correlation(DensityField(grid=grid, values=smooth(raster, n)), raster)
        for n in range(1, 9)
    ]
    assert all(b >= a for a, b in zip(corrs, corrs[1:]))


# ------------------------------------------- pruned transforms, bit for bit
# The pruned pair must reproduce the full-plane rfft2 / irfft2 route
# exactly: the same bytes, not the same values to within roundoff.

def _sparse_raster(mesh, seed, fill):
    rng = np.random.default_rng(seed)
    occupied = rng.random((mesh, mesh)) < fill
    occupied.flat[rng.integers(mesh * mesh)] = True
    signs = np.where(rng.random((mesh, mesh)) < 0.5, -1.0, 1.0)
    return DensityField(grid=GridSpec(mesh), values=np.where(occupied, signs, 0.0))


def _assert_bit_identical(raster, epsilon, n_max):
    """Search, smoothing and spectrum of the pruned path against the full plane."""
    spectrum = PrunedSpectrum(raster)
    trace = find_optimal_iteration(spectrum, epsilon, n_max)
    assert trace == stopping_rule(full_plane_correlations(raster), epsilon, n_max)
    for n in sorted({1, trace.n_k, trace.n_k + 1, n_max}):
        pruned = smooth_density(spectrum, n)
        assert pruned.tobytes() == full_plane_smooth(raster, n).tobytes()
    full = spectrum.columns(raster.grid.n_mesh // 2 + 1)
    assert full.tobytes() == np.fft.rfft2(raster.values).tobytes()
    return spectrum, trace


@given(
    mesh=st.sampled_from([8, 16, 32, 64, 128, 256]),
    seed=st.integers(min_value=0, max_value=2**31),
    fill=st.floats(min_value=0.0005, max_value=0.5),
    epsilon=st.sampled_from([1e-3, 1e-2, 3e-2]),
)
@settings(max_examples=30, deadline=None)
def test_pruned_path_is_bit_identical_to_full_plane(mesh, seed, fill, epsilon):
    # sparse draws leave many rows empty, dense ones none
    _assert_bit_identical(_sparse_raster(mesh, seed, fill), epsilon, max(4, mesh // 8))


def test_raster_with_empty_rows_is_bit_identical():
    raster = DensityField(grid=GridSpec(64), values=np.zeros((64, 64)))
    raster.values[3, [5, 60]] = (1.0, -1.0)
    raster.values[40, 17] = 1.0
    _assert_bit_identical(raster, 0.01, 8)


def test_fully_occupied_raster_is_bit_identical():
    rng = np.random.default_rng(5)
    values = np.where(rng.random((128, 128)) < 0.5, -1.0, 1.0)
    _assert_bit_identical(DensityField(grid=GridSpec(128), values=values), 0.01, 16)


def test_capped_search_grows_to_the_full_half_plane(monkeypatch):
    # never flattens below 1e-300, so every step up to n_max = N / 8 is
    # read and the support widens until it covers columns 0..N/2
    fft = fcdm.spectral.np.fft.fft
    widths = []

    def recorded(a, *args, **kwargs):
        widths.append(np.shape(a)[1])
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(fcdm.spectral.np.fft, "fft", recorded)
    raster = _sparse_raster(512, 11, 0.01)
    spectrum, trace = _assert_bit_identical(raster, 1e-300, 64)
    assert (trace.n_k, trace.converged) == (64, False)
    # one column fft per growth step, each on the new columns only
    supports = [39, 78, 116, 155, 194, 232, 257]
    assert widths == np.diff([0] + supports).tolist()
    assert spectrum.width == 257


def test_keep_frees_columns_past_the_support():
    raster = _sparse_raster(1024, 3, 0.001)
    spectrum = PrunedSpectrum(raster)
    n_k = find_optimal_iteration(spectrum, 0.01, 128).n_k
    assert spectrum.width == _support(_transfer_axis(raster.grid, n_k + 1))
    spectrum.keep(n_k)
    width = _support(_transfer_axis(raster.grid, n_k))
    assert spectrum.width == width
    assert spectrum.columns(width).flags.c_contiguous
    expected = full_plane_smooth(raster, n_k)
    assert smooth_density(spectrum, n_k).tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match=f"keeps {width} columns"):
        smooth_density(spectrum, n_k + 1)
