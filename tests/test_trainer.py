import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fcdm.spectral
import fcdm.trainer
from fcdm.dataset import Dataset, generate_spirals, split
from fcdm.grid import GridSpec
from fcdm.model_io import model_to_bytes
from fcdm.spectral import PrunedSpectrum, _transfer_axis, row_tiles
from fcdm.trainer import (
    ClassifierModel,
    ConvergenceTrace,
    TrainConfig,
    build_probabilities,
    find_optimal_iteration,
    pearson_correlation,
    stopping_rule,
    train,
)
from oracles import full_plane_correlations, smooth, smooth_density_direct


# ---------------------------------------------------------------- config

def test_config_defaults():
    config = TrainConfig()
    assert config.n_mesh == 512
    assert config.epsilon == 0.01
    assert config.n_max == 64  # n_mesh / 8


@pytest.mark.parametrize("mesh", [2**k for k in range(3, 12)])
def test_config_nmax_follows_mesh(mesh):
    # the one place besides TrainConfig that writes the cap out; at mesh
    # 8 and 16, mesh // 8 is below the stopping rule's least cap, 4
    assert TrainConfig(n_mesh=mesh).n_max == max(4, mesh // 8)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(n_mesh=100)
    with pytest.raises(ValueError):
        TrainConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="power of two"):
        TrainConfig(n_mesh=4)
    with pytest.raises(TypeError, match="n_max"):
        TrainConfig(n_max=8)  # the cap follows from the mesh; it is not a setting
    with pytest.raises(AttributeError):
        TrainConfig().n_max = 8


def test_config_accepts_numpy_integers():
    config = TrainConfig(n_mesh=np.int64(512))
    assert (config.n_mesh, config.n_max) == (512, 64)
    assert type(config.n_mesh) is int and type(config.n_max) is int
    with pytest.raises(ValueError, match="power of two"):
        TrainConfig(n_mesh=np.float64(512))
    data = generate_spirals(2, 30, [0.01, 0.01], 1.5, 3)
    as_numpy = train(data, TrainConfig(n_mesh=np.int64(32)))
    assert model_to_bytes(as_numpy) == model_to_bytes(train(data, TrainConfig(32)))


# ---------------------------------------------------------------- pearson

def test_pearson_self_is_one():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, (8, 8))
    assert pearson_correlation(a, a) == pytest.approx(1.0, abs=1e-15)


def test_pearson_negated_is_minus_one():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, (8, 8))
    assert pearson_correlation(a, -a) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_constant_rejected():
    a = np.full((8, 8), 3.0)
    b = np.arange(64, dtype=float).reshape(8, 8)
    with pytest.raises(ValueError, match="constant"):
        pearson_correlation(a, b)
    with pytest.raises(ValueError, match="constant"):
        pearson_correlation(b, a)


def test_pearson_two_constants_are_one():
    # the rule consecutive_correlations follows: two fields with no
    # variance are the same constant up to a shift
    a = np.full((8, 8), 3.0)
    assert pearson_correlation(a, a) == 1.0
    assert pearson_correlation(a, np.full((8, 8), -0.5)) == 1.0


def test_pearson_grid_mismatch_rejected():
    # the same number of pixels in another shape is still a mismatch
    rng = np.random.default_rng(2)
    a = rng.uniform(-1, 1, (8, 8))
    for b in (rng.uniform(-1, 1, (16, 16)), rng.uniform(-1, 1, (4, 16))):
        with pytest.raises(ValueError, match=re.escape(f"shapes (8, 8) and {b.shape}")):
            pearson_correlation(a, b)


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30)
def test_pearson_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5, 5, (8, 8))
    b = rng.uniform(-5, 5, (8, 8))
    assert -1.0 <= pearson_correlation(a, b) <= 1.0


# ------------------------------------------------- find_optimal_iteration

def _orthonormal_pair(grid, seed):
    """Two orthonormal, mean-zero fields spanning a plane of rotations."""
    rng = np.random.default_rng(seed)
    n = grid.n_mesh
    u = rng.normal(size=(n, n)).ravel()
    u -= u.mean()
    u /= np.linalg.norm(u)
    v = rng.normal(size=(n, n)).ravel()
    v -= v.mean()
    v -= (u @ v) * u
    v /= np.linalg.norm(v)
    return u.reshape(n, n), v.reshape(n, n)


def test_linear_correlation_sequence_stops_at_first_center():
    # Rotating a fixed field by angle increments arccos(c_target(n)) makes
    # corr(f_n, f_{n-1}) an exactly linear sequence, so every second
    # difference vanishes and the rule must stop at the first stencil
    # center n = 3, having read c(2), c(3), c(4) and nothing further.
    grid = GridSpec(8)
    u, v = _orthonormal_pair(grid, 5)

    def c_target(n):
        return 0.90 + 0.005 * (n - 2)

    theta = {1: 0.0}
    for n in range(2, 10):
        theta[n] = theta[n - 1] + float(np.arccos(c_target(n)))
    fields = {n: np.cos(t) * u + np.sin(t) * v for n, t in theta.items()}
    read = []

    def correlations():
        for n in range(2, 10):
            read.append(pearson_correlation(fields[n], fields[n - 1]))
            yield read[-1]

    trace = stopping_rule(correlations(), 0.01, 8)
    assert trace.n_k == 3
    assert trace.converged
    assert abs(trace.second_derivatives[0]) < 1e-12
    assert read == pytest.approx([c_target(n) for n in (2, 3, 4)], abs=1e-12)
    assert trace.correlations == read


def test_stopping_rule_reads_no_further_than_n_max():
    # c(2)..c(6) is all the rule may read at n_max = 6: a curve that never
    # flattens is capped there, with d2 recorded at centers 3, 4, 5
    curve = [0.1 * n * n for n in range(2, 12)]
    it = iter(curve)
    trace = stopping_rule(it, 1e-3, 6)
    assert (trace.n_k, trace.converged) == (6, False)
    assert trace.second_derivatives == pytest.approx([0.2, 0.2, 0.2])
    assert trace.correlations == curve[:5]
    assert next(it) == curve[5]


@given(
    curve=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=12),
    epsilon=st.sampled_from([1e-3, 1e-2, 1e-1]),
)
def test_second_derivatives_reproduce_the_rule_decision(curve, epsilon):
    # the trace stores c(n) only; the d2 values it derives are the ones
    # stopping_rule tested, bit for bit: the last is below epsilon exactly
    # when the rule converged, and every earlier one is not
    trace = stopping_rule(iter(curve), epsilon, 12)
    d2 = trace.second_derivatives
    assert len(d2) == max(len(trace.correlations) - 2, 0)
    assert all(abs(d) >= epsilon for d in d2[:-1])
    assert trace.converged == (bool(d2) and abs(d2[-1]) < epsilon)
    if trace.converged:
        assert trace.n_k == len(trace.correlations)


def test_threshold_never_met_returns_cap_with_flag():
    data = generate_spirals(2, 40, [0.01, 0.01], 1.5, 3)
    from fcdm.dataset import fit_scaler, normalize_dataset
    from fcdm.grid import rasterize_signed

    normalized = normalize_dataset(data, fit_scaler(data))
    grid = GridSpec(32)
    raster = rasterize_signed(normalized, "c0", grid).values
    trace = find_optimal_iteration(PrunedSpectrum(raster, grid), 1e-12, 6)
    assert trace.n_k == 6
    assert not trace.converged
    # searched every center 3..5: c(2)..c(6) plus three second differences
    assert len(trace.correlations) == 5
    assert len(trace.second_derivatives) == 3
    assert all(abs(d) >= 1e-12 for d in trace.second_derivatives)


def test_search_validates_arguments():
    grid = GridSpec(8)
    spectrum = PrunedSpectrum(np.eye(8), grid)
    with pytest.raises(ValueError):
        find_optimal_iteration(spectrum, 0.0, 8)
    with pytest.raises(ValueError):
        find_optimal_iteration(spectrum, 0.01, 3)


def test_trace_index_helpers():
    data = generate_spirals(2, 60, [0.01, 0.02], 1.5, 8)
    from fcdm.dataset import fit_scaler, normalize_dataset
    from fcdm.grid import rasterize_signed

    normalized = normalize_dataset(data, fit_scaler(data))
    grid = GridSpec(64)
    raster = rasterize_signed(normalized, "c1", grid).values
    trace = find_optimal_iteration(PrunedSpectrum(raster, grid), 0.01, 8)
    n_k = trace.n_k
    if trace.converged:
        assert 3 <= n_k <= 8
        assert abs(trace.second_derivatives[n_k - 3]) < 0.01
        # converged at the first qualifying center: earlier ones stay above
        for earlier in range(3, n_k):
            assert abs(trace.second_derivatives[earlier - 3]) >= 0.01


def _spatial_search(raster, grid, epsilon, n_max):
    """The search as it ran before the spectral route: smooth every step
    and correlate consecutive fields in the pixel domain. Kept as the
    reference the spectral search must reproduce."""
    prev = smooth(raster, grid, 1)
    cur = smooth(raster, grid, 2)
    corr = [pearson_correlation(cur, prev)]
    d2s = []
    for n in range(3, n_max + 1):
        prev, cur = cur, smooth(raster, grid, n)
        corr.append(pearson_correlation(cur, prev))
        if len(corr) < 3:
            continue
        d2 = corr[-1] - 2.0 * corr[-2] + corr[-3]
        d2s.append(d2)
        if abs(d2) < epsilon:
            return n - 1, corr, d2s, True
    return n_max, corr, d2s, False


@given(
    mesh=st.sampled_from([8, 16, 32, 64, 128]),
    seed=st.integers(min_value=0, max_value=2**31),
    fill=st.floats(min_value=0.0005, max_value=0.5),
    epsilon=st.sampled_from([1e-3, 1e-2, 3e-2]),
)
@settings(max_examples=40, deadline=None)
def test_spectral_search_matches_spatial_search(mesh, seed, fill, epsilon):
    grid = GridSpec(mesh)
    rng = np.random.default_rng(seed)
    occupied = rng.random((mesh, mesh)) < fill
    occupied.flat[rng.integers(mesh * mesh)] = True
    signs = np.where(rng.random((mesh, mesh)) < 0.5, -1.0, 1.0)
    raster = np.where(occupied, signs, 0.0)
    n_max = TrainConfig(n_mesh=mesh).n_max
    n_ref, corr_ref, d2_ref, conv_ref = _spatial_search(raster, grid, epsilon, n_max)
    trace = find_optimal_iteration(PrunedSpectrum(raster, grid), epsilon, n_max)
    assert trace.n_k == n_ref
    assert trace.converged == conv_ref
    assert len(trace.correlations) == len(corr_ref)
    assert len(trace.second_derivatives) == len(d2_ref)
    assert np.abs(np.subtract(trace.correlations, corr_ref)).max() <= 1e-12


@pytest.mark.parametrize("mesh", [8, 16, 32, 64, 128])
def test_constant_raster_stops_at_three_in_both_searches(mesh):
    # a class that fills every pixel: each smoothed field is the same
    # constant, so c(n) = 1 and the rule stops at its least step
    grid = GridSpec(mesh)
    raster = np.ones((mesh, mesh))
    for n in (1, 2, 3, 4):
        field = smooth(raster, grid, n)
        assert field.min() == field.max()
    trace = find_optimal_iteration(PrunedSpectrum(raster, grid), 0.01, 4)
    assert trace == stopping_rule(full_plane_correlations(raster, grid), 0.01, 4)
    assert (trace.correlations, trace.n_k, trace.converged) == ([1.0, 1.0, 1.0], 3, True)
    assert _spatial_search(raster, grid, 0.01, 4) == (3, [1.0] * 3, [0.0], True)


@pytest.mark.parametrize("mesh, stops", [(64, False), (128, False), (256, True)])
def test_checkerboard_raster_in_both_searches(mesh, stops):
    # (-1)^(i+j) holds only the corner frequency (N/2, N/2), where the
    # filter axis is below its 1e-100 floor for small n and not for larger
    # ones: a constant field next to one with variance raises, unless the
    # rule stops first
    grid = GridSpec(mesh)
    i = np.arange(mesh)
    raster = np.where((i[:, None] + i) % 2 == 0, 1.0, -1.0)
    n_max = TrainConfig(n_mesh=mesh).n_max
    searches = [
        lambda: find_optimal_iteration(PrunedSpectrum(raster, grid), 0.01, n_max),
        lambda: stopping_rule(full_plane_correlations(raster, grid), 0.01, n_max),
    ]
    for search in searches:
        if stops:
            trace = search()
            assert (trace.correlations, trace.n_k, trace.converged) == ([1.0] * 3, 3, True)
        else:
            with pytest.raises(ValueError, match="constant"):
                search()


@pytest.mark.parametrize("mesh", [64, 128, 256, 1024])
def test_one_pixel_raster_stops_at_five(mesh):
    # a raster holding no data: one nonzero pixel has a flat power
    # spectrum, so the filter family alone sets where the rule stops
    grid = GridSpec(mesh)
    for pixel in [(0, 0), (mesh // 3, mesh // 2 + 5), (mesh - 1, 7)]:
        for sign in (1.0, -1.0):
            raster = np.zeros((mesh, mesh))
            raster[pixel] = sign
            trace = find_optimal_iteration(
                PrunedSpectrum(raster, grid), 0.01, TrainConfig(n_mesh=mesh).n_max
            )
            assert (trace.n_k, trace.converged) == (5, True), (pixel, sign)


# ---------------------------------------------------- build_probabilities

def test_two_class_shift_and_normalize():
    a = np.zeros((8, 8))
    b = np.zeros((8, 8))
    a[2, 3] = 0.5
    b[2, 3] = -0.5
    probs = build_probabilities(np.stack([a, b]))
    # global min -0.5 shifts the pixel to (1.0, 0.0)
    assert probs[0, 2, 3] == 1.0
    assert probs[1, 2, 3] == 0.0
    # elsewhere both classes shifted to 0.5 each
    assert probs[0, 0, 0] == 0.5


def test_all_zero_fields_fall_back_to_uniform():
    zero = np.zeros((8, 8))
    probs = build_probabilities(np.stack([zero] * 3))
    for p in probs:
        assert np.all(p == 1.0 / 3.0)


def test_equal_shifted_values_give_symmetric_probabilities():
    ones = np.ones((8, 8))
    anchor = np.ones((8, 8))
    anchor[0, 0] = 0.0  # pins the global minimum at zero
    probs = build_probabilities(np.stack([ones, ones, anchor]))
    assert probs[0, 4, 4] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert probs[1, 4, 4] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_probabilities_require_matching_grids():
    # fields on different grids cannot stack into one (K, n, n) array
    with pytest.raises(ValueError):
        np.stack([np.zeros((8, 8)), np.zeros((16, 16))])
    with pytest.raises(ValueError):
        build_probabilities(np.zeros((2, 8, 16)))
    with pytest.raises(ValueError):
        build_probabilities(np.zeros((8, 8)))
    with pytest.raises(ValueError):
        build_probabilities(np.zeros((1, 8, 8)))


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    k=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=40)
def test_probability_axioms(seed, k):
    rng = np.random.default_rng(seed)
    stack = build_probabilities(rng.uniform(-3, 3, (k, 8, 8)))
    assert np.abs(stack.sum(axis=0) - 1.0).max() <= 1e-9
    assert stack.min() >= -1e-12
    assert stack.max() <= 1.0 + 1e-12


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20)
def test_probabilities_permute_with_input_order(seed):
    rng = np.random.default_rng(seed)
    fields = rng.uniform(-2, 2, (3, 8, 8))
    rotated = build_probabilities(fields[[2, 0, 1]])  # fancy indexing copies
    direct = build_probabilities(fields)
    # the per-pixel sum accumulates in a different order, so allow roundoff
    for got, want in ((rotated[0], direct[2]), (rotated[1], direct[0]),
                      (rotated[2], direct[1])):
        assert np.abs(got - want).max() <= 1e-12


def _where_probabilities(stack):
    """The normalisation as written before it ran in place."""
    shifted = stack - stack.min()
    total = shifted.sum(axis=0)
    degenerate = total < 1e-12
    safe = np.where(degenerate, 1.0, total)
    return np.where(degenerate[np.newaxis, :, :], 1.0 / len(stack), shifted / safe)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    k=st.integers(min_value=2, max_value=5),
    mesh=st.sampled_from([8, 16]),
    flat=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=60)
def test_in_place_probabilities_are_bit_identical(seed, k, mesh, flat):
    rng = np.random.default_rng(seed)
    stack = rng.uniform(-3, 3, (k, mesh, mesh))
    low = stack.min()
    # degenerate pixels: every class at the global minimum, or within a
    # shifted total below the 1e-12 cut
    for _ in range(flat):
        i, j = rng.integers(mesh, size=2)
        stack[:, i, j] = low + rng.choice([0.0, 1e-14, 1e-13])
    want = _where_probabilities(stack)
    got = build_probabilities(stack.copy())
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2, 3, 5])
def test_in_place_probabilities_all_equal_stack(k):
    stack = np.full((k, 8, 8), 0.7)
    got = build_probabilities(stack.copy())
    assert got.tobytes() == _where_probabilities(stack).tobytes()


# ---------------------------------------------------------------- train

def test_golden_spiral_run_at_128():
    data = generate_spirals(3, 400, [0.01, 0.015, 0.02], 1.75, 42)
    train_set, _ = split(data, 0.25, 42)
    model = train(train_set, TrainConfig(n_mesh=128))
    # frozen from the recorded run of this exact configuration
    assert model.class_iterations == {"c0": 5, "c1": 5, "c2": 5}
    assert model.n_final == 5
    assert train_set.class_counts() == {"c0": 300, "c1": 300, "c2": 300}
    assert len(model.traces) == 3
    for trace in model.traces:
        assert trace.converged
        corrs = trace.correlations
        assert all(b > a for a, b in zip(corrs, corrs[1:]))


@pytest.mark.parametrize("mesh", [8, 16])
def test_default_config_trains_at_the_smallest_meshes(mesh):
    # mesh // 8 is 1 or 2 here; the default cap is the stopping rule's least, 4
    data = generate_spirals(3, 40, [0.01, 0.015, 0.02], 1.75, 42)
    model = train(data, TrainConfig(n_mesh=mesh))
    assert model.grid.n_mesh == mesh
    assert model.n_final == 4
    assert all(not t.converged and len(t.correlations) == 3 for t in model.traces)


def test_n_final_is_max_of_class_stops():
    data = generate_spirals(3, 80, [0.005, 0.02, 0.04], 1.75, 13)
    model = train(data, TrainConfig(n_mesh=64))
    assert model.n_final == max(model.class_iterations.values())
    assert set(model.class_iterations) == set(model.labels)


def test_far_apart_two_point_classes():
    # one point per class in opposite corners: each class's own pixel must
    # favor it, on both the spectral route and the brute-force route
    data = Dataset(coords=[(0.2, 0.2), (0.8, 0.8)], codes=[0, 1], labels=("A", "B"))
    model = train(data, TrainConfig(n_mesh=32))
    # scaling stretches the two points onto corner pixels (0,0) and (31,31)
    assert not model.traces[0].converged  # capped at n_max = 4
    assert model.n_final == 4
    p_a = model.probabilities[0]
    p_b = model.probabilities[1]
    assert p_a[0, 0] > 0.5
    assert p_b[31, 31] > 0.5

    grid = model.grid
    direct_a = smooth_density_direct(
        [((0, 0), 1.0), ((31, 31), -1.0)], model.n_final, grid
    )
    direct_b = smooth_density_direct(
        [((0, 0), -1.0), ((31, 31), 1.0)], model.n_final, grid
    )
    brute = build_probabilities(np.stack([direct_a, direct_b]))
    assert brute[0, 0, 0] > 0.5
    assert brute[1, 31, 31] > 0.5
    # the spectral route applies the exact DFT of the sampled periodic
    # kernel, so the two routes agree to roundoff, far inside this bound
    assert np.abs(brute[0] - p_a).max() <= 1e-3


def test_classes_filling_every_pixel_train():
    # both classes at every pixel centre: each one-vs-rest raster is all +1,
    # so both searches stop at 3 and every pixel falls back to uniform
    centres = (np.arange(64) + 0.5) / 64
    cells = np.stack(np.meshgrid(centres, centres), axis=-1).reshape(-1, 2)
    data = Dataset(np.concatenate([cells, cells]), np.repeat([0, 1], len(cells)), ("a", "b"))
    model = train(data, TrainConfig(n_mesh=64))
    assert model.class_iterations == {"a": 3, "b": 3}
    assert all(t.correlations == [1.0, 1.0, 1.0] and t.converged for t in model.traces)
    assert np.all(model.probabilities == 0.5)


def _growth_steps(grid, n_reads):
    """Column-fft calls of a spectrum whose search and smoothing read steps n_reads."""
    widths = np.maximum.accumulate([_transfer_axis(grid, n)[1] for n in n_reads])
    return int(np.count_nonzero(np.diff(widths, prepend=0)))


@pytest.mark.parametrize("k", [2, 3])
def test_train_transforms_each_class_once(monkeypatch, k):
    # per class one row rfft and, at the end, one column ifft and one row
    # irfft per row tile; the column fft runs once per widening of the
    # filter's support, on the new columns only; no 2-D transform at all
    names = ["rfft", "fft", "ifft", "irfft", "rfft2", "irfft2", "fft2", "ifft2"]
    calls = dict.fromkeys(names, 0)
    fft = fcdm.spectral.np.fft
    assert fcdm.trainer.np.fft is fft
    for name in calls:
        original = getattr(fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(fft, name, counted)
    data = generate_spirals(k, 80, [0.01] * k, 1.75, 4)
    model = train(data, TrainConfig(n_mesh=512))
    assert len(model.probabilities) == k
    grid = model.grid
    # the search reads steps 1..n_k + 1, the final smoothing n_final
    growth = sum(
        _growth_steps(grid, [*range(1, t.n_k + 2), model.n_final]) for t in model.traces
    )
    assert growth > k  # at mesh 512 the support widens step by step
    tiles = len(row_tiles(model.probabilities[0]))
    assert tiles > 1
    assert calls == {
        "rfft": k, "fft": growth, "ifft": k, "irfft": k * tiles,
        "rfft2": 0, "irfft2": 0, "fft2": 0, "ifft2": 0,
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_smoothed_field_fails_the_model_check(monkeypatch, bad):
    # smoothed fields are plain arrays with no finiteness scan of their
    # own; a non-finite value still stops training at the range test
    # (inf / inf in the normalization warns first; that warning is expected)
    smooth_density = fcdm.trainer.smooth_density

    def poisoned(spectrum, n_iter, out):
        smooth_density(spectrum, n_iter, out)
        out[3, 5] = bad
        return out

    monkeypatch.setattr(fcdm.trainer, "smooth_density", poisoned)
    data = generate_spirals(2, 30, [0.01, 0.01], 1.5, 3)
    with pytest.raises(ValueError, match="leave"), np.errstate(invalid="ignore"):
        train(data, TrainConfig(n_mesh=32))


def test_train_is_deterministic():
    data = generate_spirals(3, 50, [0.01, 0.015, 0.02], 1.75, 21)
    config = TrainConfig(n_mesh=32)
    assert model_to_bytes(train(data, config)) == model_to_bytes(train(data, config))


def test_train_without_a_config_uses_the_default_one():
    data = generate_spirals(2, 30, [0.01, 0.02], 1.5, 8)
    assert model_to_bytes(train(data)) == model_to_bytes(train(data, TrainConfig()))


def test_train_rejects_empty_class():
    data = Dataset(
        coords=[(0.1, 0.2), (0.9, 0.8), (0.4, 0.6)], codes=[0, 0, 1],
        labels=("A", "B", "C"),
    )
    with pytest.raises(ValueError, match="'C'"):
        train(data, TrainConfig(n_mesh=32))


def test_model_invariants_enforced():
    grid = GridSpec(8)
    from fcdm.dataset import FeatureScaler

    scaler = FeatureScaler(0, 1, 0, 1)
    bad = np.full((2, 8, 8), 0.6)  # sums to 1.2
    with pytest.raises(ValueError, match="sum"):
        ClassifierModel(
            labels=("A", "B"), grid=grid, scaler=scaler, n_final=3,
            epsilon=0.01, probabilities=bad,
        )
    with pytest.raises(ValueError, match=re.escape("shape (3, 8, 8), expected (2, 8, 8)")):
        ClassifierModel(
            labels=("A", "B"), grid=grid, scaler=scaler, n_final=3,
            epsilon=0.01, probabilities=np.full((3, 8, 8), 1 / 3),
        )
    good = np.full((2, 8, 8), 0.5)

    def stop(n_k):
        return ConvergenceTrace([], n_k=n_k, converged=True)

    with pytest.raises(ValueError, match="n_final"):
        ClassifierModel(
            labels=("A", "B"), grid=grid, scaler=scaler, n_final=3,
            epsilon=0.01, probabilities=good, traces=[stop(3), stop(5)],
        )
    with pytest.raises(ValueError, match="1 traces for 2 classes"):
        ClassifierModel(
            labels=("A", "B"), grid=grid, scaler=scaler, n_final=3,
            epsilon=0.01, probabilities=good, traces=[stop(3)],
        )
    model = ClassifierModel(
        labels=("A", "B"), grid=grid, scaler=scaler, n_final=5,
        epsilon=0.01, probabilities=good, traces=[stop(3), stop(5)],
    )
    assert model.class_iterations == {"A": 3, "B": 5}
