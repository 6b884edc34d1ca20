"""The acceptance gate: one test (or parametrized family) per criterion.

Each test carries @pytest.mark.acceptance(criterion=..., name=...); the
conftest hook folds the outcomes into a PASS/FAIL line per criterion at
the end of the run.
"""

import contextlib
import io
import struct
import time

import numpy as np
import pytest

import fcdm
from fcdm import cli
from fcdm.grid import GridSpec
from fcdm.spectral import PrunedSpectrum, smooth_density
from oracles import smooth_density_direct


# ---------------------------------------------------------------- 1

@pytest.mark.acceptance(criterion=1, name="smoothing oracle equivalence")
@pytest.mark.parametrize("n_mesh", [32, 64])
@pytest.mark.parametrize("n_iter", [1, 2, 3, 4])
def test_criterion_1_spectral_route_matches_brute_force(n_mesh, n_iter):
    rng = np.random.default_rng(n_mesh * 100 + n_iter)
    grid = GridSpec(n_mesh)
    flat = rng.choice(n_mesh * n_mesh, size=32, replace=False)
    signs = rng.choice([-1.0, 1.0], size=32)
    impulses = [
        ((int(f) // n_mesh, int(f) % n_mesh), s)
        for f, s in zip(flat, signs)
    ]
    values = np.zeros((n_mesh, n_mesh))
    for (i, j), s in impulses:
        values[i, j] = s
    fft_route = smooth_density(PrunedSpectrum(values, grid), n_iter)
    oracle = smooth_density_direct(impulses, n_iter, grid)
    bound = 1e-4 * np.abs(oracle).max()
    assert np.abs(fft_route - oracle).max() <= bound


# ---------------------------------------------------------------- 2

@pytest.mark.acceptance(criterion=2, name="probability axioms")
def test_criterion_2_probability_axioms(default_run):
    model = default_run["model"]
    assert model.grid.n_mesh == 512
    assert len(model.labels) == 3
    stack = model.probabilities
    assert np.abs(stack.sum(axis=0) - 1.0).max() <= 1e-9
    assert stack.min() >= -1e-12


# ---------------------------------------------------------------- 3

@pytest.mark.acceptance(criterion=3, name="end-to-end recall")
def test_criterion_3_end_to_end_recall(default_run):
    assert default_run["train_report"].macro_recall >= 0.95
    assert default_run["test_report"].macro_recall >= 0.90
    assert default_run["elapsed_s"] < 30.0


# ---------------------------------------------------------------- 4

@pytest.mark.acceptance(criterion=4, name="convergence behavior")
def test_criterion_4_convergence_behavior(default_run):
    model = default_run["model"]
    config = default_run["config"]
    for trace in model.traces:
        n_k = trace.n_k
        assert 3 <= n_k <= config.n_max
        assert trace.converged
        assert abs(trace.second_derivatives[n_k - 3]) < 0.01
        # same order of magnitude as a handful of iterations
        assert n_k <= 12
    assert model.n_final == max(t.n_k for t in model.traces)


# ---------------------------------------------------------------- 5

def _naive_dft2(a):
    n = a.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    for k1 in range(n):
        for k2 in range(n):
            acc = 0.0 + 0.0j
            for m1 in range(n):
                for m2 in range(n):
                    acc += a[m1, m2] * np.exp(
                        -2j * np.pi * (k1 * m1 + k2 * m2) / n
                    )
            out[k1, k2] = acc
    return out


@pytest.mark.acceptance(criterion=5, name="DFT correctness")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_5_dft_against_naive_definition(seed):
    # the production transform: PrunedSpectrum extended to its full width
    # is rfft2, columns 0..N/2 of the full DFT, and smooth_density's
    # inverse, a column ifft and then a row irfft, is irfft2
    grid = GridSpec(8)
    rng = np.random.default_rng(seed)
    field = rng.uniform(-1, 1, (8, 8))
    naive = _naive_dft2(field)[:, :5]
    fast = PrunedSpectrum(field, grid).columns(5)
    assert np.abs(fast - naive).max() <= 1e-10 * np.abs(naive).max()
    back = np.fft.irfft(np.fft.ifft(fast, axis=0), n=8, axis=1)
    assert back.tobytes() == np.fft.irfft2(fast, s=(8, 8)).tobytes()
    assert np.abs(back - field).max() <= 1e-12
    # Parseval on the half plane: columns 1..N/2-1 stand for their mirrors
    power = np.abs(fast) ** 2
    power[:, 1:4] *= 2.0
    spatial = float((field**2).sum())
    spectral = float(power.sum()) / 64
    assert abs(spatial - spectral) <= 1e-10 * spatial


# ---------------------------------------------------------------- 6

@pytest.mark.acceptance(criterion=6, name="filter correctness")
@pytest.mark.parametrize("sigma_tilde", [1.0, 2.0, 3.0, 4.0])
def test_criterion_6_filter_zero_frequency(sigma_tilde):
    # the DC gain of the applied filter, the sum of the smoothed unit
    # impulse, is the transfer function at f = 0: 1 / (2 pi sigma_tilde^2)
    grid = GridSpec(64)
    impulse = np.zeros((64, 64))
    impulse[0, 0] = 1.0
    n_iter = int(sigma_tilde * grid.domain_width)
    out = smooth_density(PrunedSpectrum(impulse, grid), n_iter)
    expected = 1.0 / (2.0 * np.pi * sigma_tilde**2)
    assert abs(out.sum() - expected) <= 1e-12


# ---------------------------------------------------------------- 7

@pytest.mark.acceptance(criterion=7, name="training determinism")
def test_criterion_7_training_is_byte_deterministic(tmp_path):
    csv_path = tmp_path / "pts.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([
            "generate", "--classes", "3", "--per-class", "50",
            "--noise", "0.01,0.015,0.02", "--seed", "11",
            "--out", str(csv_path),
        ]) == 0
        outputs = []
        for name in ("first.fcdm", "second.fcdm"):
            path = tmp_path / name
            assert cli.main([
                "train", "--input", str(csv_path), "--out", str(path),
                "--mesh", "64",
            ]) == 0
            outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0][:4] == b"FCDM"


# ---------------------------------------------------------------- 8

@pytest.mark.acceptance(criterion=8, name="model persistence")
def test_criterion_8_round_trip_bit_exact(default_run, tmp_path):
    model = default_run["model"]
    path = tmp_path / "model.fcdm"
    fcdm.save_model(model, path)
    back = fcdm.load_model(path)
    assert back.labels == model.labels
    assert len(back.probabilities) == len(model.probabilities)
    for mine, loaded in zip(model.probabilities, back.probabilities):
        assert mine.tobytes() == loaded.tobytes()
    header = path.read_bytes()[:8]
    assert header == b"FCDM" + struct.pack("<I", 1)
