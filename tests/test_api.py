"""The public surface: every name fcdm exports exists."""

import numpy as np

import fcdm


def test_every_exported_name_resolves():
    missing = [name for name in fcdm.__all__ if not hasattr(fcdm, name)]
    assert missing == []
    assert len(set(fcdm.__all__)) == len(fcdm.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fcdm import *", namespace)
    assert set(fcdm.__all__) <= set(namespace)


def test_exported_transform_path_composes():
    # smooth_density and find_optimal_iteration take half_spectrum's
    # result, so a caller of the package needs no private module
    grid = fcdm.GridSpec(16)
    values = np.random.default_rng(0).choice([-1.0, 0.0, 1.0], size=(16, 16))
    spectrum = fcdm.half_spectrum(fcdm.DensityField(grid=grid, values=values))
    assert fcdm.smooth_density(spectrum, 2).grid == grid
    n_k, trace = fcdm.find_optimal_iteration(spectrum, 0.01, 8)
    assert 3 <= n_k <= 8 and trace.n_k == n_k
