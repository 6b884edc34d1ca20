"""The public surface: every name fcdm exports exists."""

import numpy as np

import fcdm
from fcdm.grid import DensityField, GridSpec
from fcdm.spectral import PrunedSpectrum, smooth_density
from fcdm.trainer import find_optimal_iteration

EXPORTED = [
    "ClassifierModel", "Dataset", "EvalReport", "ModelFormatError", "Prediction",
    "TrainConfig", "decision_ppm", "evaluate", "generate_spirals", "load_csv",
    "load_model", "model_from_bytes", "model_to_bytes", "predict",
    "probability_pgm", "save_model", "split", "train", "write_csv",
]


def test_every_exported_name_resolves():
    missing = [name for name in fcdm.__all__ if not hasattr(fcdm, name)]
    assert missing == []
    assert len(set(fcdm.__all__)) == len(fcdm.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fcdm import *", namespace)
    assert set(fcdm.__all__) <= set(namespace)


def test_exported_names_are_pinned():
    # a name joins the package surface only by a deliberate edit here
    assert sorted(fcdm.__all__) == EXPORTED


def test_exported_transform_path_composes():
    # smooth_density and find_optimal_iteration take a PrunedSpectrum
    # result, so the pipeline composes from its public modules
    grid = GridSpec(16)
    values = np.random.default_rng(0).choice([-1.0, 0.0, 1.0], size=(16, 16))
    spectrum = PrunedSpectrum(DensityField(grid=grid, values=values))
    assert smooth_density(spectrum, 2).shape == (16, 16)
    trace = find_optimal_iteration(spectrum, 0.01, 8)
    assert 3 <= trace.n_k <= 8
