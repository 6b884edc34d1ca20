"""Multiclass classification from Fourier-smoothed class density fields.

Labeled 2-feature points are rasterized into signed one-vs-rest density
grids, low-passed with a Gaussian spectral filter whose bandwidth is
picked by a correlation flattening rule, and normalized into per-class
probability fields that classify by argmax lookup.
"""

from .dataset import (
    Dataset,
    FeatureScaler,
    apply_scaler,
    fit_scaler,
    generate_spirals,
    load_csv,
    normalize_dataset,
    split,
    write_csv,
)
from .grid import DensityField, GridSpec, map_to_pixel, rasterize_signed
from .inference import EvalReport, Prediction, evaluate, predict
from .model_io import (
    ModelFormatError,
    load_model,
    model_from_bytes,
    model_to_bytes,
    save_model,
)
from .render import class_palette, decision_ppm, probability_pgm
from .spectral import half_spectrum, smooth_density, wrapped_frequencies
from .trainer import (
    ClassifierModel,
    ConvergenceTrace,
    TrainConfig,
    build_probabilities,
    find_optimal_iteration,
    train,
)

__all__ = [
    "ClassifierModel",
    "ConvergenceTrace",
    "Dataset",
    "DensityField",
    "EvalReport",
    "FeatureScaler",
    "GridSpec",
    "ModelFormatError",
    "Prediction",
    "TrainConfig",
    "apply_scaler",
    "build_probabilities",
    "class_palette",
    "decision_ppm",
    "evaluate",
    "find_optimal_iteration",
    "fit_scaler",
    "generate_spirals",
    "half_spectrum",
    "load_csv",
    "load_model",
    "map_to_pixel",
    "model_from_bytes",
    "model_to_bytes",
    "normalize_dataset",
    "predict",
    "probability_pgm",
    "rasterize_signed",
    "save_model",
    "smooth_density",
    "split",
    "train",
    "wrapped_frequencies",
    "write_csv",
]

__version__ = "0.1.0"
