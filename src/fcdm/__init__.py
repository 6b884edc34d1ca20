"""Multiclass classification from Fourier-smoothed class density fields.

Labeled 2-feature points are rasterized into signed one-vs-rest density
grids, low-passed with a Gaussian spectral filter whose bandwidth is
picked by a correlation flattening rule, and normalized into per-class
probability fields that classify by argmax lookup.

The package exports the data, training, prediction, persistence and
rendering calls; the pipeline's internals live in fcdm.grid,
fcdm.spectral and fcdm.trainer.
"""

from .dataset import Dataset, generate_spirals, load_csv, split, write_csv
from .inference import EvalReport, Prediction, evaluate, predict
from .model_io import (
    ModelFormatError,
    load_model,
    model_from_bytes,
    model_to_bytes,
    save_model,
)
from .render import decision_ppm, probability_pgm
from .trainer import ClassifierModel, TrainConfig, train

__all__ = [
    "ClassifierModel",
    "Dataset",
    "EvalReport",
    "ModelFormatError",
    "Prediction",
    "TrainConfig",
    "decision_ppm",
    "evaluate",
    "generate_spirals",
    "load_csv",
    "load_model",
    "model_from_bytes",
    "model_to_bytes",
    "predict",
    "probability_pgm",
    "save_model",
    "split",
    "train",
    "write_csv",
]

__version__ = "0.1.0"
