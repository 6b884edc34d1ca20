"""Two overlapping Gaussian classes, whose best possible accuracy is known.

Classes a and b are isotropic Gaussians, sigma 0.08, with centres 0.15
apart on the x1 axis. With equal priors the Bayes rule splits the plane at
the perpendicular bisector and is right with probability Phi(d / 2 sigma),
0.8257. A classifier that learns the class densities should come close to
that on fresh points and score about the same on its own training points.

Ten seeds (0-9) at meshes 64, 128 and 256, each scored on 20 000 fresh
points per class, gave test accuracy 0.8221-0.8261 (at most 0.0036 below
Bayes) and train minus test accuracy -0.0067 to +0.0118. The bounds below
leave room for the spread of a 40 000-point score (standard error 0.0019)
and of a 4 000-point one (0.006). Only accuracy is pinned: the fields are
not calibrated posteriors (mean |p - posterior| was 0.09-0.13).
"""

import math

import numpy as np
import pytest

from fcdm import Dataset, TrainConfig, train
from fcdm.inference import predict_batch

SIGMA = 0.08
CENTRES = np.array([[0.425, 0.5], [0.575, 0.5]])
BAYES = 0.5 * (1.0 + math.erf(0.15 / (2 * SIGMA) / math.sqrt(2.0)))


def _gaussians(seed, per_class):
    rng = np.random.default_rng(seed)
    coords = CENTRES.repeat(per_class, axis=0) + SIGMA * rng.standard_normal((2 * per_class, 2))
    return Dataset(coords, np.arange(2).repeat(per_class), ("a", "b"))


def _accuracy(model, data):
    codes, _ = predict_batch(model, data.coords)
    return float((codes == data.codes).mean())


@pytest.mark.parametrize("mesh", [64, 128, 256])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_overlapping_gaussians_reach_bayes_accuracy(mesh, seed):
    train_set = _gaussians(seed, 2000)
    model = train(train_set, TrainConfig(n_mesh=mesh))
    test_accuracy = _accuracy(model, _gaussians(1000 + seed, 20_000))
    assert BAYES - 0.01 <= test_accuracy <= BAYES + 0.006
    assert abs(_accuracy(model, train_set) - test_accuracy) <= 0.02
