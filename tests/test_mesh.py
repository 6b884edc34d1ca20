"""What the mesh buys on spirals: at mesh 128, the same accuracy as at 1024.

The stopping rule ends at n_final = 5 on 3x400 spirals at every mesh, and
the smoothing kernel it picks is about 0.03 of the domain wide whatever
the pixel size, so a finer mesh places points more exactly under a kernel
that erases that detail. Twenty seeds (0-19) of the default spirals, a 75%
train split with the split seed equal to the data seed, each model scored
on 3x20 000 fresh points of seed 1000 + seed: mesh 128 minus mesh 1024
accuracy was -0.0010 to +0.0016 (median +0.0003), mesh-128 accuracy
0.9764-0.9867, and n_final was 5 at both meshes in every run. The margin
below is twice the widest of those differences; the floor sits under the
lowest accuracy.
"""

import numpy as np
import pytest

from fcdm import TrainConfig, generate_spirals, split, train
from fcdm.inference import predict_batch

SIGMAS = [0.01, 0.015, 0.02]
MARGIN = 0.003
FLOOR = 0.97


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mesh_128_scores_within_margin_of_mesh_1024(seed):
    train_set, _ = split(generate_spirals(3, 400, SIGMAS, 1.75, seed), 0.25, seed)
    fresh = generate_spirals(3, 20_000, SIGMAS, 1.75, 1000 + seed)
    accuracy, n_final = {}, {}
    for mesh in (128, 1024):
        model = train(train_set, TrainConfig(n_mesh=mesh))
        codes, _ = predict_batch(model, fresh.coords)
        accuracy[mesh] = float(np.mean(codes == fresh.codes))
        n_final[mesh] = model.n_final
    assert n_final[128] == n_final[1024] == 5
    assert accuracy[128] >= FLOOR
    assert abs(accuracy[128] - accuracy[1024]) <= MARGIN, accuracy
