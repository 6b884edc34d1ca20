"""Print an md5 of the model file and of the correlation traces of many trainings.

One line per training: its name, the md5 of model_to_bytes and the md5
of every class's correlation trace (the float64 bytes of c(2), c(3), ...
then n_k and whether it converged), or the error the training raised.
Run it on two source trees and diff the outputs to show that a change
keeps model files and traces bit for bit:

    PYTHONPATH=src python3 scripts/model_digests.py > after.txt
    PYTHONPATH=/path/to/other/src python3 scripts/model_digests.py > before.txt
    diff before.txt after.txt

The matrix: 3-class spirals (75% of them, as the benchmark trains) at
seeds 0-99 at 3x400 points on mesh 1024 and 3x20 000 points on mesh 256,
seeds 0-7 at 3x400 points on meshes 64, 128, 512 and 2048; and at meshes
64, 256 and 1024 a checkerboard, a disc, a half plane, two classes on
every pixel, a 50k background with a 5k blob, and two single points.
"""

import hashlib

import numpy as np

import fcdm


def _spirals(per_class, seed):
    data = fcdm.generate_spirals(3, per_class, [0.01, 0.015, 0.02], 1.75, seed)
    return fcdm.split(data, 0.25, seed)[0]


def _shapes(mesh):
    # integer coordinates 0..mesh-1 scale onto pixels 0..mesh-1 one to one
    i, j = np.divmod(np.arange(mesh * mesh), mesh)
    xy = np.column_stack([j, i]).astype(float)
    half = mesh / 2
    rng = np.random.default_rng(mesh)
    ab = ("a", "b")
    yield "checkerboard", fcdm.Dataset(xy, (i + j) % 2, ab)
    yield "disc", fcdm.Dataset(xy, np.hypot(i - half, j - half) > mesh / 4, ab)
    yield "half-plane", fcdm.Dataset(xy, j >= half, ab)
    yield "every-pixel", fcdm.Dataset(np.vstack([xy, xy]), np.repeat([0, 1], len(xy)), ab)
    background = np.vstack([rng.random((50000, 2)), rng.normal(0.3, 0.05, size=(5000, 2))])
    yield "background-blob", fcdm.Dataset(background, np.repeat([0, 1], [50000, 5000]), ab)
    yield "two-points", fcdm.Dataset([[0.0, 0.0], [1.0, 1.0]], [0, 1], ab)


def cases():
    for seed in range(100):
        yield f"spiral-fine seed={seed}", _spirals(400, seed), 1024
    for seed in range(100):
        yield f"spiral-dense seed={seed}", _spirals(20000, seed), 256
    for mesh in (64, 128, 512, 2048):
        for seed in range(8):
            yield f"spiral mesh={mesh} seed={seed}", _spirals(400, seed), mesh
    for mesh in (64, 256, 1024):
        for name, data in _shapes(mesh):
            yield f"{name} mesh={mesh}", data, mesh


def digest(data, mesh):
    try:
        model = fcdm.train(data, fcdm.TrainConfig(n_mesh=mesh))
    except ValueError as exc:
        return f"error {exc}"
    traces = hashlib.md5()
    for t in model.traces:
        traces.update(np.array(t.correlations + [t.n_k, t.converged], dtype=float).tobytes())
    return f"{hashlib.md5(fcdm.model_to_bytes(model)).hexdigest()} {traces.hexdigest()}"


def main():
    for name, data, mesh in cases():
        print(f"{name}: {digest(data, mesh)}", flush=True)


if __name__ == "__main__":
    main()
