"""Heatmap emission as binary netpbm images (P5 grayscale, P6 color).

Row 0 of a field becomes the top row of the image in both formats.
"""

import colorsys

import numpy as np

from .spectral import row_tiles


def class_palette(n_classes):
    """One fully saturated RGB color per class, hue k / n_classes."""
    colors = []
    for k in range(n_classes):
        r, g, b = colorsys.hsv_to_rgb(k / n_classes, 1.0, 1.0)
        colors.append((int(round(255 * r)), int(round(255 * g)), int(round(255 * b))))
    return colors


def probability_pgm(model, class_index):
    """Binary PGM (P5) of one class's probability field, 0..255 gray levels."""
    k = len(model.labels)
    if not (0 <= class_index < k):
        raise ValueError(f"class index {class_index} out of range [0, {k})")
    values = model.probabilities[class_index]
    n = model.grid.n_mesh
    gray = np.empty((n, n), dtype=np.uint8)
    for rows in row_tiles(values):
        gray[rows] = np.rint(255.0 * np.clip(values[rows], 0.0, 1.0))
    return b"".join([f"P5\n{n} {n}\n255\n".encode("ascii"), memoryview(gray).cast("B")])


def decision_ppm(model):
    """Binary PPM (P6) of the per-pixel argmax class, palette colored.

    Ties resolve to the lowest class index, matching point prediction.
    """
    n = model.grid.n_mesh
    palette = np.array(class_palette(len(model.labels)), dtype=np.uint8)
    rgb = np.empty((n, n, 3), dtype=np.uint8)
    for rows in row_tiles(model.probabilities):
        best = model.probabilities[0, rows].copy()
        winners = np.zeros(best.shape, dtype=np.intp)
        for k, p in enumerate(model.probabilities[1:, rows], start=1):
            winners[p > best] = k
            np.maximum(best, p, out=best)
        np.take(palette, winners, axis=0, out=rgb[rows])
    return b"".join([f"P6\n{n} {n}\n255\n".encode("ascii"), memoryview(rgb).cast("B")])
