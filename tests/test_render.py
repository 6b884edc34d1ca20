import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcdm.dataset import FeatureScaler, generate_spirals
from fcdm.grid import GridSpec
from fcdm.inference import predict
from fcdm.render import class_palette, decision_ppm, probability_pgm
from fcdm.trainer import ClassifierModel, TrainConfig, train


def _model_from_fields(fields, labels, n=8):
    grid = GridSpec(n)
    return ClassifierModel(
        labels=labels,
        grid=grid,
        scaler=FeatureScaler(0, 1, 0, 1),
        n_final=3,
        epsilon=0.01,
        probabilities=np.stack(fields),
    )


def _uniform_model(k, n=8):
    fields = [np.full((n, n), 1.0 / k) for _ in range(k)]
    return _model_from_fields(fields, tuple(f"k{c}" for c in range(k)), n=n)


def test_palette_is_pure_hues():
    palette = class_palette(3)
    assert palette == [(255, 0, 0), (0, 255, 0), (0, 0, 255)]
    assert len(set(class_palette(6))) == 6


def test_pgm_header_and_size():
    raw = probability_pgm(_uniform_model(3), 0)
    assert raw.startswith(b"P5\n8 8\n255\n")
    assert len(raw) == len(b"P5\n8 8\n255\n") + 64


def test_uniform_model_renders_flat_gray():
    for k, expected in ((3, 85), (4, 64)):  # round(255 / K)
        raw = probability_pgm(_uniform_model(k), 0)
        payload = raw[len(b"P5\n8 8\n255\n"):]
        assert set(payload) == {expected}


def test_pgm_gray_levels_are_rounded_probabilities():
    v = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    model = _model_from_fields([v, 1.0 - v], ("A", "B"))
    raw = probability_pgm(model, 0)
    payload = np.frombuffer(raw[len(b"P5\n8 8\n255\n"):], dtype=np.uint8)
    assert np.array_equal(payload, np.rint(255.0 * v).ravel().astype(np.uint8))


def test_pgm_row_zero_is_top_row():
    a = np.zeros((8, 8))
    a[0, :] = 1.0  # class A owns field row 0
    model = _model_from_fields([a, 1.0 - a], ("A", "B"))
    payload = probability_pgm(model, 0)[len(b"P5\n8 8\n255\n"):]
    assert set(payload[:8]) == {255}
    assert set(payload[8:]) == {0}


def test_pgm_class_index_range_checked():
    model = _uniform_model(3)
    with pytest.raises(ValueError, match="range"):
        probability_pgm(model, 3)
    with pytest.raises(ValueError, match="range"):
        probability_pgm(model, -1)


def test_ppm_header_size_and_colors():
    a = np.zeros((8, 8))
    a[:, :4] = 1.0
    model = _model_from_fields([a, 1.0 - a], ("A", "B"))
    raw = decision_ppm(model)
    header = b"P6\n8 8\n255\n"
    assert raw.startswith(header)
    rgb = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(8, 8, 3)
    palette = class_palette(2)
    assert tuple(rgb[0, 0]) == palette[0]   # left half is class 0
    assert tuple(rgb[0, 7]) == palette[1]
    assert len(raw) == len(header) + 3 * 64


def test_ppm_ties_color_lowest_class():
    half = np.full((8, 8), 0.5)
    model = _model_from_fields([half, half], ("A", "B"))
    header = b"P6\n8 8\n255\n"
    rgb = np.frombuffer(decision_ppm(model)[len(header):], dtype=np.uint8)
    expected = np.tile(np.array(class_palette(2)[0], dtype=np.uint8), 64)
    assert np.array_equal(rgb, expected)


def test_decision_map_matches_pointwise_prediction():
    # the rendered argmax must agree with predict() at every pixel center
    data = generate_spirals(3, 40, [0.01, 0.015, 0.02], 1.75, 6)
    model = train(data, TrainConfig(n_mesh=32))
    header = f"P6\n32 32\n255\n".encode("ascii")
    rgb = np.frombuffer(decision_ppm(model)[len(header):], dtype=np.uint8)
    rgb = rgb.reshape(32, 32, 3)
    color_to_class = {c: k for k, c in enumerate(class_palette(3))}
    s = model.scaler
    dx = model.grid.pixel_size
    for i in range(32):
        for j in range(32):
            raw_x1 = s.min1 + (j + 0.5) * dx * (s.max1 - s.min1)
            raw_x2 = s.min2 + (i + 0.5) * dx * (s.max2 - s.min2)
            pred = predict(model, (raw_x1, raw_x2))
            assert color_to_class[tuple(rgb[i, j])] == model.labels.index(pred.label)


def _argmax_ppm(model):
    """The decision map as the stacked argmax over classes."""
    stack = model.probabilities
    palette = np.array(class_palette(len(model.labels)), dtype=np.uint8)
    n = model.grid.n_mesh
    return f"P6\n{n} {n}\n255\n".encode("ascii") + palette[stack.argmax(axis=0)].tobytes()


@given(
    k=st.integers(min_value=2, max_value=5),
    n=st.sampled_from([8, 16]),
    levels=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=80)
def test_one_pass_decision_map_equals_argmax(k, n, levels, seed):
    # few integer weight levels, so many pixels hold exact ties between
    # two or more classes (equal weights give bitwise-equal probabilities)
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, levels + 1, size=(k, n, n)).astype(np.float64)
    weights[:, weights.sum(axis=0) == 0] = 1.0
    model = _model_from_fields(weights / weights.sum(axis=0),
                               tuple(f"k{c}" for c in range(k)), n=n)
    assert decision_ppm(model) == _argmax_ppm(model)
