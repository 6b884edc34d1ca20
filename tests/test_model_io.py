import math
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fcdm.spectral
from fcdm.dataset import FeatureScaler, generate_spirals
from fcdm.grid import GridSpec
from fcdm.model_io import (
    MAGIC,
    VERSION,
    ModelFormatError,
    load_model,
    model_from_bytes,
    model_to_bytes,
    save_model,
)
from fcdm.render import decision_ppm, probability_pgm
from fcdm.trainer import ClassifierModel, TrainConfig, train


def _toy_model(n=8, labels=("a", "b"), seed=0, n_final=3, epsilon=0.01,
               scaler=(0.0, 1.0, 0.0, 1.0)):
    grid = GridSpec(n)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.05, 0.95, size=(n, n))
    return ClassifierModel(
        labels=labels,
        grid=grid,
        scaler=FeatureScaler(*scaler),
        n_final=n_final,
        epsilon=epsilon,
        probabilities=np.stack([u, 1.0 - u]),
    )


def test_header_layout_golden():
    model = _toy_model()
    expected = (
        MAGIC
        + struct.pack("<IIII", VERSION, 2, 8, 3)
        + struct.pack("<d", 0.01)
        + struct.pack("<4d", 0.0, 1.0, 0.0, 1.0)
        + struct.pack("<I", 1) + b"a"
        + struct.pack("<I", 1) + b"b"
    )
    raw = model_to_bytes(model)
    assert raw[: len(expected)] == expected
    assert len(raw) == len(expected) + 2 * 8 * 8 * 8  # two f64 field blocks


def test_field_payload_is_little_endian_row_major():
    model = _toy_model()
    raw = model_to_bytes(model)
    payload = raw[-2 * 8 * 8 * 8:]
    first = np.frombuffer(payload, dtype="<f8", count=64).reshape(8, 8)
    assert np.array_equal(first, model.probabilities[0])


def test_round_trip_is_bit_exact(tmp_path):
    model = _toy_model(seed=11)
    path = tmp_path / "m.fcdm"
    save_model(model, path)
    back = load_model(path)
    assert back.labels == model.labels
    assert back.grid == model.grid
    assert back.scaler == model.scaler
    assert back.n_final == model.n_final
    assert back.epsilon == model.epsilon
    for mine, loaded in zip(model.probabilities, back.probabilities):
        assert mine.tobytes() == loaded.tobytes()


def test_save_load_save_is_byte_identical(tmp_path):
    model = _toy_model(seed=4)
    first = tmp_path / "one.fcdm"
    second = tmp_path / "two.fcdm"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_loaded_model_has_no_training_diagnostics(tmp_path):
    data = generate_spirals(2, 40, [0.01, 0.02], 1.5, 0)
    model = train(data, TrainConfig(n_mesh=32))
    assert model.class_iterations == {
        lab: t.n_k for lab, t in zip(model.labels, model.traces)
    }
    path = tmp_path / "m.fcdm"
    save_model(model, path)
    back = load_model(path)
    assert back.traces is None
    assert back.class_iterations is None


def test_non_ascii_labels_round_trip():
    model = _toy_model(labels=("café", "日本"))
    back = model_from_bytes(model_to_bytes(model))
    assert back.labels == ("café", "日本")


def test_non_string_labels_rejected():
    # such a model could not be saved: the labels are written as UTF-8
    for labels in ((1, 2), ("a", 2), (b"a", "b")):
        with pytest.raises(ValueError, match="labels must be non-empty strings"):
            _toy_model(labels=labels)


def test_a_failed_save_leaves_the_old_file_unchanged(tmp_path):
    path = tmp_path / "model.fcdm"
    save_model(_toy_model(), path)
    before = path.read_bytes()
    bad = _toy_model(labels=("a", "\ud800"))  # a lone surrogate has no UTF-8 form
    with pytest.raises(ValueError):  # UnicodeEncodeError
        save_model(bad, path)
    assert path.read_bytes() == before


def test_bad_magic_rejected():
    raw = bytearray(model_to_bytes(_toy_model()))
    raw[:4] = b"XXXX"
    with pytest.raises(ModelFormatError, match="magic"):
        model_from_bytes(bytes(raw))


def test_wrong_version_rejected():
    raw = bytearray(model_to_bytes(_toy_model()))
    raw[4:8] = struct.pack("<I", 2)
    with pytest.raises(ModelFormatError, match="version"):
        model_from_bytes(bytes(raw))


@pytest.mark.parametrize("keep", [0, 3, 10, 30, 60, 200, 1093])
def test_truncation_rejected(keep):
    raw = model_to_bytes(_toy_model())
    assert keep < len(raw)
    with pytest.raises(ModelFormatError):
        model_from_bytes(raw[:keep])


def test_trailing_bytes_rejected():
    raw = model_to_bytes(_toy_model())
    with pytest.raises(ModelFormatError, match="trailing"):
        model_from_bytes(raw + b"\x00")


def test_bad_mesh_in_file_rejected():
    raw = bytearray(model_to_bytes(_toy_model()))
    raw[12:16] = struct.pack("<I", 100)  # not a power of two
    with pytest.raises(ModelFormatError):
        model_from_bytes(bytes(raw))


@pytest.mark.parametrize("k", [0, 1])
def test_class_count_below_two_rejected_naming_file(tmp_path, k):
    # a file that is valid but for its class count: K labels, fields of 1.0
    raw = (
        MAGIC
        + struct.pack("<IIII", VERSION, k, 8, 3)
        + struct.pack("<5d", 0.01, 0.0, 1.0, 0.0, 1.0)
        + (struct.pack("<I", 1) + b"a") * k
        + np.ones((k, 8, 8), dtype="<f8").tobytes()
    )
    path = tmp_path / "few.fcdm"
    path.write_bytes(raw)
    with pytest.raises(ModelFormatError, match=r"few\.fcdm: .*class"):
        load_model(path)


def _packed(labels=("a", "b"), n_final=3, epsilon=0.01, bounds=(0.0, 1.0, 0.0, 1.0), n=8):
    """A model file packed by hand, so its header can hold what ClassifierModel refuses."""
    k = len(labels)
    return (
        MAGIC
        + struct.pack("<IIIId4d", VERSION, k, n, n_final, epsilon, *bounds)
        + b"".join(struct.pack("<I", len(lab.encode())) + lab.encode() for lab in labels)
        + np.full((k, n, n), 1.0 / k, dtype="<f8").tobytes()
    )


def test_hand_packed_file_is_what_model_to_bytes_writes():
    model = ClassifierModel(
        labels=("a", "b"), grid=GridSpec(8), scaler=FeatureScaler(0.0, 1.0, 0.0, 1.0),
        n_final=3, epsilon=0.01, probabilities=np.full((2, 8, 8), 0.5),
    )
    assert _packed() == model_to_bytes(model)
    assert model_to_bytes(model_from_bytes(_packed())) == _packed()


@pytest.mark.parametrize("header, message", [
    ({"n_final": 0}, "n_final must be a positive integer, got 0"),
    ({"epsilon": 0.0}, "epsilon must be positive, got 0.0"),
    ({"epsilon": -1.0}, "epsilon must be positive, got -1.0"),
    ({"epsilon": math.nan}, "epsilon must be positive, got nan"),
    ({"bounds": (-1e308, 1e308, 0.0, 1.0)}, "scaler range for x1 overflows"),
    ({"labels": ("a",)}, "need at least 2 classes, got 1"),
    ({"labels": ("a", "a")}, "label vocabulary contains duplicates"),
    ({"labels": ("", "b")}, "labels must be non-empty strings, got ('', 'b')"),
], ids=["n_final 0", "epsilon 0", "epsilon -1", "epsilon nan", "overflowing scaler",
        "one label", "duplicate labels", "empty label"])
def test_header_rules_reject_a_file_naming_the_rule(header, message):
    with pytest.raises(ModelFormatError, match=re.escape(f"<bytes>: {message}")):
        model_from_bytes(_packed(**header))


def test_non_utf8_label_rejected_naming_source():
    raw = bytearray(model_to_bytes(_toy_model()))
    raw[64] = 0xFF  # the first label's one byte
    with pytest.raises(ModelFormatError, match="(?i)<bytes>: .*utf-8"):
        model_from_bytes(bytes(raw))


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_every_bytes_like_buffer_loads(wrap):
    model = _toy_model(labels=("café", "日本"), seed=6)
    raw = model_to_bytes(model)
    back = model_from_bytes(wrap(raw))
    assert back.labels == model.labels
    assert model_to_bytes(back) == raw


def test_format_error_is_a_value_error():
    assert issubclass(ModelFormatError, ValueError)


def test_missing_file_raises_os_error(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "absent.fcdm")


@pytest.mark.parametrize("extra", range(8))
def test_loaded_fields_are_aligned_at_every_payload_offset(tmp_path, extra):
    # labels of 1 + extra and 1 bytes: the fields start at 70 + extra, so
    # the eight cases cover every residue mod 8
    path, again = tmp_path / "m.fcdm", tmp_path / "again.fcdm"
    save_model(_toy_model(labels=("a" * (1 + extra), "b"), seed=extra), path)
    raw = path.read_bytes()
    assert _payload_offset(raw, 2, 8) == 70 + extra
    back = load_model(path)
    assert back.probabilities.flags.aligned
    save_model(back, again)
    assert again.read_bytes() == raw


def test_loading_a_cut_or_extended_file_keeps_its_messages(tmp_path):
    raw = model_to_bytes(_toy_model())  # fields: 1024 bytes from offset 70
    path = tmp_path / "m.fcdm"
    for data, message in ((raw[:-1], "truncated (needed 1024 bytes at offset 70, have 1023)"),
                          (raw + b"xyz", "3 trailing bytes after the last field")):
        path.write_bytes(data)
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: {message}"


def test_a_model_read_from_a_pipe_loads(tmp_path):
    # a pipe reports size 0: the bytes past what stat gave are read too
    raw = model_to_bytes(_toy_model(seed=3))
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    # a daemon, joined with a timeout: a load that fails before it opens the
    # pipe leaves the writer blocked in open(), and the test fails, not hangs
    writer = threading.Thread(target=pipe.write_bytes, args=(raw,), daemon=True)
    writer.start()
    try:
        back = load_model(pipe)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert model_to_bytes(back) == raw


def _random_model(k, n, seed):
    """A valid K-class model whose probabilities are random per pixel."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=(k, n, n))
    return ClassifierModel(
        labels=tuple(f"class-{c}" for c in range(k)),
        grid=GridSpec(n),
        scaler=FeatureScaler(-1.5, 2.0, 0.25, 3.0),
        n_final=2,
        epsilon=0.02,
        probabilities=weights / weights.sum(axis=0),
    )


@given(
    k=st.integers(min_value=2, max_value=5),
    n=st.sampled_from([8, 16, 32]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30)
def test_save_load_save_is_byte_exact_for_k_classes(k, n, seed):
    raw = model_to_bytes(_random_model(k, n, seed))
    back = model_from_bytes(raw)
    assert back.probabilities.shape == (k, n, n)
    assert model_to_bytes(back) == raw


def test_loaded_probabilities_are_a_read_only_view():
    raw = model_to_bytes(_toy_model(seed=2))
    back = model_from_bytes(raw)
    assert not back.probabilities.flags.writeable
    assert np.shares_memory(back.probabilities, np.frombuffer(raw, dtype=np.uint8))
    writable = model_from_bytes(bytearray(raw))
    assert not writable.probabilities.flags.writeable
    with pytest.raises(ValueError):
        writable.probabilities[0, 0, 0] = 0.5


def _payload_offset(raw, k, n):
    return len(raw) - 8 * k * n * n


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_payload_raises_format_error_naming_file(tmp_path, bad):
    raw = bytearray(model_to_bytes(_toy_model()))
    struct.pack_into("<d", raw, _payload_offset(raw, 2, 8) + 8 * 9, bad)
    path = tmp_path / "bad.fcdm"
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="bad.fcdm"):
        load_model(path)


def test_opposite_infinities_in_one_pixel_rejected():
    # +inf in class 0 and -inf in class 1 at the same pixel: the pixel
    # total is NaN, which passes a "deviation > tol" test
    raw = bytearray(model_to_bytes(_toy_model()))
    start = _payload_offset(raw, 2, 8)
    pixel = 8 * 3 + 5
    struct.pack_into("<d", raw, start + 8 * pixel, math.inf)
    struct.pack_into("<d", raw, start + 8 * (64 + pixel), -math.inf)
    with pytest.raises(ModelFormatError, match="<bytes>"):
        model_from_bytes(bytes(raw))


def _mutated_or_valid(raw):
    """Load raw: either ModelFormatError, or a model that passes validation."""
    try:
        model = model_from_bytes(raw)
    except ModelFormatError:
        return None
    probs = model.probabilities
    assert np.isfinite(probs).all()
    assert np.abs(probs.sum(axis=0) - 1.0).max() <= 1e-9
    assert probs.min() >= -1e-12 and probs.max() <= 1.0 + 1e-12
    # whatever was accepted is written back verbatim
    assert model_to_bytes(model) == raw
    return model


_VALID = model_to_bytes(_random_model(3, 8, seed=5))


@given(
    flips=st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(_VALID) - 1),
                  st.integers(min_value=1, max_value=255)),
        min_size=1, max_size=4,
    )
)
@settings(max_examples=200)
def test_flipped_bytes_give_format_error_or_valid_model(flips):
    raw = bytearray(_VALID)
    for index, mask in flips:
        raw[index] ^= mask
    _mutated_or_valid(bytes(raw))


@given(keep=st.integers(min_value=0, max_value=len(_VALID) - 1))
def test_truncated_files_rejected(keep):
    with pytest.raises(ModelFormatError):
        model_from_bytes(_VALID[:keep])


@given(extra=st.binary(min_size=1, max_size=64))
def test_extended_files_rejected(extra):
    with pytest.raises(ModelFormatError, match="trailing"):
        model_from_bytes(_VALID + extra)


@given(
    cells=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3 * 64 - 1),
                  st.sampled_from([math.nan, math.inf, -math.inf])),
        min_size=1, max_size=3,
    )
)
def test_non_finite_injection_rejected(cells):
    raw = bytearray(_VALID)
    start = _payload_offset(raw, 3, 8)
    for cell, value in cells:
        struct.pack_into("<d", raw, start + 8 * cell, value)
    with pytest.raises(ModelFormatError):
        model_from_bytes(bytes(raw))


# ----------------------------------------------------------- memory guards
# Allocation counts from tracemalloc, which numpy reports its array
# buffers to; no timing bounds.

def _traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_loading_copies_no_payload():
    raw = model_to_bytes(_random_model(4, 128, seed=1))
    payload = 4 * 128 * 128 * 8
    model, peak = _traced_peak(lambda: model_from_bytes(raw))
    assert model.probabilities.shape == (4, 128, 128)
    assert peak < 0.5 * payload


def test_loading_a_mesh_1024_model_checks_it_in_row_tiles():
    # the load-time checks run a row tile at a time: 0.030 payloads
    # measured (numpy 2.4), 0.336 when they ran over the whole stack. The
    # bound leaves two thirds of margin.
    raw = model_to_bytes(_random_model(3, 1024, seed=4))
    payload = 3 * 1024 * 1024 * 8
    model, peak = _traced_peak(lambda: model_from_bytes(raw))
    assert model.probabilities.shape == (3, 1024, 1024)
    assert peak < 0.05 * payload


def test_decision_map_at_mesh_1024_allocates_little_beyond_the_image():
    # the image buffer and the returned bytes are 0.125 payloads each:
    # 0.261 payloads measured (numpy 2.4), 0.917 with whole-plane winners.
    # The bound leaves about a seventh of margin.
    model = _random_model(3, 1024, seed=4)
    image, peak = _traced_peak(lambda: decision_ppm(model))
    assert len(image) > 3 * 1024 * 1024
    assert peak < 0.3 * model.probabilities.nbytes


def test_probability_map_at_mesh_1024_allocates_little_beyond_the_image():
    # the image buffer and the returned bytes are 0.042 payloads each:
    # 0.125 payloads measured (numpy 2.4), 0.667 with whole-plane float
    # temporaries. The bound leaves about a third of margin.
    model = _random_model(3, 1024, seed=4)
    image, peak = _traced_peak(lambda: probability_pgm(model, 1))
    assert len(image) > 1024 * 1024
    assert peak < 0.17 * model.probabilities.nbytes


def test_saving_allocates_only_the_result():
    model = _random_model(4, 128, seed=1)
    raw, peak = _traced_peak(lambda: model_to_bytes(model))
    assert peak <= 1.01 * len(raw)


def test_training_peak_stays_below_three_and_a_half_payloads(cold_transfer_caches):
    data = generate_spirals(3, 100, [0.01, 0.015, 0.02], 1.75, 5)
    config = TrainConfig(n_mesh=256)
    model, peak = _traced_peak(lambda: train(data, config))
    payload = model.probabilities.nbytes
    assert payload == 3 * 256 * 256 * 8
    assert peak < 3.5 * payload


def test_training_peak_at_mesh_1024(cold_transfer_caches):
    # measured at 1.63 payloads (41.1 MB) with numpy 2.4, also when the
    # irfft input is padded to N complex columns as numpy < 2 pads it,
    # since the final smoothing runs its irfft a row tile at a time. The
    # whole-plane irfft peaked at 1.84 (2.51 with that padding), and the
    # full-plane rfft2 / irfft2 route at 3.17 (3.50 with that padding).
    data = generate_spirals(3, 100, [0.01, 0.015, 0.02], 1.75, 5)
    model, peak = _traced_peak(lambda: train(data, TrainConfig(n_mesh=1024)))
    payload = model.probabilities.nbytes
    assert payload == 3 * 1024 * 1024 * 8
    assert peak < 2.75 * payload


@pytest.mark.parametrize("n_mesh, bound", [(256, 3.5), (1024, 2.75)])
def test_training_peak_with_numpy_1_irfft_padding(monkeypatch, cold_transfer_caches,
                                                  n_mesh, bound):
    # numpy < 2 pads irfft's half-plane input to N complex columns before
    # transforming; doing the same here puts that peak under the two
    # guards above on every numpy version. Measured with numpy 2.4: 3.36
    # payloads at mesh 256 and 1.63 at mesh 1024, where the padding now
    # covers one row tile (2.51 when it covered the whole plane).
    irfft = fcdm.spectral.np.fft.irfft

    def padded(a, n, axis):
        assert axis == 1
        full = np.zeros((len(a), n), dtype=complex)
        full[:, : a.shape[1]] = a
        return irfft(full, n=n, axis=axis)

    monkeypatch.setattr(fcdm.spectral.np.fft, "irfft", padded)
    data = generate_spirals(3, 100, [0.01, 0.015, 0.02], 1.75, 5)
    model, peak = _traced_peak(lambda: train(data, TrainConfig(n_mesh=n_mesh)))
    payload = model.probabilities.nbytes
    assert payload == 3 * n_mesh * n_mesh * 8
    assert peak < bound * payload
