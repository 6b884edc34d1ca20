import csv
import hashlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from fcdm.dataset import (
    Dataset,
    FeatureScaler,
    _write_rows,
    apply_scaler,
    fit_scaler,
    generate_spirals,
    load_csv,
    normalize_dataset,
    split,
    write_csv,
)
from oracles import csv_rows_text


def _write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------- parsing

def test_load_two_points(tmp_path):
    data = load_csv(_write(tmp_path, "0.1,0.2,A\n0.3,0.4,B\n"))
    assert len(data) == 2
    assert data.labels == ("A", "B")
    assert data.coords.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    assert data.codes.tolist() == [0, 1]


def test_load_non_numeric_feature_names_line(tmp_path):
    with pytest.raises(ValueError, match="line 1"):
        load_csv(_write(tmp_path, "x,0.4,B\n0.3,0.4,A\n"))


def test_load_single_class_rejected(tmp_path):
    with pytest.raises(ValueError, match="2 classes"):
        load_csv(_write(tmp_path, "0.1,0.2,A\n0.3,0.4,A\n"))


def test_load_wrong_field_count_names_line(tmp_path):
    with pytest.raises(ValueError, match="line 2"):
        load_csv(_write(tmp_path, "0.1,0.2,A\n0.3,0.4\n"))


def test_load_non_finite_rejected(tmp_path):
    with pytest.raises(ValueError, match="line 1"):
        load_csv(_write(tmp_path, "inf,0.2,A\n0.3,0.4,B\n"))


def test_load_empty_label_rejected(tmp_path):
    with pytest.raises(ValueError, match="line 2"):
        load_csv(_write(tmp_path, "0.1,0.2,A\n0.3,0.4,\n"))


def test_load_skips_blank_lines_and_header(tmp_path):
    data = load_csv(_write(tmp_path, "x1,x2,label\n0.1,0.2,A\n\n0.3,0.4,B\n"),
                    has_header=True)
    assert len(data) == 2


def test_header_line_counts_toward_line_numbers(tmp_path):
    with pytest.raises(ValueError, match="line 3"):
        load_csv(_write(tmp_path, "x1,x2,label\n0.1,0.2,A\nbad,0.4,B\n"),
                 has_header=True)


def test_write_then_load_round_trip(tmp_path):
    data = generate_spirals(3, 25, [0.0, 0.01, 0.02], 1.75, 5)
    path = tmp_path / "round.csv"
    write_csv(data, path)
    back = load_csv(path)
    assert back.labels == data.labels
    # repr() precision preserves floats bit for bit
    assert back.coords.tobytes() == data.coords.tobytes()
    assert np.array_equal(back.codes, data.codes)


def test_vocabulary_order_is_first_appearance(tmp_path):
    data = load_csv(_write(tmp_path, "0,1,Z\n1,0,A\n2,2,Z\n3,3,M\n"))
    assert data.labels == ("Z", "A", "M")


def test_header_that_parses_as_numbers_is_skipped(tmp_path):
    data = load_csv(_write(tmp_path, "1.0,2.0,3\n0.1,0.2,A\n0.3,0.4,B\n"),
                    has_header=True)
    assert data.coords.tolist() == [[0.1, 0.2], [0.3, 0.4]]


@pytest.mark.parametrize("blank", [" , ", "\t,  ", " , ,\t", " ", " , , , "])
def test_whitespace_only_rows_are_skipped(tmp_path, blank):
    data = load_csv(_write(tmp_path, f"0.1,0.2,A\n{blank}\n0.3,0.4,B\n"))
    assert data.coords.tolist() == [[0.1, 0.2], [0.3, 0.4]]


@pytest.mark.parametrize("row, message", [
    ("0.3,x,B", "line 4: cannot parse coordinates '0.3', 'x'"),
    (" ,0.4,B", "line 4: cannot parse coordinates ' ', '0.4'"),
    ("0.3,0.4,B,9", "line 4: expected 3 fields, got 4"),
    ("0.3,0.4", "line 4: expected 3 fields, got 2"),
    ("0.3", "line 4: expected 3 fields, got 1"),
    # a quoted label spans lines 4 and 5, so the bad row starts on line 6
    ('0.3,0.4,"a\nb"\n0.5,zz,B', "line 6: cannot parse coordinates '0.5', 'zz'"),
    pytest.param("0.3,0.4," + "B" * (csv.field_size_limit() + 1),
                 f"line 4: field larger than field limit ({csv.field_size_limit()})",
                 id="a field over the csv limit"),
])
def test_bad_rows_keep_their_messages_and_line_numbers(tmp_path, row, message):
    # line 2 is empty and line 3 whitespace: both skipped, both counted
    path = _write(tmp_path, f"0.1,0.2,A\n\n  \n{row}\n0.5,0.6,B\n")
    with pytest.raises(ValueError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_line_numbers_count_the_lines_of_quoted_fields(tmp_path):
    path = _write(tmp_path, '0.1,0.2,"a\nb"\n0.3,0.4,c\n0.5,zz,c\n')
    with pytest.raises(ValueError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: line 4: cannot parse coordinates '0.5', 'zz'"
    # a header whose quoted field spans lines 1 and 2
    path = _write(tmp_path, '"x\n1",x2,label\n0.1,0.2,A\nbad,0.4,B\n')
    with pytest.raises(ValueError, match="line 4: cannot parse coordinates 'bad', '0.4'"):
        load_csv(path, has_header=True)


def test_a_header_over_the_csv_field_limit_names_line_1(tmp_path):
    limit = csv.field_size_limit()
    path = _write(tmp_path, "h" * (limit + 1) + "\n0.1,0.2,A\n0.3,0.4,B\n")
    with pytest.raises(ValueError) as info:
        load_csv(path, has_header=True)
    assert str(info.value) == f"{path}: line 1: field larger than field limit ({limit})"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "\n", "\r\n \n"])
def test_empty_file_keeps_its_message(tmp_path, text):
    path = _write(tmp_path, text)
    with pytest.raises(ValueError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: need at least 2 classes, found 0"


# ---------------------------------------------------------------- writing

_EDGE_FLOATS = [math.inf, -math.inf, -0.0, 0.0, 5e-324, -1.1e-308, 2.2250738585072014e-308,
                1e308, -1e308, 1.7976931348623157e308, 0.1, 1e16, 123456789.0]
_LABEL_TEXT = st.text(
    st.sampled_from([",", '"', "\n", "\r", " ", "a", "é", "中", "🙂"])
    | st.characters(exclude_categories=("Cs",)),
    min_size=1, max_size=6,
)


@given(st.data())
def test_row_writer_writes_what_csv_writer_writes(data):
    # the column-wise writer of write_csv and fcdm predict against one
    # csv.writer call per row; row counts on both sides of the 4096-row tile
    k = data.draw(st.integers(2, 5), label="K")
    labels = data.draw(st.lists(_LABEL_TEXT, min_size=k, max_size=k, unique=True))
    n = data.draw(st.sampled_from([0, 1, 3, 4095, 4096, 4097, 8193]), label="rows")
    floats = data.draw(st.lists(st.floats(allow_nan=False) | st.sampled_from(_EDGE_FLOATS),
                                min_size=1, max_size=50))
    codes = np.resize(data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=50)), n)
    values = np.resize(np.array(floats), (2 + k) * n)
    xy = values[: 2 * n].reshape(n, 2)
    probs = values[2 * n:].reshape(k, n).T  # predict_batch's (n, K) view
    for extra in (None, probs):
        out = io.StringIO()
        _write_rows(out, xy, labels, codes, extra)
        want = csv_rows_text(xy, labels, codes, extra)
        # lists of lines: pytest reports the first differing one, not a text diff
        assert out.getvalue().splitlines(True) == want.splitlines(True)


def test_write_csv_quotes_labels_as_csv_writer_does(tmp_path):
    labels = ("a,b", 'q"x', "two\nlines", " spaced ", "naïve 中")
    data = Dataset(coords=[(0.1 * r, -0.0) for r in range(10)],
                   codes=[r % 5 for r in range(10)], labels=labels)
    path = tmp_path / "quoted.csv"
    write_csv(data, path)
    text = csv_rows_text(data.coords, labels, data.codes)
    assert '"a,b"' in text and '"q""x"' in text
    assert path.read_bytes() == text.encode("utf-8")


def test_dataset_rejects_unknown_point_label():
    for code in (2, -1):
        with pytest.raises(ValueError, match="missing from vocabulary"):
            Dataset(coords=[(0, 1)], codes=[code], labels=("A", "B"))


def test_dataset_rejects_non_finite_coordinates():
    for bad in (math.nan, math.inf, -math.inf):
        for point in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                Dataset(coords=[(0.5, 0.5), point], codes=[0, 1], labels=("A", "B"))


def test_dataset_rejects_length_mismatch():
    with pytest.raises(ValueError, match="2 codes for 1 points"):
        Dataset(coords=[(0.1, 0.2)], codes=[0, 1], labels=("A", "B"))
    with pytest.raises(ValueError, match="shape"):
        Dataset(coords=[0.1, 0.2], codes=[0, 1], labels=("A", "B"))


def test_dataset_rejects_empty_label():
    with pytest.raises(ValueError, match="non-empty"):
        Dataset(coords=[(0.1, 0.2)], codes=[0], labels=("A", ""))


@pytest.mark.parametrize("labels", [(1, 2), ("A", 2), (b"A", "B")])
def test_dataset_rejects_labels_that_are_not_strings(labels):
    # save_model writes labels as UTF-8, so a model could not be saved with these
    with pytest.raises(ValueError, match="point label must be a non-empty string"):
        Dataset(coords=[(0.1, 0.2), (0.3, 0.4)], codes=[0, 1], labels=labels)


def test_dataset_arrays_are_read_only_copies():
    coords = np.array([[0.1, 0.2], [0.3, 0.4]])
    codes = np.array([0, 1])
    data = Dataset(coords=coords, codes=codes, labels=["A", "B"])
    assert data.labels == ("A", "B")
    assert data.coords.dtype == np.float64 and data.codes.dtype == np.intp
    assert not data.coords.flags.writeable and not data.codes.flags.writeable
    with pytest.raises(ValueError):
        data.coords[0, 0] = 9.0
    with pytest.raises(ValueError):
        data.codes[0] = 1
    coords[0, 0] = 9.0  # the caller's array is not the dataset's
    assert data.coords[0, 0] == 0.1


# ---------------------------------------------------------------- scaler

def test_fit_scaler_extrema():
    data = Dataset(coords=[(2, 10), (4, 30)], codes=[0, 1], labels=("A", "B"))
    s = fit_scaler(data)
    assert (s.min1, s.max1, s.min2, s.max2) == (2, 4, 10, 30)


def test_fit_scaler_identity_on_unit_square():
    data = Dataset(coords=[(0, 0), (1, 1)], codes=[0, 1], labels=("A", "B"))
    s = fit_scaler(data)
    assert (s.min1, s.max1, s.min2, s.max2) == (0, 1, 0, 1)


def test_fit_scaler_constant_feature_rejected():
    data = Dataset(coords=[(5, 1), (5, 2)], codes=[0, 1], labels=("A", "B"))
    with pytest.raises(ValueError, match="x1"):
        fit_scaler(data)


# zeros of both signs, the smallest subnormals and two ordinary values: ties
# between -0.0 and +0.0 at the minimum or maximum of a column are common
_ZERO_HEAVY = [0.0, -0.0, 0.0, -0.0, 5e-324, -5e-324, 1.0, 2.0]


@given(
    st.one_of(st.integers(min_value=1, max_value=300), st.just(4097)).flatmap(
        lambda n: arrays(np.float64, (n, 2), elements=st.sampled_from(_ZERO_HEAVY))
    )
)
def test_fit_scaler_matches_axis_0_bounds_and_stores_zero_as_plus_zero(coords):
    data = Dataset(coords=coords, codes=np.arange(len(coords)) % 2, labels=("A", "B"))
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    if not (hi > lo).all():
        with pytest.raises(ValueError, match="degenerate"):
            fit_scaler(data)
        return
    s = fit_scaler(data)
    bounds = [s.min1, s.max1, s.min2, s.max2]
    assert bounds == [lo[0], hi[0], lo[1], hi[1]]
    # the model header stores these bytes: a zero bound is +0.0 whatever the
    # order in which numpy reduced the column
    assert not any(math.copysign(1.0, b) < 0 for b in bounds if b == 0)


def test_apply_scaler_midpoint_and_edges():
    s = FeatureScaler(min1=2, max1=4, min2=10, max2=30)
    out = apply_scaler([(3, 20), (2, 10), (6, 10)], s)
    assert out[0].tolist() == [0.5, 0.5]
    assert out[1].tolist() == [0.0, 0.0]
    assert out[2].tolist() == [2.0, 0.0]  # beyond max extrapolates past 1


def test_scaler_rejects_degenerate_range():
    with pytest.raises(ValueError):
        FeatureScaler(min1=1, max1=1, min2=0, max2=1)


coords = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(coords, coords), min_size=2, max_size=40))
def test_scaler_maps_own_points_into_unit_square(pairs):
    xs = sorted(p[0] for p in pairs)
    ys = sorted(p[1] for p in pairs)
    if xs[0] == xs[-1] or ys[0] == ys[-1]:
        return  # constant feature: fit_scaler rejects, covered elsewhere
    codes = [k % 2 for k in range(len(pairs))]
    data = Dataset(coords=pairs, codes=codes, labels=("B", "A"))
    out = apply_scaler(data.xy(), fit_scaler(data))
    assert out.min() >= 0.0 and out.max() <= 1.0
    # extrema land exactly on the unit square boundary
    assert out[:, 0].min() == 0.0 and out[:, 0].max() == 1.0
    assert out[:, 1].min() == 0.0 and out[:, 1].max() == 1.0


def test_normalize_dataset_keeps_labels_and_order():
    data = generate_spirals(2, 10, [0.0, 0.0], 1.0, 3)
    normalized = normalize_dataset(data, fit_scaler(data))
    assert normalized.labels == data.labels
    assert np.array_equal(normalized.codes, data.codes)
    assert normalized.coords.min() >= 0.0 and normalized.coords.max() <= 1.0


def test_normalize_dataset_rejects_a_far_out_point_without_a_warning():
    # a scaler fitted elsewhere maps 1e308 past the float range; the suite's
    # error::RuntimeWarning filter turns numpy's overflow warning into an
    # error, so only the Dataset's own check may speak
    data = Dataset([(1e308, 0.1), (0.2, 0.2)], [0, 1], ("a", "b"))
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        normalize_dataset(data, FeatureScaler(0.05, 0.3, 0.05, 0.3))


# ---------------------------------------------------------------- spirals

def test_spirals_count_contract():
    data = generate_spirals(3, 400, [0.01, 0.015, 0.02], 1.75, 42)
    assert len(data) == 1200
    assert data.labels == ("c0", "c1", "c2")
    assert data.class_counts() == {"c0": 400, "c1": 400, "c2": 400}


def test_spirals_deterministic_per_seed():
    a = generate_spirals(3, 50, [0.0, 0.0, 0.0], 1.75, 9)
    b = generate_spirals(3, 50, [0.0, 0.0, 0.0], 1.75, 9)
    assert a.coords.tobytes() == b.coords.tobytes()
    assert np.array_equal(a.codes, b.codes) and a.labels == b.labels
    c = generate_spirals(3, 50, [0.0, 0.0, 0.0], 1.75, 10)
    assert not np.array_equal(a.coords, c.coords)


def test_spirals_noise_free_points_stay_near_center():
    data = generate_spirals(4, 100, [0.0] * 4, 2.0, 1)
    xy = data.xy()
    # radius grows as 0.45 t with t <= 1, around (0.5, 0.5)
    radii = np.hypot(xy[:, 0] - 0.5, xy[:, 1] - 0.5)
    assert radii.max() <= 0.45 + 1e-12
    assert radii.min() >= 0.2 * 0.45 - 1e-12


def test_spirals_noise_arity_checked():
    with pytest.raises(ValueError, match="noise"):
        generate_spirals(3, 10, [0.01, 0.02], 1.75, 0)


@pytest.mark.parametrize("turns", [float("nan"), float("inf"), float("-inf")])
def test_spirals_reject_non_finite_turns_up_front(turns):
    # named in the error, and raised before numpy warns about the angles
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="turns must be finite"):
            generate_spirals(3, 10, [0.01] * 3, turns, 0)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_spirals_reject_non_finite_noise(sigma):
    with pytest.raises(ValueError, match="noise sigmas must be finite"):
        generate_spirals(2, 10, [0.01, sigma], 1.75, 0)


def test_spirals_reject_negative_seed_by_name():
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        generate_spirals(3, 10, [0.01] * 3, 1.75, -1)
    assert len(generate_spirals(3, 10, [0.01] * 3, 1.75, 0)) == 30


# ---------------------------------------------------------------- split

def test_split_default_arithmetic():
    data = generate_spirals(3, 400, [0.01, 0.015, 0.02], 1.75, 42)
    train_set, test_set = split(data, 0.25, 42)
    assert len(train_set) == 900 and len(test_set) == 300
    assert train_set.class_counts() == {"c0": 300, "c1": 300, "c2": 300}
    assert test_set.class_counts() == {"c0": 100, "c1": 100, "c2": 100}
    assert train_set.labels == data.labels and test_set.labels == data.labels


def test_split_deterministic():
    data = generate_spirals(2, 30, [0.01, 0.01], 1.0, 4)
    first = split(data, 0.3, 11)
    second = split(data, 0.3, 11)
    for a, b in zip(first, second):
        assert a.coords.tobytes() == b.coords.tobytes()
        assert np.array_equal(a.codes, b.codes)


def test_split_two_point_class_keeps_one_each():
    data = Dataset(
        coords=[(0, 0), (1, 1), (0, 1), (1, 0)], codes=[0, 0, 1, 1], labels=("A", "B")
    )
    train_set, test_set = split(data, 0.5, 0)
    assert train_set.class_counts() == {"A": 1, "B": 1}
    assert test_set.class_counts() == {"A": 1, "B": 1}


def test_split_rejects_bad_fraction():
    data = generate_spirals(2, 10, [0.0, 0.0], 1.0, 0)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            split(data, bad, 0)


def test_split_rejects_tiny_class():
    data = Dataset(coords=[(0, 0), (0, 1), (1, 0)], codes=[0, 1, 1], labels=("A", "B"))
    with pytest.raises(ValueError, match="'A'"):
        split(data, 0.5, 0)


@given(
    sizes=st.lists(st.integers(min_value=2, max_value=25), min_size=2, max_size=4),
    fraction=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_split_partitions_and_stratifies(sizes, fraction, seed):
    coords, codes = [], []
    for k, m in enumerate(sizes):
        for t in range(m):
            coords.append((k + t * 0.01, k - t * 0.01))
            codes.append(k)
    data = Dataset(coords=coords, codes=codes,
                   labels=tuple(f"c{k}" for k in range(len(sizes))))
    train_set, test_set = split(data, fraction, seed)

    def rows(d):
        return [(x1, x2, c) for (x1, x2), c in zip(d.coords.tolist(), d.codes.tolist())]

    # exact multiset partition
    assert sorted(rows(train_set) + rows(test_set)) == sorted(rows(data))
    for lab, m in zip(data.labels, sizes):
        n_train = train_set.class_counts()[lab]
        expected = min(max(int(math.floor((1 - fraction) * m + 0.5)), 1), m - 1)
        assert n_train == expected
        assert test_set.class_counts()[lab] == m - n_train


def test_split_halves_write_the_same_bytes_as_before(tmp_path):
    # md5s of write_csv on both split halves, recorded from the
    # one-object-per-point implementation this columnar one replaced
    golden = {
        42: ("fe50c2f8134ccce59a51d4022f7340db", "4fce048f55459302ca89b02af5e4df67"),
        1001: ("839b187a0431c10d0dcf3088c3ba6ad0", "5a7dd2c56b155bbe52069fa344b6122d"),
    }
    for seed, expected in golden.items():
        data = generate_spirals(3, 400, [0.01, 0.015, 0.02], 1.75, seed)
        digests = []
        for half in split(data, 0.25, seed):
            path = tmp_path / "half.csv"
            write_csv(half, path)
            digests.append(hashlib.md5(path.read_bytes()).hexdigest())
        assert tuple(digests) == expected
