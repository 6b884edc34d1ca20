"""The fast CSV reader (numpy's loadtxt) against the reference loop (csv.reader).

load_csv and fcdm predict read a file with numpy's C reader and fall back
to the row-by-row csv.reader loop wherever numpy refuses it. Each check
runs both ways, the second with the fast read patched out, and wants the
same result: the same coordinates bit for bit, codes and vocabulary, or
the same error message and exit code. One difference is left out of the
generated text: a field longer than csv.field_size_limit(), which numpy's
reader takes and the csv.reader loop refuses with a ValueError naming its line.
"""

import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcdm import cli
from fcdm.dataset import FeatureScaler, _fast_rows, load_csv
from fcdm.grid import GridSpec
from fcdm.model_io import save_model
from fcdm.trainer import ClassifierModel


def _reference_only():
    return mock.patch("fcdm.dataset._fast_rows", return_value=None)


def _load_outcome(path, has_header):
    try:
        data = load_csv(path, has_header)
    except ValueError as exc:
        return type(exc), str(exc)
    return data.coords.tobytes(), data.codes.tolist(), data.labels


def _predict_outcome(model, path, has_header):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["predict", "--model", str(model), "--input", str(path)]
                        + ["--header"] * has_header)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    """A mesh-8 model on [-1, 1]^2 whose classes win on different pixels."""
    u = np.random.default_rng(0).uniform(0.05, 0.95, size=(8, 8))
    path = tmp_path_factory.mktemp("reader") / "m.fcdm"
    save_model(ClassifierModel(labels=("c0", "c1"), grid=GridSpec(8),
                               scaler=FeatureScaler(-1.0, 1.0, -1.0, 1.0), n_final=2,
                               epsilon=0.01, probabilities=np.stack([u, 1.0 - u])), path)
    return path


_WALKTHROUGH = (  # CRLF, a header, labels holding a comma, a doubled quote and a newline
    'x1,x2,label\r\n0.1,0.1,"a,b"\r\n0.2,0.3,"a,b"\r\n0.8,0.9,"q""x"\r\n'
    '0.9,0.7,"two\r\nlines"\r\n0.5,0.5, q"x \r\n'
)


def test_numpy_reader_takes_quoted_crlf_files(tmp_path, model):
    path = tmp_path / "walk.csv"
    path.write_bytes(_WALKTHROUGH.encode())
    assert _fast_rows(path, True, np.intp, lambda label: 0) is not None
    assert _fast_rows(path, True, "U1") is not None
    data = load_csv(path, has_header=True)
    assert data.labels == ("a,b", 'q"x', "two\r\nlines")
    assert data.codes.tolist() == [0, 0, 1, 2, 1]
    assert data.coords.tolist() == [[0.1, 0.1], [0.2, 0.3], [0.8, 0.9], [0.9, 0.7], [0.5, 0.5]]
    fast = _predict_outcome(model, path, True)
    with _reference_only():
        assert _predict_outcome(model, path, True) == fast
    assert fast[0] == 0 and len(fast[1].splitlines()) == 5


def test_labels_are_str_where_numpy_hands_converters_bytes(tmp_path):
    # numpy < 2 passes latin-1 bytes to converters unless loadtxt is given an
    # encoding: numpy's old default is put back, and the fast read must still
    # be the one that runs and hand back str labels
    loadtxt = np.loadtxt

    def numpy_1_default(*args, **kwargs):
        return loadtxt(*args, **{"encoding": "bytes", **kwargs})

    path = tmp_path / "d.csv"
    path.write_bytes("0.1,0.2,a\n0.3,0.4,é\n0.5,0.6, a \n".encode())
    with mock.patch.object(np, "loadtxt", numpy_1_default), \
            mock.patch("fcdm.dataset._csv_rows", side_effect=AssertionError("fell back")):
        data = load_csv(path)
    assert data.labels == ("a", "é") and {type(lab) for lab in data.labels} == {str}
    assert data.codes.tolist() == [0, 1, 0]


# Generated CSV text. Most rows parse; a few "spoiler" rows of any shape
# make numpy refuse the file or make a row fail, so that both the fast
# read and the fallback are drawn often.
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["0.1", "-0.0", " 0.5 ", '"0.25"', "1e-400", "0." + "3" * 40,
                     "1" * 30 + ".5", "5e-324"]),
)
_ODD_NUMBER = st.sampled_from([
    "1_0", "١٢", "５", "nan", "NaN", "-nan", "+nan", "inf", "-inf", "+Infinity",
    "INFINITY", "iNf", "1e999", "0x10", "1d5", "#1", "", " ", "x", '" 3 "', " 2 ",
])
_QUOTED = st.lists(st.sampled_from([",", '""', "\n", "\r\n", "\r", "a", "B", " ", "é", "#"]),
                   max_size=5).map(lambda parts: '"' + "".join(parts) + '"')
_LABEL = st.sampled_from(["A", "B", "c0", " A ", "é", "#x", 'a"b']) | _QUOTED
_ODD_LABEL = st.sampled_from(["", "  ", '"', '""', '" "']) | _LABEL
_SPOILER = st.one_of(
    st.sampled_from(["", " ", "\t", " , ", ",,", "#,#,#"]),
    st.tuples(_ODD_NUMBER, _NUMBER, _LABEL).map(",".join),
    st.tuples(_NUMBER, _ODD_NUMBER).map(",".join),
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        *[_NUMBER | _ODD_NUMBER if i < 2 else _ODD_LABEL for i in range(n)])).map(",".join),
)
_EOL = st.sampled_from(["\n", "\r\n", "\r"])
# header rows, two of them spanning lines; the last reads as two data rows
# to a reader that would skip only its first line
_HEADERS = ["x1,x2,label", "1.0,2.0,3", '"x\n1",x2,"la\r\nbel"', '"h\n0.5,0.5,B\n0.5,0.5,"']


@st.composite
def _csv_texts(draw):
    good_row = st.tuples(_NUMBER, _NUMBER, *[_LABEL] * draw(st.sampled_from([0, 1, 1])))
    rows = draw(st.lists(good_row.map(",".join), max_size=10))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(_SPOILER))
    text = "".join(row + draw(_EOL) for row in rows)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last row
    has_header = draw(st.booleans())
    if has_header:
        text = draw(st.sampled_from(_HEADERS)) + draw(_EOL) + text
    if draw(st.integers(0, 3)) == 0:
        text = "\ufeff" + text
    return text, has_header


@pytest.mark.filterwarnings("error")
@given(drawn=_csv_texts())
@settings(max_examples=300, deadline=None)
def test_fast_reader_matches_the_reference_loop(tmp_path_factory, model, drawn):
    text, has_header = drawn
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = _load_outcome(path, has_header), _predict_outcome(model, path, has_header)
    with _reference_only():
        assert (_load_outcome(path, has_header), _predict_outcome(model, path, has_header)) == fast
