import contextlib
import csv
import io
import json
import re
import tracemalloc

import numpy as np
import pytest

import fcdm
from fcdm import cli
from fcdm.dataset import FeatureScaler, load_csv
from fcdm.grid import GridSpec
from fcdm.model_io import load_model, save_model
from fcdm.trainer import ClassifierModel


def _run(argv):
    """Invoke the CLI in-process, returning (exit_code, stdout_text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small end-to-end CLI run kept around for the plumbing tests."""
    root = tmp_path_factory.mktemp("cli")
    csv_path = root / "pts.csv"
    model_path = root / "model.fcdm"
    code, _ = _run([
        "generate", "--classes", "3", "--per-class", "40",
        "--noise", "0.01,0.015,0.02", "--turns", "1.75", "--seed", "7",
        "--out", str(csv_path),
    ])
    assert code == 0
    code, train_stdout = _run([
        "train", "--input", str(csv_path), "--out", str(model_path),
        "--mesh", "64",
    ])
    assert code == 0
    return {"root": root, "csv": csv_path, "model": model_path,
            "train_stdout": train_stdout}


@pytest.fixture(scope="module")
def default_workspace(tmp_path_factory):
    """The full default-flag run: 1200 points, 512 mesh."""
    root = tmp_path_factory.mktemp("cli_default")
    csv_path = root / "d.csv"
    model_path = root / "model.fcdm"
    code, _ = _run(["generate", "--out", str(csv_path)])
    assert code == 0
    code, train_stdout = _run([
        "train", "--input", str(csv_path), "--out", str(model_path),
    ])
    assert code == 0
    return {"csv": csv_path, "model": model_path, "train_stdout": train_stdout}


# ---------------------------------------------------------------- generate

def test_generate_default_row_count(default_workspace):
    lines = default_workspace["csv"].read_text().strip().splitlines()
    assert len(lines) == 1200
    data = load_csv(default_workspace["csv"])
    assert data.class_counts() == {"c0": 400, "c1": 400, "c2": 400}


def test_generate_same_flags_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["generate", "--classes", "2", "--per-class", "15",
             "--noise", "0.01,0.02", "--seed", "3"]
    assert _run(flags + ["--out", str(a)])[0] == 0
    assert _run(flags + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_noise_arity_is_usage_error(tmp_path):
    code, _ = _run([
        "generate", "--classes", "3", "--noise", "0.01,0.02",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


def test_generate_bad_noise_value_is_usage_error(tmp_path):
    code, _ = _run([
        "generate", "--classes", "2", "--noise", "0.01,abc",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize("turns", ["nan", "inf", "-inf"])
def test_generate_non_finite_turns_is_usage_error(tmp_path, capsys, recwarn, turns):
    out = tmp_path / "x.csv"
    code, _ = _run(["generate", f"--turns={turns}", "--out", str(out)])
    assert code == 2
    assert "turns must be finite" in capsys.readouterr().err
    assert not out.exists()
    assert len(recwarn) == 0  # rejected before any arithmetic runs


def test_generate_negative_seed_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, _ = _run(["generate", "--seed", "-1", "--out", str(out)])
    assert code == 2
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--classes", "1", "--noise", "0.01"], "need at least 2 classes, got 1"),
    (["--per-class", "0"], "need at least 1 point per class, got 0"),
    (["--noise", "0.01,inf,0.02"], "noise sigmas must be finite and nonnegative"),
])
def test_generate_argument_rules_are_usage_errors(tmp_path, capsys, flags, message):
    out = tmp_path / "x.csv"
    code, _ = _run(["generate", *flags, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- train

def test_train_reports_convergence(workspace):
    out = workspace["train_stdout"]
    assert "class c0: n_k=" in out
    assert "c(2)=" in out
    assert "d2(3)=" in out
    assert re.search(r"n_final=\d+", out)


def test_train_default_flags_n_final_in_expected_band(default_workspace):
    match = re.search(r"n_final=(\d+)", default_workspace["train_stdout"])
    assert match, default_workspace["train_stdout"]
    assert 3 <= int(match.group(1)) <= 12


def test_train_writes_loadable_model(workspace):
    model = load_model(workspace["model"])
    assert model.labels == ("c0", "c1", "c2")
    assert model.grid.n_mesh == 64


def test_train_rejects_non_power_of_two_mesh(workspace, tmp_path):
    code, _ = _run([
        "train", "--input", str(workspace["csv"]),
        "--out", str(tmp_path / "m"), "--mesh", "500",
    ])
    assert code == 2


def test_train_rejects_zero_epsilon(workspace, tmp_path):
    code, _ = _run([
        "train", "--input", str(workspace["csv"]),
        "--out", str(tmp_path / "m"), "--epsilon", "0",
    ])
    assert code == 2


def test_train_rejects_small_nmax(workspace, tmp_path):
    code, _ = _run([
        "train", "--input", str(workspace["csv"]),
        "--out", str(tmp_path / "m"), "--nmax", "3",
    ])
    assert code == 2


def test_train_missing_input_is_runtime_error(tmp_path):
    code, _ = _run([
        "train", "--input", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path / "m"),
    ])
    assert code == 1


def test_train_malformed_csv_is_runtime_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1,0.2,A\noops\n")
    code, _ = _run(["train", "--input", str(bad), "--out", str(tmp_path / "m")])
    assert code == 1


def test_train_twice_same_flags_byte_identical(workspace, tmp_path):
    a, b = tmp_path / "a.fcdm", tmp_path / "b.fcdm"
    flags = ["train", "--input", str(workspace["csv"]), "--mesh", "64"]
    assert _run(flags + ["--out", str(a)])[0] == 0
    assert _run(flags + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- predict

def test_predict_single_row_to_stdout(workspace, tmp_path):
    inp = tmp_path / "one.csv"
    inp.write_text("0.5,0.5\n")
    code, out = _run([
        "predict", "--model", str(workspace["model"]), "--input", str(inp),
    ])
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 1
    cells = rows[0].split(",")
    assert len(cells) == 2 + 1 + 3  # x1, x2, label, three probabilities
    assert cells[2] in ("c0", "c1", "c2")
    assert abs(sum(float(c) for c in cells[3:]) - 1.0) <= 1e-9


def test_predict_accepts_labeled_rows(workspace, tmp_path):
    inp = tmp_path / "labeled.csv"
    inp.write_text("0.5,0.5,whatever\n0.2,0.8,x\n")
    code, out = _run([
        "predict", "--model", str(workspace["model"]), "--input", str(inp),
    ])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_predict_writes_output_file(workspace, tmp_path):
    inp = tmp_path / "pts.csv"
    inp.write_text("0.4,0.6\n0.1,0.1\n0.9,0.9\n")
    dest = tmp_path / "preds.csv"
    code, out = _run([
        "predict", "--model", str(workspace["model"]), "--input", str(inp),
        "--out", str(dest),
    ])
    assert code == 0
    assert "3 predictions" in out
    assert len(dest.read_text().strip().splitlines()) == 3


def test_predict_malformed_input_is_runtime_error(workspace, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1\n")
    code, _ = _run([
        "predict", "--model", str(workspace["model"]), "--input", str(bad),
    ])
    assert code == 1


def _predict_rows(workspace, tmp_path, text, *extra):
    inp = tmp_path / "in.csv"
    inp.write_text(text)
    code, out = _run([
        "predict", "--model", str(workspace["model"]), "--input", str(inp), *extra,
    ])
    return code, [row.split(",") for row in out.strip().splitlines()]


def test_predict_mixes_two_and_three_column_rows(workspace, tmp_path):
    code, rows = _predict_rows(workspace, tmp_path, "0.5,0.5\n\n0.2,0.8,c1\n")
    assert code == 0
    assert [r[:2] for r in rows] == [["0.5", "0.5"], ["0.2", "0.8"]]


def test_predict_rejects_other_field_counts(workspace, tmp_path, capsys):
    code, _ = _predict_rows(workspace, tmp_path, "x1,x2\n0.5,0.5\n0.1,0.2,c0,9\n",
                            "--header")
    assert code == 1
    assert "line 3: expected 2 or 3 fields, got 4" in capsys.readouterr().err


def test_predict_rejects_nan_coordinate(workspace, tmp_path, capsys):
    code, _ = _predict_rows(workspace, tmp_path, "0.5,0.5\n0.1,nan\n")
    assert code == 1
    assert "line 2: NaN coordinate" in capsys.readouterr().err


def test_predict_rejects_unparsable_coordinate(workspace, tmp_path, capsys):
    code, _ = _predict_rows(workspace, tmp_path, "0.5,abc\n")
    assert code == 1
    assert "line 1: cannot parse coordinates '0.5', 'abc'" in capsys.readouterr().err


def test_predict_skips_a_numeric_header_and_whitespace_rows(workspace, tmp_path):
    code, rows = _predict_rows(workspace, tmp_path,
                               "1.0,2.0\n \t, \n0.5,0.25\n , ,  \n0.2,0.8,c1\n", "--header")
    assert code == 0
    assert [r[:2] for r in rows] == [["0.5", "0.25"], ["0.2", "0.8"]]


@pytest.mark.parametrize("row, message", [
    ("0.1,x,c0", "cannot parse coordinates '0.1', 'x'"),
    ("0.1,0.2,c0,9", "expected 2 or 3 fields, got 4"),
    (" nan ,0.2,c0", "NaN coordinate"),
    ("0.1,NaN", "NaN coordinate"),
    pytest.param("0.1,0.2," + "c" * (csv.field_size_limit() + 1),
                 f"field larger than field limit ({csv.field_size_limit()})",
                 id="a field over the csv limit"),
])
def test_predict_bad_row_fails_on_its_own_line(workspace, tmp_path, capsys, row, message):
    # a header, a blank line and a whitespace-only row come before it
    code, rows = _predict_rows(workspace, tmp_path, f"x1,x2\n0.5,0.5\n\n , \n{row}\n",
                               "--header")
    assert (code, rows) == (1, [])
    assert capsys.readouterr().err == f"error: {tmp_path / 'in.csv'}: line 5: {message}\n"


def test_predict_rejects_file_without_points(workspace, tmp_path, capsys):
    code, _ = _predict_rows(workspace, tmp_path, "\n\n")
    assert code == 1
    assert "no points found" in capsys.readouterr().err


def test_predict_names_the_line_a_row_starts_on(workspace, tmp_path, capsys):
    # the quoted label of row 1 spans lines 1 and 2
    code, rows = _predict_rows(workspace, tmp_path, '0.1,0.2,"a\nb"\n0.3,0.4,c\n0.5,zz,c\n')
    assert (code, rows) == (1, [])
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'in.csv'}: line 4: cannot parse coordinates '0.5', 'zz'\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "\n", "x1,x2\n"])
def test_predict_of_an_empty_file_keeps_its_message(workspace, tmp_path, capsys, text):
    code, rows = _predict_rows(workspace, tmp_path, text, "--header")
    assert (code, rows) == (1, [])
    assert capsys.readouterr().err == f"error: {tmp_path / 'in.csv'}: no points found\n"


def test_predict_clamps_infinite_coordinates(workspace, tmp_path):
    # +-inf reads the boundary pixel, exactly like a far-out finite point
    code, rows = _predict_rows(workspace, tmp_path, "inf,-inf\n1e300,-1e300\n-inf,inf\n")
    assert code == 0
    assert [r[:2] for r in rows] == [["inf", "-inf"], ["1e+300", "-1e+300"], ["-inf", "inf"]]
    assert rows[0][2:] == rows[1][2:]


# ------------------------------------------ predict: one batched lookup

# header, a blank line, 2- and 3-column rows, +-inf, far-out and -0.0
# coordinates; raw x1 spans [-2, 3] and x2 [10, 14] in the model below
_MIXED = (
    "x1,x2\n-2.0,10.0\n-1.5,12.5,c1\n0.5,13.0\n2.9,10.1,c0\n\n"
    "inf,-inf\n-inf,inf,c2\n1e300,-1e300\n3.0,14.0\n-0.0,12.0\n"
)
_MIXED_POINTS = [
    (-2.0, 10.0), (-1.5, 12.5), (0.5, 13.0), (2.9, 10.1),
    (float("inf"), float("-inf")), (float("-inf"), float("inf")),
    (1e300, -1e300), (3.0, 14.0), (-0.0, 12.0),
]


@pytest.fixture(scope="module")
def tie_model(tmp_path_factory):
    """A saved 8-mesh model: a three-way tie on the left half of the square,
    a tie of classes 1 and 2 on the right half, no tie on row 0."""
    probs = np.empty((3, 8, 8))
    probs[:, :, :4] = 1 / 3
    probs[:, :, 4:] = np.array([0.2, 0.4, 0.4])[:, None, None]
    probs[:, 0, :] = np.array([0.6, 0.3, 0.1])[:, None]
    model = ClassifierModel(labels=("c0", "c1", "c2"), grid=GridSpec(8),
                            scaler=FeatureScaler(-2.0, 3.0, 10.0, 14.0),
                            n_final=3, epsilon=0.01, probabilities=probs)
    path = tmp_path_factory.mktemp("tie") / "tie.fcdm"
    save_model(model, str(path))
    return path


def _per_point_csv(model_path, points):
    """The output of `fcdm predict` built from one fcdm.predict call per
    point, as x1,x2,label,p_1..p_K rows of reprs."""
    model = load_model(str(model_path))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for x1, x2 in points:
        pred = fcdm.predict(model, (x1, x2))
        writer.writerow([repr(x1), repr(x2), pred.label]
                        + [repr(p) for p in pred.probabilities])
    return buf.getvalue()


@pytest.mark.parametrize("to_file", [True, False])
def test_predict_output_matches_per_point_predict(tie_model, tmp_path, to_file):
    inp = tmp_path / "mixed.csv"
    inp.write_text(_MIXED)
    dest = tmp_path / "preds.csv"
    code, out = _run(["predict", "--model", str(tie_model), "--input", str(inp),
                      "--header", "--out", str(dest) if to_file else "-"])
    assert code == 0
    expected = _per_point_csv(tie_model, _MIXED_POINTS)
    assert {row.split(",")[2] for row in expected.splitlines()} == {"c0", "c1"}
    if to_file:
        assert dest.read_bytes() == expected.encode()
        assert out == f"wrote {dest}: 9 predictions\n"
    else:
        assert out == expected
        assert not dest.exists()


def test_predict_nan_row_writes_no_output(tie_model, tmp_path, capsys):
    inp = tmp_path / "nan.csv"
    inp.write_text(_MIXED.replace("3.0,14.0", "3.0,nan"))
    dest = tmp_path / "preds.csv"
    code, out = _run(["predict", "--model", str(tie_model), "--input", str(inp),
                      "--header", "--out", str(dest)])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == f"error: {inp}: line 10: NaN coordinate\n"
    assert not dest.exists()


def test_predict_may_overwrite_its_input(tie_model, tmp_path):
    # the input is read to the end before the output is opened
    inp = tmp_path / "mixed.csv"
    inp.write_text(_MIXED)
    code, _ = _run(["predict", "--model", str(tie_model), "--input", str(inp),
                    "--header", "--out", str(inp)])
    assert code == 0
    assert inp.read_text() == _per_point_csv(tie_model, _MIXED_POINTS)


def test_predict_streams_its_output_rows(workspace, tmp_path):
    # tracemalloc peak of 30 000 points at mesh 64, for a 3.0 MB output:
    # 6.8 MB measured (numpy 2.4); 13.8 MB when every output row was kept
    # in a list until the end. The bound leaves a third of margin.
    data = fcdm.generate_spirals(3, 10_000, [0.01, 0.015, 0.02], 1.75, 11)
    inp, dest = tmp_path / "many.csv", tmp_path / "preds.csv"
    fcdm.write_csv(data, str(inp))
    tracemalloc.start()
    try:
        code, _ = _run(["predict", "--model", str(workspace["model"]),
                        "--input", str(inp), "--out", str(dest)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert dest.stat().st_size > 2.9e6
    assert peak < 9e6


def test_predict_of_60000_points_converts_rows_a_slice_at_a_time(workspace, tmp_path):
    # tracemalloc peak of 60 000 points at mesh 64, for a 6.0 MB output:
    # 4.97 MB measured (numpy 2.4); 13.3 MB when every probability became
    # a Python float at once. The bound leaves about a third of margin.
    data = fcdm.generate_spirals(3, 20_000, [0.01, 0.015, 0.02], 1.75, 11)
    inp, dest = tmp_path / "many.csv", tmp_path / "preds.csv"
    fcdm.write_csv(data, str(inp))
    tracemalloc.start()
    try:
        code, _ = _run(["predict", "--model", str(workspace["model"]),
                        "--input", str(inp), "--out", str(dest)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert dest.stat().st_size > 5.9e6
    assert peak < 6.5e6


def test_predict_far_out_point_reads_the_boundary_pixel_quietly(tmp_path, capsys):
    # trained on [0.05, 0.3]^2, so 1e308 scales past float64's range to
    # inf: column 63, and row 12 for x2 = 0.1
    data = fcdm.Dataset(coords=[(0.05, 0.05), (0.3, 0.3), (0.05, 0.3), (0.3, 0.05)],
                        codes=[0, 1, 1, 0], labels=("A", "B"))
    model = fcdm.train(data, fcdm.TrainConfig(n_mesh=64))
    path, inp = tmp_path / "small.fcdm", tmp_path / "far.csv"
    save_model(model, str(path))
    inp.write_text("1e308,0.1\n")
    code, out = _run(["predict", "--model", str(path), "--input", str(inp)])
    assert code == 0
    assert capsys.readouterr().err == ""
    p = model.probabilities[:, 12, 63].tolist()
    assert out == f"1e+308,0.1,{model.labels[p.index(max(p))]},{p[0]!r},{p[1]!r}\n"


# ---------------------------------------------------------------- evaluate

def test_evaluate_self_macro_recall(default_workspace):
    code, out = _run([
        "evaluate", "--model", str(default_workspace["model"]),
        "--input", str(default_workspace["csv"]),
    ])
    assert code == 0
    report = json.loads(out.strip().splitlines()[-1])
    assert report["macro_recall"] >= 0.95
    assert report["n_points"] == 1200
    assert len(report["confusion"]) == 3
    assert "confusion (rows true, cols predicted):" in out
    assert "macro recall:" in out


def test_evaluate_unknown_label_is_usage_error(workspace, tmp_path):
    alien = tmp_path / "alien.csv"
    alien.write_text("0.1,0.2,c0\n0.3,0.4,zz\n")
    code, _ = _run([
        "evaluate", "--model", str(workspace["model"]), "--input", str(alien),
    ])
    assert code == 2


# ---------------------------------------------------------------- render

def test_render_probability_pgm(workspace, tmp_path):
    dest = tmp_path / "p0.pgm"
    code, _ = _run([
        "render", "--model", str(workspace["model"]), "--what", "prob",
        "--class", "0", "--out", str(dest),
    ])
    assert code == 0
    raw = dest.read_bytes()
    assert raw.startswith(b"P5\n64 64\n255\n")
    assert len(raw) == len(b"P5\n64 64\n255\n") + 64 * 64


def test_render_decision_ppm(workspace, tmp_path):
    dest = tmp_path / "dec.ppm"
    code, _ = _run([
        "render", "--model", str(workspace["model"]), "--out", str(dest),
    ])
    assert code == 0
    raw = dest.read_bytes()
    assert raw.startswith(b"P6\n64 64\n255\n")
    assert len(raw) == len(b"P6\n64 64\n255\n") + 3 * 64 * 64


def test_render_prob_requires_class(workspace, tmp_path):
    code, _ = _run([
        "render", "--model", str(workspace["model"]), "--what", "prob",
        "--out", str(tmp_path / "x.pgm"),
    ])
    assert code == 2


def test_render_class_out_of_range(workspace, tmp_path):
    code, _ = _run([
        "render", "--model", str(workspace["model"]), "--what", "prob",
        "--class", "9", "--out", str(tmp_path / "x.pgm"),
    ])
    assert code == 2


def test_render_bad_what_flag(workspace, tmp_path):
    code, _ = _run([
        "render", "--model", str(workspace["model"]), "--what", "nope",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2


# ---------------------------------------------------------- corrupted models

@pytest.mark.parametrize("corrupt", ["truncated", "bad magic"])
@pytest.mark.parametrize("command", ["predict", "evaluate", "render"])
def test_corrupted_model_is_runtime_error_naming_the_file(workspace, tmp_path, capsys,
                                                          command, corrupt):
    raw = workspace["model"].read_bytes()
    raw = raw[:100] if corrupt == "truncated" else b"XXXX" + raw[4:]
    model = tmp_path / "broken.fcdm"
    model.write_bytes(raw)
    out = tmp_path / "out"
    argv = {
        "predict": ["--input", str(workspace["csv"]), "--out", str(out)],
        "evaluate": ["--input", str(workspace["csv"])],
        "render": ["--out", str(out)],
    }[command]
    code, _ = _run([command, "--model", str(model), *argv])
    err = capsys.readouterr().err
    assert code == 1
    assert "broken.fcdm" in err and corrupt in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------- harness

def test_help_exits_zero():
    code, _ = _run(["--help"])
    assert code == 0


def test_missing_subcommand_is_usage_error():
    code, _ = _run([])
    assert code == 2
