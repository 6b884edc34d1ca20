"""The benchmark workloads: set-up, and one iteration of timed operations.

Each workload generates its inputs from the seed (query sets from
seed + 1) and writes the CSVs it needs in set-up. The timed loop then
repeats an iteration as a closed loop from one process: each call waits
for the previous one. Every operation is checked against the references
in ``checks`` and counted as attempted; it fails if it raises, returns a
non-zero exit code or fails a check.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import fcdm
import fcdm.cli

import checks

now = time.perf_counter

NOISE = (0.01, 0.015, 0.02)
TURNS = 1.75
TEST_FRACTION = 0.25
MAX_ERRORS = 20
# Short operations repeat within an iteration until they have handled
# this many points, so that every iteration yields several samples of
# them while its work stays the same from run to run.
SCORE_POINTS = 20_000
CLI_POINTS = 9_000
# CLI `predict` in the library workloads reads an evenly strided subset of
# the query set of at most this many points, so that its calls stay short
# and many of them fit in a run.
CLI_CHUNK = 3_000


@dataclass(frozen=True)
class Sizes:
    per_class: int
    mesh: int
    query_per_class: int


class Samples(dict):
    """Timing and output samples by metric name."""

    def add(self, name, value):
        self.setdefault(name, []).append(value)

    def extend(self, name, values):
        self.setdefault(name, []).extend(values)


class Ops:
    """Attempted and failed operations, with the first failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, what, problem=None):
        self.record_many(what, 1, [problem] if problem else [])

    def record_many(self, what, attempted, failures):
        self.attempted += attempted
        self.failed += len(failures)
        room = MAX_ERRORS - len(self.errors)
        self.errors.extend(f"{what}: {f}" for f in failures[:max(room, 0)])


def run_cli(argv):
    """One in-process `fcdm` call: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = now()
        code = fcdm.cli.main(argv)
        seconds = now() - start
    return code, out.getvalue(), err.getvalue(), seconds


class Workload:
    name = None
    FULL = TINY = None

    def __init__(self, seed, tiny, workdir, expected):
        self.seed = seed
        self.sizes = self.TINY if tiny else self.FULL
        self.expected = expected
        self.setup_samples = Samples()
        work = Path(workdir)
        self.query_csv = str(work / "query.csv")
        self.model_path = str(work / "model.fcdm")
        self.pred_csv = str(work / "predictions.csv")
        self.query_points = None
        self.query_ref = None
        self.library_labels = None

    def _spirals(self, per_class, seed):
        return fcdm.generate_spirals(3, per_class, NOISE, TURNS, seed)

    def _write_query(self):
        fcdm.write_csv(self._spirals(self.sizes.query_per_class, self.seed + 1),
                       self.query_csv)
        self.query_xy, self.query_labels = checks.read_points(self.query_csv)
        self.query_points = [tuple(p) for p in self.query_xy.tolist()]

    def _predict_one(self, it, model, samples, ops, tracer):
        """Single-point predict over the query set, one closed-loop call each."""
        tracer.begin(f"{it}:predict-one")
        predict = fcdm.predict
        times, preds = [], []
        for point in self.query_points:
            start = now()
            try:
                pred = predict(model, point)
            except Exception as exc:  # a failed call is counted, not fatal
                pred = exc
            times.append(now() - start)
            preds.append(pred)
        samples.extend("predict_one_us", [t * 1e6 for t in times])
        ops.record_many("predict", len(preds),
                        checks.predictions_problem(preds, self.query_ref or []))
        self.library_labels = [getattr(p, "label", None) for p in preds]

    def _cli(self, ops, what, argv, samples):
        """Run one CLI call; returns (stdout, seconds), or None if it raised."""
        try:
            code, out, err, seconds = run_cli(argv)
        except Exception as exc:  # a failed call is counted, not fatal
            ops.record(what, repr(exc))
            return None
        samples.add("cli_call_s", seconds)
        if code != 0:
            ops.record(what, f"exit code {code}: {err.strip()}")
            return None
        return out, seconds


class LibraryWorkload(Workload):
    """split -> train -> evaluate -> save -> load, then predict and CLI predict."""

    # pipelines an iteration; more where train is short, so that it gets
    # a few dozen samples in a run
    PIPELINES = 1

    def __init__(self, *args):
        super().__init__(*args)
        self.test_csv = str(Path(self.query_csv).with_name("test.csv"))
        self.cli_csv = str(Path(self.query_csv).with_name("cli.csv"))
        self.cli_step = 1
        self.test_points = None
        self.first_model = None

    def setup(self):
        self.data = self._spirals(self.sizes.per_class, self.seed)
        self._write_query()
        with open(self.query_csv, encoding="utf-8") as fh:
            lines = fh.readlines()
        self.cli_step = math.ceil(len(lines) / CLI_CHUNK)
        with open(self.cli_csv, "w", encoding="utf-8") as fh:
            fh.writelines(lines[::self.cli_step])

    def iteration(self, it, samples, ops, tracer):
        tracer.begin(f"{it}:pipeline")
        for _ in range(self.PIPELINES):
            done = self._pipeline(samples, ops, tracer)
            if done is None:
                return
        loaded, test_set, report = done

        tracer.begin(f"{it}:score")
        for _ in range(math.ceil(SCORE_POINTS / len(test_set))):
            start = now()
            try:
                again = fcdm.evaluate(loaded, test_set)
            except Exception as exc:  # a failed call is counted, not fatal
                ops.record("evaluate", repr(exc))
                break
            samples.add("score_points_per_s", len(test_set) / (now() - start))
            ops.record("evaluate", None if again.macro_recall == report.macro_recall
                       else "evaluate is not repeatable")

        self._predict_one(it, loaded, samples, ops, tracer)

        tracer.begin(f"{it}:cli-predict")
        cli_labels = self.library_labels[::self.cli_step]
        for _ in range(math.ceil(CLI_POINTS / len(cli_labels))):
            done = self._cli(ops, "cli predict", [
                "predict", "--model", self.model_path, "--input", self.cli_csv,
                "--out", self.pred_csv], samples)
            if done is None:
                break
            ops.record("cli predict", checks.labels_problem(self.pred_csv, cli_labels))

    def _pipeline(self, samples, ops, tracer):
        """One checked pipeline; (loaded model, test set, report), or None if it raised."""
        try:
            t0 = now()
            train_set, test_set = fcdm.split(self.data, TEST_FRACTION, self.seed)
            t1 = now()
            model = fcdm.train(train_set, fcdm.TrainConfig(n_mesh=self.sizes.mesh))
            t2 = now()
            report = fcdm.evaluate(model, test_set)
            t3 = now()
            fcdm.save_model(model, self.model_path)
            loaded = fcdm.load_model(self.model_path)
            t4 = now()
        except Exception as exc:  # a failed pipeline is counted, not fatal
            ops.record("pipeline", repr(exc))
            return None
        samples.add("pipeline_s", t4 - t0)
        samples.add("train_s", t2 - t1)
        samples.add("score_points_per_s", len(test_set) / (t3 - t2))
        samples.add("test_macro_recall", report.macro_recall)
        with tracer.paused():
            ops.record("pipeline", self._check_pipeline(model, report, test_set, loaded))
        return loaded, test_set, report

    def _check_pipeline(self, model, report, test_set, loaded):
        with open(self.model_path, "rb") as fh:
            raw = fh.read()
        if raw != self.first_model:
            if self.first_model is not None:
                return "the model file differs from the first iteration's"
            problem = self._check_model(raw, report, test_set)
            if problem:
                return problem
            # a later model with the same bytes has the same references
            self.first_model = raw
        problem = self.expected.problem({
            "n_k": [model.class_iterations[lab] for lab in model.labels],
            "test_macro_recall": report.macro_recall,
        })
        if problem:
            return problem
        if fcdm.model_to_bytes(loaded) != raw:
            return "save -> load -> save is not byte-exact"
        return None

    def _check_model(self, raw, report, test_set):
        """Check a model file against references computed from its bytes."""
        try:
            ref = checks.parse_model(raw)
        except ValueError as exc:
            self.query_ref = None
            return str(exc)
        self.query_ref = checks.predict_labels(ref, self.query_xy)
        problem = checks.probability_problem(ref)
        if problem:
            return problem
        if self.test_points is None:
            # the split is deterministic in the seed, so one copy serves all
            fcdm.write_csv(test_set, self.test_csv)
            self.test_points = checks.read_points(self.test_csv)
        _, recall = checks.confusion_and_recall(ref, *self.test_points)
        if abs(recall - report.macro_recall) > checks.RECALL_TOL:
            return f"evaluate recall {report.macro_recall!r}, reference {recall!r}"
        return None


class SpiralFine(LibraryWorkload):
    name = "spiral-fine"
    FULL = Sizes(per_class=400, mesh=1024, query_per_class=1000)
    TINY = Sizes(per_class=100, mesh=64, query_per_class=50)


class SpiralDense(LibraryWorkload):
    name = "spiral-dense"
    PIPELINES = 3
    FULL = Sizes(per_class=20000, mesh=256, query_per_class=20000)
    TINY = Sizes(per_class=200, mesh=64, query_per_class=100)


class CliScore(Workload):
    """A model trained once by `fcdm train` in set-up, scored through the CLI."""

    name = "cli-score"
    FULL = Sizes(per_class=400, mesh=1024, query_per_class=1000)
    TINY = Sizes(per_class=100, mesh=64, query_per_class=50)

    def __init__(self, *args):
        super().__init__(*args)
        self.train_csv = str(Path(self.query_csv).with_name("train.csv"))
        self.image_path = str(Path(self.query_csv).with_name("decision.ppm"))

    def setup(self):
        data = self._spirals(self.sizes.per_class, self.seed)
        train_set, _ = fcdm.split(data, TEST_FRACTION, self.seed)
        fcdm.write_csv(train_set, self.train_csv)
        self._write_query()
        # a separate, cold process as a user runs it, so the peak memory
        # of this one measures scoring only
        src = str(Path(fcdm.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        start = now()
        proc = subprocess.run(
            [sys.executable, "-m", "fcdm.cli", "train", "--input", self.train_csv,
             "--out", self.model_path, "--mesh", str(self.sizes.mesh)],
            env=env, capture_output=True, text=True, timeout=600)
        self.setup_samples.add("train_s", now() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"fcdm train exited {proc.returncode}: {proc.stderr.strip()}")
        with open(self.model_path, "rb") as fh:
            self.ref = checks.parse_model(fh.read())
        self.query_ref = checks.predict_labels(self.ref, self.query_xy)
        self.ref_confusion, self.ref_recall = checks.confusion_and_recall(
            self.ref, self.query_xy, self.query_labels)
        self.ref_image = checks.decision_image(self.ref)
        self.model = fcdm.load_model(self.model_path)

    def iteration(self, it, samples, ops, tracer):
        self._predict_one(it, self.model, samples, ops, tracer)
        round_s = 0.0
        n_points = len(self.query_points)

        tracer.begin(f"{it}:cli-predict")
        done = self._cli(ops, "cli predict", [
            "predict", "--model", self.model_path, "--input", self.query_csv,
            "--out", self.pred_csv], samples)
        if done is not None:
            round_s += done[1]
            samples.add("score_points_per_s", n_points / done[1])
            ops.record("cli predict",
                       checks.labels_problem(self.pred_csv, self.library_labels))

        tracer.begin(f"{it}:cli-evaluate")
        scored = self._cli(ops, "cli evaluate", [
            "evaluate", "--model", self.model_path, "--input", self.query_csv], samples)
        if scored is not None:
            round_s += scored[1]
            ops.record("cli evaluate", self._check_evaluate(scored[0], samples))

        tracer.begin(f"{it}:cli-render")
        drawn = self._cli(ops, "cli render", [
            "render", "--model", self.model_path, "--what", "decision",
            "--out", self.image_path], samples)
        if drawn is not None:
            round_s += drawn[1]
            with open(self.image_path, "rb") as fh:
                image = fh.read()
            ops.record("cli render", None if image == self.ref_image
                       else "decision image differs from the reference")

        if done is not None and scored is not None and drawn is not None:
            samples.add("pipeline_s", round_s)

    def _check_evaluate(self, stdout, samples):
        try:
            report = checks.evaluate_output(stdout)
            recall = float(report["macro_recall"])
            confusion = report["confusion"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable evaluate report: {exc!r}"
        samples.add("test_macro_recall", recall)
        problem = self.expected.problem(
            {"n_final": self.ref.n_final, "test_macro_recall": recall})
        if problem:
            return problem
        if confusion != self.ref_confusion.tolist():
            return "confusion matrix differs from the reference"
        if abs(recall - self.ref_recall) > checks.RECALL_TOL:
            return f"macro recall {recall!r}, reference {self.ref_recall!r}"
        return None


WORKLOADS = {cls.name: cls for cls in (SpiralFine, SpiralDense, CliScore)}
