"""Smoke test of the benchmark at tiny sizes: result schema and metric names.

    python3 -m pytest bench/test_smoke.py

It sets no timing bound; timings on a small shared host are too noisy
for one.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = bench(BENCH.parent, "--workload", workload, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace and workload == "cli-score":
        assert result["metrics"]["spectral.smooth_calls"]["value"] == 0


def test_all_runs_every_workload():
    proc = bench(BENCH.parent, "--workload", "all", "--seed", "5",
                 "--seconds", "1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert list(results) == WORKLOAD_NAMES
    declared = {m["name"] for m in SPEC["end_to_end"]}
    for result in results.values():
        assert result["correct"] is True
        assert set(result["metrics"]) == declared


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "spiral-fine", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metrics_of_a_removed_function_read_as_absent(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(run.SRC))
    import fcdm.render
    from checks import Expected
    from tracing import Tracer
    from workloads import Ops, Samples, SpiralFine

    monkeypatch.delattr(fcdm.render, "decision_ppm")
    workload = SpiralFine(5, True, tmp_path, Expected(None, 0.5))
    workload.setup()
    tracer = Tracer()
    ops = Ops()
    with tracer.active():
        workload.iteration(1, Samples(), ops, tracer)
    row = tracer.collect()
    assert ops.failed == 0
    assert "render.decision_ppm_s" not in row
    assert row["spectral.smooth_calls"] > 0
    assert row["trainer.useful_smooth_frac"] == 3 / row["spectral.smooth_calls"]
