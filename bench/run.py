"""fcdm benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload spiral-fine --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30 --trace 0

Run it from the root of a checkout; it imports fcdm from the checkout's
``src/`` and exits with code 2 when that is missing. Set-up (input
generation, CSV writing and, for cli-score, a cold `fcdm train`) runs
and is timed, one untimed warm-up iteration follows, and then the
workload's iteration repeats until the iterations have taken
``--seconds``. Set-up runs again, timed, between iterations.

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. The line
before it, also written to ``.bench_work/results/``, holds the detail:
every timing's best sample, median, tail percentile and sample count,
the cold first train, the environment and any failures. A traced run alternates
untraced and traced iterations, so that it also reports the tracing
overhead, and writes its spans next to the detail. ``--tiny`` shrinks
every workload (mesh 64, a few hundred points) for the smoke test.

``--workload all`` runs each workload in a process of its own, one after
another, prints every metric with its unit, and ends with one JSON line
of each workload's result.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Threads for BLAS and OpenMP: one, well under nproc, so that timings do
# not depend on what else the machine runs.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOAD_NAMES = ("spiral-fine", "spiral-dense", "cli-score")
HIGHER_IS_BETTER = {"score_points_per_s", "test_macro_recall", "ops_ok_frac"}
OVERHEAD = ("train_s", "cli_call_s", "score_points_per_s")

# Set-up runs once before the loop and then between iterations: at least
# MIN_SETUPS times in all, spread evenly over the loop, and more while
# set-up has taken less than SETUP_SHARE of the loop's time. Its samples
# then meet the host's fast and slow spells like the others do; on
# cli-score they are the cold trains of train_s.
MIN_SETUPS = 5
SETUP_SHARE = 0.1

# sanity floor on test macro recall for seeds nothing was recorded for
RECALL_FLOOR = {"full": 0.9, "tiny": 0.5}


def bootstrap():
    """Cap threads and put the checkout's fcdm first on the import path.

    The caps only take effect if numpy is not imported yet, so the
    benchmark's own modules, which import it, are imported after this.
    """
    if not (SRC / "fcdm" / "__init__.py").is_file():
        return False
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    sys.path.insert(0, str(SRC))
    return True


def headline(values, higher_is_better=False):
    """The best sample: the shortest time, or the highest rate.

    On a shared 2-core host the program runs at one of two speeds about
    1.5x apart, and the share of a run spent at the slower one changes
    from run to run. Work on the host only ever adds time, so the best
    sample tracks the program's own cost; any quantile of the samples,
    the median or a quartile, follows the share instead.
    """
    return max(values) if higher_is_better else min(values)


def summarize(values, higher_is_better=False):
    """Best sample, median, the highest percentile with at least 10
    samples beyond it (on the bad side: high for times, low for rates) and
    the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"value": headline(ordered, higher_is_better),
           "median": statistics.median(ordered), "n": n}
    for pct in (99.99, 99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            rank = max(math.ceil(pct / 100.0 * n) - 1, 0)
            if higher_is_better:
                out[f"p{100.0 - pct:g}"] = ordered[n - 1 - rank]
            else:
                out[f"p{pct:g}"] = ordered[rank]
            break
    return out


def metric_units():
    """Unit of every metric, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def src_line_count():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def environment(args):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_thread_cap": THREAD_CAP,
        "workload_seed": args.seed,
        "query_seed": args.seed + 1,
        "src_lines": src_line_count(),
        "tiny": args.tiny,
    }


def load_expected(workload, seed, tiny):
    from checks import Expected

    recorded = None
    if not tiny:
        with open(Path(__file__).with_name("expected.json"), encoding="utf-8") as fh:
            recorded = json.load(fh).get(workload, {}).get(str(seed))
    return Expected(recorded, RECALL_FLOOR["tiny" if tiny else "full"])


def measure(args, workdir):
    from tracing import Tracer
    from workloads import Ops, Samples, WORKLOADS

    expected = load_expected(args.workload, args.seed, args.tiny)
    workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir, expected)
    tracer = Tracer()
    setup_times = []

    def set_up():
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    set_up()
    ops = Ops()
    warm = Samples()
    workload.iteration(0, warm, ops, tracer)  # cold: caches fill, lazy set-up runs
    cold = warm.get("train_s", workload.setup_samples.get("train_s", [None]))[0]

    plain, traced, layer_rows = Samples(), Samples(), []
    elapsed = 0.0  # time spent in iterations; set-ups between them do not count
    it = 1
    while True:
        start = time.perf_counter()
        if args.trace and it % 2 == 0:
            with tracer.active():
                workload.iteration(it, traced, ops, tracer)
            layer_rows.append(tracer.collect())
        else:
            workload.iteration(it, plain, ops, tracer)
        it += 1
        elapsed += time.perf_counter() - start
        if elapsed >= args.seconds and (layer_rows or not args.trace):
            break
        while (len(setup_times) < MIN_SETUPS * elapsed / args.seconds
               or sum(setup_times) < SETUP_SHARE * elapsed):
            set_up()
    while len(setup_times) < MIN_SETUPS:
        set_up()

    for samples in (plain, traced):
        for name, values in workload.setup_samples.items():
            samples.setdefault(name, list(values))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_times": setup_times, "ops": ops, "plain": plain, "traced": traced,
        "layer_rows": layer_rows, "tracer": tracer, "train_cold_s": cold,
        "peak_rss_mb": peak_rss_mb, "checked_against": (
            "recorded" if expected.recorded else "first iteration"),
    }


def end_to_end(m):
    ops = m["ops"]
    timings = {"setup_s": summarize(m["setup_times"])}
    # set-up is reported as its median, so that work moved into it shows
    timings["setup_s"]["value"] = timings["setup_s"]["median"]
    for name, samples in m["plain"].items():
        timings[name] = summarize(samples, name in HIGHER_IS_BETTER)
    values = {name: t["value"] for name, t in timings.items()}
    values["peak_rss_mb"] = m["peak_rss_mb"]
    values["ops_ok_frac"] = 1.0 - ops.failed / max(ops.attempted, 1)
    return values, timings


def per_layer(m):
    rows = m["layer_rows"]
    values = {}
    for name in dict.fromkeys(k for row in rows for k in row):
        values[name] = headline([row[name] for row in rows if name in row])
    for name in OVERHEAD:
        plain, traced = m["plain"].get(name), m["traced"].get(name)
        better = name in HIGHER_IS_BETTER
        values[f"trace.overhead_{name}"] = (
            headline(traced, better) - headline(plain, better) if plain and traced else 0.0)
    return values


def run_all(args):
    """Every workload in turn, each in its own process so that its peak
    memory is its own; stops at the first run that fails."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + (["--tiny"] if args.tiny else []),
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:13} {metric:34} {m['value']:<14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="mesh 64 and a few hundred points (smoke test)")
    args = parser.parse_args(argv)
    if not bootstrap():
        print(f"error: no fcdm sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        m = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values, timings = end_to_end(m)
    ops = m["ops"]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args),
        "checked_against": m["checked_against"], "errors": ops.errors,
        "train_cold_s": m["train_cold_s"], "timings": timings,
    }
    if args.trace:
        values = per_layer(m)
        detail["traced_timings"] = {
            name: summarize(s, name in HIGHER_IS_BETTER) for name, s in m["traced"].items()}
    units = metric_units()
    result = {
        "correct": ops.failed == 0 and ops.attempted > 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    detail["result"] = result

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(
            json.dumps(m["tracer"].dump()), encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
