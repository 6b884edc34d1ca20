"""Record each workload's outputs for a range of seeds into expected.json.

    python3 bench/record_expected.py --seeds 0-99

Runs the set-up and one iteration of every workload per seed, at full
size, and stores what the checks compare against on later runs: per-class
n_k and test macro recall for the library workloads, n_final and the
CLI's macro recall for cli-score. Run it only when a change to fcdm is
meant to change those outputs, and say so where the change is recorded.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

import run


def parse_seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range, e.g. 0-99")
    args = parser.parse_args(argv)
    if not run.bootstrap():
        print(f"error: no fcdm sources at {run.SRC}", file=sys.stderr)
        return 2
    from checks import Expected
    from tracing import Tracer
    from workloads import Ops, Samples, WORKLOADS

    path = Path(__file__).with_name("expected.json")
    recorded = json.loads(path.read_text(encoding="utf-8"))
    for name, cls in WORKLOADS.items():
        table = recorded.setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            workdir = run.WORK / f"record-{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                expected = Expected(None, 0.0)
                workload = cls(seed, False, workdir, expected)
                workload.setup()
                ops = Ops()
                workload.iteration(0, Samples(), ops, Tracer())
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if ops.failed:
                print(f"{name} seed {seed}: not recorded: {ops.errors[:3]}", file=sys.stderr)
                continue
            table[str(seed)] = expected.values
            print(f"{name} seed {seed}: {expected.values}", flush=True)
        recorded[name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    lines = ["{"]
    for i, (name, table) in enumerate(recorded.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        rows = [f"    {json.dumps(seed)}: {json.dumps(v)}" for seed, v in table.items()]
        lines.append(",\n".join(rows))
        lines.append("  }" + ("," if i < len(recorded) - 1 else ""))
    lines.append("}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
