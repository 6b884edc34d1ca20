"""Run the interleaved-spiral benchmark end to end and report recall.

Generates the synthetic spiral dataset, makes a stratified split, trains
the density-field classifier, prints the convergence traces and the
train/test confusion reports, and optionally writes heatmap images.

    python3 scripts/run_spiral_experiment.py
    python3 scripts/run_spiral_experiment.py --mesh 256 --render-dir out/
"""

import argparse
import sys
import time
from pathlib import Path

import fcdm


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--per-class", type=int, default=400)
    parser.add_argument("--noise", default="0.01,0.015,0.02")
    parser.add_argument("--turns", type=float, default=1.75)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--test-fraction", type=float, default=0.25)
    parser.add_argument("--mesh", type=int, default=512)
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--render-dir", default=None,
                        help="write probability PGMs and the decision PPM here")
    args = parser.parse_args(argv)

    sigmas = [float(s) for s in args.noise.split(",")]
    data = fcdm.generate_spirals(
        args.classes, args.per_class, sigmas, args.turns, args.seed
    )
    train_set, test_set = fcdm.split(data, args.test_fraction, args.seed)
    print(f"dataset: {len(data)} points, {len(data.labels)} classes "
          f"({len(train_set)} train / {len(test_set)} test)")

    config = fcdm.TrainConfig(n_mesh=args.mesh, epsilon=args.epsilon)
    started = time.perf_counter()
    model = fcdm.train(train_set, config)
    elapsed = time.perf_counter() - started
    for label, trace in zip(model.labels, model.traces):
        flag = "converged" if trace.converged else "capped"
        corrs = ", ".join(f"{c:.5f}" for c in trace.correlations)
        print(f"  {label}: n_k={trace.n_k} ({flag})  c(2..)={corrs}")
    print(f"n_final={model.n_final}  (trained in {elapsed:.2f}s)")

    for name, subset in (("train", train_set), ("test", test_set)):
        report = fcdm.evaluate(model, subset)
        recalls = ", ".join(
            f"{lab}={r:.4f}" for lab, r in zip(report.labels, report.per_class_recall)
        )
        print(f"{name}: macro recall {report.macro_recall:.4f} "
              f"accuracy {report.accuracy:.4f}  [{recalls}]")

    if args.render_dir is not None:
        out = Path(args.render_dir)
        out.mkdir(parents=True, exist_ok=True)
        for k, lab in enumerate(model.labels):
            (out / f"prob_{lab}.pgm").write_bytes(fcdm.probability_pgm(model, k))
        (out / "decision.ppm").write_bytes(fcdm.decision_ppm(model))
        print(f"wrote {len(model.labels)} PGMs and decision.ppm to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
