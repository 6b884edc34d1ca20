"""Command line front end: generate, train, predict, evaluate, render."""

import argparse
import functools
import json
import sys

from . import dataset as ds
from .inference import evaluate, predict_batch
from .model_io import load_model, save_model
from .render import decision_ppm, probability_pgm
from .trainer import TrainConfig, train


class UsageError(Exception):
    """Bad flag values; maps to exit code 2 like argparse's own errors."""


@functools.cache  # one parser per process: each parse_args fills a fresh namespace
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fcdm",
        description="Multiclass classification from Fourier-smoothed class density fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic spiral benchmark CSV")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--per-class", type=int, default=400)
    p.add_argument("--noise", default="0.01,0.015,0.02",
                   help="comma-separated per-class sigma list")
    p.add_argument("--turns", type=float, default=1.75)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="fit a model from a labeled CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--mesh", type=int, default=512)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--header", action="store_true",
                   help="skip the first CSV line")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="classify points from a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True,
                   help="CSV of x1,x2 rows (a third column is ignored)")
    p.add_argument("--out", default="-", help="output CSV, '-' for stdout")
    p.add_argument("--header", action="store_true")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a labeled CSV against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--header", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("render", help="write a heatmap image from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--what", choices=("prob", "decision"), default="decision")
    p.add_argument("--class", dest="class_index", type=int, default=None,
                   help="class index for --what prob")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    return parser


def _cmd_generate(args):
    try:
        sigmas = [float(part) for part in args.noise.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse --noise {args.noise!r}") from None
    try:
        data = ds.generate_spirals(
            args.classes, args.per_class, sigmas, args.turns, args.seed
        )
    except ValueError as exc:  # the argument rules live in generate_spirals
        raise UsageError(str(exc)) from None
    ds.write_csv(data, args.out)
    print(f"wrote {args.out}: {len(data)} points, {len(data.labels)} classes")
    return 0


def _cmd_train(args):
    try:
        config = TrainConfig(n_mesh=args.mesh, epsilon=args.epsilon)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    data = ds.load_csv(args.input, has_header=args.header)
    model = train(data, config)
    for label, trace in zip(model.labels, model.traces):
        status = "converged" if trace.converged else f"capped at n_max={config.n_max}"
        print(f"class {label}: n_k={trace.n_k} ({status})")
        corr = ", ".join(f"c({n})={c:.6f}" for n, c in enumerate(trace.correlations, 2))
        print(f"  {corr}")
        if trace.second_derivatives:
            d2 = ", ".join(f"d2({n})={d:.3e}"
                           for n, d in enumerate(trace.second_derivatives, 3))
            print(f"  {d2}")
    print(f"n_final={model.n_final}")
    save_model(model, args.out)
    n = model.grid.n_mesh
    print(f"wrote {args.out}: {len(model.labels)} classes, {n}x{n} mesh")
    return 0


def _cmd_predict(args):
    model = load_model(args.model)
    xy = ds.read_points(args.input, args.header)  # all read before any output is opened
    codes, probs = predict_batch(model, xy)  # infinite points read the boundary pixel
    if args.out == "-":
        ds._write_rows(sys.stdout, xy, model.labels, codes, probs)
    else:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            ds._write_rows(fh, xy, model.labels, codes, probs)
        print(f"wrote {args.out}: {len(codes)} predictions")
    return 0


def _cmd_evaluate(args):
    model = load_model(args.model)
    data = ds.load_csv(args.input, has_header=args.header)
    try:
        report = evaluate(model, data)
    except ValueError as exc:  # the vocabulary rule lives in evaluate
        raise UsageError(str(exc)) from None
    width = max(6, max(len(lab) for lab in report.labels) + 1)
    header = " " * width + "".join(f"{lab:>{width}}" for lab in report.labels)
    print("confusion (rows true, cols predicted):")
    print(header)
    for t, lab in enumerate(report.labels):
        cells = "".join(f"{int(c):>{width}}" for c in report.confusion[t])
        print(f"{lab:>{width}}{cells}")
    for lab, r in zip(report.labels, report.per_class_recall):
        print(f"recall {lab}: {r:.4f}")
    print(f"macro recall: {report.macro_recall:.4f}")
    print(f"accuracy: {report.accuracy:.4f}")
    print(f"points: {report.n_points}")
    print(json.dumps(report.to_dict(), separators=(",", ":")))
    return 0


def _cmd_render(args):
    model = load_model(args.model)
    if args.what == "prob":
        if args.class_index is None:
            raise UsageError("--what prob requires --class")
        try:
            payload = probability_pgm(model, args.class_index)
        except ValueError as exc:  # the class index rule lives in probability_pgm
            raise UsageError(str(exc)) from None
    else:
        payload = decision_ppm(model)
    with open(args.out, "wb") as fh:
        fh.write(payload)
    print(f"wrote {args.out}: {len(payload)} bytes")
    return 0


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
