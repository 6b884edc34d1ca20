"""In-memory spans around the public calls of each fcdm module.

While a traced iteration runs, every attribute of an ``fcdm`` module
that is one of the wrapped functions (re-exports made by ``from .x
import y`` included) is swapped for a timing wrapper, and restored
afterwards. Nothing inside the package changes. A function that a later
version of fcdm no longer has is skipped, so the metrics derived from it
read as absent instead of failing the run.

A span records its name, start, end, the span that caused it and the
operation it belongs to. Each span's self time is its duration minus the
time its wrapped children took; a layer's self time sums the self times
of the layer's spans. Layers are named after the modules.
"""

import importlib
import operator
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

# The public calls each layer is timed at.
WRAPPED = (
    ("dataset", "split"),
    ("dataset", "fit_scaler"),
    ("dataset", "normalize_dataset"),
    ("dataset", "load_csv"),
    ("grid", "rasterize_signed"),
    ("spectral", "smooth_density"),
    ("trainer", "train"),
    ("trainer", "find_optimal_iteration"),
    ("trainer", "pearson_correlation"),
    ("trainer", "build_probabilities"),
    ("inference", "predict"),
    ("inference", "evaluate"),
    ("model_io", "save_model"),
    ("model_io", "load_model"),
    ("model_io", "model_to_bytes"),
    ("model_io", "model_from_bytes"),
    ("render", "decision_ppm"),
    ("render", "probability_pgm"),
    ("cli", "main"),
)

# predict runs once per point scored, over 1e5 times an iteration on
# spiral-dense: its spans are aggregated only, never stored one by one,
# or storing them would swamp what they measure.
HOT = frozenset({"inference.predict"})


def _collisions(data, target, grid):
    """Pixels holding both a target-class point and another point.

    Computed from the rasterizer's input with the documented pixel rule
    (floor of x * n_mesh / L, clamped to the mesh), not measured.
    """
    xy = np.asarray(data.xy(), dtype=np.float64)
    codes = np.asarray(data.label_indices())
    n = grid.n_mesh
    scale = n / grid.domain_width
    j = np.clip(np.floor(xy[:, 0] * scale), 0, n - 1).astype(np.intp)
    i = np.clip(np.floor(xy[:, 1] * scale), 0, n - 1).astype(np.intp)
    pixel = i * n + j
    is_target = codes == list(data.labels).index(target)
    return int(np.intersect1d(pixel[is_target], pixel[~is_target]).size)


def _probe_points(args, kwargs, result):
    return {"dataset.points": len(result)}


def _probe_raster(args, kwargs, result):
    return {
        "grid.occupied_pixels": int(np.count_nonzero(result.values)),
        "grid.collision_pixels": _collisions(*args[:3]),
    }


def _probe_smooth(args, kwargs, result):
    # computed: real input and output (8 B/pixel each) plus the forward and
    # inverse complex spectra (16 B/pixel each) of one smoothing
    n = args[0].grid.n_mesh
    return {"spectral.bytes_computed": 48 * n * n}


def _probe_train(args, kwargs, result):
    traces = result.traces
    return {
        "trainer.n_final": int(result.n_final),
        "trainer.capped_classes": sum(not t.converged for t in traces),
        # steps n = 1, 2, ... whose field entered the correlation curve
        "trainer.search_steps": sum(len(t.correlations) + 1 for t in traces),
        "trainer.classes": len(result.labels),
    }


def _probe_saved(args, kwargs, result):
    return {"model_io.model_bytes": os.path.getsize(args[1])}


def _probe_loaded(args, kwargs, result):
    return {"model_io.model_bytes": os.path.getsize(args[0])}


def _probe_image(args, kwargs, result):
    return {"render.image_bytes": len(result)}


# Counts read from the arguments and results of a call, after the
# iteration ends, so they add nothing to the traced timings.
PROBES = {
    "dataset.normalize_dataset": (_probe_points, ("dataset.points",)),
    "dataset.load_csv": (_probe_points, ("dataset.points",)),
    "grid.rasterize_signed": (
        _probe_raster, ("grid.occupied_pixels", "grid.collision_pixels")),
    "spectral.smooth_density": (_probe_smooth, ("spectral.bytes_computed",)),
    "trainer.train": (_probe_train, (
        "trainer.n_final", "trainer.capped_classes", "trainer.search_steps",
        "trainer.classes")),
    "model_io.save_model": (_probe_saved, ("model_io.model_bytes",)),
    "model_io.load_model": (_probe_loaded, ("model_io.model_bytes",)),
    "render.decision_ppm": (_probe_image, ("render.image_bytes",)),
    "render.probability_pgm": (_probe_image, ("render.image_bytes",)),
}
_REDUCE = {"trainer.n_final": max, "model_io.model_bytes": max}
_PROBE_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError, OSError)

# Per-layer metrics of one iteration:
#   ("time", span[, parent])  inclusive seconds, optionally only under parent
#   ("calls", span)           number of spans
#   ("count", counter)        a counter filled in by PROBES
#   ("self", layer)           summed self time of the layer's spans
#   ("ratio", counter, span)  counter per span, 0 when the span never ran
LAYER_METRICS = {
    "dataset.split_s": ("time", "dataset.split"),
    "dataset.fit_scaler_s": ("time", "dataset.fit_scaler"),
    "dataset.normalize_s": ("time", "dataset.normalize_dataset"),
    "dataset.load_csv_s": ("time", "dataset.load_csv"),
    "dataset.points": ("count", "dataset.points"),
    "dataset.self_s": ("self", "dataset"),
    "grid.rasterize_s": ("time", "grid.rasterize_signed"),
    "grid.occupied_pixels": ("count", "grid.occupied_pixels"),
    "grid.collision_pixels": ("count", "grid.collision_pixels"),
    "grid.self_s": ("self", "grid"),
    "spectral.smooth_calls": ("calls", "spectral.smooth_density"),
    "spectral.smooth_s": ("time", "spectral.smooth_density"),
    "spectral.bytes_computed": ("count", "spectral.bytes_computed"),
    "spectral.self_s": ("self", "spectral"),
    "trainer.search_s": ("time", "trainer.find_optimal_iteration"),
    "trainer.search_steps": ("count", "trainer.search_steps"),
    "trainer.pearson_calls": ("calls", "trainer.pearson_correlation"),
    "trainer.pearson_s": ("time", "trainer.pearson_correlation"),
    "trainer.final_smooth_s": ("time", "spectral.smooth_density", "trainer.train"),
    "trainer.build_probabilities_s": ("time", "trainer.build_probabilities"),
    "trainer.n_final": ("count", "trainer.n_final"),
    "trainer.capped_classes": ("count", "trainer.capped_classes"),
    "trainer.useful_smooth_frac": ("ratio", "trainer.classes", "spectral.smooth_density"),
    "trainer.self_s": ("self", "trainer"),
    "inference.predict_calls": ("calls", "inference.predict"),
    "inference.predict_s": ("time", "inference.predict"),
    "inference.evaluate_s": ("time", "inference.evaluate"),
    "inference.self_s": ("self", "inference"),
    "model_io.serialize_s": ("time", "model_io.save_model"),
    "model_io.deserialize_s": ("time", "model_io.load_model"),
    "model_io.model_bytes": ("count", "model_io.model_bytes"),
    "model_io.self_s": ("self", "model_io"),
    "render.decision_ppm_s": ("time", "render.decision_ppm"),
    "render.image_bytes": ("count", "render.image_bytes"),
    "render.self_s": ("self", "render"),
    "cli.predict_s": ("time", "cli.predict"),
    "cli.evaluate_s": ("time", "cli.evaluate"),
    "cli.render_s": ("time", "cli.render"),
    "cli.self_s": ("self", "cli"),
}


def _span_source(span):
    """The wrapped function a span name comes from (cli spans name the command)."""
    return "cli.main" if span.startswith("cli.") else span


def _cli_span_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


class Tracer:
    """Spans kept in memory, collected per iteration and written at the end."""

    def __init__(self):
        self.enabled = False
        self.op = None
        self.available = set()
        self.stack = []      # open spans: [name, child seconds, record index]
        self.stats = {}      # (name, parent name) -> [calls, inclusive s, self s]
        self.pending = []    # (key, args, kwargs, result) awaiting PROBES
        self.records = []    # (name, start, end, parent record, op) of non-HOT spans
        self.iterations = []  # per traced iteration: (op prefix, stats)
        self._wrappers = None
        self._patched = []

    def begin(self, op):
        """Name the operation the following spans belong to."""
        self.op = op

    @contextmanager
    def active(self):
        """Trace the calls made inside the block."""
        self._install()
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self._uninstall()

    @contextmanager
    def paused(self):
        """Leave the calls made inside the block (output checks) untraced."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _build_wrappers(self):
        wrappers = {}
        for module_name, function_name in WRAPPED:
            try:
                module = importlib.import_module(f"fcdm.{module_name}")
            except ImportError:
                continue
            fn = getattr(module, function_name, None)
            if callable(fn):
                key = f"{module_name}.{function_name}"
                self.available.add(key)
                wrappers[id(fn)] = (fn, self._wrap(key, fn))
        return wrappers

    def _install(self):
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        for name, module in list(sys.modules.items()):
            if name != "fcdm" and not name.startswith("fcdm."):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def _uninstall(self):
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched = []

    def _wrap(self, key, fn):
        hot = key in HOT
        name_of = _cli_span_name if key == "cli.main" else None
        probe = key in PROBES
        tracer = self
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            name = key if name_of is None else name_of(args, kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0, None]
            if not hot:
                frame[2] = len(tracer.records)
                tracer.records.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                slot = (name, parent[0] if parent is not None else None)
                entry = tracer.stats.get(slot)
                if entry is None:
                    entry = tracer.stats[slot] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if not hot:
                    tracer.records[frame[2]] = (
                        name, start, end,
                        parent[2] if parent is not None else None, tracer.op)
            if probe:
                tracer.pending.append((key, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _counters(self):
        counters, broken = {}, set()
        for key, (_, names) in PROBES.items():
            if key in self.available:
                for name in names:
                    counters.setdefault(name, 0)
        for key, args, kwargs, result in self.pending:
            probe, names = PROBES[key]
            try:
                found = probe(args, kwargs, result)
            except _PROBE_ERRORS:
                broken.update(names)
                continue
            for name, value in found.items():
                counters[name] = _REDUCE.get(name, operator.add)(counters[name], value)
        for name in broken:
            counters.pop(name, None)
        return counters

    def collect(self):
        """Per-layer metrics of the iteration traced since the last collect."""
        counters = self._counters()
        stats = self.stats

        def total(span, column, parent=None):
            return sum(v[column] for (name, up), v in stats.items()
                       if name == span and (parent is None or up == parent))

        row = {}
        for metric, spec in LAYER_METRICS.items():
            kind = spec[0]
            if kind == "self":
                if any(key.startswith(spec[1] + ".") for key in self.available):
                    row[metric] = sum(v[2] for (name, _), v in stats.items()
                                      if name.split(".", 1)[0] == spec[1])
            elif kind == "count":
                if spec[1] in counters:
                    row[metric] = counters[spec[1]]
            elif kind == "ratio":
                if spec[1] in counters and _span_source(spec[2]) in self.available:
                    calls = total(spec[2], 0)
                    row[metric] = counters[spec[1]] / calls if calls else 0.0
            elif _span_source(spec[1]) in self.available:
                column = 0 if kind == "calls" else 1
                row[metric] = total(spec[1], column, spec[2] if len(spec) > 2 else None)
        self.iterations.append((self.op.split(":", 1)[0] if self.op else None, stats))
        self.stats = {}
        self.pending = []
        return row

    def dump(self):
        """Every recorded span and per-iteration aggregate, as JSON-ready data."""
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": [r for r in self.records if r is not None],
            "aggregates": [
                {"iteration": it, "spans": [
                    {"name": name, "parent": parent, "calls": v[0],
                     "inclusive_s": v[1], "self_s": v[2]}
                    for (name, parent), v in sorted(stats.items(), key=str)]}
                for it, stats in self.iterations
            ],
        }
