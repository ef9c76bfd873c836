"""Span tracer for the traced benchmark run.

The wrappers sit on module and class attributes of the package, from
the benchmark's side: nothing inside `src/` is instrumented.  Where a
module imports a function by name (`spline` imports `interpolate`,
`ideal` imports `divide_by_axis`, `grid` and `interpolant` import
`enumerate_box`), the wrapper is installed on that name as well, under
the same metric name.  Call sites that import inside a function body
(the CLI subcommands) resolve the module attribute at call time, so the
module-level wrapper covers them.

Each span records (id, name, start, end, parent id) in memory; the list
is written out once, when the run ends.  Self time of a span is its
duration minus the durations of its direct children (one thread, so
children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (module, attribute path, metric prefix): one span per call
SPANS = [
    ("harness", "derive_data", "harness.derive_data"),
    ("grid", "HermiteData.sub_data", "grid.sub_data"),
    ("grid", "HermiteData.validate", "grid.validate"),
    ("grid", "load_hgrid", "grid.load_hgrid"),
    ("grid", "dump_hgrid", "grid.dump_hgrid"),
    ("polyring", "MultiPoly.__mul__", "polyring.multipoly_mul"),
    ("polyring", "MultiPoly.differentiate", "polyring.differentiate"),
    ("polyring", "divide_by_axis", "polyring.divide_by_axis"),
    ("ideal", "divide_by_axis", "polyring.divide_by_axis"),
    ("ideal", "cascaded_divide", "ideal.cascaded_divide"),
    ("interpolant", "interpolate", "interpolant.interpolate"),
    ("spline", "interpolate", "interpolant.interpolate"),
    ("interpolant", "axis_lambda", "interpolant.axis_lambda"),
    ("interpolant", "condition_tensor", "interpolant.condition_tensor"),
    ("interpolant", "spitzbart_interpolate", "interpolant.spitzbart_interpolate"),
    ("interpolant", "vandermonde_interpolate",
     "interpolant.vandermonde_interpolate"),
    ("interpolant", "HermiteInterpolant.__call__", "interpolant.call"),
    ("interpolant", "HermiteInterpolant.eval_many", "interpolant.eval_many"),
    ("interpolant", "HermiteInterpolant.eval_lattice",
     "interpolant.eval_lattice"),
    ("interpolant", "HermiteInterpolant.derivative", "interpolant.derivative"),
    ("interpolant", "HermiteInterpolant.expanded", "interpolant.expanded"),
    ("spline", "SplineInterpolant.select_window", "spline.select_window"),
    ("spline", "SplineInterpolant.local", "spline.local"),
    ("spline", "SplineInterpolant.eval_many", "spline.eval_many"),
    ("spline", "continuity_report", "spline.continuity_report"),
    ("cli", "cmd_build", "cli.build"),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_divide", "cli.divide"),
    ("cli", "cmd_resample", "cli.resample"),
]

# called too often for a span each: counted only
COUNTS = [
    ("multiindex", "enumerate_box", "multiindex.enumerate_box"),
    ("grid", "enumerate_box", "multiindex.enumerate_box"),
    ("interpolant", "enumerate_box", "multiindex.enumerate_box"),
]

# the per-layer metrics of a traced run: (name, unit), as in BENCHMARK.json
PER_LAYER = [
    ("interpolant.eval_many.calls", "count"),
    ("interpolant.eval_many.s", "s"),
    ("interpolant.eval_lattice.s", "s"),
    ("spline.select_window.calls", "count"),
    ("spline.select_window.s", "s"),
    ("spline.eval_many.s", "s"),
    ("spline.eval_many.self_s", "s"),
    ("harness.derive_data.s", "s"),
    ("interpolant.interpolate.calls", "count"),
    ("interpolant.interpolate.s", "s"),
    ("interpolant.interpolate.self_s", "s"),
    ("spline.local.calls", "count"),
    ("spline.windows_built", "count"),
    ("spline.local.build_ratio", "ratio"),
    ("grid.sub_data.calls", "count"),
    ("grid.sub_data.s", "s"),
    ("interpolant.axis_lambda.calls", "count"),
    ("interpolant.axis_lambda.s", "s"),
    ("interpolant.condition_tensor.s", "s"),
    ("interpolant.vandermonde_interpolate.s", "s"),
    ("interpolant.spitzbart_interpolate.s", "s"),
    ("interpolant.expanded.s", "s"),
    ("polyring.multipoly_mul.calls", "count"),
    ("polyring.multipoly_mul.s", "s"),
    ("ideal.cascaded_divide.calls", "count"),
    ("ideal.cascaded_divide.s", "s"),
    ("polyring.divide_by_axis.s", "s"),
    ("interpolant.derivative.calls", "count"),
    ("interpolant.derivative.s", "s"),
    ("polyring.differentiate.calls", "count"),
    ("polyring.differentiate.s", "s"),
    ("cli.build.s", "s"),
    ("cli.eval.s", "s"),
    ("cli.verify.s", "s"),
    ("cli.divide.s", "s"),
    ("cli.resample.s", "s"),
    ("grid.load_hgrid.s", "s"),
    ("grid.validate.s", "s"),
    ("interpolant.call.calls", "count"),
    ("interpolant.call.s", "s"),
    ("spline.continuity_report.s", "s"),
    ("multiindex.enumerate_box.calls", "count"),
    ("grid.dump_hgrid.s", "s"),
    ("trace.overhead", "ratio"),
]


def _resolve(module, path):
    owner = importlib.import_module(f"hermgrid.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.counts = {}
        self._stack = []
        self._next = 0
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        """One span; the benchmark opens set-up and operation roots with
        it, so the program spans of one operation share an ancestor."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, parent))

    def _span_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTS, self._count_wrapper)):
            for module, path, name in table:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self):
        """calls, inclusive seconds and self seconds per span name."""
        child = {}
        for _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out = {}
        for sid, name, t0, t1, _ in self.spans:
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += t1 - t0
            rec["self_s"] += t1 - t0 - child.get(sid, 0.0)
        for name, n in self.counts.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            out[name]["calls"] += n
        return out

    def windows_built(self):
        """`interpolate` spans opened directly by `SplineInterpolant.local`:
        cache misses, one local interpolant built each."""
        name_of = {sid: name for sid, name, *_ in self.spans}
        return sum(1 for _, name, _, _, parent in self.spans
                   if name == "interpolant.interpolate"
                   and name_of.get(parent) == "spline.local")

    def metrics(self, overhead):
        """Every per-layer metric; layers the workload never entered
        read 0."""
        summ = self.summary()
        built = self.windows_built()
        local_calls = summ.get("spline.local", {}).get("calls", 0)
        special = {
            "spline.windows_built": built,
            "spline.local.build_ratio": built / local_calls if local_calls else 0.0,
            "trace.overhead": overhead,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in special:
                value = special[name]
            else:
                prefix, field = name.rsplit(".", 1)
                value = summ.get(prefix, {}).get(field, 0)
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, f)
