"""Spans around the calls into each ``divfrontier`` module, recorded from
outside the package.

A span is (name, start, end, parent, op id). Instrumenting a name means
replacing its binding in the namespace of the module that calls it, so
calls made through that binding are recorded and nothing in ``src/``
changes. A function imported into several modules is named after the
module that defines it, unless the importing module has a span of its own
for that name (``oracle.pareto_filter`` is recorded apart from
``discrete_frontier.pareto_filter``). Spans are kept in memory and written
out when the run ends.

Instrumented calls all run on the calling thread; the oracle's worker
threads only run private helpers, which are not instrumented.
"""
from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute): one span per call through every binding of it
SPANS = (
    ("cli", "main"),
    ("io", "load_samples_csv"),
    ("io", "write_json"),
    ("io", "write_frontier_csv"),
    ("io", "write_prd_csv"),
    ("estimation", "evaluate_pipeline"),
    ("estimation", "fit_gaussian"),
    ("estimation", "quantize"),
    ("estimation", "knn_support_metrics"),
    ("expfam_frontier", "kl_endpoints"),
    ("expfam_frontier", "frontier_kl"),
    ("divergences", "kl_gaussian"),
    ("divergences", "bregman_kl"),
    ("divergences", "renyi_discrete"),
    ("discrete_frontier", "frontier"),
    ("discrete_frontier", "pareto_filter"),
    ("discrete_frontier", "prd_from_infinity_frontier"),
    ("oracle", "certify_frontier"),
    ("oracle", "enumerate_simplex"),
    ("oracle", "realizable_pairs"),
    ("oracle", "pareto_filter"),
    ("oracle", "max_dominance_violation"),
    ("oracle", "hausdorff_linf"),
)
METHOD_SPANS = (("estimation", "QuantizationModel", "assign"),)
COUNTED_INITS = (("distributions", "Histogram"),)


def _max_gap(curve) -> float:
    """Largest L-infinity step between consecutive finite frontier points."""
    finite = [(x, y) for _, x, y in curve.points if math.isfinite(x) and math.isfinite(y)]
    steps = [max(abs(a[0] - b[0]), abs(a[1] - b[1])) for a, b in zip(finite, finite[1:])]
    return max(steps, default=0.0)


def _frontier_counts(tracer, args, result):
    tracer.counters["discrete_frontier.frontier.points_kept"] += len(result.points)
    gap = "discrete_frontier.frontier.max_gap"
    tracer.maxima[gap] = max(tracer.maxima.get(gap, 0.0), _max_gap(result))


def _pareto_counts(tracer, args, result):
    tracer.counters["oracle.pareto_filter.points_in"] += len(args[0])
    tracer.counters["oracle.pareto_filter.points_kept"] += len(result)


def _simplex_counts(tracer, args, result):
    tracer.counters["oracle.enumerate_simplex.points"] += result.count


def _csv_bytes(tracer, args, result):
    tracer.counters["io.load_samples_csv.bytes"] += os.path.getsize(args[0])


HOOKS = {
    "discrete_frontier.frontier": _frontier_counts,
    "oracle.pareto_filter": _pareto_counts,
    "oracle.enumerate_simplex": _simplex_counts,
    "io.load_samples_csv": _csv_bytes,
}


class Tracer:
    """In-memory span and counter store for one traced phase."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.op_id = None
        self._stack: list[int] = []

    def call(self, name, func, args, kwargs, hook=None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)
        if hook is not None:
            hook(self, args, result)
        return result

    def op(self, op_id, func):
        """Run one benchmark operation as a root span."""
        self.op_id = op_id
        return self.call("op", func, (), {})

    def wrap(self, name, func):
        hook = HOOKS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self.call(name, func, args, kwargs, hook)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, op_id]) + "\n")


def _package_modules() -> dict:
    """divfrontier's loaded modules by short name (the package by its own)."""
    return {
        name.rsplit(".", 1)[-1]: mod
        for name, mod in list(sys.modules.items())
        if name == "divfrontier" or name.startswith("divfrontier.")
    }


def instrument(tracer: Tracer):
    """Bind traced wrappers into divfrontier's modules; returns an undo function."""
    modules = _package_modules()
    own = set(SPANS)
    undo = []

    def rebind(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for module, attr in SPANS:
        target = getattr(modules.get(module), attr, None)
        if target is None:
            continue  # gone from the package: its metrics read 0
        for where, mod in modules.items():
            if mod.__dict__.get(attr) is not target:
                continue
            if where != module and (where, attr) in own:
                continue  # that module records the name under its own span
            rebind(mod, attr, tracer.wrap(f"{module}.{attr}", target))
    for module, cls_name, attr in METHOD_SPANS:
        cls = getattr(modules.get(module), cls_name, None)
        if hasattr(cls, attr):
            rebind(cls, attr, tracer.wrap(f"{module}.{cls_name}.{attr}", getattr(cls, attr)))
    for module, cls_name in COUNTED_INITS:
        cls = getattr(modules.get(module), cls_name, None)
        if not hasattr(cls, "__post_init__"):
            continue
        init = cls.__post_init__
        key = f"{module}.{cls_name}.calls"

        def counted(self, _init=init, _key=key):
            tracer.counters[_key] += 1
            _init(self)

        rebind(cls, "__post_init__", counted)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total duration and self time (duration minus
    the part of it covered by child spans)."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, parent, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(index, ()) if e > start and s < end]
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - _covered(clipped)
    return dict(out)
