"""Per-layer spans and counts, recorded from outside the program.

`install` wraps the public functions and methods of every layer module of
`heegaard_lab`.  A module-level function is rebound at every import site: in
its own module and in each module that imported it by name.  The site is the
namespace through which the caller resolved the name, which is the calling
module for `from .x import f` callers and for calls inside the defining
module.  Methods are wrapped once, on their class.

Each wrapped call records a span (id, parent id, job, callee, site, start,
end) and a count, in memory, only while `Tracer.active` is set: the
benchmark sets it around each job and clears it for its own checks, so
checks and input generation leave no spans.  A layer's self time is the
duration of its spans minus the time covered by their child spans.

A few small leaf helpers are left unwrapped (`UNWRAPPED`): they run
hundreds of thousands of times per batch at well under a microsecond each,
so a span each would cost more than the work it measures.  Their time is
counted as self time of the span that called them.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import itertools
import json
import sys
import time
from collections import Counter
from pathlib import Path

PACKAGE = "heegaard_lab"
LAYERS = ("surface", "arrangement", "handlebody", "disk_complex", "ghs",
          "sog", "serialize", "cli")

UNWRAPPED = frozenset({
    "surface.canonical_triangulation",
    "surface.slope_intersection",
    "surface.Slope.of",
    "surface.Slope.coords",
    "surface.CurveClass.sort_key",
    "surface.Triangulation.plus_triangle",
    "surface.Triangulation.corner_counts",
    "surface.Triangulation.check_matching",
    "surface.Triangulation.n_triangles",
    "surface.Triangulation.vertex_link_vector",
    "arrangement.Crossing.key",
    "arrangement.Arrangement.link_ends",
    "arrangement.Arrangement.crossings_on_link",
    "ghs.collection",
    "ghs.complexity",
    "ghs.compress",
    "ghs.ghs_key",
    "ghs.compare_ghs",
    "ghs.validate_ghs",
    "ghs.weak_reduce_report",
    "ghs.GHS.thick_indices",
    "ghs.GHS.boundary",
    "ghs.CompressionDescriptor.essential",
    "sog.SymbolicOracle.label_of",
    "sog.SymbolicOracle.ghs_of",
    "sog.InventoryOracle.label_of",
    "sog.InventoryOracle.ghs_of",
})


class Tracer:
    """Spans, call counts and per-layer self time for one traced batch."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.site_calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._ids = itertools.count()

    def wrap(self, fn, layer: str, key: str, site: str, observe=None):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                duration = t1 - t0
                if parent is not None:
                    parent[1] += duration
                tracer.self_s[layer] += duration - frame[1]
                tracer.calls[key] += 1
                tracer.site_calls[site, key] += 1
                tracer.spans.append((frame[0], parent[0] if parent else -1,
                                     tracer.job, key, site, t0, t1))
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def run_job(self, job_id: int, kind: str, call):
        """Run one job as a root span of layer `bench`, tracing active."""
        self.job = job_id
        self.active = True
        try:
            return self.wrap(call, "bench", "bench." + kind, "bench")()
        finally:
            self.active = False

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span_id, parent, job, key, site, t0, t1 in self.spans:
                out.write(json.dumps([span_id, parent, job, key, site,
                                      round(t0, 9), round(t1, 9)]) + "\n")


def _count_moves(tracer: Tracer, args, result) -> None:
    tracer.counts["ghs.moves_returned"] += len(result)


OBSERVERS = {"ghs.enumerate_moves": _count_moves}


def _wraps_init(cls) -> bool:
    """Hand-written constructors of public classes do real work; generated
    dataclass constructors and exceptions do not."""
    return (not cls.__name__.startswith("_")
            and "__init__" in vars(cls)
            and not dataclasses.is_dataclass(cls)
            and not issubclass(cls, BaseException))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and methods."""
    functions: dict = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                if f"{layer}.{name}" not in UNWRAPPED:
                    functions[obj] = (layer, f"{layer}.{name}")
            elif inspect.isclass(obj):
                _wrap_methods(tracer, layer, obj)
    for modname, module in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        site = modname.rpartition(".")[2]
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in functions:
                layer, key = functions[obj]
                setattr(module, attr, tracer.wrap(obj, layer, key, site,
                                                  OBSERVERS.get(key)))


def _wrap_methods(tracer: Tracer, layer: str, cls) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and not (name == "__init__"
                                         and _wraps_init(cls)):
            continue
        key = f"{layer}.{cls.__name__}.{name}"
        if key in UNWRAPPED:
            continue
        if isinstance(attr, (staticmethod, classmethod)):
            fn = tracer.wrap(attr.__func__, layer, key, layer,
                             OBSERVERS.get(key))
            setattr(cls, name, type(attr)(fn))
        elif inspect.isfunction(attr):
            setattr(cls, name, tracer.wrap(attr, layer, key, layer,
                                           OBSERVERS.get(key)))
