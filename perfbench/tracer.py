"""Outside-in tracing of freaco's layers.

``Tracer.install`` replaces every public function of the traced modules,
wherever a module binds it (``freaco.engine.evaluate`` is the expr layer's
``evaluate`` as the engine calls it), by a wrapper that records a span
(name, start, end, parent) and counts calls, raised exceptions and, for a
few functions, units of work.  ``uninstall`` restores the original
bindings.  Spans stay in memory until ``write_csv``; nothing in ``src/`` is
modified.  Only the installing process records: forked pool workers inherit
the wrappers but call straight through.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter

from freaco import bench, cli, engine, expr, fre, oracle, problems

LAYERS = (engine, expr, fre, oracle, problems, bench, cli)


def _span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


#: Units of work per call for functions whose cost scales with an argument.
WORK = {
    "engine.construct_paths": lambda a, k, r: len(r) * len(a[1]),  # rows drawn
    "expr.evaluate_many": lambda a, k, r: len(r),  # points
    "oracle.reference_optimum": lambda a, k, r: r.path_count,  # paths
    "oracle.reference_optimum.cells": lambda a, k, r: r.cells_examined,
    "bench.export": lambda a, k, r: os.path.getsize(a[2]),  # bytes written
}

#: The structure step: greatest solution, its check and the candidate sets.
STRUCTURE = {"fre.compute_max_solution", "fre.violated_rows", "fre.compute_candidate_sets"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent index or -1)
        self._stack = [-1]
        self.reset()
        self._pid = os.getpid()
        self._saved: list = []

    def reset(self):
        self.spans = []
        self.totals: dict[str, dict[str, float]] = {}
        self.structure_s = 0.0
        self.errors: Counter = Counter()
        self.work: Counter = Counter()
        self.pools = 0

    def _wrap(self, fn):
        name = _span_name(fn)
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        measures = [(k, f) for k, f in WORK.items() if k == name or k.startswith(name + ".")]
        stack, clock, pid = self._stack, time.perf_counter, self._pid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            for key, f in measures:
                self.work[key] += f(args, kwargs, result)
            return result

        return traced

    def _count_pool(self, real):
        def pool(*args, **kwargs):
            self.pools += 1
            return real(*args, **kwargs)

        return pool

    def install(self):
        wrappers = {}
        for module in LAYERS:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("freaco."):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        real = bench.ProcessPoolExecutor
        self._saved.append((bench, "ProcessPoolExecutor", real))
        bench.ProcessPoolExecutor = self._count_pool(real)

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved = []

    def fold(self, csv_path: str | None = None, phase: str = ""):
        """Add the recorded spans to the running totals and drop them.

        Totals per span name are calls, inclusive and self seconds; a
        span's self time is its duration minus its direct children's.
        ``csv_path``, when given, receives the spans first.
        """
        if csv_path:
            self._write_csv(csv_path, phase)
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for nid, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (nid, t0, t1, parent), inner in zip(spans, child):
            row = self.totals.setdefault(names[nid], {"calls": 0, "incl": 0.0, "self": 0.0})
            row["calls"] += 1
            row["incl"] += t1 - t0
            row["self"] += t1 - t0 - inner
            if names[nid] in STRUCTURE and (parent < 0 or names[spans[parent][0]] not in STRUCTURE):
                self.structure_s += t1 - t0
        self.spans = []

    def _write_csv(self, path: str, phase: str):
        origin = self.spans[0][1] if self.spans else 0.0
        new = not os.path.exists(path)
        with open(path, "a", encoding="utf-8") as fh:
            if new:
                fh.write("phase,index,name,start_s,end_s,parent\n")
            for i, (nid, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{phase},{i},{self.names[nid]},{t0 - origin!r},{t1 - origin!r},{parent}\n")
