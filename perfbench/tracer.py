"""In-process tracing of modcert's public functions for the per-layer metrics.

``Tracer.install`` wraps every public function defined in the traced modules,
plus the named methods below, and rebinds each wrapper wherever the original
object is bound in ``modcert.*`` (modules import with ``from .x import y``, so
patching the defining module alone misses most calls).  Each call becomes a
span with a parent; a span's self time is its duration minus its children's.
Spans stay in memory until the run writes them out.  A metric whose function
no longer exists is listed as missing instead of failing the run.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("graph", "gf2", "parity", "witness", "traces", "absorb", "reservoir", "cli")
TRACED_METHODS = (
    ("graph", "Graph", "from_edges"),
    ("graph", "Graph", "ids_of"),
    ("witness", "ModularWitness", "build"),
    ("absorb", "AbsorptionProblem", "build"),
)


def _edges(graph):
    return {"graph.edges": graph.edge_count()}


def _tables(table):
    return {"traces.tail_size": table.tail_size(), "traces.distinct": len(table.entries)}


def _certificate(cert):
    if type(cert).__name__ == "DeletionCertificate":
        return {"absorb.deletions": 1, "absorb.deleted": len(cert.deleted_vertices())}
    return {"absorb.cuts": 1}


# Counters read off a traced call's arguments and result, outside its span.
COUNTERS = {
    "graph.load_graph": lambda args, out: _edges(out),
    "gf2.solve_or_dual": lambda args, out: {"gf2.solve_rows": args[0].rows, "gf2.solve_cols": args[0].cols},
    "parity.parity_partition": lambda args, out: {"parity.larger_part": max(map(len, out))},
    "witness.ModularWitness.build": lambda args, out: {"witness.size": len(out.members)},
    "traces.compute_traces": lambda args, out: _tables(out),
    "traces.neighborhood_diversity": lambda args, out: {"traces.nd_classes": out.t},
    "absorb.AbsorptionProblem.build": lambda args, out: {
        "traces.available": len(out.table.available_masks(out.q))},
    "absorb.solve_core_correction": lambda args, out: _certificate(out),
    "reservoir.estimate_availability": lambda args, out: {"reservoir.trials": args[0].trials},
}


class Tracer:
    def __init__(self):
        self.request = 0
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []
        self.reset()
        self._restore: list = []
        self.installed: set[str] = set()
        self.counter_errors: set[str] = set()

    def reset(self) -> None:
        """Drop the spans and zero the per-function stats (kept by identity)."""
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._stack.clear()
        for stats in self.stats.values():
            stats[:] = [0, 0.0, 0.0]

    def _stats(self, key: int) -> dict[str, float]:
        return {name: stats[key] for name, stats in self.stats.items() if stats[0]}

    @property
    def calls(self) -> dict[str, int]:
        return self._stats(0)

    @property
    def total(self) -> dict[str, float]:
        return self._stats(1)

    @property
    def self_time(self) -> dict[str, float]:
        return self._stats(2)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self
        # [calls, total seconds, self seconds], shared by every install.
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((span_id, parent, name, start, end, tracer.request))
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
            if counter is not None:
                call_args = args[1:] if name.count(".") == 2 else args
                try:
                    for key, value in counter(call_args, out).items():
                        tracer.counts[key] += value
                except (AttributeError, TypeError, IndexError):
                    tracer.counter_errors.add(name)
            return out

        return traced

    def install(self) -> None:
        """Wrap the traced functions and methods; call :meth:`uninstall` to undo."""
        import modcert  # noqa: F401  (loads the package so sys.modules holds it)

        packages = [m for key, m in list(sys.modules.items())
                    if key == "modcert" or key.startswith("modcert.")]
        for short in TRACED_MODULES:
            module = sys.modules.get(f"modcert.{short}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(name, obj)
                for holder in packages:
                    for key, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, key, wrapper)
                            self._restore.append((holder, key, obj))
                self.installed.add(name)
        for short, cls_name, method in TRACED_METHODS:
            cls = getattr(sys.modules.get(f"modcert.{short}"), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(method)
            if raw is None:
                continue
            name = f"{short}.{cls_name}.{method}"
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, method, self._wrap(name, raw))
            self._restore.append((cls, method, raw))
            self.installed.add(name)

    def missing(self, metrics) -> list[str]:
        """Functions the metrics name that were not found to wrap."""
        wanted = {f for *_, functions in metrics for f in functions}
        return sorted(wanted - self.installed)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()
