"""Spans around calls into the equisquares modules, recorded from outside.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper, at every name the function is bound to: its defining
module, each module that imported it, and the `equisquares` package.  A
wrapper records one span (name, start, end, parent, op id) per call while
an op is open, and nothing otherwise, so checks run between ops are not
counted.  `uninstall()` puts the original functions back.

Hooks read counts from a traced function's arguments and return value,
such as the halving trace returned by `iterated_halving`.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("squares", "constructions", "bipartite", "hypergraph", "halving", "solvers", "cli")


def span_name(module: str, fn: str) -> str:
    """`cli.cmd_generate` is reported as `cli.generate`."""
    if module == "cli" and fn.startswith("cmd_"):
        fn = fn[4:]
    return f"{module}.{fn}"


def halving_counts(trace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per halving level: components after capping, and edges deleted."""
    comps = tuple(sum(len(p.cap.decomposition.components) for p in level) for level in trace.levels)
    deleted = tuple(sum(len(p.cap.deleted) for p in level) for level in trace.levels)
    return comps, deleted


def _hook_iterated_halving(counts, args, kwargs, result):
    final, trace = result
    comps, deleted = halving_counts(trace)
    counts["halving.components"] += sum(comps)
    counts["halving.deleted_edges"] += sum(deleted)
    counts["halving.survivor_ratio.sum"] += len(final) / args[0].left_size
    counts["halving.survivor_ratio.n"] += 1


def _hook_exact(counts, args, kwargs, result):
    counts["solvers.exact.proved"] += int(bool(result[1]))
    counts["solvers.exact.solves"] += 1


def _hook_local_search(counts, args, kwargs, result):
    start = args[1] if len(args) > 1 else kwargs["transversal"]
    counts["solvers.local_search.gain_cells"] += result.size - start.size


HOOKS = {
    "halving.iterated_halving": _hook_iterated_halving,
    "solvers.exact_max": _hook_exact,
    "hypergraph.max_matching_exact": _hook_exact,
    "solvers.local_search": _hook_local_search,
}


class Tracer:
    """In-memory span recorder for one process; one thread, no queues."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, op
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []  # (namespace, attr, original)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        package = importlib.import_module("equisquares")
        modules = {name: importlib.import_module(f"equisquares.{name}") for name in MODULES}
        wrappers = {}
        for mod_name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, span_name(mod_name, attr)))
        for ns in (package, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._bindings.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._bindings):
            setattr(ns, attr, original)
        self._bindings.clear()

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent", "op"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, op])


# ------------------------------------------------------------ arithmetic

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered(children[i], start, end)
            for i, (name, start, end, parent, op) in enumerate(spans)]


def untraced_time(spans, op_windows: dict[int, tuple[float, float]]) -> dict[int, float]:
    """Per op, the time of its window outside every root span."""
    roots: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent < 0:
            roots[op].append((start, end))
    return {op: hi - lo - covered(roots[op], lo, hi) for op, (lo, hi) in op_windows.items()}


def per_function(spans, scale: dict[int, float] | None = None) -> dict[str, tuple[int, float]]:
    """name -> (calls, total self seconds), each span's self time times its op's scale."""
    table: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row[0] += 1
        row[1] += own * (scale[span[4]] if scale else 1.0)
    return {name: (calls, secs) for name, (calls, secs) in table.items()}
