"""Per-layer spans recorded by wrapping spexlab's public functions.

A ``Tracer`` rebinds each target function at every loaded ``spexlab``
module (and, for ``Graph`` methods, on the class) that holds a reference to
it, and puts the originals back on ``uninstall``. Each wrapped call records
a span ``(id, parent, name, start, end)``; spans stay in memory and are
written out by the caller when the traced run ends.

The library runs suite cases and search scoring on thread pools. Each
thread keeps its own span stack; a span opened on a pool thread with an
empty stack takes as parent the innermost span open on the thread that
installed the tracer, which is the thread that submitted the work.

A span's self time is its duration minus the union of the intervals its
child spans cover (children on two pool threads can overlap). Spans on a
pool thread count wall time, including time spent waiting for the GIL.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

_now = time.perf_counter

GRAPH_EDIT = "graph.edit"
GRAPH_DERIVE = "graph.derive"

# Span names a pass can produce; every one is reported as <name>.calls and
# <name>.self_s, zero when the workload never calls it.
LAYERS = (
    GRAPH_EDIT,
    GRAPH_DERIVE,
    "graph6.encode",
    "graph6.decode",
    "recognition.outerplanar",
    "recognition.planar",
    "forbidden.cycle",
    "forbidden.bouquet",
    "forbidden.matching",
    "forbidden.edge_disjoint",
    "spectral.rho_default",
    "spectral.rho_strict",
    "spectral.compare",
    "constructions.construct",
    "constructions.joined_paths",
    "constructions.predecessors",
    "search.canonical_form",
    "search.enumerate",
    "experiments.run_suite",
)

# Counters read from wrapped results, reported as they are.
COUNTERS = (
    "spectral.rho_default.iterations",
    "spectral.rho_strict.iterations",
    "spectral.compare.indeterminate",
)


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters: dict[str, int] = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int | None]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def span(self, name: str, fn, *args, **kwargs):
        stack, sid, parent = self._open()
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def begin_pass(self) -> int:
        """Open the root span of one pass; its id is the pass id."""
        _, sid, _ = self._open()
        self._pass_start = _now()
        return sid

    def end_pass(self, pass_id: int) -> None:
        self._main_stack.pop()
        self.spans.append((pass_id, None, "pass", self._pass_start, _now()))

    def take(self) -> tuple[list, dict[str, int]]:
        """Spans and counters recorded since the last take."""
        spans, counters = self.spans, dict(self.counters)
        self.spans, self.counters = [], defaultdict(int)
        return spans, counters

    # -- wrappers ------------------------------------------------------------

    def _fixed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _is_free(self, fn):
        @functools.wraps(fn)
        def wrapper(g, spec):
            return self.span(f"forbidden.{spec.kind}", fn, g, spec)

        return wrapper

    def _spectral_radius(self, fn, default_tol: float):
        @functools.wraps(fn)
        def wrapper(g, tol=default_tol, *args, **kwargs):
            name = "spectral.rho_default" if tol >= default_tol else "spectral.rho_strict"
            est = self.span(name, fn, g, tol, *args, **kwargs)
            self.counters[name + ".iterations"] += est.iterations
            return est

        return wrapper

    def _strict_compare(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            verdict = self.span("spectral.compare", fn, *args, **kwargs)
            if verdict == "indeterminate":
                self.counters["spectral.compare.indeterminate"] += 1
            return verdict

        return wrapper

    def _generator(self, name: str, fn):
        """Each resumption of the generator is one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.span(name, next, it)
                except StopIteration:
                    return
                yield item

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        from spexlab import constructions, experiments, forbidden, graph, graph6
        from spexlab import recognition, search, spectral

        if self._restore:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main_stack
        for attr, name in (("add_edge", GRAPH_EDIT), ("remove_edge", GRAPH_EDIT),
                           ("induced_subgraph", GRAPH_DERIVE), ("relabel", GRAPH_DERIVE)):
            self._bind_attr(graph.Graph, attr, self._fixed(name, getattr(graph.Graph, attr)))
        fixed = (
            (graph, "join", GRAPH_DERIVE),
            (graph, "disjoint_union", GRAPH_DERIVE),
            (graph, "from_edges", GRAPH_DERIVE),
            (graph6, "graph6_encode", "graph6.encode"),
            (graph6, "graph6_decode", "graph6.decode"),
            (recognition, "is_outerplanar", "recognition.outerplanar"),
            (recognition, "is_planar", "recognition.planar"),
            (forbidden, "max_edge_disjoint_l_cycles_at", "forbidden.edge_disjoint"),
            (constructions, "construct", "constructions.construct"),
            (constructions, "joined_paths", "constructions.joined_paths"),
            (constructions, "transform_predecessors", "constructions.predecessors"),
            (search, "canonical_form", "search.canonical_form"),
            (experiments, "run_suite", "experiments.run_suite"),
        )
        targets = [(getattr(m, attr), self._fixed(name, getattr(m, attr)))
                   for m, attr, name in fixed]
        targets += [
            (forbidden.is_free, self._is_free(forbidden.is_free)),
            (spectral.spectral_radius,
             self._spectral_radius(spectral.spectral_radius, spectral.DEFAULT_TOL)),
            (spectral.strict_compare, self._strict_compare(spectral.strict_compare)),
            (search.enumerate_class, self._generator("search.enumerate", search.enumerate_class)),
        ]
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "spexlab" or name.startswith("spexlab."))]
        for original, wrapper in targets:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bind_attr(module, attr, wrapper)

    def _bind_attr(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        for owner, attr, original in self._restore:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")
        self._restore = []


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_totals(spans) -> dict[str, float]:
    """``<layer>.calls`` and ``<layer>.self_s`` for every layer in LAYERS."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[layer + ".calls"] = 0
        out[layer + ".self_s"] = 0.0
    for sid, _, name, start, end in spans:
        if name not in LAYERS:
            continue
        out[name + ".calls"] += 1
        out[name + ".self_s"] += (end - start) - _covered(children.get(sid, []), start, end)
    return out
