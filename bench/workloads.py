"""The four benchmark workloads: inputs from a seed, one pass, output checks.

A pass is a sequence of operations. An operation is one call into
spexlab's public API whose output is checked; it fails when it raises
(``MemoryError`` under the child's address-space cap included), when its
output is missing, or when the output differs from the reference. Each
workload's ``build`` makes the inputs from the seed, ``run`` performs one
pass and returns the observed outputs by operation name, and ``checks``
maps every operation name to a predicate on its output.

Why each workload exists, and which layers it exercises or bypasses, is
in ``bench/NOTES.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# Library calls go through the defining module's attribute, so that the
# tracer's rebinding of that attribute sees them.
from spexlab import constructions, experiments, forbidden, graph6, recognition, search, spectral
from spexlab.constructions import FamilySpec
from spexlab.forbidden import ForbiddenSpec
from spexlab.search import SearchConfig


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """Outputs of one pass by operation name; an operation that raises
    leaves an ``error`` entry instead of an output."""

    def __init__(self):
        self.outputs: dict[str, object] = {}
        self.errors: dict[str, str] = {}

    def op(self, name: str, fn, *args, observe=lambda v: v):
        try:
            value = fn(*args)
        except Exception as exc:  # any raise is a failed operation
            self.errors[name] = f"{type(exc).__name__}: {exc}"
            return None
        self.outputs[name] = observe(value)
        return value


def failed_ops(checks: dict, p: Pass) -> list[str]:
    """Names of the operations that raised, are missing or fail their check."""
    return [name for name, ok in checks.items()
            if name in p.errors or name not in p.outputs or not ok(p.outputs[name])]


def summed(p: Pass, key: str) -> int:
    """Sum of one field over the dict outputs that carry it (suite
    indeterminates, search pruning counters)."""
    return sum(out[key] for out in p.outputs.values() if isinstance(out, dict) and key in out)


# ---------------------------------------------------------------------------
# verify-spectral and verify-structure: run_suite at library defaults


def _suite_summary(result) -> dict:
    return {
        "cases": result.cases,
        "passes": result.passes,
        "failures": len(result.failures),
        "indeterminates": len(result.indeterminates),
        "digest": digest(json.dumps(result.to_dict(), sort_keys=True)),
    }


def _suite_check(cases: int):
    def ok(out: dict) -> bool:
        return (out["cases"] == cases and out["passes"] == cases
                and out["failures"] == 0 and out["indeterminates"] == 0)

    return ok


class VerifyWorkload:
    def __init__(self, name: str, suites: tuple[tuple[str, dict, int], ...]):
        self.name = name
        self.suites = suites

    def build(self, seed: int) -> list[tuple[str, dict, int]]:
        return [(suite, dict(params), cases) for suite, params, cases in self.suites]

    def run(self, inputs) -> Pass:
        p = Pass()
        for suite, params, _ in inputs:
            p.op(suite, experiments.run_suite, suite, params, observe=_suite_summary)
        return p

    def checks(self, inputs) -> dict:
        return {suite: _suite_check(cases) for suite, _, cases in inputs}


class VerifySpectral(VerifyWorkload):
    # Offsets of n_dom that the seed picks from; dominance holds with no
    # indeterminate comparison at each of them.
    N_DOM = 2000
    N_DOM_OFFSETS = 8

    def __init__(self):
        super().__init__("verify-spectral", (
            ("lemma-lm1", {}, 50),
            ("lemma-lm5", {}, 50),
            ("claim-3.2", {}, 4),
            ("thm-2", {"grid": False}, 4),
        ))

    def build(self, seed: int):
        inputs = super().build(seed)
        n_dom = self.N_DOM + random.Random(seed).randrange(self.N_DOM_OFFSETS)
        for suite, params, _ in inputs:
            if suite == "thm-2":
                params["n_dom"] = n_dom
        return inputs


VERIFY_STRUCTURE = VerifyWorkload("verify-structure", (
    ("thm-2", {"dominance": False}, 600),
    ("thm-3", {"dominance": False}, 120),
    ("thm-4", {"dominance": False}, 450),
    ("claim-3.3", {}, 48),
    ("claim-3.5", {}, 24),
    ("claim-4.2", {}, 48),
    ("claim-4.3", {}, 128),
    ("remark-rk111", {}, 18),
    ("bouquet-semantics", {}, 24),
))


# ---------------------------------------------------------------------------
# search-exhaustive


def _report_summary(report) -> dict:
    pruned = [e["pruned"] for e in report.entries]
    return {
        "candidates": [e["candidates"] for e in report.entries],
        "digest": digest(report.canonical_json()),
        "children": sum(s["children"] for s in pruned),
        "duplicate": sum(s["duplicate"] for s in pruned),
        "emitted": sum(s["emitted"] for s in pruned),
    }


class SearchWorkload:
    """Both searches are exhaustive over n = 4..8, so the seed has no effect.
    The digests are of ``SearchReport.canonical_json()``, the byte-identity
    contract of search reports."""

    name = "search-exhaustive"
    SEARCHES = (
        ("outerplanar", None, [5, 13, 46, 172, 777],
         "a6a28a77775982db0637bafd0ce3493a7696877e70c8d8fcf74a27a406b80399"),
        ("planar", "C3", [3, 6, 18, 55, 230],
         "0b543b39a6c763f942fa9d98ea36718524c617f7d827e23bedf7819870ed0ce1"),
    )

    def build(self, seed: int):
        return [(f"{klass}:{forb or '-'}",
                 SearchConfig(4, 8, klass, forb and ForbiddenSpec.parse(forb), True,
                              "exhaustive"),
                 counts, want)
                for klass, forb, counts, want in self.SEARCHES]

    def run(self, inputs) -> Pass:
        p = Pass()
        for name, config, _, _ in inputs:
            p.op(name, search.exhaustive_spex, config, observe=_report_summary)
        return p

    def checks(self, inputs) -> dict:
        return {name: (lambda out, c=counts, d=want: out["candidates"] == c and out["digest"] == d)
                for name, _, counts, want in inputs}


# ---------------------------------------------------------------------------
# large-graphs


RHO_RTOL = 1e-9  # agreement of spectral_radius with the independent solve


def reference_edges(spec: FamilySpec) -> list[tuple[int, int]]:
    """Edge list of a family graph, written out from its definition without
    spexlab's constructions (vertex order may differ from ``construct``)."""
    n = spec.n
    if spec.kind in ("star", "jn", "wheel"):
        edges = [(0, i) for i in range(1, n)]
        if spec.kind == "jn":
            edges += [(a, a + 1) for a in range(1, n - 1, 2)]
        if spec.kind == "wheel":
            edges += [(i, i % (n - 1) + 1) for i in range(1, n)]
        return edges
    # K_hubs joined to paths: one part of n1, then parts of l-2, then the rest
    hubs = 1 if spec.kind == "k1hop" else 2
    t, l = spec.t, spec.l
    n1 = t * l - t - 1 if hubs == 1 else t * l - t - l
    rest = n - hubs - n1
    parts = [n1] + [l - 2] * (rest // (l - 2)) + ([rest % (l - 2)] if rest % (l - 2) else [])
    edges = [(0, 1)] if hubs == 2 else []
    edges += [(h, v) for h in range(hubs) for v in range(hubs, n)]
    start = hubs
    for size in parts:
        edges += [(v, v + 1) for v in range(start, start + size - 1)]
        start += size
    return edges


def reference_rho(spec: FamilySpec) -> float:
    """sqrt(n-1) for the star; otherwise the largest adjacency eigenvalue
    by ARPACK on the reference edge list."""
    if spec.kind == "star":
        return math.sqrt(spec.n - 1)
    # Imported here so that set-up time covers only what spexlab imports.
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    e = np.array(reference_edges(spec), dtype=np.int64)
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    a = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(spec.n, spec.n)).tocsr()
    return float(eigsh(a, k=1, which="LA", tol=1e-14, return_eigenvectors=False)[0])


class LargeGraphs:
    """Each family at scale: construct, spectral_radius at the default tol,
    the class check, one is_free. Then B3x5 on k2hp at n~400 and a graph6
    round trip of a wheel at n~4000. The seed perturbs every n slightly."""

    name = "large-graphs"
    # (family template, base n, n spread, class, forbidden, expected freeness)
    FAMILIES = (
        ("star", 10000, 50, "outerplanar", "C3", True),
        ("k1hop:t=2,l=5", 10000, 50, "outerplanar", "B2x5", True),
        ("k2hp:t=3,l=5", 10000, 50, "planar", "C4", False),
        ("jn", 2000, 10, "planar", "C4", True),
    )
    BOUQUET = ("k2hp:t=3,l=5", 400, 2, "B3x5", True)
    ROUND_TRIP = ("wheel", 4000, 20)

    def build(self, seed: int):
        rng = random.Random(seed)

        def spec(template: str, base: int, spread: int) -> FamilySpec:
            n = base + rng.randint(-spread, spread)
            sep = "," if ":" in template else ":"
            return FamilySpec.parse(f"{template}{sep}n={n}")

        families = [(spec(t, b, s), klass, ForbiddenSpec.parse(f), free)
                    for t, b, s, klass, f, free in self.FAMILIES]
        t, b, s, f, free = self.BOUQUET
        bouquet = (spec(t, b, s), ForbiddenSpec.parse(f), free)
        wheel = spec(*self.ROUND_TRIP)
        return {"families": families, "bouquet": bouquet, "wheel": wheel}

    def run(self, inputs) -> Pass:
        p = Pass()
        observe_graph = lambda g: [g.n, g.edge_count()]
        for spec, klass, forb, _ in inputs["families"]:
            key = str(spec)
            g = p.op(f"{key}.construct", constructions.construct, spec, observe=observe_graph)
            if g is None:
                continue
            p.op(f"{key}.rho", spectral.spectral_radius, g, observe=lambda e: e.rho)
            check = recognition.is_outerplanar if klass == "outerplanar" else recognition.is_planar
            p.op(f"{key}.{klass}", check, g, observe=lambda v: v.planar)
            p.op(f"{key}.free[{forb}]", forbidden.is_free, g, forb)
        spec, forb, _ = inputs["bouquet"]
        g = p.op(f"{spec}.construct", constructions.construct, spec, observe=observe_graph)
        if g is not None:
            p.op(f"{spec}.free[{forb}]", forbidden.is_free, g, forb)
        spec = inputs["wheel"]
        g = p.op(f"{spec}.construct", constructions.construct, spec, observe=observe_graph)
        if g is not None:
            text = p.op(f"{spec}.graph6_encode", graph6.graph6_encode, g, observe=digest)
            if text is not None:
                p.op(f"{spec}.graph6_decode", graph6.graph6_decode, text,
                     observe=lambda h: h == g)
        return p

    def checks(self, inputs) -> dict:
        """Reference outputs; the independent rho solves run here, outside
        any timed pass."""
        out: dict = {}
        graph_ok = lambda spec: (lambda v, want=[spec.n, len(reference_edges(spec))]: v == want)
        for spec, klass, forb, free in inputs["families"]:
            key = str(spec)
            out[f"{key}.construct"] = graph_ok(spec)
            ref = reference_rho(spec)
            out[f"{key}.rho"] = lambda rho, r=ref: abs(rho - r) <= RHO_RTOL * r
            out[f"{key}.{klass}"] = lambda v: v is True
            out[f"{key}.free[{forb}]"] = lambda v, want=free: v is want
        spec, forb, free = inputs["bouquet"]
        out[f"{spec}.construct"] = graph_ok(spec)
        out[f"{spec}.free[{forb}]"] = lambda v, want=free: v is want
        spec = inputs["wheel"]
        out[f"{spec}.construct"] = graph_ok(spec)
        out[f"{spec}.graph6_encode"] = lambda v: isinstance(v, str)
        out[f"{spec}.graph6_decode"] = lambda v: v is True
        return out


WORKLOADS = {w.name: w for w in (VerifySpectral(), VERIFY_STRUCTURE, SearchWorkload(), LargeGraphs())}
