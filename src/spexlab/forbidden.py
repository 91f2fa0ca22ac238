"""Forbidden-substructure specs and exact detectors.

A bouquet B_{t,l} is the graph made of t cycles of length l that pairwise
share exactly one common hub vertex. Detection is exact subgraph
containment: ``contains_bouquet`` packs t internally vertex-disjoint
l-cycles through some hub. The looser edge-disjoint packing (cycles may
also share non-hub vertices) is exposed separately as
``max_edge_disjoint_l_cycles_at``; the two notions differ on some
two-hub join graphs, and the experiments module reports where.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import networkx as nx

from .graph import Graph
from .recognition import to_networkx

_GRAMMAR = re.compile(r"^(?:C(?P<cl>\d+)|B(?P<bt>\d+)x(?P<bl>\d+)|M(?P<mk>\d+))$")


@dataclass(frozen=True)
class ForbiddenSpec:
    """One forbidden substructure: C{l} cycle, B{t}x{l} bouquet, or M{k}
    matching (a set of k independent edges, i.e. kK2)."""

    kind: str
    t: int = 0
    l: int = 0
    k: int = 0

    def __post_init__(self):
        if self.kind == "cycle":
            if self.l < 3:
                raise ValueError("cycle length must be >= 3")
        elif self.kind == "bouquet":
            if self.t < 1 or self.l < 3:
                raise ValueError("bouquet needs t >= 1 and l >= 3")
        elif self.kind == "matching":
            if self.k < 1:
                raise ValueError("matching size must be >= 1")
        else:
            raise ValueError(f"unknown forbidden kind {self.kind!r}")

    @classmethod
    def cycle(cls, l: int) -> ForbiddenSpec:
        return cls("cycle", l=l)

    @classmethod
    def bouquet(cls, t: int, l: int) -> ForbiddenSpec:
        return cls("bouquet", t=t, l=l)

    @classmethod
    def matching(cls, k: int) -> ForbiddenSpec:
        return cls("matching", k=k)

    @classmethod
    def parse(cls, text: str) -> ForbiddenSpec:
        m = _GRAMMAR.match(text.strip())
        if not m:
            raise ValueError(f"bad forbidden spec {text!r}; expected C{{l}}, B{{t}}x{{l}} or M{{k}}")
        if m.group("cl"):
            return cls.cycle(int(m.group("cl")))
        if m.group("bt"):
            return cls.bouquet(int(m.group("bt")), int(m.group("bl")))
        return cls.matching(int(m.group("mk")))

    def __str__(self) -> str:
        if self.kind == "cycle":
            return f"C{self.l}"
        if self.kind == "bouquet":
            return f"B{self.t}x{self.l}"
        return f"M{self.k}"


def find_cycle_of_length(g: Graph, l: int) -> list[int] | None:
    """A cycle on exactly l vertices as a vertex list, or None.

    Scans start vertices ascending; the returned cycle starts at its
    smallest vertex. The witness is re-validated before returning.
    """
    if l < 3:
        raise ValueError("cycle length must be >= 3")
    if l > g.n:
        return None
    for s in range(g.n - l + 1):
        allowed = ~((1 << (s + 1)) - 1)  # vertices > s
        dist = _bfs_dist(g, s, allowed | (1 << s))
        path = [s]
        found = _cycle_dfs(g, s, l, path, 1 << s, allowed, dist)
        if found is not None:
            _validate_cycle(g, found)
            return found
    return None


def _bfs_dist(g: Graph, s: int, allowed: int) -> dict[int, int]:
    dist = {s: 0}
    frontier = [s]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            r = g.row(v) & allowed
            while r:
                w = (r & -r).bit_length() - 1
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
                r &= r - 1
        frontier = nxt
    return dist


def _cycle_dfs(g, s, l, path, visited, allowed, dist):
    v = path[-1]
    if len(path) == l:
        if g.has_edge(v, s) and path[1] < path[-1]:
            return list(path)
        return None
    budget = l - len(path) + 1  # edges left to get back to s
    r = g.row(v) & allowed & ~visited
    while r:
        w = (r & -r).bit_length() - 1
        r &= r - 1
        if dist.get(w, l + 2) > budget - 1:
            continue
        path.append(w)
        found = _cycle_dfs(g, s, l, path, visited | (1 << w), allowed, dist)
        if found is not None:
            return found
        path.pop()
    return None


def _validate_cycle(g: Graph, cyc: list[int]) -> None:
    assert len(set(cyc)) == len(cyc)
    for i, v in enumerate(cyc):
        assert g.has_edge(v, cyc[(i + 1) % len(cyc)])


def contains_cycle_of_length(g: Graph, l: int) -> bool:
    return find_cycle_of_length(g, l) is not None


def find_bouquet(g: Graph, t: int, l: int) -> tuple[int, list[list[int]]] | None:
    """A B_{t,l} copy as (hub, cycles), each cycle listed from the hub;
    cycles pairwise share exactly the hub. None if g is B_{t,l}-free."""
    if t < 1 or l < 3:
        raise ValueError("bouquet needs t >= 1 and l >= 3")
    if g.n < t * (l - 1) + 1:
        return None
    for v in range(g.n):
        if g.degree(v) < 2 * t:  # the hub carries 2 cycle-edges per cycle
            continue
        cycles = _pack_hub_cycles(g, v, l, t)
        if cycles is not None:
            _validate_bouquet(g, v, cycles)
            return v, cycles
    return None


def contains_bouquet(g: Graph, t: int, l: int) -> bool:
    return find_bouquet(g, t, l) is not None


def max_hub_cycles_at(g: Graph, v: int, l: int, cap: int) -> int:
    """Largest k <= cap of l-cycles through v pairwise sharing only v."""
    best = 0
    while best < cap and _pack_hub_cycles(g, v, l, best + 1) is not None:
        best += 1
    return best


def _pack_hub_cycles(g: Graph, v: int, l: int, t: int) -> list[list[int]] | None:
    """t internally vertex-disjoint l-cycles through v, or None.

    Enumerate-then-pack: list every l-cycle at v once, then search index-
    increasing combinations. The pruning bound repeatedly strips the most
    reused non-hub vertex (a packing can use at most one cycle through it),
    which refutes join-like graphs -- where nearly every cycle runs through
    one high-degree vertex -- at the root instead of by exhaustion.
    """
    paths = list(_all_hub_paths(g, v, l))
    masks = [_mask(p) for p in paths]

    def upper(avail: list[int]) -> int:
        bound = 0
        work = [masks[i] for i in avail]
        while work:
            counts: dict[int, int] = {}
            for m in work:
                while m:
                    b = m & -m
                    counts[b] = counts.get(b, 0) + 1
                    m ^= b
            top, c = max(counts.items(), key=lambda kv: kv[1])
            if c <= 1:
                return bound + len(work)  # pairwise disjoint from here
            bound += 1
            work = [m for m in work if not m & top]
        return bound

    def rec(avail: list[int], k: int) -> list[list[int]] | None:
        if k == 0:
            return []
        if len(avail) < k or upper(avail) < k:
            return None
        for idx, i in enumerate(avail):
            rest = rec([j for j in avail[idx + 1 :] if not masks[j] & masks[i]], k - 1)
            if rest is not None:
                return [[v] + paths[i]] + rest
        return None

    return rec(list(range(len(paths))), t)


def _hub_paths(g: Graph, v: int, a: int, l: int, used: int):
    """Paths a..z of l-1 vertices avoiding used, with z in N(v), z > a."""
    nbhd = g.row(v)
    path = [a]

    def rec(mask: int):
        w = path[-1]
        if len(path) == l - 1:
            if w != a and (nbhd >> w & 1) and w > a:
                yield list(path)
            return
        r = g.row(w) & ~mask & ~used
        while r:
            x = (r & -r).bit_length() - 1
            r &= r - 1
            path.append(x)
            yield from rec(mask | (1 << x))
            path.pop()

    yield from rec((1 << a) | (1 << v) | used)


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _validate_bouquet(g: Graph, v: int, cycles: list[list[int]]) -> None:
    seen = set()
    for cyc in cycles:
        assert cyc[0] == v
        _validate_cycle(g, cyc)
        inner = set(cyc[1:])
        assert not (inner & seen)
        seen |= inner


def all_l_cycles_at(g: Graph, v: int, l: int) -> list[frozenset[tuple[int, int]]]:
    """Edge sets of all l-cycles through v (desk-scale enumeration)."""
    out = []
    for p in _all_hub_paths(g, v, l):
        cyc = [v] + p
        edges = frozenset(
            (min(cyc[i], cyc[(i + 1) % l]), max(cyc[i], cyc[(i + 1) % l]))
            for i in range(l)
        )
        out.append(edges)
    return sorted(set(out), key=sorted)


def _all_hub_paths(g: Graph, v: int, l: int):
    r = g.row(v)
    while r:
        a = (r & -r).bit_length() - 1
        r &= r - 1
        yield from _hub_paths(g, v, a, l, 0)


def max_edge_disjoint_l_cycles_at(g: Graph, v: int, l: int, cap: int) -> int:
    """Largest k <= cap of pairwise edge-disjoint l-cycles through v.

    Exact backtracking set packing over the enumerated cycles; intended
    for desk-scale graphs (the cycle list through v must stay small).
    """
    if cap < 1:
        return 0
    cycles = all_l_cycles_at(g, v, l)
    best = 0

    def rec(i: int, used: frozenset, count: int) -> int:
        nonlocal best
        best = max(best, count)
        if best >= cap or i >= len(cycles):
            return best
        if count + len(cycles) - i <= best:
            return best
        for j in range(i, len(cycles)):
            if not (cycles[j] & used):
                rec(j + 1, used | cycles[j], count + 1)
                if best >= cap:
                    return best
        return best

    return rec(0, frozenset(), 0)


def maximum_matching(g: Graph) -> list[tuple[int, int]]:
    """A maximum matching as a sorted edge list (witness re-validated)."""
    m = nx.max_weight_matching(to_networkx(g), maxcardinality=True)
    edges = sorted((min(u, v), max(u, v)) for u, v in m)
    seen = set()
    for u, v in edges:
        assert g.has_edge(u, v)
        assert u not in seen and v not in seen
        seen |= {u, v}
    return edges


def matching_number(g: Graph) -> int:
    return len(maximum_matching(g))


def is_free(g: Graph, spec: ForbiddenSpec) -> bool:
    """True iff g contains no copy of the forbidden substructure."""
    if spec.kind == "cycle":
        return not contains_cycle_of_length(g, spec.l)
    if spec.kind == "bouquet":
        return not contains_bouquet(g, spec.t, spec.l)
    return matching_number(g) < spec.k
