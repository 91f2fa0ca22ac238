"""Planarity and outerplanarity recognition."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import Graph

CLASSES = ("outerplanar", "planar")


@dataclass(frozen=True)
class PlanarityVerdict:
    """Boolean verdict plus a best-effort witness tag (not a certificate)."""

    planar: bool
    witness: str

    def __bool__(self) -> bool:
        return self.planar


def to_networkx(g: Graph):
    """g as a networkx.Graph on the vertices 0..n-1."""
    import networkx as nx  # imported on first use: most runs never need it
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def in_class(g: Graph, klass: str) -> PlanarityVerdict:
    """The verdict of the recognizer of klass, one of ``CLASSES``."""
    if klass == "outerplanar":
        return is_outerplanar(g)
    if klass == "planar":
        return is_planar(g)
    raise ValueError(f"class must be one of {CLASSES}, got {klass!r}")


def is_planar(g: Graph) -> PlanarityVerdict:
    """Planarity: refuted by the edge bound m <= 3n - 6, else decided
    first by one vertex deletion: g lies in K1 v (g - v), which is planar
    when g - v is outerplanar (G. Chartrand and F. Harary, Ann. Inst. H.
    Poincare B 3, 1967). A vertex v of maximum degree is tried, and g - v
    is g's rows with bit v masked off and row v cleared, so v is isolated.
    Otherwise networkx's left-right test decides.

    Witness tags: "edge-bound" (more than 3n-6 edges), "apex-outerplanar"
    (g - v is outerplanar), "lr-embedding" and "lr-obstruction" (the
    left-right test's verdict).
    """
    if g.n >= 3 and g.edge_count() > 3 * g.n - 6:
        return PlanarityVerdict(False, "edge-bound")
    if g.n:
        v = max(range(g.n), key=g.degree)
        keep = ~(1 << v)
        rows = [r & keep for r in g.rows()]
        rows[v] = 0
        if is_outerplanar(Graph._derived(g.n, rows)):
            return PlanarityVerdict(True, "apex-outerplanar")
    import networkx as nx
    ok, _ = nx.check_planarity(to_networkx(g), counterexample=False)
    return PlanarityVerdict(ok, "lr-embedding" if ok else "lr-obstruction")


def is_outerplanar(g: Graph) -> PlanarityVerdict:
    """Linear-time outerplanarity (S. L. Mitchell, Inf. Process. Lett. 9,
    1979; M. Wiegers, WG 1986): g is outerplanar iff every biconnected
    block reduces to one edge by removing degree-2 vertices, where removing
    v with neighbours u, w adds the edge uw if it is missing and no edge may
    lie in more than two of the removed triangles uvw.

    Witness tags: "edge-bound" (more than 2n-3 edges), "reduced" (every
    block reduces), "triangle-overflow" (an edge in three triangles: a
    K2,3 minor) and "reduction-stuck" (a block of minimum degree 3: a K4
    minor).
    """
    if g.n >= 2 and g.edge_count() > 2 * g.n - 3:
        return PlanarityVerdict(False, "edge-bound")
    for block in _blocks(g):
        if len(block) > 1:  # single edges are bridges
            failure = _reduce_block(block)
            if failure:
                return PlanarityVerdict(False, failure)
    return PlanarityVerdict(True, "reduced")


def _blocks(g: Graph) -> Iterator[list[tuple[int, int]]]:
    """Edge lists of the biconnected blocks of g, from one iterative
    Hopcroft-Tarjan depth-first search over ``Graph.adjacency``; it keeps
    its own stack, so a path on ``MAX_VERTICES`` vertices does not hit the
    recursion limit."""
    adj = g.adjacency()
    disc = [0] * g.n  # discovery time, 0 = unvisited
    low = [0] * g.n
    clock = 0
    for root in range(g.n):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        edges: list[tuple[int, int]] = []
        # frames: vertex, DFS parent, neighbour iterator, and the length of
        # the edge stack before the tree edge into the vertex
        stack = [(root, -1, iter(adj[root]), 0)]
        while stack:
            v, parent, it, mark = stack[-1]
            for w in it:
                if not disc[w]:
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append((w, v, iter(adj[w]), len(edges)))
                    edges.append((v, w))
                    break
                if disc[w] < disc[v] and w != parent:  # back edge
                    edges.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:  # u separates v's subtree
                        yield edges[mark:]
                        del edges[mark:]


def _reduce_block(edges: list[tuple[int, int]]) -> str | None:
    """Degree-2 reduction of one biconnected block with at least three
    vertices; None if it reduces to one edge, else the failure tag. Each
    vertex maps its neighbours to the number of removed triangles on that
    edge. Degrees never rise, and a biconnected block keeps minimum degree
    2 until two vertices are left, so each vertex is queued at most once."""
    adj: dict[int, dict[int, int]] = {}
    for u, w in edges:
        adj.setdefault(u, {})[w] = 0
        adj.setdefault(w, {})[u] = 0
    todo = [v for v, nbrs in adj.items() if len(nbrs) == 2]
    left = len(adj)
    while left > 2:
        if not todo:
            return "reduction-stuck"
        v = todo.pop()
        (u, cu), (w, cw) = adj.pop(v).items()
        left -= 1
        nu, nw = adj[u], adj[w]
        del nu[v], nw[v]
        present = w in nu
        c = nu.get(w, 0)
        if cu == 2 or cw == 2 or c == 2:
            return "triangle-overflow"
        nu[w] = nw[u] = c + 1
        if present:  # so u and w each lost a neighbour
            if len(nu) == 2:
                todo.append(u)
            if len(nw) == 2:
                todo.append(w)
    return None
