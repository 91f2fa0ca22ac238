"""Immutable bitset-backed simple graphs and basic constructions."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 65536


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Adjacency is stored as one Python int bitset per vertex: bit j of
    ``row(i)`` is 1 iff ij is an edge. Rows must be symmetric and
    irreflexive; the constructor checks them, while operations that derive
    a graph from valid graphs build it through ``_derived`` unchecked.
    Every layer that needs neighbour indices reads them from
    ``adjacency()``, which is built on each call and not stored.
    Instances are immutable; all edits produce new graphs.
    """

    __slots__ = ("n", "_rows", "_hash")

    def __init__(self, n: int, rows: Iterable[int]):
        _check_order(n)
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for i, row in enumerate(rows):
            if row < 0 or row & ~full:
                raise ValueError(f"row {i} has bits outside 0..{n - 1}")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
            r = row
            while r:
                j = (r & -r).bit_length() - 1
                if not rows[j] >> i & 1:
                    raise ValueError(f"asymmetric adjacency at ({i}, {j})")
                r &= r - 1
        self._set(n, rows)

    @classmethod
    def _derived(cls, n: int, rows: Iterable[int]) -> Graph:
        """Graph on rows that are valid by construction, such as rows
        derived from valid graphs. Skips the per-row scan of ``__init__``
        (which stays the check for outside input) but keeps the vertex cap."""
        _check_order(n)
        g = object.__new__(cls)
        g._set(n, tuple(rows))
        return g

    def _set(self, n: int, rows: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_hash", hash((n, rows)))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def row(self, v: int) -> int:
        """Adjacency bitset of vertex v."""
        return self._rows[v]

    def rows(self) -> tuple[int, ...]:
        return self._rows

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        r = self._rows[v]
        while r:
            yield (r & -r).bit_length() - 1
            r &= r - 1

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    def adjacency(self) -> list[list[int]]:
        """Ascending neighbour lists. Each row is walked only above its own
        vertex, shifted down by u + 1 so that the ints stay short even
        where a row reaches a hub at bit 0, and every edge is recorded at
        both ends: the lower end's list gets it first, in ascending order."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, r in enumerate(self._rows):
            r >>= u + 1
            w = u
            while r:
                k = (r & -r).bit_length()
                w += k
                adj[u].append(w)
                adj[w].append(u)
                r >>= k
        return adj

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, lexicographic order."""
        for u, nbrs in enumerate(self.adjacency()):
            for v in nbrs:
                if v > u:
                    yield u, v

    def add_edge(self, u: int, v: int) -> Graph:
        """New graph with edge uv added; error if present or invalid."""
        self._check_pair(u, v)
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present")
        rows = list(self._rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._derived(self.n, rows)

    def remove_edge(self, u: int, v: int) -> Graph:
        """New graph with edge uv removed; error if absent."""
        self._check_pair(u, v)
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        rows = list(self._rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._derived(self.n, rows)

    def _check_pair(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) out of range")
        if u == v:
            raise ValueError("self-loops not allowed")

    def induced_subgraph(self, vertices: Iterable[int]) -> Graph:
        """Subgraph induced on the given vertices, relabeled in sorted order."""
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            raise ValueError("vertices out of range")
        index = {v: i for i, v in enumerate(vs)}
        adj = self.adjacency()
        rows = [sum(1 << index[w] for w in adj[v] if w in index) for v in vs]
        return Graph._derived(len(vs), rows)

    def relabel(self, perm: Sequence[int]) -> Graph:
        """New graph where old vertex i becomes perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertices")
        rows = [0] * self.n
        for i, nbrs in enumerate(self.adjacency()):
            rows[perm[i]] = sum(1 << perm[j] for j in nbrs)
        return Graph._derived(self.n, rows)

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, by smallest vertex."""
        return components_of(self.adjacency())

    def is_connected(self) -> bool:
        """Whether vertex 0 reaches every vertex, by bitset frontiers: each
        frontier is peeled from the top, where bit_length reads no digits."""
        if self.n <= 1:
            return True
        rows = self._rows
        comp = frontier = 1
        while frontier:
            nxt = comp
            while frontier:
                v = frontier.bit_length() - 1
                nxt |= rows[v]
                frontier ^= 1 << v
            frontier = nxt ^ comp
            comp = nxt
        return comp == (1 << self.n) - 1


def components_of(adj: list[list[int]]) -> list[list[int]]:
    """Connected components of the graph with neighbour lists ``adj``, as
    sorted vertex lists, by smallest vertex; one breadth-first search."""
    seen = [False] * len(adj)
    out = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for v in comp:  # comp grows while it is read: the BFS queue
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        out.append(comp)
    return out


def _check_order(n: int) -> None:
    if n < 0 or n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v}) for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def empty_graph(n: int) -> Graph:
    """n isolated vertices."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return Graph._derived(n, [0] * n)


def path(k: int) -> Graph:
    """Path P_k on k >= 1 vertices, edges i(i+1)."""
    if k < 1:
        raise ValueError("path needs k >= 1")
    return from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> Graph:
    """Cycle C_k on k >= 3 vertices."""
    if k < 3:
        raise ValueError("cycle needs k >= 3")
    return from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def star(n: int) -> Graph:
    """Star K_{1,n-1} on n >= 2 vertices with hub 0."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return from_edges(n, [(0, i) for i in range(1, n)])


def complete(k: int) -> Graph:
    """Complete graph K_k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    full = (1 << k) - 1
    return Graph._derived(k, [full & ~(1 << i) for i in range(k)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}; the a-side comes first."""
    if a < 0 or b < 0:
        raise ValueError("sides must be non-negative")
    left = ((1 << b) - 1) << a
    right = (1 << a) - 1
    return Graph._derived(a + b, [left] * a + [right] * b)


def disjoint_union(graphs: Iterable[Graph]) -> Graph:
    """Disjoint union; vertex blocks keep the argument order."""
    rows: list[int] = []
    offset = 0
    for g in graphs:
        rows.extend(r << offset for r in g.rows())
        offset += g.n
    return Graph._derived(offset, rows)


def join(g1: Graph, g2: Graph) -> Graph:
    """Join g1 v g2: disjoint union plus all edges across; g1 first."""
    n1, n2 = g1.n, g2.n
    right = ((1 << n2) - 1) << n1
    left = (1 << n1) - 1
    rows = [r | right for r in g1.rows()]
    rows.extend((r << n1) | left for r in g2.rows())
    return Graph._derived(n1 + n2, rows)


def edge_list_text(g: Graph) -> str:
    """Edge list, one 'u v' per line."""
    return "\n".join(f"{u} {v}" for u, v in g.edges())


def parse_edge_list(text: str, n: int | None = None) -> Graph:
    """Parse 'u v' lines; n defaults to max vertex + 1 (no trailing isolates)."""
    edges = []
    top = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer vertex") from exc
        edges.append((u, v))
        top = max(top, u, v)
    if n is None:
        n = top + 1
    return from_edges(n, edges)
