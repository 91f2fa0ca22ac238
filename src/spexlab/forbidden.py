"""Forbidden-substructure specs and exact detectors.

A bouquet B_{t,l} is the graph made of t cycles of length l that pairwise
share exactly one common hub vertex. Detection is exact subgraph
containment: ``contains_bouquet`` packs t internally vertex-disjoint
l-cycles through some hub. The looser edge-disjoint packing (cycles may
also share non-hub vertices) is exposed separately as
``max_edge_disjoint_l_cycles_at``; one set packer serves both, over vertex
masks and edge masks. The two notions differ on some two-hub join graphs,
and the experiments module reports where.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .graph import Graph, _bits

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
    rows = g.rows()
    for s in range(g.n - l + 1):
        if (rows[s] >> s).bit_count() < 2:  # no two neighbours above s to close on
            continue
        found = _first_hub_cycle(rows, s, l, (1 << s) - 1)  # vertices below s are out
        if found is not None:
            _validate_cycle(g, found)
            return found
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
    if t == 1:
        # B_{1,l} is C_l. Both pick the least vertex on an l-cycle as the
        # hub, and the scan's mask below it prunes only paths that cannot
        # close, so the witness is the first cycle in the same walk
        c = find_cycle_of_length(g, l)
        return None if c is None else (c[0], [c])
    if g.n < t * (l - 1) + 1:
        return None
    rows = g.rows()
    deg = [r.bit_count() for r in rows]
    # the possible hubs: a hub carries 2 cycle-edges per cycle
    hubs = sum(1 << v for v, d in enumerate(deg) if d >= 2 * t)
    for v in _bits(hubs):
        if rows[v] & hubs:
            # A packing holds at most one cycle through any u != v, so t
            # cycles at v leave t - 1 in G - u. Strip v's busiest neighbour
            # among the possible hubs (ties to the smallest); a vertex of
            # lower degree rarely refutes, and its walk costs a full one.
            u = max(_bits(rows[v] & hubs), key=deg.__getitem__)
            if _pack_hub_cycles(_hub_cycle_sets(rows, v, l, 1 << u), t - 1) is None:
                continue
        packed = _pack_hub_cycles(_hub_cycle_sets(rows, v, l), t)
        if packed is not None:
            # the first cycle on each packed set: the walk skips all else
            cycles = [_first_hub_cycle(rows, v, l, ~(m | 1 << v)) for m in packed]
            _validate_bouquet(g, v, cycles)
            return v, cycles
    return None


def contains_bouquet(g: Graph, t: int, l: int) -> bool:
    return find_bouquet(g, t, l) is not None


def _walk_hub_cycles(
    rows: Sequence[int], v: int, l: int, sink: Callable[[list[int], int, int], None], skip: int = 0
) -> None:
    """Visit every l-cycle through v that avoids the vertices of ``skip``
    once, by a DFS over the bitset rows.

    Each cycle is v, a, ..., w, z with a < z: for every path a..w of l - 2
    vertices in G - v that starts at a neighbour a of v, the walk calls
    ``sink(path, inner, ends)`` once, where ``inner`` is the bitset of the
    path and ``ends`` the nonzero bitset of the closing vertices z (the
    neighbours of both v and w above a, off the path). ``path`` is reused
    by the walk; a sink that keeps it must copy it. A sink ends the walk
    early by raising.
    """
    start = 1 << v | skip
    path: list[int] = []

    def extend(w: int, mask: int, left: int, ends: int) -> None:
        # path ends at w; `left` more vertices come before the closing one
        if not left:
            zs = rows[w] & ends & ~mask
            if zs:
                sink(path, mask ^ start, zs)
            return
        r = rows[w] & ~mask
        if left == 1:  # close each next vertex here: most paths end unclosed
            while r:
                b = r & -r
                r ^= b
                x = b.bit_length() - 1
                zs = rows[x] & ends & ~mask
                if zs:
                    path.append(x)
                    sink(path, (mask | b) ^ start, zs)
                    path.pop()
            return
        while r:
            b = r & -r
            r ^= b
            path.append(b.bit_length() - 1)
            extend(path[-1], mask | b, left - 1, ends)
            path.pop()

    r = rows[v] & ~start
    try:
        while r:
            b = r & -r
            r ^= b
            if not r:  # no closing neighbour above the largest one
                break
            path.append(b.bit_length() - 1)
            extend(path[0], start | b, l - 3, r)
            path.pop()
    finally:
        # extend reaches itself through its closure; emptying that cell
        # frees the sink and what it holds now instead of at the next full
        # collection, also when the sink stopped the walk
        del extend


_SPREAD = (1 << 64) - 59  # a prime


def _hub_cycle_sets(rows: Sequence[int], v: int, l: int, skip: int = 0) -> list[int]:
    """The distinct internal vertex sets of the l-cycles through v that
    avoid the vertices of skip, as bitmasks in walk order."""
    # Python hashes an int mod 2^61 - 1, under which bit k weighs the same
    # as bit k + 61, so the masks of one hub collide by the thousand;
    # pairing each mask with its residue mod another prime spreads them.
    seen: set[tuple[int, int]] = set()
    masks: list[int] = []

    def keep(path: list[int], inner: int, ends: int) -> None:
        while ends:
            b = ends & -ends
            ends ^= b
            m = inner | b
            key = (m % _SPREAD, m)
            if key not in seen:
                seen.add(key)
                masks.append(m)

    _walk_hub_cycles(rows, v, l, keep, skip)
    return masks


class _Found(Exception):
    """Raised by a sink to stop a walk at the first cycle it meets."""


def _first_hub_cycle(rows: Sequence[int], v: int, l: int, skip: int) -> list[int] | None:
    """The first l-cycle through v in walk order that avoids the vertices
    of skip, listed from v, or None."""

    def stop(path: list[int], inner: int, ends: int) -> None:
        raise _Found([v, *path, (ends & -ends).bit_length() - 1])

    try:
        _walk_hub_cycles(rows, v, l, stop, skip)
    except _Found as found:
        return found.args[0]
    return None


def _pack_hub_cycles(masks: list[int], t: int) -> list[int] | None:
    """t pairwise disjoint masks, the first such choice in list order, or None.

    Backtracking over index-increasing combinations. The pruning bound
    repeatedly strips the most reused element (a packing can use at most
    one set through it), which refutes join-like graphs -- where nearly
    every cycle runs through one high-degree vertex -- at the root instead
    of by exhaustion. The masks may hold vertices or edges alike.
    """

    def fits(avail: list[int], k: int) -> bool:
        """False when the bound refutes k disjoint sets among avail; each
        strip uses up one of the k, so the bound stops once it decides."""
        work = [masks[i] for i in avail]
        while 1 < k <= len(work):
            counts: dict[int, int] = {}
            for m in work:
                while m:
                    b = m & -m
                    counts[b] = counts.get(b, 0) + 1
                    m ^= b
            top, c = max(counts.items(), key=lambda kv: kv[1])
            if c <= 1:
                return True  # pairwise disjoint from here
            k -= 1
            work = [m for m in work if not m & top]
        return k <= len(work)

    def rec(avail: list[int], k: int) -> list[int] | None:
        if k == 0:
            return []
        if not fits(avail, k):
            return None
        for idx, i in enumerate(avail):
            rest = rec([j for j in avail[idx + 1 :] if not masks[j] & masks[i]], k - 1)
            if rest is not None:
                return [masks[i]] + rest
        return None

    return rec(list(range(len(masks))), t)


def _validate_bouquet(g: Graph, v: int, cycles: list[list[int]]) -> None:
    seen = set()
    for cyc in cycles:
        assert cyc[0] == v
        _validate_cycle(g, cyc)
        inner = set(cyc[1:])
        assert not (inner & seen)
        seen |= inner


def max_edge_disjoint_l_cycles_at(g: Graph, v: int, l: int, cap: int) -> int:
    """Largest k <= cap of pairwise edge-disjoint l-cycles through v.

    The walk's sink turns each cycle into the bitmask of its edges, edge
    uw (u < w) as bit u * n + w, so edge-disjoint cycles are disjoint masks
    and the bouquet packer decides each k in turn; intended for desk-scale
    graphs (the cycle list through v must stay small).
    """
    n = g.n
    masks: list[int] = []

    def bit(u: int, w: int) -> int:
        return 1 << (u * n + w if u < w else w * n + u)

    def keep(path: list[int], inner: int, ends: int) -> None:
        m, prev = 0, v
        for w in path:
            m |= bit(prev, w)
            prev = w
        while ends:
            z = ends.bit_length() - 1
            ends ^= 1 << z
            masks.append(m | bit(prev, z) | bit(z, v))

    _walk_hub_cycles(g.rows(), v, l, keep)
    best = 0
    while best < cap and _pack_hub_cycles(masks, best + 1) is not None:
        best += 1
    return best


def _has_matching(rows: Sequence[int], k: int) -> bool:
    """Whether the graph on the bitset rows has k independent edges.

    A greedy maximal matching in vertex order decides most graphs: k edges
    are a witness, and fewer, s < k, leave 2s <= 2k - 2 matched vertices
    that cover every edge (Cygan et al., *Parameterized Algorithms*, 2015,
    ch. 2). The kernel keeps the cover and, for each cover vertex, its
    2k - 1 least neighbours outside it. That loses no k-matching: its other
    k - 1 edges use at most 2k - 2 vertices, so a kept neighbour is free
    for each of its edges that leaves the cover. Augmenting paths on the
    kernel then grow the greedy matching up to k.
    """
    n = len(rows)
    mate = [-1] * n
    free = (1 << n) - 1
    size = 0
    for v in range(n):
        if mate[v] < 0:
            r = rows[v] & free
            if r:
                u = (r & -r).bit_length() - 1
                mate[v], mate[u] = u, v
                free ^= 1 << v | 1 << u
                size += 1
                if size == k:
                    return True
    keep = ((1 << n) - 1) ^ free
    for c in _bits(keep):
        r = rows[c] & free
        for _ in range(2 * k - 1):
            keep |= r & -r
            r &= r - 1
    verts = _bits(keep)
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[u] for u in _bits(rows[v] & keep)] for v in verts]
    kmate = [index[mate[v]] if mate[v] >= 0 else -1 for v in verts]
    for root in range(len(verts)):
        # an exposed vertex without an augmenting path gains none later
        if kmate[root] < 0 and _augment(adj, kmate, root):
            size += 1
            if size == k:
                return True
    return False


def _augment(adj: list[list[int]], mate: list[int], root: int) -> bool:
    """Flip an augmenting path from the exposed vertex root, if one exists.

    Edmonds' search (*Canad. J. Math.* 17, 1965): grow an alternating tree
    from root breadth first and shrink each odd cycle of outer vertices, a
    blossom, into its base. ``mate`` is updated in place.
    """
    m = len(adj)
    base = list(range(m))
    parent = [-1] * m  # the tree edge into each inner vertex
    outer = [False] * m
    outer[root] = True
    queue = [root]

    def lca(a: int, b: int) -> int:
        """The base where the tree paths of outer a and b meet."""
        up = set()
        while True:
            a = base[a]
            up.add(a)
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while base[b] not in up:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v: int, b: int, child: int, blossom: set[int]) -> None:
        # walk from v down to base b, pointing each inner vertex into the cycle
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:  # the queue grows while it is read
        for w in adj[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or mate[w] >= 0 and parent[mate[w]] >= 0:  # w is outer
                b = lca(v, w)
                blossom: set[int] = set()
                mark(v, b, w, blossom)
                mark(w, b, v, blossom)
                for i in range(m):
                    if base[i] in blossom:
                        base[i] = b
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:
                    while w >= 0:
                        u = parent[w]
                        nxt = mate[u]
                        mate[w], mate[u] = u, w
                        w = nxt
                    return True
                outer[mate[w]] = True
                queue.append(mate[w])
    return False


def is_free(g: Graph, spec: ForbiddenSpec) -> bool:
    """True iff g contains no copy of the forbidden substructure."""
    if spec.kind == "cycle":
        return not contains_cycle_of_length(g, spec.l)
    if spec.kind == "bouquet":
        return not contains_bouquet(g, spec.t, spec.l)
    return not _has_matching(g.rows(), spec.k)
