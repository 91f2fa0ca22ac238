"""Shared test utilities: random graphs, the networkx bridge, small oracles."""

from __future__ import annotations

import itertools
import random
import warnings

import networkx as nx
import numpy as np
from hypothesis import strategies as st

from spexlab.graph import Graph, from_edges
from spexlab.recognition import to_networkx as to_nx


def random_graph(rnd: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p
    ]
    return from_edges(n, edges)


def random_hubbed_graph(rnd: random.Random, n: int, p: float, hubs: int) -> Graph:
    """Random graph plus ``hubs`` random vertices, each joined to a random
    majority of the others: the shape of the hub-joined families."""
    edges = set(random_graph(rnd, n, p).edges())
    for h in rnd.sample(range(n), hubs):
        q = rnd.choice([0.6, 0.85, 1.0])
        edges |= {(min(h, w), max(h, w)) for w in range(n) if w != h and rnd.random() < q}
    return from_edges(n, sorted(edges))


def random_connected_graph(rnd: random.Random, n: int, p: float) -> Graph:
    """Random graph plus a random spanning tree so it is always connected."""
    g = random_graph(rnd, n, p)
    order = list(range(n))
    rnd.shuffle(order)
    for a, b in zip(order, order[1:]):
        if not g.has_edge(a, b):
            g = g.add_edge(a, b)
    return g


def dense_rho(g: Graph) -> float:
    """Largest adjacency eigenvalue via a full symmetric eigensolve."""
    a = np.zeros((max(g.n, 1), max(g.n, 1)))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def permutations_of(draw, n: int) -> list[int]:
    return draw(st.permutations(range(n)))


def all_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices (2^(n(n-1)/2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def atlas_classes(n: int) -> list[Graph]:
    """One graph per isomorphism class on n <= 7 vertices, from networkx's
    graph atlas (independent of spexlab's canonical labelling)."""
    return [
        from_edges(n, G.edges())
        for G in nx.graph_atlas_g()
        if G.number_of_nodes() == n
    ]


def iso_key(g: Graph) -> str:
    """Isomorphism-invariant bucket key, independent of spexlab's canon.

    networkx >= 3.5 warns that its hashes of unlabelled graphs changed in
    v3.5. The key only buckets graphs within one run before an exact
    isomorphism test, so that warning is silenced here.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "The hashes produced", UserWarning)
        return nx.weisfeiler_lehman_graph_hash(to_nx(g), iterations=3)


def iso_classes(graphs_iter) -> list[Graph]:
    """One representative per isomorphism class, via WL-hash buckets plus
    exact networkx isomorphism inside each bucket."""
    buckets: dict[str, list[Graph]] = {}
    for g in graphs_iter:
        reps = buckets.setdefault(iso_key(g), [])
        G = to_nx(g)
        if not any(nx.is_isomorphic(G, to_nx(r)) for r in reps):
            reps.append(g)
    return [g for reps in buckets.values() for g in reps]
