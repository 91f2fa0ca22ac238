"""Planarity/outerplanarity vs independent oracles.

The minor oracle breadth-first-searches edge contractions and checks the
target subgraph at every stage: H is a minor of G iff some contraction
sequence of G contains H as a subgraph. Outerplanar = no K4 and no K2,3
minor; planar = no K5 and no K3,3 minor. The apex oracle decides
outerplanarity as planarity of G plus one vertex adjacent to all of G,
built and tested in networkx alone.
"""

from __future__ import annotations

import itertools
import random
import sys

import networkx as nx
import pytest

from helpers import (
    all_labeled_graphs,
    atlas_classes,
    iso_classes,
    random_graph,
    random_hubbed_graph,
    to_nx,
)
from spexlab.constructions import FamilySpec, construct
from spexlab.graph import (
    MAX_VERTICES,
    Graph,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    from_edges,
    join,
    path,
    star,
)
from spexlab.recognition import (
    PlanarityVerdict,
    is_outerplanar,
    is_planar,
    quick_reject_outerplanar,
    quick_reject_planar,
)


def _contractions(g: Graph):
    for u, v in g.edges():
        keep = [w for w in range(g.n) if w != v]
        index = {w: i for i, w in enumerate(keep)}
        edges = set()
        for a, b in g.edges():
            a2, b2 = (u if a == v else a), (u if b == v else b)
            if a2 != b2:
                i, j = index[a2], index[b2]
                edges.add((min(i, j), max(i, j)))
        yield from_edges(g.n - 1, edges)


def _has_clique(g: Graph, k: int) -> bool:
    return any(
        all(g.has_edge(a, b) for a, b in itertools.combinations(vs, 2))
        for vs in itertools.combinations(range(g.n), k)
    )


def _has_biclique(g: Graph, a: int, b: int) -> bool:
    for vs in itertools.combinations(range(g.n), a):
        common = (1 << g.n) - 1
        for v in vs:
            common &= g.row(v)
        if common.bit_count() >= b:  # side vertices never self-appear
            return True
    return False


def _has_minor(g: Graph, contains, order: int) -> bool:
    seen = {(g.n, g.rows())}
    frontier = [g]
    while frontier:
        nxt = []
        for h in frontier:
            if h.n < order:
                continue
            if contains(h):
                return True
            for c in _contractions(h):
                key = (c.n, c.rows())
                if key not in seen:
                    seen.add(key)
                    nxt.append(c)
        frontier = nxt
    return False


def oracle_outerplanar(g: Graph) -> bool:
    return not _has_minor(g, lambda h: _has_clique(h, 4), 4) and not _has_minor(
        g, lambda h: _has_biclique(h, 2, 3), 5
    )


def oracle_planar(g: Graph) -> bool:
    return not _has_minor(g, lambda h: _has_clique(h, 5), 5) and not _has_minor(
        g, lambda h: _has_biclique(h, 3, 3), 6
    )


def test_known_graphs():
    assert is_outerplanar(cycle(5)) and is_planar(cycle(5))
    assert not is_outerplanar(complete(4)) and is_planar(complete(4))
    k23 = complete_bipartite(2, 3)
    assert not is_outerplanar(k23) and is_planar(k23)
    assert not is_planar(complete(5))
    assert not is_planar(complete_bipartite(3, 3))
    petersen = from_edges(10, nx.petersen_graph().edges())
    assert not is_planar(petersen)
    assert is_planar(empty_graph(0)) and is_outerplanar(empty_graph(0))


def apex_outerplanar(g: Graph) -> bool:
    """G is outerplanar iff G plus an apex adjacent to every vertex is
    planar; networkx's left-right test decides the latter."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    G.add_edges_from(("apex", v) for v in range(g.n))
    return nx.check_planarity(G, counterexample=False)[0]


def _subdivided_k4() -> Graph:
    edges = []
    for i, (u, v) in enumerate(complete(4).edges()):
        edges += [(u, 4 + i), (4 + i, v)]
    return from_edges(10, edges)


def test_verdict_carries_witness_tag():
    v = is_planar(complete(5))
    assert not v and v.witness == "lr-obstruction"
    assert is_planar(construct(FamilySpec("wheel", 8))) == PlanarityVerdict(
        True, "apex-outerplanar"
    )
    octahedron = from_edges(6, nx.complete_multipartite_graph(2, 2, 2).edges())
    assert is_planar(octahedron) == PlanarityVerdict(True, "lr-embedding")
    assert is_outerplanar(path(3)) == PlanarityVerdict(True, "reduced")
    assert is_outerplanar(complete(4)) == PlanarityVerdict(False, "edge-bound")
    assert is_outerplanar(complete_bipartite(2, 3)) == PlanarityVerdict(
        False, "triangle-overflow"
    )
    assert is_outerplanar(_subdivided_k4()) == PlanarityVerdict(
        False, "reduction-stuck"
    )


def test_family_membership():
    for n in (6, 9, 12):
        assert is_planar(join(complete(1), cycle(n - 1)))
        assert not is_outerplanar(join(complete(1), cycle(n - 1)))
        assert is_outerplanar(join(complete(1), path(n - 1)))  # maximal fan
        assert is_outerplanar(construct(FamilySpec("jn", n)))
        assert is_planar(construct(FamilySpec("k2n2", n)))
        assert is_outerplanar(construct(FamilySpec("k1hop", n, t=2, l=4)))
        assert is_planar(construct(FamilySpec("k2hp", n + 6, t=2, l=4)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exhaustive_against_minor_oracle(n):
    for g in iso_classes(all_labeled_graphs(n)):
        assert bool(is_outerplanar(g)) == oracle_outerplanar(g), g.rows()
        assert bool(is_planar(g)) == oracle_planar(g), g.rows()


def test_exhaustive_n6_against_minor_oracle():
    for g in atlas_classes(6):
        assert bool(is_outerplanar(g)) == oracle_outerplanar(g), g.rows()
        assert bool(is_planar(g)) == oracle_planar(g), g.rows()


def test_sampled_n7_n8_against_minor_oracle():
    rnd = random.Random(7208)
    for n in (7, 8):
        for _ in range(120):
            g = random_graph(rnd, n, rnd.choice([0.25, 0.4, 0.55]))
            assert bool(is_outerplanar(g)) == oracle_outerplanar(g), g.rows()
            assert bool(is_planar(g)) == oracle_planar(g), g.rows()


def test_quick_rejects():
    # fan is edge-maximal outerplanar: 2n-3 edges, still accepted
    fan = join(complete(1), path(7))
    assert fan.edge_count() == 2 * fan.n - 3
    assert quick_reject_outerplanar(fan) is None and is_outerplanar(fan)
    assert quick_reject_outerplanar(complete(4)) is False
    assert quick_reject_planar(complete(5)) is False
    assert quick_reject_planar(complete(4)) is None
    assert quick_reject_outerplanar(empty_graph(1)) is None


def test_atlas_against_apex_oracle():
    for G in nx.graph_atlas_g():
        g = from_edges(G.number_of_nodes(), G.edges())
        assert bool(is_outerplanar(g)) == apex_outerplanar(g), g.rows()


def test_random_graphs_against_apex_oracle():
    rnd = random.Random(20261018)
    for _ in range(5000):
        n = rnd.randint(3, 16)
        g = random_graph(rnd, n, rnd.choice([0.1, 0.2, 0.3, 0.45, 0.7]))
        assert bool(is_outerplanar(g)) == apex_outerplanar(g), g.rows()


def _glued_graph(rnd: random.Random) -> Graph:
    """Random small graphs, each sharing one vertex with an earlier one (a
    cut vertex) or none, plus isolated vertices, randomly relabelled."""
    n, edges = 0, []
    for _ in range(rnd.randint(1, 5)):
        size = rnd.randint(1, 7)
        h = random_graph(rnd, size, rnd.choice([0.3, 0.5, 0.8]))
        if n and rnd.random() < 0.7:
            label = [rnd.randrange(n)] + list(range(n, n + size - 1))
        else:
            label = list(range(n, n + size))
        n = max(n, label[-1] + 1)
        edges += [(label[a], label[b]) for a, b in h.edges()]
    n += rnd.randint(0, 3)
    perm = list(range(n))
    rnd.shuffle(perm)
    return from_edges(n, [(perm[a], perm[b]) for a, b in edges])


def test_disconnected_and_cut_vertices_against_apex_oracle():
    k4 = from_edges(7, complete(4).edges())  # K4 plus 3 isolated vertices
    k23 = from_edges(8, complete_bipartite(2, 3).edges())
    bowtie = from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    cases = [k4, k23, bowtie, empty_graph(5), from_edges(4, [(0, 1)])]
    rnd = random.Random(1018)
    cases += [_glued_graph(rnd) for _ in range(2000)]
    for g in cases:
        assert bool(is_outerplanar(g)) == apex_outerplanar(g), (g.n, g.rows())
    assert is_outerplanar(k4).witness == "reduction-stuck"
    assert is_outerplanar(k23).witness == "triangle-overflow"
    assert is_outerplanar(bowtie).witness == "reduced"


FAMILY_SPECS = [
    "star:n={n}",
    "jn:n={n}",
    "claimw:t=2,n={n}",
    "wheel:n={n}",
    "k1hop:t=2,l=4,n={n}",
    "k2hp:t=2,l=4,n={n}",
    "k2n2:n={n}",
]


@pytest.mark.parametrize("template", FAMILY_SPECS)
def test_families_against_apex_oracle(template):
    for n in (12, 13, 40, 10_000):
        g = construct(FamilySpec.parse(template.format(n=n)))
        assert bool(is_outerplanar(g)) == apex_outerplanar(g), (template, n)


def test_long_path_needs_no_recursion():
    assert is_outerplanar(path(MAX_VERTICES)) == PlanarityVerdict(True, "reduced")


def test_outerplanarity_builds_no_networkx_graph(monkeypatch):
    monkeypatch.setitem(sys.modules, "networkx", None)  # importing it now fails
    for g in (path(5), complete(4), complete_bipartite(2, 3), _subdivided_k4()):
        is_outerplanar(g)
    with pytest.raises(ImportError):  # K5 - v = K4 is not outerplanar
        is_planar(complete(5))


@pytest.mark.parametrize(
    "spec", ["k2hp:t=3,l=5,n=10000", "jn:n=10000", "wheel:n=10000", "k2n2:n=10000"]
)
def test_apex_certificate_needs_no_networkx(monkeypatch, spec):
    g = construct(FamilySpec.parse(spec))
    monkeypatch.setitem(sys.modules, "networkx", None)
    assert is_planar(g) == PlanarityVerdict(True, "apex-outerplanar")


def _check_planarity_against_networkx(g: Graph) -> str:
    v = is_planar(g)
    assert v.planar == nx.check_planarity(to_nx(g), counterexample=False)[0], g.rows()
    return v.witness


def test_planarity_matches_networkx_on_atlas_and_hubbed_graphs():
    tags = [
        _check_planarity_against_networkx(from_edges(G.number_of_nodes(), G.edges()))
        for G in nx.graph_atlas_g()
    ]
    rnd = random.Random(91018)
    for _ in range(3000):
        g = random_hubbed_graph(
            rnd, rnd.randint(4, 14), rnd.choice([0.1, 0.2, 0.35]), rnd.randint(0, 3)
        )
        tags.append(_check_planarity_against_networkx(g))
    # all three tags occur, so the certificate and both fallbacks are tested
    assert set(tags) == {"apex-outerplanar", "lr-embedding", "lr-obstruction"}


@pytest.mark.parametrize("template", FAMILY_SPECS)
def test_family_planarity_matches_networkx(template):
    for n in (12, 13, 40, 400):
        _check_planarity_against_networkx(construct(FamilySpec.parse(template.format(n=n))))
