"""Bitset Graph core: construction, edits, invariants, text round-trips."""

from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graphs, to_nx
from spexlab.graph import (
    MAX_VERTICES,
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    edge_list_text,
    empty_graph,
    from_edges,
    join,
    parse_edge_list,
    path,
    star,
)


def test_constructor_rejects_bad_rows():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, [0b10, 0b00])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [0b01, 0b10])
    with pytest.raises(ValueError, match="outside"):
        Graph(2, [0b100, 0b000])
    with pytest.raises(ValueError, match="rows"):
        Graph(3, [0, 0])
    with pytest.raises(ValueError, match="vertex count"):
        Graph(-1, [])


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5
    h = g.add_edge(0, 2)
    assert not g.has_edge(0, 2) and h.has_edge(0, 2)
    assert g != h and hash(g) != hash(h)


def test_add_remove_edge():
    g = path(4)
    assert g.remove_edge(1, 2).edge_count() == 2
    with pytest.raises(ValueError, match="already present"):
        g.add_edge(0, 1)
    with pytest.raises(ValueError, match="not present"):
        g.remove_edge(0, 2)
    with pytest.raises(ValueError, match="out of range"):
        g.add_edge(0, 9)
    with pytest.raises(ValueError, match="self-loops"):
        g.add_edge(2, 2)
    assert g.remove_edge(0, 1).add_edge(0, 1) == g


def test_edges_are_lexicographic():
    g = cycle(4)
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert g.edge_count() == 4
    assert all(g.has_edge(u, v) and g.has_edge(v, u) for u, v in g.edges())


def test_neighbors_and_degree():
    g = star(5)
    assert list(g.neighbors(0)) == [1, 2, 3, 4]
    assert g.degree(0) == 4 and g.degree(3) == 1
    assert g.row(3) == 1


def test_builders():
    assert path(1).edge_count() == 0
    assert sorted(complete(4).degree(v) for v in range(4)) == [3, 3, 3, 3]
    assert complete_bipartite(2, 3).edge_count() == 6
    assert empty_graph(4).edge_count() == 0
    for builder, bad_arg in ((path, 0), (cycle, 2), (star, 1), (complete, -1)):
        with pytest.raises(ValueError):
            builder(bad_arg)
    with pytest.raises(ValueError):
        complete_bipartite(-1, 2)


def test_join_builds_wheel():
    w = join(complete(1), cycle(5))
    assert w.degree(0) == 5
    assert all(w.degree(v) == 3 for v in range(1, 6))
    assert join(complete(2), complete(3)) == complete(5)


def test_disjoint_union_and_components():
    g = disjoint_union([complete(3), path(2), empty_graph(1)])
    assert g.n == 6 and g.edge_count() == 4
    assert g.components() == [[0, 1, 2], [3, 4], [5]]
    assert not g.is_connected()
    assert complete(3).is_connected()
    assert empty_graph(0).is_connected() and empty_graph(1).is_connected()


@given(graphs(max_n=9))
@settings(max_examples=80, deadline=None)
def test_components_and_is_connected_match_networkx(g):
    G = to_nx(g)
    assert g.components() == sorted(sorted(c) for c in nx.connected_components(G))
    assert g.is_connected() == (g.n <= 1 or nx.is_connected(G))


def test_induced_subgraph():
    w = join(complete(1), cycle(5))
    rim = w.induced_subgraph(range(1, 6))
    assert rim == cycle(5)
    assert w.induced_subgraph([]).n == 0
    with pytest.raises(ValueError):
        w.induced_subgraph([0, 99])


def test_relabel_roundtrip():
    g = path(5)
    perm = [4, 2, 0, 1, 3]
    h = g.relabel(perm)
    inverse = [perm.index(i) for i in range(5)]
    assert h.relabel(inverse) == g
    with pytest.raises(ValueError, match="permutation"):
        g.relabel([0, 0, 1, 2, 3])


@given(graphs(max_n=9), st.data())
@settings(max_examples=60, deadline=None)
def test_relabel_preserves_invariants(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = g.relabel(list(perm))
    assert h.edge_count() == g.edge_count()
    assert sorted(h.degree(v) for v in range(h.n)) == sorted(
        g.degree(v) for v in range(g.n)
    )
    assert sorted(len(c) for c in h.components()) == sorted(
        len(c) for c in g.components()
    )
    assert g.induced_subgraph(range(g.n)) == g


@given(graphs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_edge_list_text_roundtrip(g):
    text = edge_list_text(g)
    assert parse_edge_list(text, n=g.n) == g


def test_parse_edge_list_errors():
    assert parse_edge_list("# comment\n0 1\n\n1 2").edge_count() == 2
    assert parse_edge_list("").n == 0
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("0 1 2")
    with pytest.raises(ValueError, match="non-integer"):
        parse_edge_list("a b")
    with pytest.raises(ValueError, match="bad edge"):
        from_edges(2, [(0, 5)])


@given(graphs(max_n=8), graphs(max_n=5), st.data())
@settings(max_examples=80, deadline=None)
def test_derived_graphs_pass_public_validation(g, h, data):
    # Derived graphs skip the constructor's row scan; each must still be a
    # graph that Graph(...) accepts unchanged.
    perm = list(data.draw(st.permutations(range(g.n))))
    keep = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    derived = [
        g.relabel(perm),
        g.induced_subgraph(keep),
        join(g, h),
        join(h, g),
        disjoint_union([g, h, g]),
        disjoint_union([]),
        complete(g.n),
        complete_bipartite(g.n, h.n),
        empty_graph(g.n),
    ]
    for u, v in itertools.combinations(range(g.n), 2):
        derived.append(g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v))
    for d in derived:
        assert len(d.rows()) == d.n
        assert Graph(d.n, d.rows()) == d


def test_vertex_cap_holds_on_derived_graphs():
    assert empty_graph(MAX_VERTICES).n == MAX_VERTICES
    with pytest.raises(ValueError, match="vertex count"):
        empty_graph(MAX_VERTICES + 1)
    with pytest.raises(ValueError, match="vertex count"):
        join(complete(1), empty_graph(MAX_VERTICES))
    with pytest.raises(ValueError, match="vertex count"):
        disjoint_union([empty_graph(MAX_VERTICES), empty_graph(1)])
