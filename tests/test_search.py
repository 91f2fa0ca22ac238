"""Canonical labeling, isomorph-free enumeration, and the spex searches."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import struct

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import atlas_classes, dense_rho, graphs, random_graph, to_nx
from spexlab import search
from spexlab.forbidden import ForbiddenSpec
from spexlab.graph import (
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty_graph,
    from_edges,
    join,
    path,
    star,
)
from spexlab.graph6 import graph6_decode, graph6_encode, graph6_from_body
from spexlab.search import (
    CHECKPOINT_MAGIC,
    TIE_WINDOW,
    CapExceededError,
    SearchConfig,
    _best_entry,
    _canon,
    _homogeneous,
    _leaf_key,
    _moves,
    _orbit_minima,
    _refine,
    canonical_form,
    enumerate_class,
    exhaustive_spex,
    load_checkpoint,
    local_search_spex,
    save_checkpoint,
)
from spexlab.spectral import spectral_radius

# [DERIVED] isomorphism-class counts from a naive generator: all labeled
# graphs, WL-hash + exact-isomorphism dedup, networkx planarity filters.
COUNTS_OUTERPLANAR_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 5, 5: 13, 6: 46}
COUNTS_OUTERPLANAR_ALL = {1: 1, 2: 2, 3: 4, 4: 10, 5: 25, 6: 80}
COUNTS_PLANAR_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 20, 6: 99}
COUNTS_PLANAR_ALL = {1: 1, 2: 2, 3: 4, 4: 11, 5: 33, 6: 142}
COUNTS_OP_C3FREE_CONNECTED = {1: 1, 2: 1, 3: 1, 4: 3, 5: 5, 6: 13}


@given(graphs(max_n=8), st.data())
@settings(max_examples=80, deadline=None)
def test_canonical_form_is_iso_invariant(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_form(g) == canonical_form(g.relabel(list(perm)))


def test_canonical_form_separates_n4():
    from helpers import all_labeled_graphs, iso_classes

    classes = iso_classes(all_labeled_graphs(4))
    forms = {canonical_form(g) for g in classes}
    assert len(classes) == len(forms) == 11


def test_canonical_form_decodes_to_an_isomorphic_graph():
    rnd = random.Random(12)
    for _ in range(30):
        g = random_graph(rnd, rnd.randint(1, 9), 0.4)
        c = graph6_decode(canonical_form(g).decode("ascii"))
        assert nx.is_isomorphic(to_nx(g), to_nx(c))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_counts(n):
    def count(**kw):
        return sum(1 for _ in enumerate_class(n, **kw))

    assert count(klass="outerplanar") == COUNTS_OUTERPLANAR_CONNECTED[n]
    assert count(klass="outerplanar", connected_only=False) == COUNTS_OUTERPLANAR_ALL[n]
    assert count(klass="planar") == COUNTS_PLANAR_CONNECTED[n]
    assert count(klass="planar", connected_only=False) == COUNTS_PLANAR_ALL[n]
    assert (
        count(klass="outerplanar", forbidden=ForbiddenSpec.cycle(3))
        == COUNTS_OP_C3FREE_CONNECTED[n]
    )


def test_enumeration_is_isomorph_free_and_sound():
    seen = set()
    for g in enumerate_class(5, "outerplanar", connected_only=False):
        assert canonical_form(g) not in seen
        seen.add(canonical_form(g))
        assert g.n == 5


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        list(enumerate_class(11, "outerplanar"))
    with pytest.raises(CapExceededError):
        exhaustive_spex(SearchConfig(n_min=4, n_max=11))
    with pytest.raises(ValueError):
        list(enumerate_class(4, "chordal"))


def test_exhaustive_spex_small_outerplanar():
    report = exhaustive_spex(SearchConfig(n_min=4, n_max=5))
    assert [e["n"] for e in report.entries] == [4, 5]
    e5 = report.entries[1]
    assert e5["candidates"] == COUNTS_OUTERPLANAR_CONNECTED[5]
    # [DERIVED] the n=5 maximizer is the fan K1 v P4, unique
    fan = join(complete(1), path(4))
    assert len(e5["certificates"]) == 1
    best = graph6_decode(e5["certificates"][0])
    assert nx.is_isomorphic(to_nx(best), to_nx(fan))
    assert abs(e5["best_rho"] - dense_rho(fan)) <= 1e-9


def test_exhaustive_spex_planar_c3free():
    cfg = SearchConfig(
        n_min=6, n_max=6, klass="planar", forbidden=ForbiddenSpec.cycle(3)
    )
    (entry,) = exhaustive_spex(cfg).entries
    best = graph6_decode(entry["certificates"][0])
    assert nx.is_isomorphic(to_nx(best), to_nx(complete_bipartite(2, 4)))
    assert abs(entry["best_rho"] - dense_rho(complete_bipartite(2, 4))) <= 1e-9


def test_exhaustive_spex_matches_naive_maximum():
    from helpers import all_labeled_graphs, iso_classes
    from spexlab.recognition import is_planar

    naive = max(
        dense_rho(g)
        for g in iso_classes(all_labeled_graphs(5))
        if g.is_connected() and is_planar(g)
    )
    (entry,) = exhaustive_spex(SearchConfig(n_min=5, n_max=5, klass="planar")).entries
    assert abs(entry["best_rho"] - naive) <= 1e-9


def test_reports_are_deterministic():
    cfg = SearchConfig(n_min=3, n_max=6, forbidden=ForbiddenSpec.matching(3))
    a = exhaustive_spex(cfg).canonical_json()
    b = exhaustive_spex(cfg).canonical_json()
    assert a == b


def test_report_serialization_shapes():
    report = exhaustive_spex(SearchConfig(n_min=4, n_max=4))
    lines = report.csv_lines()
    assert lines[0] == "n,best_rho,certificate_graph6,candidates,seconds"
    assert lines[1].startswith("4,")
    assert "seconds" not in report.canonical_dict()["entries"][0]
    assert report.canonical_dict()["config"]["class"] == "outerplanar"


def test_checkpoint_roundtrip_and_resume(tmp_path):
    path_ = str(tmp_path / "ck.bin")
    cfg = SearchConfig(n_min=4, n_max=6, checkpoint=path_)
    first = exhaustive_spex(cfg)
    assert load_checkpoint(path_, cfg) == first.entries
    resumed = exhaustive_spex(cfg)  # all entries come from the checkpoint
    assert resumed.canonical_json() == first.canonical_json()
    # a different config must not reuse the file
    other = SearchConfig(n_min=4, n_max=6, klass="planar", checkpoint=path_)
    assert load_checkpoint(path_, other) is None
    with pytest.raises(ValueError, match="magic"):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"nonsense")
        load_checkpoint(str(bad), cfg)


GOOD_ENTRY = {
    "n": 3,
    "best_rho": 2.0,
    "certificates": ["Bw"],
    "candidates": 2,
    "pruned": {},
    "seconds": 0.0,
}


def _raw_checkpoint(path, payload: bytes, length: int | None = None) -> str:
    size = len(payload) if length is None else length
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack(">I", size) + payload)
    return str(path)


def test_checkpoint_truncated_header(tmp_path):
    bad = tmp_path / "short.bin"
    bad.write_bytes(CHECKPOINT_MAGIC + b"\x00")
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(str(bad), SearchConfig(n_min=3, n_max=4))


def test_checkpoint_length_past_end(tmp_path):
    bad = _raw_checkpoint(tmp_path / "long.bin", b'{"config": {}, "entries": []}', 500)
    with pytest.raises(ValueError, match="past the end"):
        load_checkpoint(bad, SearchConfig(n_min=3, n_max=4))


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [1, 2],
        {"config": [], "entries": []},
        {"config": {}, "entries": {}},
        {"config": {}, "entries": [1]},
        {"config": {}, "entries": [{"n": "4"}]},
        {"config": {}, "entries": [{"n": True}]},
        {"config": {}, "entries": [{"n": 3}]},
        {"config": {}, "entries": [dict(GOOD_ENTRY, certificates="Bw")]},
        {"config": {}, "entries": [dict(GOOD_ENTRY, certificates=[1])]},
        {"config": {}, "entries": [dict(GOOD_ENTRY, best_rho="2.0")]},
        {"config": {}, "entries": [dict(GOOD_ENTRY, best_rho=None)]},
        {"config": {}, "entries": [dict(GOOD_ENTRY, candidates=2.0)]},
        {"config": {}, "entries": [dict(GOOD_ENTRY, seconds="0")]},
    ],
)
def test_checkpoint_malformed_payload(tmp_path, payload):
    bad = _raw_checkpoint(tmp_path / "bad.bin", json.dumps(payload).encode())
    with pytest.raises(ValueError, match="payload"):
        load_checkpoint(bad, SearchConfig(n_min=3, n_max=4))


def test_checkpoint_well_formed_entry_loads(tmp_path):
    cfg = SearchConfig(n_min=3, n_max=4)
    for entry in (GOOD_ENTRY, {k: v for k, v in GOOD_ENTRY.items() if k != "seconds"}):
        payload = {"config": cfg.key_dict(), "entries": [entry]}
        ok = _raw_checkpoint(tmp_path / "ok.bin", json.dumps(payload).encode())
        assert load_checkpoint(ok, cfg) == [entry]


def test_search_rejects_config_matching_bare_entries(tmp_path):
    """Entries that match the config but lack the keys the reports read
    must fail at load time, not later with a KeyError."""
    cfg = SearchConfig(n_min=3, n_max=4)
    payload = {"config": cfg.key_dict(), "entries": [{"n": 3}]}
    bare = _raw_checkpoint(tmp_path / "bare.bin", json.dumps(payload).encode())
    with pytest.raises(ValueError, match="payload"):
        exhaustive_spex(SearchConfig(n_min=3, n_max=4, checkpoint=bare))


def test_checkpoint_partial_resume(tmp_path):
    path_ = str(tmp_path / "ck.bin")
    cfg = SearchConfig(n_min=4, n_max=6, checkpoint=path_)
    full = exhaustive_spex(cfg)
    save_checkpoint(path_, cfg, full.entries[:1])  # pretend we stopped early
    resumed = exhaustive_spex(cfg)
    assert resumed.canonical_json() == full.canonical_json()


def test_local_search_stays_at_global_optimum():
    cfg = SearchConfig(
        n_min=10, n_max=10, forbidden=ForbiddenSpec.matching(2), mode="local"
    )
    report = local_search_spex(cfg, star(10))
    (entry,) = report.entries
    assert abs(entry["best_rho"] - 3.0) <= 1e-9  # K_{1,9} is already optimal
    assert graph6_decode(entry["certificates"][0]).edge_count() == 9


def test_local_search_reaches_exhaustive_optimum():
    target = exhaustive_spex(SearchConfig(n_min=6, n_max=6)).entries[0]["best_rho"]
    cfg = SearchConfig(n_min=6, n_max=6, mode="local", seed=3)
    report = local_search_spex(cfg, path(6), restarts=4)
    best = report.entries[0]["best_rho"]
    assert best <= target + 1e-9
    assert best >= target - 1e-9  # the climb finds the fan from a path


def test_local_search_validation():
    with pytest.raises(ValueError, match="mode"):
        local_search_spex(SearchConfig(n_min=5, n_max=5), path(5))
    cfg = SearchConfig(n_min=5, n_max=5, mode="local")
    with pytest.raises(ValueError, match="start graph"):
        local_search_spex(cfg, complete(5))  # not outerplanar


def test_local_search_refuses_a_start_outside_the_range(monkeypatch):
    """The climb keeps the start's order, so a start outside [n_min, n_max]
    would give a report whose only entry lies outside its own range."""
    checked = _count_calls(monkeypatch, "_qualifies")
    for lo, hi in ((7, 9), (2, 3)):
        cfg = SearchConfig(n_min=lo, n_max=hi, mode="local")
        with pytest.raises(ValueError, match=rf"n=4, outside the search range \[{lo}, {hi}\]"):
            local_search_spex(cfg, path(4))
    assert checked["_qualifies"] == 0
    report = local_search_spex(SearchConfig(n_min=3, n_max=5, mode="local"), path(4))
    assert [e["n"] for e in report.entries] == [4]


@pytest.mark.parametrize(
    "g", [empty_graph(1), path(4), cycle(5), star(5), complete(4), from_edges(5, [(0, 3), (1, 4)])]
)
def test_moves_are_each_addition_then_each_removal(g):
    pairs = list(itertools.combinations(range(g.n), 2))
    expected = [(f"add {u} {v}", g.add_edge(u, v)) for u, v in pairs if not g.has_edge(u, v)]
    expected += [(f"del {u} {v}", g.remove_edge(u, v)) for u, v in pairs if g.has_edge(u, v)]
    assert list(_moves(g)) == expected


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n_min=5, n_max=4)
    with pytest.raises(ValueError, match="exhaustive_cap must be >= 1, got 0"):
        SearchConfig(n_min=4, n_max=4, mode="local", exhaustive_cap=0)
    with pytest.raises(ValueError):
        SearchConfig(n_min=1, n_max=4, klass="weird")
    with pytest.raises(ValueError):
        SearchConfig(n_min=1, n_max=4, mode="anneal")


# ---------------------------------------------------------------------------
# byte identity, orbit pruning and filtered scoring

# [DERIVED] SHA-256 digests computed with the search that added every
# non-edge, canonicalized every leaf through graph6 and scored every graph
# with spectral_radius; orbit pruning and the eigvalsh filter keep them.
ATLAS_CANONICAL_SHA256 = (
    "758e72da1fa9017717c31e233a92442e1dd90e1ef2deb45884c6865af4cb6c8f"
)
PINNED_REPORTS = [
    (
        SearchConfig(4, 7),
        "0451a4c5c1094dd2980c58916d56502049b3e4077b4ed52a63e879a6ffbb4cd9",
    ),
    (
        SearchConfig(4, 7, "planar", ForbiddenSpec.cycle(3)),
        "aa7bdc9e454b9dcf35eff2bb537babae75cbde458e9655f41021e15643576a3e",
    ),
    (
        SearchConfig(3, 7, forbidden=ForbiddenSpec.matching(3), connected_only=False),
        "b9473b6ff53d95f03ced88a4a146d27574e7dcc1b2da87ae4b9aecec01a6f258",
    ),
]
LOCAL_REPORT_SHA256 = (
    "6252912d58882476be363eca46b48aa4e95d0ab5c824e44ccc679e2140bebc48"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _atlas_graphs():
    return [from_edges(G.number_of_nodes(), G.edges()) for G in nx.graph_atlas_g()]


def test_canonical_form_bytes_pinned_on_atlas():
    data = b"".join(canonical_form(g) + b"\n" for g in _atlas_graphs())
    assert _sha256(data) == ATLAS_CANONICAL_SHA256


@pytest.mark.parametrize(
    "config, digest", PINNED_REPORTS, ids=["outerplanar", "planar-C3", "M3-all"]
)
def test_search_reports_pinned(config, digest):
    assert _sha256(exhaustive_spex(config).canonical_json().encode()) == digest


def test_local_search_report_pinned():
    cfg = SearchConfig(n_min=6, n_max=6, mode="local", seed=3)
    report = local_search_spex(cfg, path(6), restarts=4)
    assert _sha256(report.canonical_json().encode()) == LOCAL_REPORT_SHA256


def test_canon_generators_are_automorphisms():
    for g in _atlas_graphs():
        form, gens = _canon(g)
        assert form == canonical_form(g)
        for s in gens:
            assert sorted(s) == list(range(g.n))
            assert g.relabel(list(s)) == g


def _pair_orbit(pair, perms) -> set[tuple[int, int]]:
    """Closure of an unordered pair under the group generated by perms."""
    orbit, todo = {pair}, [pair]
    while todo:
        u, v = todo.pop()
        for s in perms:
            image = tuple(sorted((s[u], s[v])))
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def test_non_edge_orbits_refine_automorphism_orbits():
    """Each orbit from the recorded generators lies inside an orbit of the
    full automorphism group (networkx GraphMatcher), and the non-edges kept
    are exactly the smallest of each generator orbit, so every full orbit
    keeps at least one."""
    for g in _atlas_graphs():
        G = to_nx(g)
        autos = [
            tuple(m[v] for v in range(g.n))
            for m in nx.algorithms.isomorphism.GraphMatcher(G, G).isomorphisms_iter()
        ]
        _, gens = _canon(g)
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        non_edges = [e for e in pairs if not g.has_edge(*e)]
        minima = set()
        for e in non_edges:
            ours = _pair_orbit(e, gens)
            full = {tuple(sorted((s[e[0]], s[e[1]]))) for s in autos}
            assert ours <= full, (g.rows(), e)
            minima.add(min(ours))
        assert _orbit_minima(g, gens) == sorted(minima), g.rows()


def _tie_pools(classes, rhos):
    """Prefixes of the graphs sorted by rho that end on a tie at the top."""
    order = sorted(range(len(classes)), key=lambda i: rhos[i])
    r = [rhos[i] for i in order]
    for j in range(1, len(r)):
        ends_run = j + 1 == len(r) or r[j + 1] - r[j] > TIE_WINDOW
        if r[j] - r[j - 1] <= TIE_WINDOW and ends_run:
            yield [order[i] for i in range(j + 1)]


def test_filtered_scoring_matches_scoring_every_graph():
    """_best_entry scores only the eigvalsh front-runners; its best_rho and
    certificates must equal those of spectral_radius on every graph."""
    tie_cases = 0
    for n in range(1, 8):
        classes = atlas_classes(n)
        forms = [canonical_form(g) for g in classes]
        rhos = [spectral_radius(g).rho for g in classes]
        everything = list(range(len(classes)))
        pools = [
            everything,
            [i for i in everything if classes[i].is_connected()],
            [i for i in everything if not classes[i].is_connected()],
            *_tie_pools(classes, rhos),
        ]
        for pool in pools:
            entry = _best_entry(n, [(forms[i], classes[i]) for i in pool], {})
            best = max((rhos[i] for i in pool), default=0.0)
            certs = sorted(
                forms[i].decode("ascii") for i in pool if best - rhos[i] <= TIE_WINDOW
            )
            assert entry["best_rho"] == best
            assert entry["certificates"] == certs
            assert entry["candidates"] == len(pool)
            tie_cases += len(certs) > 1
    assert tie_cases > 100


def _nx_planar(G) -> bool:
    return nx.check_planarity(G)[0]


def _nx_apex_outerplanar(G) -> bool:
    H = G.copy()
    H.add_edges_from(("apex", v) for v in G)
    return _nx_planar(H)


@pytest.mark.parametrize("n", [6, 7])
def test_enumeration_counts_match_atlas(n):
    """Class counts against the graph atlas filtered by networkx alone:
    planarity by its left-right test, outerplanarity as planarity of the
    graph plus an apex vertex."""
    atlas = [G for G in nx.graph_atlas_g() if G.number_of_nodes() == n]
    members = {"outerplanar": _nx_apex_outerplanar, "planar": _nx_planar}
    for klass, member in members.items():
        for connected in (True, False):
            want = sum(
                1 for G in atlas if member(G) and (nx.is_connected(G) or not connected)
            )
            got = sum(1 for _ in enumerate_class(n, klass, connected_only=connected))
            assert got == want, (klass, connected)


# ---------------------------------------------------------------------------
# the cost of canonical labelling: graph6 from the key, pruned trees, memo

# [DERIVED] SHA-256 of repr(g.rows()) + "\n" over the enumerate_class
# representatives for n = 1..8, computed with the unpruned individualization
# tree that relabeled the winning leaf and canonicalized every child;
# these labellings are what spectral_radius scores.
REPRESENTATIVES_SHA256 = [
    (
        {"klass": "outerplanar", "connected_only": False},
        "10e5b6f5ddda98553add197f36148638104ff4b08a623b6d8e3e0de048940c9d",
    ),
    (
        {"klass": "planar", "forbidden": ForbiddenSpec.cycle(3)},
        "39be6498f554a03fc4eff9f6ac48d79e2519d13da9065445624d0a1052e9ba71",
    ),
]


@pytest.mark.parametrize(
    "kwargs, digest", REPRESENTATIVES_SHA256, ids=["outerplanar-all", "planar-C3"]
)
def test_representatives_pinned(kwargs, digest):
    data = b"".join(
        repr(g.rows()).encode() + b"\n"
        for n in range(1, 9)
        for g in enumerate_class(n, **kwargs)
    )
    assert _sha256(data) == digest


def _graph6_via_key(g, perm) -> bytes:
    nbrs = [list(g.neighbors(v)) for v in range(g.n)]
    key, inv = _leaf_key(nbrs, perm)
    assert [perm[v] for v in inv] == list(range(g.n))
    return graph6_from_body(g.n, key)


@pytest.mark.parametrize("n", range(17))
def test_graph6_from_leaf_key_matches_encoder(n):
    """n = 0, 1 have an empty body; n = 4, 9, 16 fill whole 6-bit groups."""
    rnd = random.Random(n)
    for p in (0.0, 0.3, 0.7, 1.0):
        g = random_graph(rnd, n, p)
        for _ in range(5):
            perm = list(range(n))
            rnd.shuffle(perm)
            assert _graph6_via_key(g, perm) == graph6_encode(g.relabel(perm)).encode()


def test_graph6_from_leaf_key_on_atlas():
    rnd = random.Random(7)
    for g in _atlas_graphs():
        perm = list(range(g.n))
        rnd.shuffle(perm)
        for p in (list(range(g.n)), perm):
            assert _graph6_via_key(g, p) == graph6_encode(g.relabel(p)).encode()


def reference_refine(
    nbrs: list[list[int]], colors: list[int]
) -> tuple[list[int], list[list[int]]]:
    """Equitable refinement of dense colors 0..k-1 whose cells each hold
    vertices of one degree: recolor by (color, sorted neighbor colors)
    until stable; returns the colors and the cells in color order.

    A new color is the rank of the vertex's signature among all distinct
    signatures, so the result is isomorphism-invariant. Signatures sort by
    color first, so a vertex alone in its cell needs no neighbor colors.
    Inside a cell the sorted tuples have one length, so they order as
    their color-count vectors in reverse (more neighbors of the smallest
    differing color is the smaller tuple); each count vector is packed
    into one integer, 4 bits a color, as counts stay below n <= 16.
    """
    n = len(colors)
    while True:
        cells: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        if len(cells) == n:
            return colors, cells  # discrete: nothing left to split
        weight = [1 << 4 * (n - 1 - c) for c in colors]
        new = [0] * n
        base = 0
        for cell in cells:
            if len(cell) == 1:
                new[cell[0]] = base
                base += 1
                continue
            sigs = [sum(map(weight.__getitem__, nbrs[v])) for v in cell]
            distinct = sorted(set(sigs), reverse=True)
            rank = {s: i for i, s in enumerate(distinct, base)}
            for v, s in zip(cell, sigs):
                new[v] = rank[s]
            base += len(rank)
        if base == len(cells):
            return colors, cells  # no cell split
        colors = new


def _degree_colors(nbrs: list[list[int]]) -> list[int]:
    degrees = [len(nb) for nb in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    return [rank[d] for d in degrees]


def _individualize(colors: list[int], v: int) -> list[int]:
    """v just below the rest of its cell, the colors above shifted up."""
    c = colors[v]
    branch = [x + (x >= c) for x in colors]
    branch[v] = c
    return branch


def _mask(cell: list[int]) -> int:
    return sum(1 << v for v in cell)


def _unpruned_leaves(g) -> int:
    """Leaves of the individualization tree that branches on every vertex
    of the target cell (one branch for a homogeneous cell)."""
    nbrs = [list(g.neighbors(v)) for v in range(g.n)]

    def walk(colors):
        colors, cells = reference_refine(nbrs, colors)
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is None:
            return 1
        if _homogeneous(g.rows(), target):
            target = target[:1]
        return sum(walk(_individualize(colors, v)) for v in target)

    return walk(_degree_colors(nbrs))


def _circulants():
    """Every circulant C_n(S) with n <= 16, one per jump set S."""
    for n in range(1, 17):
        jumps = range(1, n // 2 + 1)
        for k in range(len(jumps) + 1):
            for s in itertools.combinations(jumps, k):
                yield from_edges(n, nx.circulant_graph(n, s).edges())


def _random_graphs(count: int = 300):
    rnd = random.Random(16)
    return [random_graph(rnd, rnd.randint(9, 16), rnd.random()) for _ in range(count)]


def _from_networkx(G):
    G = nx.convert_node_labels_to_integers(nx.Graph(G))
    return from_edges(G.number_of_nodes(), G.edges())


def _vertex_transitive_graphs():
    """Petersen, Q4, Heawood, Moebius-Kantor, Paley(13), K4xK4 (the 4x4
    rook's graph), C4xC4, K_{4,4,4}, and the Shrikhande and Clebsch graphs.
    Shrikhande is the Cayley graph of Z4 x Z4 on +-(1,0), +-(0,1),
    +-(1,1); Clebsch joins the 4-bit words that differ in one bit or in
    all four."""
    k4, c4 = nx.complete_graph(4), nx.cycle_graph(4)
    named = [
        nx.petersen_graph(),
        nx.hypercube_graph(4),
        nx.heawood_graph(),
        nx.LCF_graph(16, [5, -5], 8),
        nx.paley_graph(13).to_undirected(),
        nx.cartesian_product(k4, k4),
        nx.cartesian_product(c4, c4),
        nx.complete_multipartite_graph(4, 4, 4),
    ]
    shrikhande = {
        (4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
        for a in range(4)
        for b in range(4)
        for da, db in ((1, 0), (0, 1), (1, 1))
    }
    clebsch = {(x, x ^ m) for x in range(16) for m in (1, 2, 4, 8, 15) if x < x ^ m}
    return [_from_networkx(G) for G in named] + [
        _from_networkx(nx.Graph(sorted(edges))) for edges in (shrikhande, clebsch)
    ]


FAMILIES = {
    "atlas": _atlas_graphs,
    "random-9..16": _random_graphs,
    "circulants": lambda: list(_circulants()),
    "vertex-transitive": _vertex_transitive_graphs,
}


@pytest.mark.parametrize("family", ["atlas", "random-9..16", "circulants"])
def test_refine_by_split_cells_matches_reference(family):
    """_refine, refining by the cells that split, gives the ordered cells
    of the round-based reference at the degree partition and after
    individualizing each vertex of its first non-singleton cell; adding
    the last piece of each split cell as a splitter changes nothing."""
    for g in FAMILIES[family]():
        rows = g.rows()
        nbrs = [list(g.neighbors(v)) for v in range(g.n)]
        degree = _degree_colors(nbrs)
        colors, cells = reference_refine(nbrs, degree)
        start = [[v for v in range(g.n) if degree[v] == k] for k in sorted(set(degree))]
        masks = [_mask(cell) for cell in start]
        assert _refine(rows, start, masks[:-1]) == cells, rows
        assert _refine(rows, start, masks) == cells, rows
        i = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if i is None:
            continue
        for v in cells[i]:
            want = reference_refine(nbrs, _individualize(colors, v))[1]
            rest = [w for w in cells[i] if w != v]
            split = cells[:i] + [[v], rest] + cells[i + 1 :]
            assert _refine(rows, split, [1 << v]) == want, (rows, v)
            assert _refine(rows, split, [1 << v, _mask(rest)]) == want, (rows, v)


def _colour_automorphism(rows, a, b) -> tuple[int, ...] | None:
    """An automorphism taking every vertex of colour c under ``a`` to a
    vertex of colour c under ``b``, by plain backtracking over vertices
    0, 1, ...; None if there is none."""
    n = len(rows)
    if sorted(a) != sorted(b):
        return None
    image = [0] * n

    def extend(u: int, used: int) -> bool:
        if u == n:
            return True
        want = 0
        for x in range(u):
            if rows[u] >> x & 1:
                want |= 1 << image[x]
        for w in range(n):
            if b[w] == a[u] and not used >> w & 1 and rows[w] & used == want:
                image[u] = w
                if extend(u + 1, used | 1 << w):
                    return True
        return False

    return tuple(image) if extend(0, 0) else None


def _vertex_orbit(vertices, perms) -> set[int]:
    """Closure of a vertex set under the group generated by perms."""
    orbit, todo = set(vertices), list(vertices)
    while todo:
        v = todo.pop()
        for s in perms:
            if s[v] not in orbit:
                orbit.add(s[v])
                todo.append(s[v])
    return orbit


def reference_canon(g) -> bytes:
    """graph6 of the smallest _leaf_key over the unpruned tree built with
    reference_refine (one branch for a homogeneous cell).

    An automorphism that maps one child's refined colouring onto a
    sibling's (``_colour_automorphism``, which uses no generator of
    ``_canon``) fixes the node's cells, so it maps the one subtree onto
    the other and their leaves have the same keys: only one is walked,
    and the images of walked children under such automorphisms are
    skipped. The full tree is out of reach: for K_{2,...,2} on 16
    vertices it has 16 * 14 * ... * 4, over five million, leaves.
    """
    n = g.n
    rows = g.rows()
    nbrs = [list(g.neighbors(v)) for v in range(n)]
    best = -1

    def walk(colors):
        nonlocal best
        colors, cells = reference_refine(nbrs, colors)
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is None:
            key = _leaf_key(nbrs, colors)[0]
            best = key if best < 0 else min(best, key)
            return
        if _homogeneous(rows, target):
            target = target[:1]
        walked: dict[int, list[int]] = {}
        autos: list[tuple[int, ...]] = []
        for v in target:
            if v in _vertex_orbit(walked, autos):
                continue
            branch = _individualize(colors, v)
            refined = reference_refine(nbrs, branch)[0]
            for seen in walked.values():
                s = _colour_automorphism(rows, seen, refined)
                if s is not None:
                    autos.append(s)
                    break
            else:
                walked[v] = refined
                walk(branch)

    walk(_degree_colors(nbrs))
    return graph6_from_body(n, best)


@pytest.mark.parametrize("family", ["atlas", "circulants", "vertex-transitive"])
def test_pruned_form_is_unpruned_minimum(family):
    """_canon prunes with the automorphisms found so far that fix the
    individualized path; its form must be the smallest key of the whole
    tree."""
    for g in FAMILIES[family]():
        assert _canon(g)[0] == reference_canon(g), g.rows()


class _TooManyLeaves(Exception):
    pass


def unpruned_canon(g, cap: int) -> bytes | None:
    """graph6 of the smallest _leaf_key over the individualization tree
    that _canon walks: _refine at every node and one branch for a
    homogeneous cell, but no orbit pruning, so every other vertex of a
    target cell is individualized. None when the tree has more than
    ``cap`` leaves."""
    n, rows, nbrs = g.n, g.rows(), g.adjacency()
    best, leaves = -1, 0

    def walk(cells, splitters):
        nonlocal best, leaves
        cells = _refine(rows, cells, splitters)
        i = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if i is None:
            leaves += 1
            if leaves > cap:
                raise _TooManyLeaves
            perm = [0] * n
            for c, (v,) in enumerate(cells):
                perm[v] = c
            key = _leaf_key(nbrs, perm)[0]
            best = key if best < 0 else min(best, key)
            return
        cell = cells[i]
        for v in cell[:1] if _homogeneous(rows, cell) else cell:
            rest = [w for w in cell if w != v]
            walk(cells[:i] + [[v], rest] + cells[i + 1 :], [1 << v])

    cells = _degree_cells(nbrs)
    try:
        walk(cells, [_mask(cell) for cell in cells[:-1]])
    except _TooManyLeaves:
        return None
    return graph6_from_body(n, best)


def _degree_cells(nbrs: list[list[int]]) -> list[list[int]]:
    degree = [len(nb) for nb in nbrs]
    return [[v for v in range(len(nbrs)) if degree[v] == d] for d in sorted(set(degree))]


# Leaves of the unpruned tree that the circulant check walks at most: 755
# of the 765 circulants on up to 16 vertices stay below it (a cap of 10^5
# admits 761 and takes three times as long).
UNPRUNED_LEAF_CAP = 10**4


@pytest.mark.parametrize("family", ["atlas", "vertex-transitive", "circulants"])
def test_canonical_form_is_smallest_key_of_unpruned_tree(family):
    """_canon prunes a child only by automorphisms that fix the
    individualized path (its stabiliser filter); the reference walks the
    same tree without pruning and must find the same smallest key."""
    checked = 0
    for g in FAMILIES[family]():
        want = unpruned_canon(g, UNPRUNED_LEAF_CAP)
        assert want is not None or family == "circulants", g.rows()
        if want is not None:
            assert canonical_form(g) == want, g.rows()
            checked += 1
    assert checked == {"atlas": 1253, "vertex-transitive": 10, "circulants": 755}[family]


def _count_calls(monkeypatch, name: str) -> dict[str, int]:
    calls = {name: 0}
    real = getattr(search, name)

    def spy(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(search, name, spy)
    return calls


@pytest.fixture
def pruned_leaves(monkeypatch):
    """Leaves that _canon explores on a graph, counted by its key calls."""
    calls = _count_calls(monkeypatch, "_leaf_key")

    def count(g) -> int:
        calls["_leaf_key"] = 0
        _canon(g)
        return calls["_leaf_key"]

    return count


def test_pruning_explores_no_more_leaves_on_atlas(pruned_leaves):
    fewer = 0
    for g in _atlas_graphs():
        pruned, full = pruned_leaves(g), _unpruned_leaves(g)
        assert 1 <= pruned <= full, g.rows()
        fewer += pruned < full
    assert fewer > 0


def test_pruning_explores_fewer_leaves_on_symmetric_graphs(pruned_leaves):
    for g in (cycle(8), disjoint_union([complete(4), complete(4)])):
        assert pruned_leaves(g) < _unpruned_leaves(g), g.rows()
    # K_{1,7}: its leaves form a homogeneous cell, so the unpruned tree
    # already has a single leaf and pruning can only keep it
    assert pruned_leaves(star(8)) == _unpruned_leaves(star(8)) == 1


def test_exhaustive_search_canonicalizes_less(monkeypatch):
    """Work counts, no timing. The unpruned tree without the labelled-child
    memo made 16,552 _canon and 41,569 _refine calls on this search; the
    memo and stabiliser pruning bring them to 14,068 and 32,453. Refining
    by the cells that split keeps the tree, so the counts stay exact."""
    canon = _count_calls(monkeypatch, "_canon")
    refine = _count_calls(monkeypatch, "_refine")
    exhaustive_spex(SearchConfig(4, 8))
    assert canon["_canon"] == 14_068
    assert refine["_refine"] == 32_453


def test_searches_refuse_n_above_16_before_any_work(monkeypatch):
    """The canonical form stops at n = 16, so a search that needs it for
    n = 17 must fail before it enumerates n = 16 or climbs from a start."""
    entered = _count_calls(monkeypatch, "_enumerate")
    with pytest.raises(ValueError, match="limited to n <= 16"):
        exhaustive_spex(SearchConfig(16, 17, exhaustive_cap=20))
    assert entered["_enumerate"] == 0
    checked = _count_calls(monkeypatch, "_qualifies")
    with pytest.raises(ValueError, match="limited to n <= 16"):
        local_search_spex(SearchConfig(17, 17, mode="local"), path(17))
    assert checked["_qualifies"] == 0
