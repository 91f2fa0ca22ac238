"""Forbidden substructures: cycles, hub bouquets, matchings, spec grammar."""

from __future__ import annotations

import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings

import spexlab.forbidden as forbidden
from helpers import graphs, random_graph, random_hubbed_graph, to_nx
from spexlab.constructions import FamilySpec, PathPartition, construct, joined_paths
from spexlab.forbidden import (
    ForbiddenSpec,
    find_bouquet,
    find_cycle_of_length,
    is_free,
    max_edge_disjoint_l_cycles_at,
)
from spexlab.graph import (
    Graph,
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


def bouquet_graph(t: int, l: int) -> Graph:
    """t l-cycles glued at vertex 0, otherwise disjoint."""
    edges = []
    v = 1
    for _ in range(t):
        ring = [0] + list(range(v, v + l - 1))
        edges += list(zip(ring, ring[1:])) + [(ring[-1], 0)]
        v += l - 1
    return from_edges(t * (l - 1) + 1, edges)


def oracle_has_cycle(g: Graph, l: int) -> bool:
    return any(len(c) == l for c in nx.simple_cycles(to_nx(g), length_bound=l))


def oracle_has_bouquet(g: Graph, t: int, l: int) -> bool:
    """Brute force: internal vertex sets of all l-cycles through each hub,
    then search t pairwise-disjoint sets."""
    for v in range(g.n):
        internals = set()
        for rest in itertools.permutations(set(range(g.n)) - {v}, l - 1):
            ring = (v,) + rest
            if all(g.has_edge(ring[i], ring[(i + 1) % l]) for i in range(l)):
                internals.add(frozenset(rest))
        for combo in itertools.combinations(internals, t):
            if all(not a & b for a, b in itertools.combinations(combo, 2)):
                return True
    return False


def check_cycle_witness(g: Graph, l: int, cyc: list[int]):
    assert len(cyc) == l and len(set(cyc)) == l
    assert all(g.has_edge(cyc[i], cyc[(i + 1) % l]) for i in range(l))


def test_cycle_detector_known():
    assert find_cycle_of_length(cycle(5), 5) is not None
    assert find_cycle_of_length(cycle(5), 4) is None
    assert find_cycle_of_length(path(6), 3) is None
    assert find_cycle_of_length(complete(5), 3) is not None
    assert find_cycle_of_length(complete(5), 5) is not None
    assert is_free(complete_bipartite(2, 3), ForbiddenSpec.cycle(5))
    assert find_cycle_of_length(complete_bipartite(2, 3), 4) is not None
    with pytest.raises(ValueError):
        find_cycle_of_length(cycle(5), 2)


def test_cycle_detector_against_networkx():
    rnd = random.Random(404)
    for _ in range(150):
        g = random_graph(rnd, rnd.randint(3, 8), rnd.choice([0.2, 0.35, 0.5]))
        for l in range(3, 8):
            found = find_cycle_of_length(g, l)
            assert (found is not None) == oracle_has_cycle(g, l)
            if found is not None:
                check_cycle_witness(g, l, found)


def reference_find_cycle(g: Graph, l: int) -> list[int] | None:
    """Cycle search by a distance-pruned DFS from each start s over the
    vertices above s; the first (p1, ..., p_{l-1}) in lexicographic order
    with p1 < p_{l-1} closing back to s."""
    if l > g.n:
        return None
    for s in range(g.n - l + 1):
        allowed = ~((1 << (s + 1)) - 1)  # vertices > s
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                r = g.row(v) & (allowed | (1 << s))
                while r:
                    w = (r & -r).bit_length() - 1
                    r &= r - 1
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt

        def dfs(path, visited):
            v = path[-1]
            if len(path) == l:
                return list(path) if g.has_edge(v, s) and path[1] < path[-1] else None
            budget = l - len(path) + 1  # edges left to get back to s
            r = g.row(v) & allowed & ~visited
            while r:
                w = (r & -r).bit_length() - 1
                r &= r - 1
                if dist.get(w, l + 2) > budget - 1:
                    continue
                found = dfs(path + [w], visited | (1 << w))
                if found is not None:
                    return found
            return None

        found = dfs([s], 1 << s)
        if found is not None:
            return found
    return None


def test_cycle_witness_matches_reference_on_random_graphs():
    rnd = random.Random(31)
    for _ in range(300):
        n = rnd.randint(3, 12)
        g = random_graph(rnd, n, rnd.choice([0.15, 0.3, 0.5, 0.8]))
        for l in range(3, n + 2):
            assert find_cycle_of_length(g, l) == reference_find_cycle(g, l), (g.rows(), l)


def test_cycle_witness_matches_reference_on_families():
    specs = [FamilySpec("wheel", 12), FamilySpec("star", 30), FamilySpec("jn", 31)]
    specs += [FamilySpec("k2n2", 14), FamilySpec("claimw", 20, t=4)]
    specs += [FamilySpec(k, 40, t=t, l=l) for k in ("k1hop", "k2hp") for t, l in ((2, 5), (3, 4))]
    for spec in specs:
        g = construct(spec)
        for l in range(3, 11):
            assert find_cycle_of_length(g, l) == reference_find_cycle(g, l), (str(spec), l)


@given(graphs(max_n=8))
@settings(max_examples=60, deadline=None)
def test_single_bouquet_is_cycle(g):
    for l in (3, 4, 5):
        assert is_free(g, ForbiddenSpec.bouquet(1, l)) == is_free(g, ForbiddenSpec.cycle(l))


def test_bouquet_on_exact_bouquets():
    for t, l in [(1, 3), (2, 3), (3, 3), (2, 4), (2, 5), (3, 4)]:
        b = bouquet_graph(t, l)
        hub, cycles = find_bouquet(b, t, l)
        assert hub == 0 and len(cycles) == t
        for c in cycles:
            assert c[0] == hub
            check_cycle_witness(b, l, c)
        internals = [set(c[1:]) for c in cycles]
        for a, bset in itertools.combinations(internals, 2):
            assert not a & bset
        assert is_free(b, ForbiddenSpec.bouquet(t + 1, l))


def test_friendship_graphs():
    for t in (1, 2, 3, 4):
        f = join(complete(1), disjoint_union([path(2)] * t))
        assert find_bouquet(f, t, 3) is not None
        assert is_free(f, ForbiddenSpec.bouquet(t + 1, 3))
        assert is_free(f, ForbiddenSpec.bouquet(1, 4))


def test_bouquet_against_brute_oracle():
    rnd = random.Random(77)
    for _ in range(120):
        g = random_graph(rnd, rnd.randint(4, 8), rnd.choice([0.3, 0.5, 0.7]))
        for t, l in [(1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)]:
            got = find_bouquet(g, t, l) is not None
            assert got == oracle_has_bouquet(g, t, l), (g.rows(), t, l)


def test_bouquet_arg_validation():
    with pytest.raises(ValueError):
        find_bouquet(complete(4), 0, 3)
    with pytest.raises(ValueError):
        find_bouquet(complete(4), 1, 2)


def hub_cycle_count(g: Graph, v: int, l: int, cap: int) -> int:
    """Largest k <= cap of l-cycles through v pairwise sharing only v, by
    the library's cycle sets at v and its packer."""
    masks = forbidden._hub_cycle_sets(g.rows(), v, l)
    best = 0
    while best < cap and forbidden._pack_hub_cycles(masks, best + 1) is not None:
        best += 1
    return best


def test_hub_cycle_counts_on_wheels():
    # rim of W_n is C_{n-1}: disjoint rim edges bound both packings
    for n in (6, 7, 8, 9):
        w = join(complete(1), cycle(n - 1))
        assert hub_cycle_count(w, 0, 3, cap=10) == (n - 1) // 2
        assert max_edge_disjoint_l_cycles_at(w, 0, 3, cap=10) == (n - 1) // 2
        assert hub_cycle_count(w, 0, 3, cap=2) == 2  # cap respected
    assert max_edge_disjoint_l_cycles_at(complete(5), 0, 3, cap=10) == 2
    assert hub_cycle_count(complete(5), 0, 3, cap=10) == 2


def test_hub_cycle_counts_against_brute():
    rnd = random.Random(9)
    for _ in range(40):
        g = random_graph(rnd, rnd.randint(4, 7), 0.5)
        for v in range(g.n):
            for l in (3, 4):
                sets = [frozenset(c) for c in _brute_internal_sets(g, v, l)]
                best = 0
                for k in range(len(sets), 0, -1):
                    if any(
                        all(not a & b for a, b in itertools.combinations(cs, 2))
                        for cs in itertools.combinations(sets, k)
                    ):
                        best = k
                        break
                assert hub_cycle_count(g, v, l, cap=10) == best


def _brute_internal_sets(g: Graph, v: int, l: int):
    out = set()
    for rest in itertools.permutations(set(range(g.n)) - {v}, l - 1):
        ring = (v,) + rest
        if all(g.has_edge(ring[i], ring[(i + 1) % l]) for i in range(l)):
            out.add(frozenset(rest))
    return out


def reference_hub_paths(g: Graph, v: int, a: int, l: int):
    """Paths a..z of l-1 vertices in G - v with z in N(v), z > a, each
    yielded as its own list with the end tested at the leaf."""
    nbhd = g.row(v)
    path = [a]

    def rec(mask: int):
        w = path[-1]
        if len(path) == l - 1:
            if w != a and (nbhd >> w & 1) and w > a:
                yield list(path)
            return
        r = g.row(w) & ~mask
        while r:
            x = (r & -r).bit_length() - 1
            r &= r - 1
            path.append(x)
            yield from rec(mask | (1 << x))
            path.pop()

    yield from rec((1 << a) | (1 << v))


def reference_all_hub_paths(g: Graph, v: int, l: int):
    r = g.row(v)
    while r:
        a = (r & -r).bit_length() - 1
        r &= r - 1
        yield from reference_hub_paths(g, v, a, l)


def reference_pack_hub_cycles(v: int, paths: list[list[int]], t: int):
    """Pack the enumerated l-cycles at v (repeats included): index-increasing
    combinations pruned by the most-reused-vertex bound."""
    masks = [sum(1 << x for x in p) for p in paths]

    def upper(avail):
        bound = 0
        work = [masks[i] for i in avail]
        while work:
            counts = {}
            for m in work:
                while m:
                    b = m & -m
                    counts[b] = counts.get(b, 0) + 1
                    m ^= b
            top, c = max(counts.items(), key=lambda kv: kv[1])
            if c <= 1:
                return bound + len(work)
            bound += 1
            work = [m for m in work if not m & top]
        return bound

    def rec(avail, k):
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


def reference_find_bouquet(g: Graph, t: int, l: int):
    if g.n < t * (l - 1) + 1:
        return None
    for v in range(g.n):
        if g.degree(v) >= 2 * t:
            paths = list(reference_all_hub_paths(g, v, l))
            cycles = reference_pack_hub_cycles(v, paths, t)
            if cycles is not None:
                return v, cycles
    return None


def reference_hub_cycle_count(g: Graph, v: int, l: int, cap: int) -> int:
    paths = list(reference_all_hub_paths(g, v, l))
    best = 0
    while best < cap and reference_pack_hub_cycles(v, paths, best + 1) is not None:
        best += 1
    return best


def reference_all_l_cycles_at(g: Graph, v: int, l: int):
    out = set()
    for p in reference_all_hub_paths(g, v, l):
        cyc = [v] + p
        out.add(frozenset(
            (min(cyc[i], cyc[(i + 1) % l]), max(cyc[i], cyc[(i + 1) % l]))
            for i in range(l)
        ))
    return sorted(out, key=sorted)


def check_bouquet_witness(g: Graph, t: int, l: int, found):
    hub, cycles = found
    assert len(cycles) == t
    for c in cycles:
        assert c[0] == hub
        check_cycle_witness(g, l, c)
    for a, b in itertools.combinations(cycles, 2):
        assert not set(a[1:]) & set(b[1:])


def check_against_reference(g: Graph, t: int, l: int):
    """find_bouquet (witness included) for t and t + 1, and the hub-cycle
    counts at every vertex, equal the enumerate-then-pack reference's."""
    for k in (t, t + 1):
        found = find_bouquet(g, k, l)
        assert found == reference_find_bouquet(g, k, l), (g.rows(), k, l)
        if found is not None:
            check_bouquet_witness(g, k, l, found)
    for v in range(g.n):
        got = hub_cycle_count(g, v, l, cap=t + 1)
        assert got == reference_hub_cycle_count(g, v, l, cap=t + 1), (g.rows(), v, l)


def flip_family_graphs():
    """K1 v P_n1 and K2 v (P_n1 u P_n2) around the bouquet flips n1 = t(l-1)
    and n1 + n2 = tl - t - 1, plus k1hop/k2hp at their smallest orders."""
    for t in range(2, 5):
        for l in range(3, 8):
            for n1 in range(t * (l - 1) - 1, t * (l - 1) + 2):
                yield t, l, joined_paths(1, PathPartition([n1]))
            for s in range(t * l - t - 2, t * l - t + 1):
                for n2 in sorted({1, s // 2}):
                    yield t, l, joined_paths(2, PathPartition([s - n2, n2]))
            lo = {"k1hop": t * l - t, "k2hp": t * l - t - l + 2}
            for kind, n in lo.items():
                for extra in (0, l - 2):
                    yield t, l, construct(FamilySpec(kind, n + extra, t=t, l=l))


@pytest.mark.parametrize("t", range(2, 5))
def test_bouquet_matches_reference_on_flip_families(t):
    for tt, l, g in flip_family_graphs():
        if tt == t:
            check_against_reference(g, t, l)


def test_bouquet_matches_reference_on_random_graphs():
    rnd = random.Random(4242)
    for _ in range(60):
        n = rnd.randint(9, 11)
        g = random_graph(rnd, n, rnd.choice([0.3, 0.45, 0.6]))
        for t, l in [(1, 3), (2, 3), (3, 3), (2, 4), (2, 5), (1, 6)]:
            check_against_reference(g, t, l)


def test_one_cycle_bouquet_is_the_cycle_scan(monkeypatch):
    # B_{1,l} is C_l: the hub is the least vertex on an l-cycle and the
    # witness is the scan's cycle, with no cycle sets enumerated at a hub
    def no_sets(*args):
        raise AssertionError("a one-cycle bouquet enumerated cycle sets")

    monkeypatch.setattr(forbidden, "_hub_cycle_sets", no_sets)
    rnd = random.Random(1111)
    atlas = [from_edges(G.number_of_nodes(), G.edges()) for G in nx.graph_atlas_g()]
    for g in atlas + [random_graph(rnd, rnd.randint(8, 11), rnd.choice([0.2, 0.35, 0.5]))
                      for _ in range(60)]:
        for l in range(3, 8):
            c = find_cycle_of_length(g, l)
            expected = None if c is None else (c[0], [c])
            assert find_bouquet(g, 1, l) == expected == reference_find_bouquet(g, 1, l), (g.rows(), l)


@pytest.mark.parametrize("kind", ["wheel", "k1hop", "k2hp"])
def test_bouquet_matches_reference_past_61_vertices(kind):
    # Python hashes an int mod 2^61 - 1, so from n = 62 on distinct vertex
    # masks share hashes; the detector must still keep every distinct set.
    for n in (62, 70):
        for t, l in [(2, 3), (3, 4), (2, 5)]:
            spec = FamilySpec(kind, n, t=t, l=l) if kind != "wheel" else FamilySpec(kind, n)
            check_against_reference(construct(spec), t, l)


def _spy_walks(monkeypatch) -> list[tuple[int, int]]:
    """Record (hub, skip mask) of every hub-cycle walk, in call order."""
    walks = []
    walk = forbidden._walk_hub_cycles

    def spy(rows, v, l, skip=0):
        walks.append((v, skip))
        yield from walk(rows, v, l, skip)

    monkeypatch.setattr(forbidden, "_walk_hub_cycles", spy)
    return walks


def test_second_hub_refutes_without_a_full_walk(monkeypatch):
    # at either hub of K2 v (paths), stripping the other hub leaves a fan
    # with no two disjoint 5-cycles, so neither hub needs its full walk
    g = construct(FamilySpec.parse("k2hp:t=3,l=5,n=2000"))
    walks = _spy_walks(monkeypatch)
    assert is_free(g, ForbiddenSpec.bouquet(3, 5))
    assert len({v for v, _ in walks}) == 2
    assert all(skip for _, skip in walks)


@pytest.mark.parametrize("t", range(2, 5))
def test_bouquet_matches_reference_on_hubbed_graphs(monkeypatch, t):
    rnd = random.Random(9000 + t)
    walks = _spy_walks(monkeypatch)
    found = 0
    for l in range(3, 8):
        for _ in range(12):
            n = t * (l - 1) + rnd.randint(1, 4)  # from the fewest that hold B_{t,l}
            g = random_hubbed_graph(rnd, n, rnd.choice([1.5, 2.5]) / n, rnd.randint(1, 2))
            got = find_bouquet(g, t, l)
            assert got == reference_find_bouquet(g, t, l), (g.rows(), t, l)
            found += got is not None
    assert found
    # a walk without one vertex (skip > 0) either refutes its hub or is
    # followed by the full walk there: both must have happened
    stripped = [i for i, (_, skip) in enumerate(walks) if skip > 0]
    full = sum(walks[i + 1 : i + 2] == [(walks[i][0], 0)] for i in stripped)
    assert 0 < full < len(stripped)


def test_hub_cycle_count_when_int_hashes_collide():
    # jn:n=125 is K1 v 62K2; the triangle masks {1, 2} and {123, 124} are
    # equal mod 2^61 - 1, and every one of the 62 triangles must count
    f = construct(FamilySpec("jn", 125))
    assert hub_cycle_count(f, 0, 3, cap=70) == 62
    check_bouquet_witness(f, 62, 3, find_bouquet(f, 62, 3))


def test_hub_walk_visits_each_l_cycle_once():
    rnd = random.Random(515)
    for _ in range(30):
        g = random_graph(rnd, rnd.randint(5, 9), rnd.choice([0.3, 0.5]))
        for l in (3, 4, 5):
            for v in range(g.n):
                seen = []
                for path, _, ends in forbidden._walk_hub_cycles(g.rows(), v, l):
                    for z in range(g.n):
                        if ends >> z & 1:
                            cyc = [v, *path, z]
                            seen.append(frozenset(
                                (min(cyc[i - 1], cyc[i]), max(cyc[i - 1], cyc[i]))
                                for i in range(l)
                            ))
                assert len(seen) == len(set(seen))
                assert sorted(seen, key=sorted) == reference_all_l_cycles_at(g, v, l)


def reference_max_edge_disjoint(g: Graph, v: int, l: int, cap: int) -> int:
    """Largest k <= cap of pairwise edge-disjoint l-cycles through v, by
    backtracking over the cycles' frozenset edge sets."""
    if cap < 1:
        return 0
    cycles = reference_all_l_cycles_at(g, v, l)
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


def test_edge_disjoint_packing_matches_reference_on_atlas():
    for G in nx.graph_atlas_g():
        g = from_edges(G.number_of_nodes(), G.edges())
        for v, l in itertools.product(range(g.n), (3, 4, 5)):
            most = reference_max_edge_disjoint(g, v, l, 3)  # the reference at cap c is min(c, most)
            for cap in (1, 2, 3):
                got = max_edge_disjoint_l_cycles_at(g, v, l, cap)
                assert got == min(cap, most), (g.rows(), v, l, cap)


def test_edge_disjoint_packing_matches_reference_on_bouquet_semantics_graphs():
    """The K2-join graphs the bouquet-semantics suite builds, at every
    vertex with cap = t as the suite asks."""
    for t, l in itertools.product((2, 3), (3, 4, 5)):
        n_lo = t * l - t - l + 2
        for n in range(n_lo, n_lo + 4):
            g = construct(FamilySpec("k2hp", n, t=t, l=l))
            for v in range(g.n):
                expected = reference_max_edge_disjoint(g, v, l, t)
                assert max_edge_disjoint_l_cycles_at(g, v, l, t) == expected, (n, t, l, v)


def test_edge_disjoint_packing_refuses_bad_arguments():
    # with l = 2 the walk would never close a cycle and would list every
    # simple path from v, about ten times more per vertex of K_n
    g = complete(13)
    for v, l in [(0, 2), (13, 3), (-1, 3)]:
        with pytest.raises(ValueError):
            max_edge_disjoint_l_cycles_at(g, v, l, 1)


def test_first_cycle_ends_the_walk():
    # K_60 holds about 4.5 * 10^13 9-cycles through vertex 0; only a walk that
    # stops at its first cycle returns
    g = complete(60)
    t0 = time.perf_counter()
    assert find_cycle_of_length(g, 9) == list(range(9))
    assert find_bouquet(g, 1, 9) == (0, [list(range(9))])
    assert time.perf_counter() - t0 < 1.0


def nx_matching_number(g: Graph) -> int:
    return len(nx.max_weight_matching(to_nx(g), maxcardinality=True))


def matching_number_by_is_free(g: Graph) -> int:
    """The largest k with an M_k in g, read off is_free alone."""
    return next(k for k in itertools.count(1) if is_free(g, ForbiddenSpec.matching(k))) - 1


def test_maximum_matching_against_networkx():
    rnd = random.Random(2024)
    for _ in range(120):
        g = random_graph(rnd, rnd.randint(0, 9), rnd.choice([0.2, 0.4, 0.6]))
        assert matching_number_by_is_free(g) == nx_matching_number(g), g.rows()


def test_matching_known_values():
    assert matching_number_by_is_free(path(4)) == 2
    assert matching_number_by_is_free(star(9)) == 1
    assert matching_number_by_is_free(cycle(7)) == 3
    assert matching_number_by_is_free(empty_graph(5)) == 0
    petersen = from_edges(10, nx.petersen_graph().edges())
    assert matching_number_by_is_free(petersen) == 5


BLOSSOM_GRAPH = from_edges(8, [(0, 1), (0, 6), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 7)])


def matching_graphs():
    """(graph, largest k to ask) over the atlas, seeded random graphs, hub
    joins past 61 vertices (one bitset row spans several words) and three
    graphs that the greedy matching alone does not decide."""
    yield from_edges(4, [(0, 1), (0, 2), (1, 3)]), 3  # greedy takes 0-1 alone
    yield BLOSSOM_GRAPH, 5
    # greedy leaves one vertex of K59 exposed and 58 in the cover, where a
    # search over the matchings inside the cover would not finish
    yield complete(59), 30
    for G in nx.graph_atlas_g():
        yield from_edges(G.number_of_nodes(), G.edges()), 6
    rnd = random.Random(1965)
    for _ in range(400):
        n = rnd.randint(5, 40)
        yield random_graph(rnd, n, rnd.choice([1.0, 2.0, 4.0, 8.0]) / n), 7
    for _ in range(40):
        n = rnd.randint(62, 90)
        yield random_hubbed_graph(rnd, n, rnd.choice([0.5, 1.0, 2.0]) / n, rnd.randint(1, 3)), 7
    for text in ("star:n=70", "jn:n=71", "wheel:n=64", "k2n2:n=66", "claimw:t=3,n=75",
                 "k1hop:t=2,l=5,n=80", "k2hp:t=3,l=4,n=62"):
        yield construct(FamilySpec.parse(text)), 7


def test_matching_freeness_matches_networkx_oracle():
    # the gate for M_k: a detector that wrongly answers "free" passes every
    # family check, which only asks for freeness where the paper proves it
    mismatches = []
    for g, kmax in matching_graphs():
        nu = nx_matching_number(g)
        for k in range(1, kmax + 1):
            if is_free(g, ForbiddenSpec.matching(k)) != (nu < k):
                mismatches.append((g.rows(), k, nu))
    assert mismatches == []


def test_matching_augments_through_a_blossom(monkeypatch):
    # C5 on 1..5 with the stem 6-0-1 and the pendant 2-7. Greedy matches
    # 0-1, 2-3, 4-5; the one augmenting path 6-0=1-5=4-3=2-7 enters the odd
    # cycle at its base 1 and leaves by 2, so the search from 6 finds it
    # only by shrinking the cycle.
    calls = []
    augment = forbidden._augment

    def spy(adj, mate, root):
        calls.append(augment(adj, mate, root))
        return calls[-1]

    monkeypatch.setattr(forbidden, "_augment", spy)
    assert not is_free(BLOSSOM_GRAPH, ForbiddenSpec.matching(4))
    assert calls == [True]


def test_is_free_semantics():
    assert is_free(star(8), ForbiddenSpec.matching(2))
    assert not is_free(path(4), ForbiddenSpec.matching(2))
    assert is_free(path(4), ForbiddenSpec.matching(3))
    assert is_free(complete_bipartite(2, 5), ForbiddenSpec.cycle(3))
    assert not is_free(complete_bipartite(2, 5), ForbiddenSpec.cycle(4))
    assert is_free(bouquet_graph(2, 4), ForbiddenSpec.bouquet(3, 4))
    assert not is_free(bouquet_graph(2, 4), ForbiddenSpec.bouquet(2, 4))


def test_spec_grammar_roundtrip():
    for text, kind in [("C5", "cycle"), ("B2x5", "bouquet"), ("M3", "matching")]:
        spec = ForbiddenSpec.parse(text)
        assert spec.kind == kind and str(spec) == text
    assert ForbiddenSpec.parse(" C3 ") == ForbiddenSpec.cycle(3)
    for bad in ("", "C2", "B0x4", "B2x2", "M0", "X5", "B2", "C-3", "c5"):
        with pytest.raises(ValueError):
            ForbiddenSpec.parse(bad)
