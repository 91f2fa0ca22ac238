"""Forbidden substructures: cycles, hub bouquets, matchings, spec grammar."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings

from helpers import graphs, random_graph, to_nx
from spexlab.constructions import FamilySpec, PathPartition, construct, joined_paths
from spexlab.forbidden import (
    ForbiddenSpec,
    all_l_cycles_at,
    contains_bouquet,
    contains_cycle_of_length,
    find_bouquet,
    find_cycle_of_length,
    is_free,
    matching_number,
    max_edge_disjoint_l_cycles_at,
    max_hub_cycles_at,
    maximum_matching,
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
    assert contains_cycle_of_length(complete(5), 3)
    assert contains_cycle_of_length(complete(5), 5)
    assert not contains_cycle_of_length(complete_bipartite(2, 3), 5)
    assert contains_cycle_of_length(complete_bipartite(2, 3), 4)
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


@given(graphs(max_n=8))
@settings(max_examples=60, deadline=None)
def test_single_bouquet_is_cycle(g):
    for l in (3, 4, 5):
        assert contains_bouquet(g, 1, l) == contains_cycle_of_length(g, l)


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
        assert not contains_bouquet(b, t + 1, l)


def test_friendship_graphs():
    for t in (1, 2, 3, 4):
        f = join(complete(1), disjoint_union([path(2)] * t))
        assert contains_bouquet(f, t, 3)
        assert not contains_bouquet(f, t + 1, 3)
        assert not contains_bouquet(f, 1, 4)


def test_bouquet_against_brute_oracle():
    rnd = random.Random(77)
    for _ in range(120):
        g = random_graph(rnd, rnd.randint(4, 8), rnd.choice([0.3, 0.5, 0.7]))
        for t, l in [(1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)]:
            got = contains_bouquet(g, t, l)
            assert got == oracle_has_bouquet(g, t, l), (g.rows(), t, l)


def test_bouquet_arg_validation():
    with pytest.raises(ValueError):
        find_bouquet(complete(4), 0, 3)
    with pytest.raises(ValueError):
        find_bouquet(complete(4), 1, 2)


def test_hub_cycle_counts_on_wheels():
    # rim of W_n is C_{n-1}: disjoint rim edges bound both packings
    for n in (6, 7, 8, 9):
        w = join(complete(1), cycle(n - 1))
        assert max_hub_cycles_at(w, 0, 3, cap=10) == (n - 1) // 2
        assert max_edge_disjoint_l_cycles_at(w, 0, 3, cap=10) == (n - 1) // 2
        assert max_hub_cycles_at(w, 0, 3, cap=2) == 2  # cap respected
    assert max_edge_disjoint_l_cycles_at(complete(5), 0, 3, cap=10) == 2
    assert max_hub_cycles_at(complete(5), 0, 3, cap=10) == 2


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
                assert max_hub_cycles_at(g, v, l, cap=10) == best


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


def reference_max_hub_cycles_at(g: Graph, v: int, l: int, cap: int) -> int:
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
        got = max_hub_cycles_at(g, v, l, cap=t + 1)
        assert got == reference_max_hub_cycles_at(g, v, l, cap=t + 1), (g.rows(), v, l)


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


@pytest.mark.parametrize("kind", ["wheel", "k1hop", "k2hp"])
def test_bouquet_matches_reference_past_61_vertices(kind):
    # Python hashes an int mod 2^61 - 1, so from n = 62 on distinct vertex
    # masks share hashes; the detector must still keep every distinct set.
    for n in (62, 70):
        for t, l in [(2, 3), (3, 4), (2, 5)]:
            spec = FamilySpec(kind, n, t=t, l=l) if kind != "wheel" else FamilySpec(kind, n)
            check_against_reference(construct(spec), t, l)


def test_hub_cycle_count_when_int_hashes_collide():
    # jn:n=125 is K1 v 62K2; the triangle masks {1, 2} and {123, 124} are
    # equal mod 2^61 - 1, and every one of the 62 triangles must count
    f = construct(FamilySpec("jn", 125))
    assert max_hub_cycles_at(f, 0, 3, cap=70) == 62
    check_bouquet_witness(f, 62, 3, find_bouquet(f, 62, 3))


def test_all_l_cycles_at_matches_reference():
    rnd = random.Random(515)
    for _ in range(30):
        g = random_graph(rnd, rnd.randint(5, 9), rnd.choice([0.3, 0.5]))
        for l in (3, 4, 5):
            for v in range(g.n):
                assert all_l_cycles_at(g, v, l) == reference_all_l_cycles_at(g, v, l)


def test_all_l_cycles_at_are_edge_sets():
    w = join(complete(1), cycle(4))
    triangles = all_l_cycles_at(w, 0, 3)
    assert len(triangles) == 4
    for t in triangles:
        assert len(t) == 3 and all(w.has_edge(u, v) for u, v in t)


def test_maximum_matching_against_networkx():
    rnd = random.Random(2024)
    for _ in range(120):
        g = random_graph(rnd, rnd.randint(0, 9), rnd.choice([0.2, 0.4, 0.6]))
        m = maximum_matching(g)
        assert all(g.has_edge(u, v) for u, v in m)
        used = [w for e in m for w in e]
        assert len(used) == len(set(used))
        ref = nx.max_weight_matching(to_nx(g), maxcardinality=True)
        assert len(m) == len(ref) == matching_number(g)


def test_matching_known_values():
    assert matching_number(path(4)) == 2
    assert matching_number(star(9)) == 1
    assert matching_number(cycle(7)) == 3
    assert matching_number(empty_graph(5)) == 0
    petersen = from_edges(10, nx.petersen_graph().edges())
    assert matching_number(petersen) == 5


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
