"""Path partitions, named families, and the transformation calculus."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spexlab.constructions import (
    FamilySpec,
    PathPartition,
    construct,
    family_partition,
    fill_partition,
    h_op,
    h_p,
    joined_paths,
    paths_graph,
    transform,
    transform_predecessors,
    transform_successors,
)
from spexlab.forbidden import ForbiddenSpec, is_free
from spexlab.graph import (
    complete,
    complete_bipartite,
    disjoint_union,
    empty_graph,
    join,
    path,
    star,
)
from spexlab.recognition import is_outerplanar, is_planar

partitions = st.lists(st.integers(1, 9), min_size=1, max_size=6).map(PathPartition)


def reference_jn(n: int):
    """J_n as built edge by edge: the star with hub 0 plus (a, a + 1) for
    odd a."""
    g = star(n)
    for a in range(1, n - 1, 2):
        g = g.add_edge(a, a + 1)
    return g


def test_jn_matches_edge_by_edge_build():
    for n in range(2, 61):
        assert construct(FamilySpec("jn", n)) == reference_jn(n)


def reference_built(spec: FamilySpec):
    """star, jn and claimw (the claim-1.1 witness) built directly from
    graph pieces rather than from their path partitions."""
    n, t = spec.n, spec.t
    if spec.kind == "star":
        return star(n)
    if spec.kind == "jn":
        pairs, single = divmod(n - 1, 2)
        return join(complete(1), disjoint_union([path(2)] * pairs + [path(1)] * single))
    rest = disjoint_union([path(2)] * (t - 1) + [empty_graph(n - 2 * t + 1)])
    return join(complete(1), rest)


def test_partition_families_match_direct_builds():
    for n in range(2, 201):
        for spec in [FamilySpec("star", n), FamilySpec("jn", n)] + [
            FamilySpec("claimw", n, t=t) for t in range(1, (n + 1) // 2 + 1)
        ]:
            assert construct(spec).rows() == reference_built(spec).rows(), spec


def test_path_partition_basics():
    h = PathPartition([2, 5, 1, 5])
    assert h.parts == (5, 5, 2, 1)
    assert h.total == 13
    assert h.part(1) == 5 and h.part(3) == 2 and h.part(9) == 0
    assert str(h) == "[5,5,2,1]"
    with pytest.raises(ValueError):
        PathPartition([3, 0])


def test_fill_partition_frozen():
    assert fill_partition(9, 4, 2).parts == (4, 2, 2, 1)
    assert fill_partition(7, 2, 3).parts == (3, 2, 2)  # smaller part may lead
    assert fill_partition(5, 5, 1).parts == (5,)
    assert fill_partition(6, 1, 1).parts == (1,) * 6
    with pytest.raises(ValueError):
        fill_partition(4, 5, 1)
    with pytest.raises(ValueError):
        fill_partition(4, 2, 0)


def test_h_op_h_p_totals():
    assert h_op(12, 5, 2).total == 11
    assert h_p(12, 5, 2).total == 10
    assert h_op(10, 3, 3).parts == (3, 3, 3)
    with pytest.raises(ValueError):
        h_op(6, 2, 3)
    with pytest.raises(ValueError):
        h_p(5, 4, 1)


def test_paths_graph_shape():
    g = paths_graph(PathPartition([3, 2, 1]))
    assert g.n == 6 and g.edge_count() == 3
    assert sorted(len(c) for c in g.components()) == [1, 2, 3]
    j = joined_paths(2, PathPartition([2, 2]))
    assert j.has_edge(0, 1) and j.degree(0) == 5
    with pytest.raises(ValueError):
        joined_paths(3, PathPartition([2]))


def test_family_spec_parse_and_str():
    spec = FamilySpec.parse("k1hop:t=2,l=5,n=40")
    assert spec == FamilySpec("k1hop", 40, t=2, l=5)
    assert str(spec) == "k1hop:t=2,l=5,n=40"
    assert FamilySpec.parse("wheel: n=10") == FamilySpec("wheel", 10)
    assert str(FamilySpec("claimw", 12, t=3)) == "claimw:t=3,n=12"
    for text in ("", "wheel", "wheel:t", "wheel:x=3,n=5", "bogus:n=5", "wheel:"):
        with pytest.raises(ValueError):
            FamilySpec.parse(text)


@given(
    st.sampled_from(["k1hop", "k2hp"]),
    st.integers(1, 4),
    st.integers(3, 7),
    st.integers(0, 40),
)
@settings(max_examples=80, deadline=None)
def test_family_spec_roundtrip(kind, t, l, slack):
    if kind == "k2hp":
        t = max(t, 2)
    n1 = (l - 2) if (kind == "k1hop" and t == 1) else (
        t * l - t - 1 if kind == "k1hop" else t * l - t - l
    )
    n = n1 + (1 if kind == "k1hop" else 2) + slack
    spec = FamilySpec(kind, n, t=t, l=l)
    assert FamilySpec.parse(str(spec)) == spec
    g = construct(spec)
    assert g.n == n


def test_family_partition_min_n():
    assert family_partition(FamilySpec("k1hop", 8, t=2, l=4)).parts == (5, 2)
    with pytest.raises(ValueError, match="needs n >= 6"):
        family_partition(FamilySpec("k1hop", 5, t=2, l=4))
    with pytest.raises(ValueError, match="needs n >= 3"):
        family_partition(FamilySpec("k2hp", 2, t=2, l=3))
    with pytest.raises(ValueError):
        family_partition(FamilySpec("wheel", 8))
    with pytest.raises(ValueError):
        family_partition(FamilySpec("k1hop", 9, t=0, l=4))


def test_construct_shapes():
    w = construct(FamilySpec("wheel", 8))
    assert w.degree(0) == 7 and w.edge_count() == 14
    assert construct(FamilySpec("star", 9)) == star(9)
    jn = construct(FamilySpec("jn", 9))
    assert jn.edge_count() == 8 + 4
    assert not is_free(jn, ForbiddenSpec.matching(4)) and is_free(jn, ForbiddenSpec.matching(5))
    assert construct(FamilySpec("k2n2", 7)) == complete_bipartite(2, 5)
    claimw = FamilySpec("claimw", 12, t=3)
    assert construct(claimw) == reference_built(claimw)
    k2 = construct(FamilySpec("k2hp", 12, t=2, l=5))
    assert k2.has_edge(0, 1) and k2.degree(0) == 11 and k2.degree(1) == 11
    for bad in (
        FamilySpec("wheel", 3),
        FamilySpec("star", 1),
        FamilySpec("k2n2", 2),
        FamilySpec("claimw", 4, t=3),
        FamilySpec("claimw", 5, t=0),
    ):
        with pytest.raises(ValueError):
            construct(bad)


def test_construct_class_and_freeness():
    g = construct(FamilySpec("k1hop", 30, t=2, l=5))
    assert is_outerplanar(g)
    assert is_free(g, ForbiddenSpec.bouquet(2, 5))
    h = construct(FamilySpec("k2hp", 30, t=3, l=4))
    assert is_planar(h) and not is_outerplanar(h)
    assert is_free(h, ForbiddenSpec.bouquet(3, 4))
    assert is_free(construct(FamilySpec("star", 20)), ForbiddenSpec.matching(2))
    assert is_free(construct(FamilySpec("jn", 20)), ForbiddenSpec.cycle(4))
    assert is_free(construct(FamilySpec("k2n2", 20)), ForbiddenSpec.cycle(3))


def test_transform_frozen_cases():
    assert transform(PathPartition([3, 1]), 0, 1).parts == (4,)
    assert transform(PathPartition([2, 2]), 0, 1).parts == (3, 1)
    assert transform(PathPartition([5, 3, 2]), 1, 2).parts == (5, 4, 1)
    with pytest.raises(ValueError):
        transform(PathPartition([2, 3]), 1, 1)
    with pytest.raises(ValueError):
        transform(PathPartition([2, 3]), 1, 2)
    with pytest.raises(ValueError, match="parts\\[i\\] >= parts\\[j\\]"):
        transform(PathPartition([3, 2]), 1, 0)


@given(partitions, st.data())
@settings(max_examples=100, deadline=None)
def test_transform_preserves_total(h, data):
    succs = transform_successors(h)
    assert all(s.total == h.total for s in succs)
    assert all(s.parts != h.parts for s in succs)
    if succs:
        s = data.draw(st.sampled_from(succs))
        assert h.parts in {p.parts for p in transform_predecessors(s)}


@given(partitions)
@settings(max_examples=100, deadline=None)
def test_predecessors_invert_successors(h):
    for p in transform_predecessors(h):
        assert p.total == h.total
        assert h.parts in {s.parts for s in transform_successors(p)}


def test_predecessor_s2_cap():
    # capping the forward s2 drops inverse moves whose split part is larger
    h = PathPartition([6, 2])
    capped = {p.parts for p in transform_predecessors(h, s2_cap=1)}
    uncapped = {p.parts for p in transform_predecessors(h)}
    assert capped <= uncapped
    assert (5, 3) not in capped and (5, 3) in uncapped


def brute_successors(h: PathPartition) -> list[PathPartition]:
    """All-pairs reference for transform_successors: every ordered pair of
    parts (i, j) with parts[i] >= parts[j]."""
    out = set()
    q = len(h.parts)
    for i in range(q):
        for j in range(q):
            if i != j and h.parts[i] >= h.parts[j]:
                out.add(transform(h, i, j).parts)
    return [PathPartition(p) for p in sorted(out, reverse=True)]


def brute_predecessors(h: PathPartition, s2_cap: int | None = None) -> list[PathPartition]:
    """All-pairs reference for transform_predecessors."""
    out = set()
    parts = h.parts
    for idx, p in enumerate(parts):
        if p >= 2 and (s2_cap is None or 1 <= s2_cap):
            rest = parts[:idx] + parts[idx + 1 :]
            out.add(PathPartition(rest + (p - 1, 1)).parts)
    for ia, a in enumerate(parts):
        for ib, b in enumerate(parts):
            if ia == ib or a < b + 2:
                continue
            if s2_cap is not None and b + 1 > s2_cap:
                continue
            rest = [p for k, p in enumerate(parts) if k not in (ia, ib)]
            out.add(PathPartition(rest + [a - 1, b + 1]).parts)
    out.discard(parts)
    return [PathPartition(p) for p in sorted(out, reverse=True)]


CAPS = (None, 1, 2, 6)


@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=12).map(PathPartition),
    st.sampled_from(CAPS),
)
@settings(max_examples=300, deadline=None)
def test_neighbours_match_all_pairs_reference(h, cap):
    assert transform_predecessors(h, cap) == brute_predecessors(h, cap)
    assert transform_successors(h) == brute_successors(h)


def _family_partitions(n: int) -> list[PathPartition]:
    return [
        family_partition(FamilySpec(kind, n, t=t, l=l))
        for kind in ("k1hop", "k2hp")
        for t in (2, 3)
        for l in (3, 4, 5)
    ]


def test_predecessors_match_reference_on_families_at_2000():
    # the sibling generation of the thm-2/3/4 dominance cases
    for h in _family_partitions(2000):
        for cap in CAPS:
            assert transform_predecessors(h, cap) == brute_predecessors(h, cap)


def test_successors_match_reference_on_families():
    # the all-pairs reference is quadratic in the part count and takes
    # tens of seconds per call at n = 2000 (about 665 parts), so the same
    # family shapes are checked at n = 150
    for h in _family_partitions(150):
        assert transform_successors(h) == brute_successors(h)
