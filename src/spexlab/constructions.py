"""Named extremal families and the (s1,s2)-transformation on path partitions."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    join,
    path,
)

FAMILY_KINDS = ("wheel", "star", "jn", "k1hop", "k2hp", "k2n2", "claimw")


@dataclass(frozen=True)
class PathPartition:
    """Non-increasing positive parts; realizes the disjoint path union
    P_{parts[0]} u P_{parts[1]} u ..."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        parts = tuple(sorted(parts, reverse=True))
        if any(p < 1 for p in parts):
            raise ValueError("all parts must be >= 1")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """i-th largest part, 1-indexed like n_1, n_2, ...; 0 beyond the end."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.parts)) + "]"


def fill_partition(total: int, first: int, filler: int) -> PathPartition:
    """One part of size ``first``, then as many ``filler`` parts as fit,
    then the remainder. Unlike h_op/h_p this does not require
    first >= filler (some constructions lead with the smaller part)."""
    if not 1 <= first <= total or filler < 1:
        raise ValueError(f"need 1 <= first <= total and filler >= 1")
    rest = total - first
    parts = [first] + [filler] * (rest // filler)
    if rest % filler:
        parts.append(rest % filler)
    return PathPartition(parts)


def h_op(n: int, n1: int, n2: int) -> PathPartition:
    """P_{n1} u floor((n-1-n1)/n2) P_{n2} u optional remainder; total n-1.

    n1 = n2 is permitted (the balanced case used by the t = 1 family).
    """
    if not n - 1 >= n1 >= n2 >= 1:
        raise ValueError(f"need n-1 >= n1 >= n2 >= 1, got n={n}, n1={n1}, n2={n2}")
    return fill_partition(n - 1, n1, n2)


def h_p(n: int, n1: int, n2: int) -> PathPartition:
    """As h_op but with total n-2 (two join vertices)."""
    if not n - 2 >= n1 >= n2 >= 1:
        raise ValueError(f"need n-2 >= n1 >= n2 >= 1, got n={n}, n1={n1}, n2={n2}")
    return fill_partition(n - 2, n1, n2)


def paths_graph(h: PathPartition) -> Graph:
    built = {p: path(p) for p in set(h.parts)}
    return disjoint_union(built[p] for p in h.parts)


def joined_paths(hubs: int, h: PathPartition) -> Graph:
    """K_hubs v (disjoint paths); hub vertices come first and are mutually
    adjacent (for hubs = 2 this includes the K2 edge)."""
    if hubs not in (1, 2):
        raise ValueError("hubs must be 1 or 2")
    return join(complete(hubs), paths_graph(h))


@dataclass(frozen=True)
class FamilySpec:
    """One named family; t/l apply only to the parametrized kinds."""

    kind: str
    n: int
    t: int = 0
    l: int = 0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> FamilySpec:
        m = re.match(r"^(\w+):(.*)$", text.strip())
        if not m:
            raise ValueError(f"bad family spec {text!r}; expected kind:k=v,...")
        kind = m.group(1).lower()
        fields: dict[str, int] = {}
        for piece in filter(None, (p.strip() for p in m.group(2).split(","))):
            if "=" not in piece:
                raise ValueError(f"bad family parameter {piece!r}")
            key, _, val = piece.partition("=")
            key = key.strip()
            if key not in ("t", "l", "n"):
                raise ValueError(f"unknown family parameter {key!r}")
            if key in fields:
                raise ValueError(f"family parameter {key!r} given twice")
            fields[key] = int(val)
        if fields.get("n", -1) < 0:
            raise ValueError("family spec needs n")
        return cls(kind, fields["n"], fields.get("t", 0), fields.get("l", 0))

    def __str__(self) -> str:
        extra = ""
        if self.kind in ("k1hop", "k2hp"):
            extra = f"t={self.t},l={self.l},"
        elif self.kind == "claimw":
            extra = f"t={self.t},"
        return f"{self.kind}:{extra}n={self.n}"


def family_partition(spec: FamilySpec) -> PathPartition:
    """The path partition behind a K1/K2-join family."""
    t, l, n = spec.t, spec.l, spec.n
    if spec.kind in ("star", "jn"):
        if n < 2:
            raise ValueError(f"{spec.kind} needs n >= 2")
        if spec.kind == "star":
            return PathPartition([1] * (n - 1))
        pairs, single = divmod(n - 1, 2)
        return PathPartition([2] * pairs + [1] * single)
    if spec.kind == "claimw":
        if t < 1:
            raise ValueError("claimw needs t >= 1")
        if n < 2 * t - 1 or n < 2:
            raise ValueError(f"claimw(t={t}) needs n >= {max(2, 2 * t - 1)}")
        return PathPartition([2] * (t - 1) + [1] * (n - 2 * t + 1))
    if spec.kind == "k1hop":
        if t < 1 or l < 3:
            raise ValueError("k1hop needs t >= 1 and l >= 3")
        n1 = l - 2 if t == 1 else t * l - t - 1
        if n < n1 + 1:
            raise ValueError(f"k1hop(t={t}, l={l}) needs n >= {n1 + 1}")
        return h_op(n, n1, l - 2)
    if spec.kind == "k2hp":
        if t < 2 or l < 3:
            raise ValueError("k2hp needs t >= 2 and l >= 3")
        n1 = t * l - t - l
        if n < n1 + 2:
            raise ValueError(f"k2hp(t={t}, l={l}) needs n >= {n1 + 2}")
        return h_p(n, n1, l - 2)
    raise ValueError(f"{spec.kind} has no path partition")


def construct(spec: FamilySpec) -> Graph:
    """Build the named graph on exactly spec.n vertices."""
    kind, n = spec.kind, spec.n
    if kind == "wheel":
        if n < 4:
            raise ValueError("wheel needs n >= 4")
        return join(complete(1), cycle(n - 1))
    if kind == "k2n2":
        if n < 3:
            raise ValueError("k2n2 needs n >= 3")
        return complete_bipartite(2, n - 2)
    return joined_paths(2 if kind == "k2hp" else 1, family_partition(spec))


def transform(h: PathPartition, i: int, j: int) -> PathPartition:
    """(s1,s2)-transformation on parts i and j: (s1+1, s2-1), merging to
    P_{s1+s2} when s2 = 1."""
    q = len(h.parts)
    if not (0 <= i < q and 0 <= j < q):
        raise ValueError(f"indices ({i}, {j}) out of range for {q} parts")
    if i == j:
        raise ValueError("indices must differ")
    s1, s2 = h.parts[i], h.parts[j]
    if s1 < s2:
        raise ValueError(f"need parts[i] >= parts[j], got ({s1}, {s2})")
    rest = [p for k, p in enumerate(h.parts) if k not in (i, j)]
    if s2 == 1:
        return PathPartition(rest + [s1 + 1])
    return PathPartition(rest + [s1 + 1, s2 - 1])


def _replace(
    sizes: Counter, remove: tuple[int, ...], add: tuple[int, ...]
) -> tuple[int, ...]:
    """Parts of the multiset ``sizes`` with ``remove`` taken out and the
    positive entries of ``add`` put in, non-increasing."""
    out = sizes.copy()
    out.subtract(remove)
    out.update(p for p in add if p > 0)
    return tuple(sorted(out.elements(), reverse=True))


def transform_successors(h: PathPartition) -> list[PathPartition]:
    """Distinct results of applying one transformation to h.

    Parts of equal size give equal results, so the loop runs over pairs of
    distinct sizes (s1 >= s2), not over pairs of parts."""
    sizes = Counter(h.parts)
    out = {
        _replace(sizes, (s1, s2), (s1 + 1, s2 - 1))
        for s1 in sizes
        for s2 in sizes
        if s1 > s2 or (s1 == s2 and sizes[s1] >= 2)
    }
    return [PathPartition(p) for p in sorted(out, reverse=True)]


def transform_predecessors(
    h: PathPartition, s2_cap: int | None = None
) -> list[PathPartition]:
    """Partitions one transformation below h; optional cap on the forward
    step's s2 (thresholds in the monotonicity lemmas grow with s2).

    A predecessor either splits a part p >= 2 into (p - 1, 1), undoing a
    merge with s2 = 1, or turns parts a >= b + 2 into (a - 1, b + 1),
    undoing a step with s2 = b + 1. Both depend only on the part sizes, so
    the loops run over distinct sizes."""
    sizes = Counter(h.parts)
    out = set()
    if s2_cap is None or s2_cap >= 1:
        out.update(_replace(sizes, (p,), (p - 1, 1)) for p in sizes if p >= 2)
    for a in sizes:
        for b in sizes:
            if a >= b + 2 and (s2_cap is None or b + 1 <= s2_cap):
                out.add(_replace(sizes, (a, b), (a - 1, b + 1)))
    return [PathPartition(p) for p in sorted(out, reverse=True)]
