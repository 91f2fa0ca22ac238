"""Exhaustive and local extremal search over outerplanar/planar F-free graphs.

Enumeration grows graphs edge by edge from the edgeless graph. Both class
membership (outerplanar/planar) and F-freeness are closed under edge
deletion, so every qualifying graph is reachable through qualifying
intermediates and violating branches can be pruned outright. Isomorph
rejection uses a canonical form from partition refinement by the cells
that split, with individualization, pruned by the automorphisms found so
far (n <= 16); they let each parent add one edge per orbit of its non-edges.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field
from random import Random
from typing import Iterator

import numpy as np

from .forbidden import ForbiddenSpec, is_free
from .graph import Graph, empty_graph
from .graph6 import graph6_from_body
from .recognition import (
    is_outerplanar,
    is_planar,
    quick_reject_outerplanar,
    quick_reject_planar,
)
from .spectral import spectral_radius

CLASSES = ("outerplanar", "planar")
MODES = ("exhaustive", "local")
TIE_WINDOW = 1e-9
CHECKPOINT_MAGIC = b"SPEXCKPT1"


class CapExceededError(ValueError):
    """Exhaustive search refused; the guidance is in the message."""


@dataclass(frozen=True)
class SearchConfig:
    n_min: int
    n_max: int
    klass: str = "outerplanar"
    forbidden: ForbiddenSpec | None = None
    connected_only: bool = True
    mode: str = "exhaustive"
    seed: int = 0
    checkpoint: str | None = None
    exhaustive_cap: int = 10

    def __post_init__(self):
        if self.klass not in CLASSES:
            raise ValueError(f"class must be one of {CLASSES}, got {self.klass!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError(f"bad n range [{self.n_min}, {self.n_max}]")
        if self.exhaustive_cap < 1:
            raise ValueError(f"exhaustive_cap must be >= 1, got {self.exhaustive_cap}")

    def key_dict(self) -> dict:
        """Identity of the search problem (excludes checkpoint)."""
        return {
            "n_min": self.n_min,
            "n_max": self.n_max,
            "class": self.klass,
            "forbidden": str(self.forbidden) if self.forbidden else None,
            "connected_only": self.connected_only,
            "mode": self.mode,
            "seed": self.seed,
            "exhaustive_cap": self.exhaustive_cap,
        }


@dataclass
class SearchReport:
    config: SearchConfig
    entries: list[dict] = field(default_factory=list)

    def canonical_dict(self) -> dict:
        """Wall-clock times vary run to run and are excluded here; byte
        identity of this dict is the determinism contract."""
        entries = []
        for e in self.entries:
            e = dict(e)
            e.pop("seconds", None)
            entries.append(e)
        return {"config": self.config.key_dict(), "entries": entries}

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "config": self.config.key_dict(),
            "entries": self.entries,
        }
        return json.dumps(payload, sort_keys=True, indent=indent)

    def csv_lines(self) -> list[str]:
        out = ["n,best_rho,certificate_graph6,candidates,seconds"]
        for e in self.entries:
            certs = ";".join(e["certificates"])
            out.append(
                f"{e['n']},{e['best_rho']:.12g},{certs},"
                f"{e['candidates']},{e.get('seconds', 0.0):.3f}"
            )
        return out


# ---------------------------------------------------------------------------
# canonical labeling


def _refine(
    rows: tuple[int, ...], cells: list[list[int]], splitters: list[int]
) -> list[list[int]]:
    """Equitable refinement of ordered cells of one-degree vertices, each
    ascending, by the cells that split: the cells, in color order, that
    recoloring by (color, sorted neighbor colors) until stable gives.
    ``splitters`` masks the new pieces in color order, less each split
    cell's last piece, whose counts follow from the others: all degree
    cells but the last at the root, [v] after individualizing v. A cell
    has equal counts into the cells of the round before, so only counts
    into new pieces order it (McKay, Congr. Numer. 30, 1981), packed 4
    bits each (n <= 16): descending counts are ascending color tuples.
    """
    while splitters and len(cells) < len(rows):
        out: list[list[int]] = []
        split: list[int] = []
        for cell in cells:
            if len(cell) > 1:
                groups: dict[int, list[int]] = {}
                for v in cell:
                    s = 0
                    for m in splitters:
                        s = s << 4 | (rows[v] & m).bit_count()
                    groups.setdefault(s, []).append(v)
                if len(groups) > 1:
                    pieces = [groups[s] for s in sorted(groups, reverse=True)]
                    out += pieces
                    split += [sum([1 << v for v in p]) for p in pieces[:-1]]
                    continue
            out.append(cell)
        cells, splitters = out, split
    return cells


def _homogeneous(rows: tuple[int, ...], cell: list[int]) -> bool:
    """True when every permutation of the cell is an automorphism (same
    neighbors outside the cell, and the cell induces a clique or an
    independent set); then one individualization branch suffices."""
    members = 0
    for v in cell:
        members |= 1 << v
    outside = rows[cell[0]] & ~members
    inside = 0
    for v in cell:
        if rows[v] & ~members != outside:
            return False
        inside += (rows[v] & members).bit_count()
    k = len(cell)
    return inside == 0 or inside == k * (k - 1)


def _orbit(mask: int, gens: list[tuple[int, ...]]) -> int:
    """Bitmask of the orbit of the vertex set ``mask`` under ``gens``."""
    todo = mask
    while todo:
        v = (todo & -todo).bit_length() - 1
        todo &= todo - 1
        for s in gens:
            if not mask >> s[v] & 1:
                mask |= 1 << s[v]
                todo |= 1 << s[v]
    return mask


def _leaf_key(nbrs: list[list[int]], perm: list[int]) -> tuple[int, list[int]]:
    """Upper triangle under the labelling v -> perm[v], read column by
    column (the graph6 bit order) MSB first, and the inverse labelling."""
    n = len(perm)
    inv = [0] * n
    for v, c in enumerate(perm):
        inv[c] = v
    key = 0
    for j in range(1, n):
        col = 0
        for u in nbrs[inv[j]]:
            i = perm[u]
            if i < j:
                col |= 1 << (j - 1 - i)
        key = key << j | col
    return key, inv


def _check_canon_n(n: int) -> None:
    if n > 16:
        raise ValueError("canonical_form is limited to n <= 16")


def _canon(g: Graph) -> tuple[bytes, list[tuple[int, ...]]]:
    """Canonical form of ``g`` and automorphisms of ``g`` met on the way,
    each as a tuple mapping vertex v to its image.

    Every leaf of the individualization tree is a labelling; the form is
    the graph6 of the leaf whose graph6 bytes are smallest. Leaves compare
    by ``_leaf_key``, which holds the graph6 body bits, so the form is
    written from the smallest key. Two leaves with equal keys give the
    same labeled graph, so one labelling followed by the inverse of the
    other is an automorphism; a homogeneous cell contributes the
    transpositions of its members. A child whose vertex lies in the orbit
    of an explored sibling under the automorphisms found so far that fix
    the node's individualized vertices is skipped (McKay, J. Algorithms
    26, 1998): its subtree is the sibling's image and holds the same keys.
    Each node refines the cells it is given by the cells that split.
    """
    _check_canon_n(g.n)
    n = g.n
    rows = g.rows()
    nbrs = g.adjacency()
    gens: list[tuple[int, ...]] = []
    best_key = -1
    best_inv: list[int] = []

    def leaf(perm: list[int]) -> None:
        nonlocal best_key, best_inv
        key, inv = _leaf_key(nbrs, perm)
        if best_key < 0 or key < best_key:
            best_key, best_inv = key, inv
        elif key == best_key:
            gens.append(tuple(best_inv[c] for c in perm))

    def search(cells: list[list[int]], splitters: list[int], fixed: list[int]) -> None:
        cells = _refine(rows, cells, splitters)
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:  # discrete: cell c holds the vertex labelled c
            perm = [0] * n
            for c, (v,) in enumerate(cells):
                perm[v] = c
            leaf(perm)
            return
        target = cell
        if _homogeneous(rows, target):
            for w in target[1:]:
                swap = list(range(n))
                swap[target[0]], swap[w] = w, target[0]
                gens.append(tuple(swap))
            target = target[:1]
        explored = 0
        for v in target:
            if explored:
                stabiliser = [s for s in gens if all(s[u] == u for u in fixed)]
                explored = _orbit(explored, stabiliser)
                if explored >> v & 1:
                    continue
            explored |= 1 << v
            rest = [w for w in cell if w != v]  # v goes just below the rest
            search(cells[:i] + [[v], rest] + cells[i + 1 :], [1 << v], fixed + [v])

    by_degree: dict[int, list[int]] = {}
    for v, nb in enumerate(nbrs):
        by_degree.setdefault(len(nb), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]  # the degree cells, ascending
    search(cells, [sum(1 << v for v in cell) for cell in cells[:-1]], [])
    return graph6_from_body(n, best_key), list(dict.fromkeys(gens))


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant bytes (the graph6 of a canonical relabeling);
    equal strings iff isomorphic. Refinement-based; intended for n <= 16."""
    return _canon(g)[0]


# ---------------------------------------------------------------------------
# enumeration


def _class_checks(klass: str):
    if klass == "outerplanar":
        return quick_reject_outerplanar, is_outerplanar
    if klass == "planar":
        return quick_reject_planar, is_planar
    raise ValueError(f"class must be one of {CLASSES}, got {klass!r}")


def _orbit_minima(g: Graph, gens: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Non-edges uv (u < v) that are lexicographically smallest in their
    orbit under the group generated by ``gens``, in lexicographic order.

    A union-find over pair indices u*n+v keeps the smallest index as each
    root, so a non-edge is its orbit's minimum iff it is its own root.
    """
    n = g.n
    rows = g.rows()
    free = [
        u * n + v for u in range(n) for v in range(u + 1, n) if not rows[u] >> v & 1
    ]
    root = list(range(n * n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for s in gens:
        for p in free:
            a, b = s[p // n], s[p % n]
            q = a * n + b if a < b else b * n + a
            rp, rq = find(p), find(q)
            if rp != rq:
                root[max(rp, rq)] = min(rp, rq)
    return [divmod(p, n) for p in free if find(p) == p]


def _enumerate_levels(
    n: int,
    klass: str,
    forbidden: ForbiddenSpec | None,
    stats: dict[str, int],
) -> Iterator[tuple[bytes, Graph]]:
    """(canonical form, representative) for every qualifying class, level
    by level.

    Each parent adds one edge per orbit of its non-edges under the
    automorphisms found while canonicalizing it, choosing the orbit's
    lexicographically smallest non-edge. The first child of a new class in
    (parent, u, v) order is always such a minimum (a smaller non-edge in
    its orbit would give an isomorphic child earlier), so the stored
    representatives, and the counters below, are those of adding every
    non-edge: ``children`` counts all non-edges of the qualifying parents
    and ``duplicate`` all of them that give no new class. A child whose
    rows another parent of the level already produced is such a duplicate
    and is not canonicalized again.
    """
    quick, full = _class_checks(klass)
    root = empty_graph(n)
    form, gens = _canon(root)
    seen = {form}
    level = [(form, root, gens)]
    yield form, root
    while level:
        nxt: list[tuple[bytes, Graph, list[tuple[int, ...]]]] = []
        labelled: set[Graph] = set()
        for _, g, gens in level:
            free = n * (n - 1) // 2 - g.edge_count()
            stats["children"] += free
            stats["duplicate"] += free
            for u, v in _orbit_minima(g, gens):
                child = g.add_edge(u, v)
                if child in labelled:
                    continue
                labelled.add(child)
                form, child_gens = _canon(child)
                if form in seen:
                    continue
                seen.add(form)
                stats["duplicate"] -= 1
                if quick(child) is False:
                    stats["quick_reject"] += 1
                    continue
                if not full(child):
                    stats["class_reject"] += 1
                    continue
                if forbidden is not None and not is_free(child, forbidden):
                    stats["forbidden_reject"] += 1
                    continue
                nxt.append((form, child, child_gens))
        nxt.sort(key=lambda t: t[0])
        level = nxt
        for form, g, _ in level:
            yield form, g


def _enumerate(
    n: int,
    klass: str,
    forbidden: ForbiddenSpec | None,
    connected_only: bool,
    cap: int,
    stats: dict[str, int],
) -> Iterator[tuple[bytes, Graph]]:
    if n > cap:
        raise CapExceededError(
            f"exhaustive enumeration at n={n} exceeds the cap {cap}; raise the"
            " cap explicitly if you accept the cost, or use local search"
        )
    for form, g in _enumerate_levels(n, klass, forbidden, stats):
        if connected_only and not g.is_connected():
            stats["disconnected"] += 1
            continue
        stats["emitted"] += 1
        yield form, g


def enumerate_class(
    n: int,
    klass: str = "outerplanar",
    forbidden: ForbiddenSpec | None = None,
    connected_only: bool = True,
    cap: int = 10,
) -> Iterator[Graph]:
    """One representative per isomorphism class of qualifying n-vertex
    graphs, in deterministic order (by edge count, then canonical form)."""
    for _, g in _enumerate(n, klass, forbidden, connected_only, cap, _fresh_stats()):
        yield g


def _fresh_stats() -> dict[str, int]:
    return {
        "children": 0,
        "duplicate": 0,
        "quick_reject": 0,
        "class_reject": 0,
        "forbidden_reject": 0,
        "disconnected": 0,
        "emitted": 0,
    }


# ---------------------------------------------------------------------------
# exhaustive search

# _best_entry scores with spectral_radius only the graphs whose batched
# eigvalsh value mu is within RESCORE_MARGIN of the largest, mu_top, so
# best_rho and the certificates are those of scoring every graph. For a
# graph with true spectral radius lam and spectral_radius value r:
#   |mu - lam| <= eps: eigh is backward stable, and eps is a small multiple
#     of n * 2^-53 * ||A||_2 with ||A||_2 <= n - 1, below 1e-13 for n <= 16;
#   |r - lam| <= tol = DEFAULT_TOL: the residual certificate.
# The graph with mu_top is scored, so best_rho >= lam_top - tol
# >= mu_top - eps - tol. A graph with mu < mu_top - margin then has
#   r <= mu + eps + tol < mu_top - margin + eps + tol
#     <= best_rho + 2 * eps + 2 * tol - margin,
# so best_rho - r > TIE_WINDOW (it is neither the maximum nor a tie)
# whenever margin >= TIE_WINDOW + 2 * DEFAULT_TOL + 2 * eps, about
# 1.2e-9. The margin 1e-6 leaves a factor of 800 for rounding in r.
RESCORE_MARGIN = 1e-6
_EIG_BATCH = 4096  # adjacency matrices per eigvalsh call, to bound memory


def _score(g: Graph) -> float:
    return spectral_radius(g).rho


def _top_eigenvalues(n: int, graphs: list[Graph]) -> np.ndarray:
    """Largest adjacency eigenvalue of each n-vertex graph, in float64."""
    shifts = np.arange(n, dtype=np.int64)
    out = []
    for k in range(0, len(graphs), _EIG_BATCH):
        rows = np.array([g.rows() for g in graphs[k : k + _EIG_BATCH]], dtype=np.int64)
        adj = (rows[:, :, None] >> shifts & 1).astype(np.float64)
        out.append(np.linalg.eigvalsh(adj)[:, -1])
    return np.concatenate(out) if out else np.zeros(0)


def _best_entry(
    n: int, found: list[tuple[bytes, Graph]], stats: dict[str, int]
) -> dict:
    t0 = time.monotonic()
    mu = _top_eigenvalues(n, [g for _, g in found])
    cut = mu.max(initial=0.0) - RESCORE_MARGIN
    pool = [(form, _score(g)) for (form, g), m in zip(found, mu) if m >= cut]
    best = max((r for _, r in pool), default=0.0)
    certs = sorted(
        form.decode("ascii") for form, r in pool if best - r <= TIE_WINDOW
    )
    return {
        "n": n,
        "best_rho": best,
        "certificates": certs,
        "candidates": len(found),
        "pruned": dict(sorted(stats.items())),
        "seconds": round(time.monotonic() - t0, 3),
    }


def save_checkpoint(path: str, config: SearchConfig, entries: list[dict]) -> None:
    payload = json.dumps(
        {"config": config.key_dict(), "entries": entries}, sort_keys=True
    ).encode()
    try:
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + struct.pack(">I", len(payload)) + payload)
    except OSError as e:
        raise ValueError(f"cannot write checkpoint {path}: {e.strerror}") from None


def _valid_entry(e: object) -> bool:
    """True if ``e`` has every key the reports read, with the right types."""
    return (
        isinstance(e, dict)
        and type(e.get("n")) is int
        and type(e.get("candidates")) is int
        and type(e.get("best_rho")) in (int, float)
        and type(e.get("seconds", 0.0)) in (int, float)
        and isinstance(e.get("certificates"), list)
        and all(isinstance(c, str) for c in e["certificates"])
    )


def load_checkpoint(path: str, config: SearchConfig) -> list[dict] | None:
    """Entries completed by a previous run of the same config, else None."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        return None
    except OSError as e:
        raise ValueError(f"cannot read checkpoint {path}: {e.strerror}") from None
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path} is not a checkpoint (bad magic)")
    if len(blob) < 13:
        raise ValueError(f"{path}: checkpoint header is truncated")
    (length,) = struct.unpack(">I", blob[9:13])
    if 13 + length > len(blob):
        raise ValueError(f"{path}: checkpoint length field points past the end")
    payload = json.loads(blob[13 : 13 + length])
    if not (
        isinstance(payload, dict)
        and isinstance(payload.get("config"), dict)
        and isinstance(payload.get("entries"), list)
        and all(_valid_entry(e) for e in payload["entries"])
    ):
        raise ValueError(
            f"{path}: checkpoint payload needs a config object and a list of"
            " entries with integer n and candidates, numeric best_rho and a"
            " list of certificate strings"
        )
    if payload["config"] != config.key_dict():
        return None
    return payload["entries"]


def exhaustive_spex(config: SearchConfig) -> SearchReport:
    """True maximizers of rho per n over the configured class, with all
    ties within 1e-9 reported as canonical graph6 certificates."""
    if config.mode != "exhaustive":
        raise ValueError("config.mode must be 'exhaustive'")
    _check_canon_n(config.n_max)
    if config.n_max > config.exhaustive_cap:
        raise CapExceededError(
            f"n_max={config.n_max} exceeds exhaustive_cap={config.exhaustive_cap};"
            " raise the cap explicitly if you accept the cost, or use local"
            " search for larger n"
        )
    entries: list[dict] = []
    if config.checkpoint:
        entries = load_checkpoint(config.checkpoint, config) or []
    done = {e["n"] for e in entries}
    for n in range(config.n_min, config.n_max + 1):
        if n in done:
            continue
        stats = _fresh_stats()
        found = list(
            _enumerate(
                n,
                config.klass,
                config.forbidden,
                config.connected_only,
                config.exhaustive_cap,
                stats,
            )
        )
        entries.append(_best_entry(n, found, stats))
        entries.sort(key=lambda e: e["n"])
        if config.checkpoint:
            save_checkpoint(config.checkpoint, config, entries)
    return SearchReport(config, entries)


# ---------------------------------------------------------------------------
# local search


def _qualifies(g: Graph, config: SearchConfig) -> bool:
    _, full = _class_checks(config.klass)
    if config.connected_only and not g.is_connected():
        return False
    if not full(g):
        return False
    return config.forbidden is None or is_free(g, config.forbidden)


def _moves(g: Graph) -> Iterator[tuple[str, Graph]]:
    """Each single-edge addition, then each removal, in lexicographic order."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                yield f"add {u} {v}", g.add_edge(u, v)
    for u, v in g.edges():
        yield f"del {u} {v}", g.remove_edge(u, v)


def _climb(g: Graph, config: SearchConfig, log: list[str]) -> tuple[Graph, float]:
    rho = _score(g)
    evaluated = 1
    while True:
        best_move: tuple[float, bytes, str, Graph] | None = None
        for name, h in _moves(g):
            if not _qualifies(h, config):
                continue
            r = _score(h)
            evaluated += 1
            if r <= rho + 1e-12:
                continue
            key = (r, canonical_form(h))
            if best_move is None or key > (best_move[0], best_move[1]):
                best_move = (r, key[1], name, h)
        if best_move is None:
            log.append(f"evaluated {evaluated}")
            return g, rho
        rho, _, name, g = best_move
        log.append(name)


def local_search_spex(
    config: SearchConfig, start: Graph, restarts: int = 0
) -> SearchReport:
    """Greedy single-edge hill climb from start (start.n in [n_min, n_max]);
    each seeded random restart climbs after a few random qualifying moves."""
    if config.mode != "local":
        raise ValueError("config.mode must be 'local'")
    if not config.n_min <= start.n <= config.n_max:
        raise ValueError(
            f"start graph has n={start.n}, outside the search range"
            f" [{config.n_min}, {config.n_max}]"
        )
    _check_canon_n(start.n)
    if not _qualifies(start, config):
        raise ValueError(
            "start graph must satisfy the class, freeness, and connectivity"
            " constraints"
        )
    rng = Random(config.seed)
    t0 = time.monotonic()
    log: list[str] = []
    best_g, best_rho = _climb(start, config, log)
    optima = {canonical_form(best_g).decode("ascii"): best_rho}
    for r in range(restarts):
        g = start
        for _ in range(rng.randint(1, 2 + g.n // 2)):
            options = [h for _, h in _moves(g) if _qualifies(h, config)]
            if not options:
                break
            g = options[rng.randrange(len(options))]
        sublog: list[str] = []
        g, rho = _climb(g, config, sublog)
        log.append(f"restart {r}: {len(sublog) - 1} moves")
        optima[canonical_form(g).decode("ascii")] = rho
        if rho > best_rho:
            best_rho = rho
    certs = sorted(c for c, r in optima.items() if best_rho - r <= TIE_WINDOW)
    entry = {
        "n": start.n,
        "best_rho": best_rho,
        "certificates": certs,
        "candidates": len(optima),
        "moves": log,
        "seconds": round(time.monotonic() - t0, 3),
    }
    return SearchReport(config, [entry])
