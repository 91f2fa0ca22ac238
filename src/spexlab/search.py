"""Exhaustive and local extremal search over outerplanar/planar F-free graphs.

Enumeration grows graphs edge by edge from the edgeless graph. Both class
membership (outerplanar/planar) and F-freeness are closed under edge
deletion, so every qualifying graph is reachable through qualifying
intermediates and violating branches can be pruned outright. Isomorph
rejection uses a canonical form from partition refinement with
individualization (practical for n <= 16).
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field
from random import Random
from typing import Iterator

from .forbidden import ForbiddenSpec, is_free
from .graph import Graph, empty_graph
from .graph6 import graph6_decode, graph6_encode
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
    threads: int | None = None  # accepted and ignored: scoring runs in order
    checkpoint: str | None = None
    exhaustive_cap: int = 10

    def __post_init__(self):
        if self.klass not in CLASSES:
            raise ValueError(f"class must be one of {CLASSES}, got {self.klass!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError(f"bad n range [{self.n_min}, {self.n_max}]")

    def key_dict(self) -> dict:
        """Identity of the search problem (excludes threads/checkpoint)."""
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


def _refine(g: Graph, colors: list[int]) -> list[int]:
    """Equitable refinement: recolor by (color, sorted neighbor colors)
    until stable. Color order is derived from sorted signatures, so the
    result is isomorphism-invariant."""
    while True:
        sigs = []
        for v in range(g.n):
            nb = sorted(colors[u] for u in g.neighbors(v))
            sigs.append((colors[v], tuple(nb)))
        index = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [index[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _cells(colors: list[int]) -> dict[int, list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return cells


def _homogeneous(g: Graph, cell: list[int]) -> bool:
    """True when every permutation of the cell is an automorphism (same
    neighbors outside the cell, and the cell induces a clique or an
    independent set); then one individualization branch suffices."""
    members = set(cell)
    outside = None
    inside = 0
    for v in cell:
        ext = frozenset(u for u in g.neighbors(v) if u not in members)
        if outside is None:
            outside = ext
        elif ext != outside:
            return False
        inside += sum(1 for u in g.neighbors(v) if u in members)
    k = len(cell)
    return inside == 0 or inside == k * (k - 1)


def _canon_search(g: Graph, colors: list[int], best: list[bytes | None]) -> None:
    colors = _refine(g, colors)
    target = None
    for c in sorted(_cells(colors).items()):
        if len(c[1]) > 1:
            target = c[1]
            break
    if target is None:
        perm = [0] * g.n  # colors are a permutation once all cells split
        for v, c in enumerate(colors):
            perm[v] = c
        enc = graph6_encode(g.relabel(perm)).encode("ascii")
        if best[0] is None or enc < best[0]:
            best[0] = enc
        return
    if _homogeneous(g, target):
        target = target[:1]
    for v in target:
        branch = [2 * c for c in colors]
        branch[v] -= 1  # individualize v just below its cell
        _canon_search(g, branch, best)


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant bytes (the graph6 of a canonical relabeling);
    equal strings iff isomorphic. Refinement-based; intended for n <= 16."""
    if g.n > 16:
        raise ValueError("canonical_form is limited to n <= 16")
    best: list[bytes | None] = [None]
    _canon_search(g, [0] * g.n, best)
    assert best[0] is not None
    return best[0]


def canonical_graph(g: Graph) -> Graph:
    return graph6_decode(canonical_form(g).decode("ascii"))


# ---------------------------------------------------------------------------
# enumeration


def _class_checks(klass: str):
    if klass == "outerplanar":
        return quick_reject_outerplanar, is_outerplanar
    if klass == "planar":
        return quick_reject_planar, is_planar
    raise ValueError(f"class must be one of {CLASSES}, got {klass!r}")


def _enumerate_levels(
    n: int,
    klass: str,
    forbidden: ForbiddenSpec | None,
    stats: dict[str, int],
) -> Iterator[Graph]:
    quick, full = _class_checks(klass)
    seen = {canonical_form(empty_graph(n))}
    level = [empty_graph(n)]
    yield level[0]
    while level:
        nxt: list[tuple[bytes, Graph]] = []
        for g in level:
            for u in range(n):
                for v in range(u + 1, n):
                    if g.has_edge(u, v):
                        continue
                    child = g.add_edge(u, v)
                    stats["children"] += 1
                    form = canonical_form(child)
                    if form in seen:
                        stats["duplicate"] += 1
                        continue
                    seen.add(form)
                    if quick(child) is False:
                        stats["quick_reject"] += 1
                        continue
                    if not full(child):
                        stats["class_reject"] += 1
                        continue
                    if forbidden is not None and not is_free(child, forbidden):
                        stats["forbidden_reject"] += 1
                        continue
                    nxt.append((form, child))
        nxt.sort(key=lambda t: t[0])
        level = [g for _, g in nxt]
        yield from level


def enumerate_class(
    n: int,
    klass: str = "outerplanar",
    forbidden: ForbiddenSpec | None = None,
    connected_only: bool = True,
    cap: int = 10,
    stats: dict[str, int] | None = None,
) -> Iterator[Graph]:
    """One representative per isomorphism class of qualifying n-vertex
    graphs, in deterministic order (by edge count, then canonical form)."""
    if n > cap:
        raise CapExceededError(
            f"exhaustive enumeration at n={n} exceeds the cap {cap}; raise the"
            " cap explicitly if you accept the cost, or use local search"
        )
    if stats is None:
        stats = _fresh_stats()
    for g in _enumerate_levels(n, klass, forbidden, stats):
        if connected_only and not g.is_connected():
            stats["disconnected"] += 1
            continue
        stats["emitted"] += 1
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


def _score(g: Graph) -> float:
    return spectral_radius(g).rho


def _best_entry(n: int, graphs: list[Graph], stats: dict[str, int]) -> dict:
    t0 = time.monotonic()
    rhos = [_score(g) for g in graphs]
    best = max(rhos, default=0.0)
    certs = sorted(
        canonical_form(g).decode("ascii")
        for g, r in zip(graphs, rhos)
        if best - r <= TIE_WINDOW
    )
    return {
        "n": n,
        "best_rho": best,
        "certificates": certs,
        "candidates": len(graphs),
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
        graphs = list(
            enumerate_class(
                n,
                config.klass,
                config.forbidden,
                config.connected_only,
                cap=config.exhaustive_cap,
                stats=stats,
            )
        )
        entries.append(_best_entry(n, graphs, stats))
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
    """Single-edge additions, removals, and rotations (replace (u,v) by
    (u,w)), in deterministic order."""
    n = g.n
    edges = g.edges()
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v):
                yield f"add {u} {v}", g.add_edge(u, v)
    for u, v in edges:
        yield f"del {u} {v}", g.remove_edge(u, v)
    for u, v in edges:
        base = g.remove_edge(u, v)
        for keep, drop in ((u, v), (v, u)):
            for w in range(n):
                if w != keep and w != drop and not g.has_edge(keep, w):
                    yield f"rot {keep} {drop} {w}", base.add_edge(keep, w)


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
            key = (r, canonical_form(h))
            if r > rho + 1e-12 and (
                best_move is None or key > (best_move[0], best_move[1])
            ):
                best_move = (r, key[1], name, h)
        if best_move is None:
            log.append(f"evaluated {evaluated}")
            return g, rho
        rho, _, name, g = best_move
        log.append(name)


def local_search_spex(
    config: SearchConfig, start: Graph, restarts: int = 0
) -> SearchReport:
    """Greedy hill climb from start; optional seeded random restarts
    shuffle the climb with a few random qualifying moves first."""
    if config.mode != "local":
        raise ValueError("config.mode must be 'local'")
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
