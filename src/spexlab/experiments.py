"""One-command verification suites with a traceability report.

Each suite id names one numeric or exhaustive check. A case lands in
``failures`` only when a stated inequality or detector verdict is wrong at
working precision; strict spectral comparisons whose gap is below the sum
of the two residuals land in ``indeterminates`` instead.

A suite is a generator function whose keyword arguments, with their
defaults, are its parameters. It yields ``(name, fn)`` cases and may return
the suite's ``details`` dict, which its cases can still fill as they run.
"""

from __future__ import annotations

import inspect
import math
import sys
from bisect import insort
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import islice, product

from .constructions import (
    FamilySpec,
    PathPartition,
    construct,
    family_partition,
    fill_partition,
    joined_paths,
    transform,
    transform_predecessors,
)
from .forbidden import ForbiddenSpec, is_free, max_edge_disjoint_l_cycles_at
from .graph import Graph
from .graph6 import graph6_decode
from .recognition import in_class, is_outerplanar, is_planar
from .search import SearchConfig, enumerate_class, exhaustive_spex
from .spectral import ConvergenceError, joined_paths_radius, spectral_radius, strict_compare

LM1_FACTOR = 6.5025  # K1-join threshold: n >= 6.5025 * 2^(s2+2)
LM5_FACTOR = 10.2  # K2-join threshold: n >= 10.2 * 2^s2 + 2
STRICT_TOL = 1e-13  # requested solver tolerance for strict comparisons
BOX_EPS = 1e-9  # the most a normalized Perron entry may stray from its box

Case = tuple[str, Callable[[], tuple[str, dict]]]


@dataclass
class SuiteResult:
    suite: str
    cases: int
    passes: int
    failures: list[dict] = field(default_factory=list)
    indeterminates: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "passes": self.passes,
            "failures": self.failures,
            "indeterminates": self.indeterminates,
            "details": self.details,
        }

    def summary(self) -> str:
        return (
            f"{self.suite}: {self.passes}/{self.cases} passed,"
            f" {len(self.failures)} failed,"
            f" {len(self.indeterminates)} indeterminate"
        )


def _run_cases(suite: str, cases: list[Case], details: dict | None = None) -> SuiteResult:
    result = SuiteResult(suite, len(cases), 0, details=details or {})
    for name, fn in cases:
        try:
            verdict, info = fn()
        except ConvergenceError as e:  # no verdict either way at this tol
            verdict, info = "indeterminate", {"error": str(e)}
        record = {"case": name, **info}
        if verdict == "pass":
            result.passes += 1
        elif verdict == "indeterminate":
            result.indeterminates.append(record)
        else:
            result.failures.append(record)
    return result


# ---------------------------------------------------------------------------
# individual suites


def _claim_1_1(n_values=(10, 25, 50, 100, 400, 1000, 2500, 10000)) -> Iterator[Case]:
    """rho of the witness K1 v ((t-1)K2 u (n-2t+1)K1) is at least
    sqrt(n)+1-(n-t)/(n-sqrt(n)), itself above (4/5)sqrt(n)."""
    for n in n_values:
        if n <= 5:
            raise ValueError("bound needs n > 5")
        ts = sorted({1, 2, max(1, n // 100), (n - 1) // 2})
        for t in ts:
            if not 1 <= t <= (n - 1) / 2:
                continue

            def fn(n=n, t=t):
                est = joined_paths_radius(1, family_partition(FamilySpec("claimw", n, t=t)))
                root = math.sqrt(n)
                bound = root + 1 - (n - t) / (n - root)
                passed = 0.8 * root < bound <= est.rho + est.residual
                info = {"n": n, "t": t, "bound": bound, "rho": est.rho}
                return ("pass" if passed else "fail"), info

            yield f"n={n},t={t}", fn


def _shu_case(name: str, info: dict, build: Callable[[], Graph]) -> Case:
    """rho(G) <= 3/2 + sqrt(n - 7/4) for the connected outerplanar graph G
    on n >= 3 vertices that ``build`` makes. The case's info is ``info``
    plus rho and the bound."""

    def fn():
        g = build()
        if g.n < 3:
            raise ValueError("bound needs n >= 3")
        if not g.is_connected():
            raise ValueError("graph must be connected")
        if not is_outerplanar(g):
            raise ValueError("graph must be outerplanar")
        est = spectral_radius(g)
        bound = 1.5 + math.sqrt(g.n - 1.75)
        passed = est.rho <= bound + est.residual
        return ("pass" if passed else "fail"), {**info, "rho": est.rho, "bound": bound}

    return name, fn


def _lemma_lm2(nmax=7, family_ns=(100, 1000, 10000)) -> Iterator[Case]:
    exhaustive_count = 0
    for n in range(3, nmax + 1):
        for g in enumerate_class(n, "outerplanar", None, connected_only=True):
            exhaustive_count += 1
            yield _shu_case(f"enum-n{n}-{exhaustive_count}", {"n": g.n}, lambda g=g: g)
    for n in family_ns:
        for spec in (
            FamilySpec("star", n),
            FamilySpec("jn", n),
            FamilySpec("claimw", n, t=max(1, n // 4)),
            FamilySpec("k1hop", n, t=2, l=5),
            FamilySpec("k1hop", n, t=3, l=4),
        ):
            yield _shu_case(str(spec), {"family": str(spec)}, partial(construct, spec))
    return {"exhaustive_graphs": exhaustive_count}


def _monotonicity_cases(hubs: int, s2_max=6, cases=50, margin=1.15) -> Iterator[Case]:
    """Partition pairs (h, transform of h) at n of ``margin`` times the
    step threshold; the lemmas claim nothing below it. Every such n
    exceeds hubs + s1 + s2, so each h has filler parts."""
    if cases < 1 or s2_max < 1 or margin < 1:
        raise ValueError("the lemma needs cases >= 1, s2_max >= 1 and margin >= 1")
    for idx in range(cases):
        s2 = 1 + idx % s2_max
        s1 = s2 + (idx * 3) % 5
        if hubs == 1:
            threshold = LM1_FACTOR * 2 ** (s2 + 2)
        else:
            threshold = LM5_FACTOR * 2**s2 + 2
        n = int(math.ceil(threshold * margin)) + 7 * (idx % 3)
        h = PathPartition([s1, s2] + [1] * (n - hubs - s1 - s2))
        i = h.parts.index(s1)
        j = h.parts.index(s2) if s2 != s1 else i + 1

        def fn(h=h, i=i, j=j, s1=s1, s2=s2, n=n):
            hi = joined_paths_radius(hubs, transform(h, i, j), STRICT_TOL)
            lo = joined_paths_radius(hubs, h, STRICT_TOL)
            verdict = strict_compare(hi, lo)
            info = {
                "s1": s1,
                "s2": s2,
                "n": n,
                "gap": hi.rho - lo.rho,
                "residuals": hi.residual + lo.residual,
            }
            if verdict == "greater":
                return "pass", info
            if verdict == "indeterminate":
                return "indeterminate", info
            return "fail", info

        yield f"s1={s1},s2={s2},n={n}", fn


def eigenvector_box(hubs: int, h: PathPartition) -> tuple[float, float]:
    """How far the Perron vector of ``joined_paths(hubs, h)``, scaled to
    hub entries 1, strays from the box of Claim 3.1 (hubs = 1) or Lemma
    LM4 (hubs = 2), and rho. Every other entry should sit in [c/rho,
    c/rho + K/rho^2] with (c, K) = (1, 2.04) for K1-joins and (2, 4.496)
    for K2-joins; the overflow is the largest distance of an entry outside
    its box, or of a hub entry from 1."""
    est = joined_paths_radius(hubs, h)
    x, rho = est.perron_max, est.rho
    c, width = (1.0, 2.04) if hubs == 1 else (2.0, 4.496)
    lo = c / rho
    hi = c / rho + width / rho**2
    rest = x[hubs:]
    worst = max(
        float(abs(x[:hubs] - 1.0).max()),
        float((lo - rest).max(initial=0.0)),
        float((rest - hi).max(initial=0.0)),
    )
    return worst, rho


def _box_cases(hubs: int, points) -> Iterator[Case]:
    """Eigenvector-box checks on K1 v H_OP(n1, n2) or K2 v H_P(n1, n2) at
    each (n1, n2, n) of ``points``."""
    label = "K1vHOP" if hubs == 1 else "K2vHP"
    for n1, n2, n in points:

        def fn(n1=n1, n2=n2, n=n):
            worst, rho = eigenvector_box(hubs, fill_partition(n - hubs, n1, n2))
            info = {"n1": n1, "n2": n2, "n": n, "worst": worst, "rho": rho}
            return ("pass" if worst <= BOX_EPS else "fail"), info

        yield f"{label}({n1},{n2})@n={n}", fn


def _claim_3_2(
    points=((5, 3, 300), (7, 4, 600), (6, 5, 1400), (9, 6, 3400)), eps=1e-8
) -> Iterator[Case]:
    for s1, s2, n in points:

        def fn(s1=s1, s2=s2, n=n):
            filler = n - 1 - s1 - s2
            h = PathPartition([s1, s2] + [1] * filler)
            est = joined_paths_radius(1, h, STRICT_TOL)
            rho, x = est.rho, est.perron_max
            if abs(x[0] - 1.0) > eps:
                return "fail", {"reason": "hub entry not maximal"}
            v = lambda j: x[j]  # v_j sits at index j (hub is 0)
            w = lambda j: x[s1 + j]
            a_half = lambda i: 2.04 * 2**i / rho**2
            b_half = lambda i: 2.02 * 2**i / rho**2
            worst = 0.0
            for i in range(1, (s1 - 1) // 2 + 1):
                dev = abs(rho**i * (v(i + 1) - v(i)) - 1 / rho) - a_half(i)
                worst = max(worst, dev)
            for i in range(1, (s2 - 1) // 2 + 1):
                dev = abs(rho**i * (w(i + 1) - w(i)) - 1 / rho) - a_half(i)
                worst = max(worst, dev)
            for i in range(1, s2 // 2 + 1):
                dev = abs(rho**i * (v(i) - w(i))) - b_half(i)
                worst = max(worst, dev)
            info = {"s1": s1, "s2": s2, "n": n, "worst_overflow": worst}
            return ("pass" if worst <= eps else "fail"), info

        yield f"s1={s1},s2={s2},n={n}", fn


def _freeness_case(
    name: str, hubs: int, h: PathPartition, spec: ForbiddenSpec, expected_free: bool, info: dict
) -> Case:
    """Is the join of ``hubs`` hubs to the paths of h spec-free exactly when
    expected? The case's info is ``info`` plus the expected verdict."""

    def fn():
        got_free = is_free(joined_paths(hubs, h), spec)
        info_out = {**info, "expected_free": expected_free}
        return ("pass" if got_free == expected_free else "fail"), info_out

    return name, fn


def _claim_3_3(ls=(5, 6, 7, 8), total_cap=20) -> Iterator[Case]:
    for l in ls:
        spec = ForbiddenSpec.cycle(l)
        for n1 in (l - 3, l - 2, l - 1, l):
            for extra in ((), (1,), (min(n1, l - 2), 1)):
                parts = [n1, *extra]
                if sum(parts) > total_cap:
                    continue
                h = PathPartition(parts)
                info = {"l": l, "parts": list(h.parts)}
                yield _freeness_case(f"l={l},h={h}", 1, h, spec, h.part(1) <= l - 2, info)


def _claim_3_5(ts=(2, 3), ls=(3, 4, 5)) -> Iterator[Case]:
    for t, l in product(ts, ls):
        spec = ForbiddenSpec.bouquet(t, l)
        flip = t * (l - 1)  # smallest n1 with a bouquet in K1 v P_n1
        for n1 in (flip - 2, flip - 1, flip, flip + 1):
            if n1 < 1:
                continue
            info = {"t": t, "l": l, "n1": n1}
            h = PathPartition([n1])
            yield _freeness_case(f"t={t},l={l},n1={n1}", 1, h, spec, n1 < flip, info)


def _claim_4_2(ts=(2, 3), ls=(3, 4, 5)) -> Iterator[Case]:
    for t, l in product(ts, ls):
        spec = ForbiddenSpec.bouquet(t, l)
        flip = t * l - t - 1  # smallest n1+n2 with a bouquet
        for s in (flip - 2, flip - 1, flip, flip + 1):
            splits = {(s - k, k) for k in (1, min(l - 1, s - 1), s // 2)}
            for n1, n2 in sorted(splits, reverse=True):
                if n2 < 1 or n1 < n2:
                    continue
                info = {"t": t, "l": l, "n1": n1, "n2": n2}
                free = n1 + n2 < flip
                h = PathPartition([n1, n2])
                yield _freeness_case(f"t={t},l={l},n1={n1},n2={n2}", 2, h, spec, free, info)


def _claim_4_3(ts=(2, 3), ls=(3, 4, 5)) -> Iterator[Case]:
    """Freeness of K2 v H with a long first path, against the corrected
    conjunction: free iff nbar1+n2 <= l-3 and n2+n3 <= l-3. The disjunction
    as once stated diverges on part of the grid; divergences are counted in
    details, not failed."""
    or_divergences = 0
    for t, l in dict.fromkeys(product(ts, ls)):  # each (t, l) once
        spec = ForbiddenSpec.bouquet(t, l)
        for nbar, n2 in product(range(l - 1), repeat=2):
            for n3 in range(n2 + 1):
                n1 = (t - 1) * (l - 1) + nbar
                and_free = (nbar + n2 <= l - 3) and (n2 + n3 <= l - 3)
                or_free = (nbar + n2 <= l - 3) or (n2 + n3 <= l - 3)
                if and_free != or_free:
                    or_divergences += 1
                parts = [p for p in (n1, n2, n3) if p > 0]
                info = {"t": t, "l": l, "parts": parts}
                h = PathPartition(parts)
                yield _freeness_case(f"t={t},l={l},h=[{n1},{n2},{n3}]", 2, h, spec, and_free, info)
    return {"or_form_divergences": or_divergences}


def _hub_paths_shape(g: Graph) -> bool:
    """Some dominating vertex whose removal leaves disjoint paths."""
    hubs = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    for h in hubs:
        rest = g.induced_subgraph([v for v in range(g.n) if v != h])
        if all(rest.degree(v) <= 2 for v in range(rest.n)):
            if rest.edge_count() == rest.n - len(rest.components()):
                return True
    return False


def _thm_1_structure(nmax=7) -> Iterator[Case]:
    specs = [
        ForbiddenSpec.matching(2),
        ForbiddenSpec.matching(3),
        ForbiddenSpec.cycle(3),
        ForbiddenSpec.bouquet(2, 3),
    ]
    agreement: dict[str, bool] = {}
    for spec in specs:
        top = nmax if spec.kind != "bouquet" else min(nmax, 7)
        for n in range(5, top + 1):

            def fn(spec=spec, n=n):
                cfg = SearchConfig(n, n, "outerplanar", spec, True, "exhaustive")
                rep = exhaustive_spex(cfg)
                certs = rep.entries[0]["certificates"]
                shapes = [_hub_paths_shape(graph6_decode(c)) for c in certs]
                agree = all(shapes) and len(shapes) == 1
                agreement[f"{spec}@n={n}"] = agree
                info = {
                    "forbidden": str(spec),
                    "n": n,
                    "maximizers": len(certs),
                    "hub_paths_shape": agree,
                }
                return "pass", info  # report-style: agreement is data, not a gate

            yield f"{spec}@n={n}", fn
    return {"agreement": agreement}


def _soundness_case(spec: FamilySpec, forb: ForbiddenSpec) -> Case:
    def fn():
        g = construct(spec)
        member = in_class(g, "outerplanar" if spec.kind == "k1hop" else "planar").planar
        free = is_free(g, forb)
        info = {"family": str(spec), "in_class": member, "free": free}
        return ("pass" if member and free else "fail"), info

    return str(spec), fn


def _siblings(h_star: PathPartition, s2_cap: int) -> Iterator[PathPartition]:
    """Transformation predecessors of h_star, breadth first, each once."""
    seen = {h_star.parts}
    queue = deque([h_star])
    while queue:
        for p in transform_predecessors(queue.popleft(), s2_cap):
            if p.parts not in seen:
                seen.add(p.parts)
                queue.append(p)
                yield p


def _dominance_case(spec: FamilySpec, siblings: int, s2_cap: int) -> Case:
    """Does the family's partition beat its first ``siblings`` siblings?"""
    hubs = 2 if spec.kind == "k2hp" else 1
    h_star = family_partition(spec)
    sibs = tuple(islice(_siblings(h_star, s2_cap), siblings))

    def fn():
        star_est = joined_paths_radius(hubs, h_star, STRICT_TOL)
        weakest = math.inf
        for h in sibs:
            sib_est = joined_paths_radius(hubs, h, STRICT_TOL)
            verdict = strict_compare(star_est, sib_est)
            gap = star_est.rho - sib_est.rho
            weakest = min(weakest, gap)
            if verdict != "greater":
                info = {
                    "family": str(spec),
                    "sibling": str(h),
                    "gap": gap,
                    "verdict": verdict,
                }
                state = "indeterminate" if verdict == "indeterminate" else "fail"
                return state, info
        return "pass", {"family": str(spec), "siblings": len(sibs), "weakest_gap": weakest}

    return f"dominance:{spec}", fn


def _theorem_cases(
    theorem: str,
    grid=True,
    dominance=True,
    n_count=30,
    ts=(1, 2, 3, 4),
    ls=(3, 4, 5, 6, 7),
    n_dom=2000,
    siblings=20,
    s2_cap=6,
    dom_ts=(2, 3),
    dom_ls=(4, 5),
) -> Iterator[Case]:
    """Family soundness (class membership and freeness) over a (t, l, n)
    grid, then dominance of the family over its transformation siblings."""
    kind = "k2hp" if theorem == "thm-4" else "k1hop"
    if grid:
        for t, l in product(ts, ls):
            if (theorem == "thm-3" and l != 3) or (theorem == "thm-4" and t < 2):
                continue
            if kind == "k2hp":
                n_lo = 2 + t * l - t - l
            else:
                n_lo = 1 + ((l - 2) if t == 1 else (t * l - t - 1))
            if theorem == "thm-3":
                forb = ForbiddenSpec.matching(t + 1)
            else:
                forb = ForbiddenSpec.bouquet(t, l)
            for n in range(n_lo, n_lo + n_count):
                yield _soundness_case(FamilySpec(kind, n, t=t, l=l), forb)
    if dominance:
        for t, l in product(dom_ts, dom_ls):
            spec = FamilySpec(kind, n_dom, t=t, l=l)
            yield _dominance_case(spec, siblings, s2_cap)


def _remark_rk111(n_values=(8, 20, 101), ls=(5, 6, 7, 9)) -> Iterator[Case]:
    def case(name: str, family: str, l: int, build: Callable[[], Graph]) -> Case:
        def fn():
            g = build()
            ok = is_planar(g).planar and is_free(g, ForbiddenSpec.cycle(l))
            return ("pass" if ok else "fail"), {"family": family}

        return name, fn

    for n in n_values:
        yield case(f"k2n2:n={n}", f"k2n2:n={n}", 3, partial(construct, FamilySpec("k2n2", n)))
        yield case(f"jn:n={n}", f"jn:n={n}", 4, partial(construct, FamilySpec("jn", n)))
    for l, n in product(ls, n_values):
        if n - 2 < (l - 2) // 2 + 1:
            continue
        # top-two part orders must sum to <= l-3, so the larger half-part
        # leads and the smaller one fills
        h = fill_partition(n - 2, (l - 2) // 2, (l - 3) // 2)
        yield case(f"clfree:l={l},n={n}", f"K2vHP@l={l},n={n}", l, partial(joined_paths, 2, h))


def _bouquet_semantics(ts=(2, 3), ls=(3, 4, 5), span=4) -> Iterator[Case]:
    """The K2-join families are bouquet-free as subgraphs (cycles pairwise
    sharing exactly the common vertex), yet an edge-disjoint packing of t
    l-cycles at a hub can still exist; such divergences are counted."""
    divergences: list[str] = []  # kept sorted as the cases fill it
    for t, l in product(ts, ls):
        n_lo = t * l - t - l + 2
        for n in range(n_lo, n_lo + span):
            spec = FamilySpec("k2hp", n, t=t, l=l)

            def fn(spec=spec, t=t, l=l):
                g = construct(spec)
                free = is_free(g, ForbiddenSpec.bouquet(t, l))
                edge_disjoint = max(
                    max_edge_disjoint_l_cycles_at(g, v, l, cap=t) for v in range(g.n)
                )
                if free and edge_disjoint >= t:
                    insort(divergences, str(spec))
                info = {
                    "family": str(spec),
                    "subgraph_free": free,
                    "edge_disjoint_at_best_hub": edge_disjoint,
                }
                return ("pass" if free else "fail"), info

            yield str(spec), fn
    return {"edge_disjoint_divergences": divergences}


@dataclass
class Suite:
    """A suite's case builder and the check it makes. ``keys`` are the
    builder's keyword arguments: the parameters the suite accepts, with
    their ``defaults``."""

    build: Callable[..., Iterator[Case]]
    note: str
    keys: frozenset[str] = field(init=False)
    defaults: dict[str, object] = field(init=False)

    def __post_init__(self):
        params = inspect.signature(self.build).parameters
        self.keys = frozenset(params)
        self.defaults = {k: p.default for k, p in params.items()}


SUITES: dict[str, Suite] = {
    "claim-1.1": Suite(
        _claim_1_1,
        "hub-plus-matching witness beats sqrt(n)+1-(n-t)/(n-sqrt(n)) > 0.8 sqrt(n)",
    ),
    "lemma-lm2": Suite(_lemma_lm2, "rho <= 3/2 + sqrt(n - 7/4) on connected outerplanar graphs"),
    "lemma-lm1": Suite(
        partial(_monotonicity_cases, 1),
        "transformation strictly raises rho of K1-join above its threshold",
    ),
    "lemma-lm5": Suite(
        partial(_monotonicity_cases, 2),
        "transformation strictly raises rho of K2-join above its threshold",
    ),
    "claim-3.1": Suite(
        partial(_box_cases, 1, points=((5, 3, 5000), (9, 2, 5000), (5, 3, 12000), (9, 2, 12000))),
        "non-hub Perron entries in [1/rho, 1/rho + 2.04/rho^2]",
    ),
    "lemma-lm4": Suite(
        partial(_box_cases, 2, points=((7, 3, 5000),)),
        "non-hub Perron entries in [2/rho, 2/rho + 4.496/rho^2]",
    ),
    "claim-3.2": Suite(_claim_3_2, "path-entry difference sequences stay in the A_i/B_i boxes"),
    "claim-3.3": Suite(
        _claim_3_3, "K1-join contains C_l iff the longest part has >= l-1 vertices"
    ),
    "claim-3.5": Suite(_claim_3_5, "K1 v P_n1 contains the bouquet iff n1 >= t(l-1)"),
    "claim-4.2": Suite(
        _claim_4_2, "K2 v (P_n1 u P_n2) contains the bouquet iff n1+n2 >= tl-t-1"
    ),
    "claim-4.3": Suite(
        _claim_4_3, "freeness of long-first-path K2-joins matches the corrected conjunction"
    ),
    "thm-1-structure": Suite(
        _thm_1_structure, "do small-n maximizers have a hub over disjoint paths (reported)"
    ),
    "thm-2": Suite(
        partial(_theorem_cases, "thm-2"),
        "K1 v H_OP(tl-t-1, l-2): class membership, freeness, sibling dominance",
    ),
    "thm-3": Suite(
        partial(_theorem_cases, "thm-3", dom_ls=(3,)),
        "K1 v H_OP(2t-1, 1): class membership, freeness, sibling dominance",
    ),
    "thm-4": Suite(
        partial(_theorem_cases, "thm-4"),
        "K2 v H_P(tl-t-l, l-2): class membership, freeness, sibling dominance",
    ),
    "remark-rk111": Suite(
        _remark_rk111, "cycle-free planar witnesses: K_{2,n-2}, J_n, balanced K2-join"
    ),
    "bouquet-semantics": Suite(
        _bouquet_semantics, "subgraph bouquet-freeness vs edge-disjoint packing counts"
    ),
}


def _fits(value, default) -> bool:
    """Does ``value`` have the shape of a parameter's ``default``? A bool
    takes a bool, an int an int but not a bool, a float an int or float
    that is finite as a float, and a tuple a tuple whose elements fit its
    first element."""
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(_fits(v, default[0]) for v in value)
    if type(default) is float and type(value) in (int, float):
        return abs(value) <= sys.float_info.max  # false for inf, nan and huge ints
    return type(value) is type(default)


def run_suite(suite: str, params: dict | None = None) -> SuiteResult:
    """Run one suite's cases in order; ``params`` are keyword arguments of
    the suite's builder, where one value for a tuple parameter stands for
    a 1-tuple. A key it does not take, a value of the wrong shape and
    parameters that leave no case are each a ValueError."""
    if suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {suite!r}; known suites: {known}")
    params = params or {}
    keys = SUITES[suite].keys
    unknown = sorted(set(params) - keys)
    if unknown:
        raise ValueError(
            f"suite {suite!r} takes no parameter {', '.join(unknown)};"
            f" accepted: {', '.join(sorted(keys))}"
        )
    defaults = SUITES[suite].defaults
    params = {
        k: (v,) if isinstance(defaults[k], tuple) and not isinstance(v, tuple) else v
        for k, v in params.items()
    }
    for key in sorted(params):
        if not _fits(params[key], defaults[key]):
            raise ValueError(
                f"suite {suite!r}: bad parameter value {key}={params[key]!r};"
                f" it must have the shape of the default {defaults[key]!r}"
            )
    builder = SUITES[suite].build(**params)
    cases: list[Case] = []
    try:
        while True:
            cases.append(next(builder))
    except StopIteration as done:  # the builder returns the details
        details = done.value
    if not cases:
        raise ValueError(f"suite {suite!r} has no case for these parameters")
    return _run_cases(suite, cases, details)


def traceability(results: list[SuiteResult]) -> tuple[str, dict]:
    """Markdown table plus JSON mapping suite id -> check -> verdict."""
    lines = [
        "| suite | check | cases | passes | failures | indeterminate | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    payload = {}
    for r in results:
        note = SUITES[r.suite].note if r.suite in SUITES else ""
        verdict = "PASS" if r.ok else "FAIL"
        if r.ok and r.indeterminates:
            verdict = "PASS (with indeterminates)"
        lines.append(
            f"| {r.suite} | {note} | {r.cases} |"
            f" {r.passes} | {len(r.failures)} | {len(r.indeterminates)} |"
            f" {verdict} |"
        )
        payload[r.suite] = {"check": note, "verdict": verdict, **r.to_dict()}
    return "\n".join(lines), payload
