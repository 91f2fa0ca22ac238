"""One-command verification suites with a traceability report.

Each suite id names one numeric or exhaustive check. A case lands in
``failures`` only when a stated inequality or detector verdict is wrong at
working precision; strict spectral comparisons whose gap is below the sum
of the two residuals land in ``indeterminates`` instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

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
from .recognition import is_outerplanar, is_planar
from .search import SearchConfig, enumerate_class, exhaustive_spex
from .spectral import (
    ConvergenceError,
    check_eigenvector_box,
    check_lower_bound_claim11,
    check_shu_bound,
    joined_paths_radius,
    strict_compare,
)

LM1_FACTOR = 6.5025  # K1-join threshold: n >= 6.5025 * 2^(s2+2)
LM5_FACTOR = 10.2  # K2-join threshold: n >= 10.2 * 2^s2 + 2
STRICT_TOL = 1e-13  # requested solver tolerance for strict comparisons

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


def _suite_claim_1_1(params: dict) -> SuiteResult:
    ns = params.get("n_values", (10, 25, 50, 100, 400, 1000, 2500, 10000))
    cases: list[Case] = []
    for n in ns:
        ts = sorted({1, 2, max(1, n // 100), (n - 1) // 2})
        for t in ts:
            if not 1 <= t <= (n - 1) / 2:
                continue

            def fn(n=n, t=t):
                rep = check_lower_bound_claim11(n, t)
                info = {"n": n, "t": t, "bound": rep.lhs, "rho": rep.rhs}
                return ("pass" if rep.passed else "fail"), info

            cases.append((f"n={n},t={t}", fn))
    return _run_cases("claim-1.1", cases)


def _suite_lemma_lm2(params: dict) -> SuiteResult:
    nmax = int(params.get("nmax", 7))
    family_ns = params.get("family_ns", (100, 1000, 10000))
    cases: list[Case] = []
    exhaustive_count = 0
    for n in range(3, nmax + 1):
        for g in enumerate_class(n, "outerplanar", None, connected_only=True):
            exhaustive_count += 1

            def fn(g=g):
                rep = check_shu_bound(g)
                info = {"n": g.n, "rho": rep.lhs, "bound": rep.rhs}
                return ("pass" if rep.passed else "fail"), info

            cases.append((f"enum-n{n}-{exhaustive_count}", fn))
    specs = []
    for n in family_ns:
        specs += [
            FamilySpec("star", n),
            FamilySpec("jn", n),
            FamilySpec("claimw", n, t=max(1, n // 4)),
            FamilySpec("k1hop", n, t=2, l=5),
            FamilySpec("k1hop", n, t=3, l=4),
        ]
    for spec in specs:

        def fn(spec=spec):
            rep = check_shu_bound(construct(spec))
            info = {"family": str(spec), "rho": rep.lhs, "bound": rep.rhs}
            return ("pass" if rep.passed else "fail"), info

        cases.append((str(spec), fn))
    return _run_cases("lemma-lm2", cases, {"exhaustive_graphs": exhaustive_count})


def _monotonicity_cases(hubs: int, params: dict) -> list[Case]:
    """Partition pairs (h, transform of h) at n above the step threshold."""
    s2_max = int(params.get("s2_max", 6))
    count = int(params.get("cases", 50))
    margin = float(params.get("margin", 1.15))
    cases: list[Case] = []
    idx = 0
    while len(cases) < count:
        s2 = 1 + idx % s2_max
        s1 = s2 + (idx * 3) % 5
        if hubs == 1:
            threshold = LM1_FACTOR * 2 ** (s2 + 2)
        else:
            threshold = LM5_FACTOR * 2**s2 + 2
        n = int(math.ceil(threshold * margin)) + 7 * (idx % 3)
        total = n - hubs
        filler = total - s1 - s2
        if filler < 0:
            idx += 1
            continue
        h = PathPartition([s1, s2] + [1] * filler)
        i = h.parts.index(s1)
        j = h.parts.index(s2) if s2 != s1 else i + 1
        idx += 1

        def fn(h=h, i=i, j=j, hubs=hubs, s1=s1, s2=s2, n=n):
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

        cases.append((f"s1={s1},s2={s2},n={n}", fn))
    return cases


def _suite_lemma_lm1(params: dict) -> SuiteResult:
    return _run_cases("lemma-lm1", _monotonicity_cases(1, params))


def _suite_lemma_lm5(params: dict) -> SuiteResult:
    return _run_cases("lemma-lm5", _monotonicity_cases(2, params))


def _box_cases(hubs: int, grid) -> list[Case]:
    """Eigenvector-box checks on K1 v H_OP(n1, n2) or K2 v H_P(n1, n2)."""
    label = "K1vHOP" if hubs == 1 else "K2vHP"
    cases: list[Case] = []
    for n1, n2, n in grid:

        def fn(n1=n1, n2=n2, n=n):
            rep = check_eigenvector_box(hubs, fill_partition(n - hubs, n1, n2))
            info = {
                "n1": n1,
                "n2": n2,
                "n": n,
                "worst": rep.lhs,
                "rho": rep.details["rho"],
            }
            return ("pass" if rep.passed else "fail"), info

        cases.append((f"{label}({n1},{n2})@n={n}", fn))
    return cases


def _suite_claim_3_1(params: dict) -> SuiteResult:
    grid = params.get("grid", ((5, 3, 5000), (9, 2, 5000), (5, 3, 12000), (9, 2, 12000)))
    return _run_cases("claim-3.1", _box_cases(1, grid))


def _suite_lemma_lm4(params: dict) -> SuiteResult:
    grid = params.get("grid", ((7, 3, 5000),))
    return _run_cases("lemma-lm4", _box_cases(2, grid))


def _suite_claim_3_2(params: dict) -> SuiteResult:
    grid = params.get("grid", ((5, 3, 300), (7, 4, 600), (6, 5, 1400), (9, 6, 3400)))
    eps = float(params.get("eps", 1e-8))
    cases: list[Case] = []
    for s1, s2, n in grid:

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

        cases.append((f"s1={s1},s2={s2},n={n}", fn))
    return _run_cases("claim-3.2", cases)


def _suite_claim_3_3(params: dict) -> SuiteResult:
    ls = params.get("ls", (5, 6, 7, 8))
    total_cap = int(params.get("total_cap", 20))
    cases: list[Case] = []
    for l in ls:
        for n1 in (l - 3, l - 2, l - 1, l):
            for extra in ((), (1,), (min(n1, l - 2), 1)):
                parts = [n1, *extra]
                if sum(parts) + 1 > total_cap + 1:
                    continue
                h = PathPartition(parts)

                def fn(h=h, l=l):
                    g = joined_paths(1, h)
                    expected_free = h.part(1) <= l - 2
                    got_free = is_free(g, ForbiddenSpec.cycle(l))
                    info = {"l": l, "parts": list(h.parts), "expected_free": expected_free}
                    return ("pass" if got_free == expected_free else "fail"), info

                cases.append((f"l={l},h={h}", fn))
    return _run_cases("claim-3.3", cases)


def _suite_claim_3_5(params: dict) -> SuiteResult:
    ts = params.get("ts", (2, 3))
    ls = params.get("ls", (3, 4, 5))
    cases: list[Case] = []
    for t in ts:
        for l in ls:
            flip = t * (l - 1)  # smallest n1 with a bouquet in K1 v P_n1
            for n1 in (flip - 2, flip - 1, flip, flip + 1):
                if n1 < 1:
                    continue

                def fn(t=t, l=l, n1=n1, flip=flip):
                    g = joined_paths(1, PathPartition([n1]))
                    expected_free = n1 < flip
                    got_free = is_free(g, ForbiddenSpec.bouquet(t, l))
                    info = {"t": t, "l": l, "n1": n1, "expected_free": expected_free}
                    return ("pass" if got_free == expected_free else "fail"), info

                cases.append((f"t={t},l={l},n1={n1}", fn))
    return _run_cases("claim-3.5", cases)


def _suite_claim_4_2(params: dict) -> SuiteResult:
    ts = params.get("ts", (2, 3))
    ls = params.get("ls", (3, 4, 5))
    cases: list[Case] = []
    for t in ts:
        for l in ls:
            flip = t * l - t - 1  # smallest n1+n2 with a bouquet
            for s in (flip - 2, flip - 1, flip, flip + 1):
                splits = {(s - k, k) for k in (1, min(l - 1, s - 1), s // 2)}
                for n1, n2 in sorted(splits, reverse=True):
                    if n2 < 1 or n1 < n2:
                        continue

                    def fn(t=t, l=l, n1=n1, n2=n2, flip=flip):
                        g = joined_paths(2, PathPartition([n1, n2]))
                        expected_free = n1 + n2 < flip
                        got_free = is_free(g, ForbiddenSpec.bouquet(t, l))
                        info = {
                            "t": t,
                            "l": l,
                            "n1": n1,
                            "n2": n2,
                            "expected_free": expected_free,
                        }
                        return ("pass" if got_free == expected_free else "fail"), info

                    cases.append((f"t={t},l={l},n1={n1},n2={n2}", fn))
    return _run_cases("claim-4.2", cases)


def _suite_claim_4_3(params: dict) -> SuiteResult:
    """Freeness of K2 v H with a long first path, against the corrected
    conjunction: free iff nbar1+n2 <= l-3 and n2+n3 <= l-3. The disjunction
    as once stated diverges on part of the grid; divergences are counted in
    details, not failed."""
    ts = params.get("ts", (2, 3))
    ls = params.get("ls", (3, 4, 5))
    cases: list[Case] = []
    or_divergences = 0
    grid = []
    for t in ts:
        for l in ls:
            base = (t - 1) * (l - 1)
            for nbar in range(0, l - 1):
                for n2 in range(0, l - 1):
                    for n3 in range(0, n2 + 1):
                        if n3 and not n2:
                            continue
                        grid.append((t, l, base + nbar, n2, n3))
    seen = set()
    for t, l, n1, n2, n3 in grid:
        if (t, l, n1, n2, n3) in seen:
            continue
        seen.add((t, l, n1, n2, n3))
        nbar = n1 - (t - 1) * (l - 1)
        and_free = (nbar + n2 <= l - 3) and (n2 + n3 <= l - 3)
        or_free = (nbar + n2 <= l - 3) or (n2 + n3 <= l - 3)
        if and_free != or_free:
            or_divergences += 1

        def fn(t=t, l=l, n1=n1, n2=n2, n3=n3, and_free=and_free):
            parts = [p for p in (n1, n2, n3) if p > 0]
            g = joined_paths(2, PathPartition(parts))
            got_free = is_free(g, ForbiddenSpec.bouquet(t, l))
            info = {
                "t": t,
                "l": l,
                "parts": parts,
                "expected_free": and_free,
            }
            return ("pass" if got_free == and_free else "fail"), info

        cases.append((f"t={t},l={l},h=[{n1},{n2},{n3}]", fn))
    return _run_cases("claim-4.3", cases, {"or_form_divergences": or_divergences})


def _hub_paths_shape(g: Graph) -> bool:
    """Some dominating vertex whose removal leaves disjoint paths."""
    hubs = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    for h in hubs:
        rest = g.induced_subgraph([v for v in range(g.n) if v != h])
        if all(rest.degree(v) <= 2 for v in range(rest.n)):
            if rest.edge_count() == rest.n - len(rest.components()):
                return True
    return False


def _suite_thm_1_structure(params: dict) -> SuiteResult:
    n_max = int(params.get("nmax", 7))
    specs = [
        ForbiddenSpec.matching(2),
        ForbiddenSpec.matching(3),
        ForbiddenSpec.cycle(3),
        ForbiddenSpec.bouquet(2, 3),
    ]
    cases: list[Case] = []
    agreement: dict[str, bool] = {}
    for spec in specs:
        top = n_max if spec.kind != "bouquet" else min(n_max, 7)
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

            cases.append((f"{spec}@n={n}", fn))
    result = _run_cases("thm-1-structure", cases)
    result.details["agreement"] = dict(sorted(agreement.items()))
    return result


def _family_grid(theorem: str, params: dict) -> list[FamilySpec]:
    n_count = int(params.get("n_count", 30))
    ts = params.get("ts", (1, 2, 3, 4))
    ls = params.get("ls", (3, 4, 5, 6, 7))
    specs = []
    for t in ts:
        for l in ls:
            if theorem == "thm-3" and l != 3:
                continue
            if theorem == "thm-4" and t < 2:
                continue
            kind = "k2hp" if theorem == "thm-4" else "k1hop"
            hubs = 2 if kind == "k2hp" else 1
            n1 = {
                "k1hop": (l - 2) if t == 1 else (t * l - t - 1),
                "k2hp": t * l - t - l,
            }[kind]
            n_lo = n1 + hubs
            for n in range(n_lo, n_lo + n_count):
                specs.append(FamilySpec(kind, n, t=t, l=l))
    return specs


def _soundness_cases(theorem: str, specs: list[FamilySpec]) -> list[Case]:
    cases: list[Case] = []
    for spec in specs:

        def fn(spec=spec):
            g = construct(spec)
            if theorem == "thm-3":
                forb = ForbiddenSpec.matching(spec.t + 1)
            else:
                forb = ForbiddenSpec.bouquet(spec.t, spec.l)
            in_class = (
                is_outerplanar(g) if spec.kind == "k1hop" else is_planar(g)
            ).planar
            free = is_free(g, forb)
            info = {"family": str(spec), "in_class": in_class, "free": free}
            return ("pass" if in_class and free else "fail"), info

        cases.append((str(spec), fn))
    return cases


def _dominance_cases(theorem: str, params: dict) -> list[Case]:
    n_dom = int(params.get("n_dom", 2000))
    sibling_count = int(params.get("siblings", 20))
    s2_cap = int(params.get("s2_cap", 6))
    ts = params.get("dom_ts", (2, 3))
    ls = params.get("dom_ls", (4, 5) if theorem != "thm-3" else (3,))
    kind = "k2hp" if theorem == "thm-4" else "k1hop"
    hubs = 2 if kind == "k2hp" else 1
    cases: list[Case] = []
    for t in ts:
        for l in ls:
            spec = FamilySpec(kind, n_dom, t=t, l=l)
            h_star = family_partition(spec)
            siblings: list[PathPartition] = []
            frontier = [h_star]
            seen = {h_star.parts}
            while frontier and len(siblings) < sibling_count:
                nxt = []
                for h in frontier:
                    for p in transform_predecessors(h, s2_cap):
                        if p.parts in seen:
                            continue
                        seen.add(p.parts)
                        siblings.append(p)
                        nxt.append(p)
                        if len(siblings) >= sibling_count:
                            break
                    if len(siblings) >= sibling_count:
                        break
                frontier = nxt

            def fn(spec=spec, h_star=h_star, siblings=tuple(siblings), hubs=hubs):
                star_est = joined_paths_radius(hubs, h_star, STRICT_TOL)
                weakest = math.inf
                for h in siblings:
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
                info = {
                    "family": str(spec),
                    "siblings": len(siblings),
                    "weakest_gap": weakest,
                }
                return "pass", info

            cases.append((f"dominance:{spec}", fn))
    return cases


def _theorem_suite(theorem: str, params: dict) -> SuiteResult:
    cases: list[Case] = []
    if params.get("grid", True):
        cases += _soundness_cases(theorem, _family_grid(theorem, params))
    if params.get("dominance", True):
        cases += _dominance_cases(theorem, params)
    return _run_cases(theorem, cases)


def _suite_thm_2(params: dict) -> SuiteResult:
    return _theorem_suite("thm-2", params)


def _suite_thm_3(params: dict) -> SuiteResult:
    return _theorem_suite("thm-3", params)


def _suite_thm_4(params: dict) -> SuiteResult:
    return _theorem_suite("thm-4", params)


def _suite_remark_rk111(params: dict) -> SuiteResult:
    ns = params.get("n_values", (8, 20, 101))
    ls = params.get("ls", (5, 6, 7, 9))
    cases: list[Case] = []
    for n in ns:

        def fn_k2(n=n):
            g = construct(FamilySpec("k2n2", n))
            ok = is_planar(g).planar and is_free(g, ForbiddenSpec.cycle(3))
            return ("pass" if ok else "fail"), {"family": f"k2n2:n={n}"}

        def fn_jn(n=n):
            g = construct(FamilySpec("jn", n))
            ok = is_planar(g).planar and is_free(g, ForbiddenSpec.cycle(4))
            return ("pass" if ok else "fail"), {"family": f"jn:n={n}"}

        cases.append((f"k2n2:n={n}", fn_k2))
        cases.append((f"jn:n={n}", fn_jn))
    for l in ls:
        for n in ns:
            if n - 2 < (l - 2) // 2 + 1:
                continue

            def fn_cl(l=l, n=n):
                # top-two part orders must sum to <= l-3, so the larger
                # half-part leads and the smaller one fills
                h = fill_partition(n - 2, (l - 2) // 2, (l - 3) // 2)
                g = joined_paths(2, h)
                ok = is_planar(g).planar and is_free(g, ForbiddenSpec.cycle(l))
                return ("pass" if ok else "fail"), {"family": f"K2vHP@l={l},n={n}"}

            cases.append((f"clfree:l={l},n={n}", fn_cl))
    return _run_cases("remark-rk111", cases)


def _suite_bouquet_semantics(params: dict) -> SuiteResult:
    """The K2-join families are bouquet-free as subgraphs (cycles pairwise
    sharing exactly the common vertex), yet an edge-disjoint packing of t
    l-cycles at a hub can still exist; such divergences are counted."""
    ts = params.get("ts", (2, 3))
    ls = params.get("ls", (3, 4, 5))
    span = int(params.get("span", 4))
    cases: list[Case] = []
    divergences: list[str] = []
    for t in ts:
        for l in ls:
            n_lo = t * l - t - l + 2
            for n in range(n_lo, n_lo + span):
                spec = FamilySpec("k2hp", n, t=t, l=l)

                def fn(spec=spec, t=t, l=l):
                    g = construct(spec)
                    free = is_free(g, ForbiddenSpec.bouquet(t, l))
                    edge_disjoint = max(
                        max_edge_disjoint_l_cycles_at(g, v, l, cap=t)
                        for v in range(g.n)
                    )
                    if free and edge_disjoint >= t:
                        divergences.append(str(spec))
                    info = {
                        "family": str(spec),
                        "subgraph_free": free,
                        "edge_disjoint_at_best_hub": edge_disjoint,
                    }
                    return ("pass" if free else "fail"), info

                cases.append((str(spec), fn))
    result = _run_cases("bouquet-semantics", cases)
    result.details["edge_disjoint_divergences"] = sorted(divergences)
    return result


SUITES: dict[str, Callable[[dict], SuiteResult]] = {
    "claim-1.1": _suite_claim_1_1,
    "lemma-lm2": _suite_lemma_lm2,
    "lemma-lm1": _suite_lemma_lm1,
    "lemma-lm5": _suite_lemma_lm5,
    "claim-3.1": _suite_claim_3_1,
    "lemma-lm4": _suite_lemma_lm4,
    "claim-3.2": _suite_claim_3_2,
    "claim-3.3": _suite_claim_3_3,
    "claim-3.5": _suite_claim_3_5,
    "claim-4.2": _suite_claim_4_2,
    "claim-4.3": _suite_claim_4_3,
    "thm-1-structure": _suite_thm_1_structure,
    "thm-2": _suite_thm_2,
    "thm-3": _suite_thm_3,
    "thm-4": _suite_thm_4,
    "remark-rk111": _suite_remark_rk111,
    "bouquet-semantics": _suite_bouquet_semantics,
}

SUITE_NOTES: dict[str, str] = {
    "claim-1.1": "hub-plus-matching witness beats sqrt(n)+1-(n-t)/(n-sqrt(n)) > 0.8 sqrt(n)",
    "lemma-lm2": "rho <= 3/2 + sqrt(n - 7/4) on connected outerplanar graphs",
    "lemma-lm1": "transformation strictly raises rho of K1-join above its threshold",
    "lemma-lm5": "transformation strictly raises rho of K2-join above its threshold",
    "claim-3.1": "non-hub Perron entries in [1/rho, 1/rho + 2.04/rho^2]",
    "lemma-lm4": "non-hub Perron entries in [2/rho, 2/rho + 4.496/rho^2]",
    "claim-3.2": "path-entry difference sequences stay in the A_i/B_i boxes",
    "claim-3.3": "K1-join contains C_l iff the longest part has >= l-1 vertices",
    "claim-3.5": "K1 v P_n1 contains the bouquet iff n1 >= t(l-1)",
    "claim-4.2": "K2 v (P_n1 u P_n2) contains the bouquet iff n1+n2 >= tl-t-1",
    "claim-4.3": "freeness of long-first-path K2-joins matches the corrected conjunction",
    "thm-1-structure": "do small-n maximizers have a hub over disjoint paths (reported)",
    "thm-2": "K1 v H_OP(tl-t-1, l-2): class membership, freeness, sibling dominance",
    "thm-3": "K1 v H_OP(2t-1, 1): class membership, freeness, sibling dominance",
    "thm-4": "K2 v H_P(tl-t-l, l-2): class membership, freeness, sibling dominance",
    "remark-rk111": "cycle-free planar witnesses: K_{2,n-2}, J_n, balanced K2-join",
    "bouquet-semantics": "subgraph bouquet-freeness vs edge-disjoint packing counts",
}


def run_suite(
    suite: str, params: dict | None = None, threads: int | None = None
) -> SuiteResult:
    """Run one suite's cases in order. ``threads`` is accepted and ignored:
    the cases hold the GIL, so a thread pool bought no speed."""
    if suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {suite!r}; known suites: {known}")
    return SUITES[suite](params or {})


def traceability(results: list[SuiteResult]) -> tuple[str, dict]:
    """Markdown table plus JSON mapping suite id -> check -> verdict."""
    lines = [
        "| suite | check | cases | passes | failures | indeterminate | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    payload = {}
    for r in results:
        verdict = "PASS" if r.ok else "FAIL"
        if r.ok and r.indeterminates:
            verdict = "PASS (with indeterminates)"
        lines.append(
            f"| {r.suite} | {SUITE_NOTES.get(r.suite, '')} | {r.cases} |"
            f" {r.passes} | {len(r.failures)} | {len(r.indeterminates)} |"
            f" {verdict} |"
        )
        payload[r.suite] = {
            "check": SUITE_NOTES.get(r.suite, ""),
            "verdict": verdict,
            **r.to_dict(),
        }
    return "\n".join(lines), payload
