"""Acceptance gate: one test per criterion, run at the stated tolerances.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
Criterion 4 is split: the hub1 box at n = 5000 is a documented honest
failure (the box constant demands rho >= 102; with the checker's 1e-9 slack
it first passes at n = 10164 for (5, 3) and n = 10298 for (9, 2)), so that
sub-check is a strict xfail with a companion test pinning the diagnosis.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from helpers import atlas_classes, to_nx
from spexlab.constructions import h_op
from spexlab.experiments import BOX_EPS, eigenvector_box, run_suite
from spexlab.forbidden import ForbiddenSpec
from spexlab.graph import Graph, complete, complete_bipartite, cycle, join, star
from spexlab.graph6 import graph6_decode, graph6_encode
from spexlab.recognition import is_outerplanar, is_planar
from spexlab.search import SearchConfig, enumerate_class, exhaustive_spex
from spexlab.spectral import spectral_radius

NS = (10, 100, 10_000)


def test_c1_closed_forms():
    t0 = time.monotonic()
    for n in NS:
        wheel = join(complete(1), cycle(n - 1))
        assert abs(spectral_radius(wheel).rho - (1 + math.sqrt(n))) <= 1e-9
        assert abs(spectral_radius(star(n)).rho - math.sqrt(n - 1)) <= 1e-9
        k2n2 = complete_bipartite(2, n - 2)
        assert abs(spectral_radius(k2n2).rho - math.sqrt(2 * (n - 2))) <= 1e-9
    assert time.monotonic() - t0 < 5.0


def test_c2_shu_bound_exhaustive_and_families():
    t0 = time.monotonic()
    r = run_suite("lemma-lm2")  # n <= 7 exhaustive + families at 1e2/1e3/1e4
    assert r.cases == r.passes + len(r.failures) + len(r.indeterminates)
    assert not r.failures and not r.indeterminates, r.failures[:3]
    assert time.monotonic() - t0 < 600.0


def test_c3_transformation_monotonicity():
    t0 = time.monotonic()
    for suite in ("lemma-lm1", "lemma-lm5"):  # 50 cases each, s2 <= 6
        r = run_suite(suite)
        assert not r.failures, (suite, r.failures[:3])
        assert not r.indeterminates, (suite, r.indeterminates[:3])
    assert time.monotonic() - t0 < 300.0


def test_c4_eigenvector_box_hub2_at_5000():
    r = run_suite("lemma-lm4")  # K2 v H_P(7,3) at n = 5000
    assert not r.failures and not r.indeterminates, r.failures


@pytest.mark.xfail(
    strict=True,
    reason="the [1/rho, 1/rho + 2.04/rho^2] box forces rho >= 102 and first"
    " passes at n = 10164 for (5, 3) and n = 10298 for (9, 2); at n = 5000"
    " rho is ~71.46 and deep path entries overshoot the box by ~3e-6",
)
def test_c4_eigenvector_box_hub1_at_5000():
    for n1, n2 in ((5, 3), (9, 2)):
        assert eigenvector_box(1, h_op(5000, n1, n2))[0] <= BOX_EPS


def test_c4_hub1_failure_signature_and_valid_regime():
    # pin the diagnosis of the expected failure above
    for n1, n2 in ((5, 3), (9, 2)):
        worst, rho = eigenvector_box(1, h_op(5000, n1, n2))
        assert not worst <= BOX_EPS
        assert rho < 102.0
        assert 0 < worst < 1e-5  # tiny overshoot, not a detector bug
    # and the same construction passes once rho clears 102
    for n1, n2 in ((5, 3), (9, 2)):
        worst, rho = eigenvector_box(1, h_op(12_000, n1, n2))
        assert rho > 102.0 and worst <= BOX_EPS


def test_c5_freeness_boundaries_exact():
    for suite in ("claim-3.3", "claim-3.5", "claim-4.2"):
        r = run_suite(suite)
        assert not r.failures and not r.indeterminates, (suite, r.failures[:3])


def test_c6_construction_soundness_grid():
    t0 = time.monotonic()
    for suite in ("thm-2", "thm-3", "thm-4"):  # t in 1..4, l in 3..7, 30 n each
        r = run_suite(suite, {"dominance": False})
        assert r.cases >= 30, suite
        assert not r.failures, (suite, r.failures[:3])
    assert time.monotonic() - t0 < 120.0


def test_c7_sibling_dominance_at_2000():
    for suite in ("thm-2", "thm-4"):  # t in {2,3}, l in {4,5}, 20 siblings
        r = run_suite(suite, {"grid": False})
        assert r.cases == 4, suite
        assert not r.failures and not r.indeterminates, (suite, r.failures[:3])


def test_c8_exhaustive_agreement_exploratory():
    # gated rows, against independently derived extremal graphs
    report = exhaustive_spex(
        SearchConfig(n_min=5, n_max=9, forbidden=ForbiddenSpec.matching(2))
    )
    for entry in report.entries:
        n = entry["n"]
        assert len(entry["certificates"]) == 1, entry
        best = graph6_decode(entry["certificates"][0])
        assert _isomorphic(best, star(n)), entry
        print(f"c8 outerplanar M2 n={n}: {entry['certificates'][0]}")
    (entry,) = exhaustive_spex(
        SearchConfig(
            n_min=6, n_max=6, klass="planar", forbidden=ForbiddenSpec.cycle(3)
        )
    ).entries
    best = graph6_decode(entry["certificates"][0])
    assert _isomorphic(best, complete_bipartite(2, 4)), entry
    print(f"c8 planar C3 n=6: {entry['certificates']}")
    # exploratory row: reported with certificates, not gated
    (entry,) = exhaustive_spex(
        SearchConfig(
            n_min=7, n_max=7, klass="planar", forbidden=ForbiddenSpec.cycle(3)
        )
    ).entries
    print(
        f"c8 exploratory planar C3 n=7: rho={entry['best_rho']:.10f}"
        f" certificates={entry['certificates']}"
    )


def _isomorphic(a: Graph, b: Graph) -> bool:
    import networkx as nx

    return nx.is_isomorphic(to_nx(a), to_nx(b))


def test_c9_infrastructure():
    # graph6 round-trip fuzz: 1e5 random graphs on up to 62 vertices
    rng = np.random.default_rng(20260814)
    for _ in range(100_000):
        n = int(rng.integers(0, 63))
        p = float(rng.choice([0.05, 0.15, 0.3, 0.5]))
        g = _random_graph_np(rng, n, p)
        assert graph6_decode(graph6_encode(g)) == g

    # enumeration counts vs the isomorphism classes of the graph atlas
    for n, count in zip(range(1, 7), (1, 2, 4, 11, 34, 156)):
        classes = atlas_classes(n)
        assert len(classes) == count
        naive_op = sum(1 for g in classes if g.is_connected() and is_outerplanar(g))
        naive_op_all = sum(1 for g in classes if is_outerplanar(g))
        naive_pl = sum(1 for g in classes if g.is_connected() and is_planar(g))
        assert sum(1 for _ in enumerate_class(n, "outerplanar")) == naive_op
        assert (
            sum(1 for _ in enumerate_class(n, "outerplanar", connected_only=False))
            == naive_op_all
        )
        assert sum(1 for _ in enumerate_class(n, "planar")) == naive_pl

    # identical configs yield byte-identical reports
    cfg = SearchConfig(n_min=3, n_max=6, forbidden=ForbiddenSpec.cycle(4))
    assert (
        exhaustive_spex(cfg).canonical_json() == exhaustive_spex(cfg).canonical_json()
    )


def _random_graph_np(rng, n: int, p: float) -> Graph:
    if n == 0:
        return Graph(0, [])
    a = np.triu(rng.random((n, n)) < p, 1)
    a = a | a.T
    packed = np.packbits(a, axis=1, bitorder="little")
    return Graph(n, [int.from_bytes(packed[i].tobytes(), "little") for i in range(n)])
