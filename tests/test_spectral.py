"""Spectral radius engine vs exact and LAPACK/ARPACK oracles, plus the
bound/box report helpers."""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from helpers import dense_rho, random_connected_graph, random_graph
from spexlab.constructions import (
    FamilySpec,
    PathPartition,
    construct,
    family_partition,
    fill_partition,
    joined_paths,
)
from spexlab.graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty_graph,
    join,
    path,
    star,
)
from spexlab.spectral import (
    ConvergenceError,
    SpectralEstimate,
    adjacency_csr,
    check_eigenvector_box,
    check_lower_bound_claim11,
    check_shu_bound,
    joined_paths_radius,
    rayleigh_quotient,
    spectral_radius,
    strict_compare,
)


def charpoly(g: Graph) -> list[Fraction]:
    """Exact monic characteristic polynomial of the adjacency matrix via
    Faddeev-LeVerrier; coefficients for x^n, x^(n-1), ..., x^0."""
    n = g.n
    a = [[Fraction(int(g.has_edge(i, j))) for j in range(n)] for i in range(n)]

    def mul(p, q):
        return [
            [sum(p[i][k] * q[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = mul(a, m)
        for i in range(n):
            m[i][i] += coeffs[-1]
        am = mul(a, m)
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)
    return coeffs


def poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def test_exact_charpoly_bracket_and_lapack():
    rnd = random.Random(31)
    for _ in range(40):
        g = random_connected_graph(rnd, rnd.randint(2, 10), 0.35)
        est = spectral_radius(g, tol=1e-11)
        assert abs(est.rho - dense_rho(g)) <= 1e-8
        # Perron root of a connected graph is simple, so the exact monic
        # charpoly changes sign across it and stays positive above it.
        p = charpoly(g)
        delta = Fraction(1, 10**7)
        assert poly_eval(p, Fraction(est.rho) + delta) > 0
        if g.edge_count():
            assert poly_eval(p, Fraction(est.rho) - delta) < 0


def exact_enclosure(g: Graph, est: SpectralEstimate) -> bool:
    """The exact charpoly changes sign on [rho - residual, rho + residual],
    taken at the float64 est.rho: a root lies within residual of it."""
    p = charpoly(g)
    rho, r = Fraction(est.rho), Fraction(est.residual)
    return poly_eval(p, rho - r) <= 0 <= poly_eval(p, rho + r)


def test_polish_certificate_covers_float64_rounding():
    # below the float64 floor the polish certifies a longdouble rho; the
    # residual must also cover rounding that rho to the float64 est.rho.
    # Estimates that stop on the float64 path carry no rounding term at all
    # (GENERIC_ROUNDING_DEFECTS below), so only polished ones are checked.
    rnd = random.Random(5)
    polished = 0
    for _ in range(30):
        g = random_connected_graph(rnd, rnd.randint(3, 9), 0.4)
        est = spectral_radius(g, tol=1e-16)
        assert abs(est.rho - dense_rho(g)) <= 1e-8
        if est.path == "polish":
            polished += 1
            assert exact_enclosure(g, est)
    assert polished >= 20


def test_closed_forms():
    assert abs(spectral_radius(path(2)).rho - 1.0) <= 1e-10
    assert abs(spectral_radius(cycle(9)).rho - 2.0) <= 1e-10
    assert abs(spectral_radius(complete(7)).rho - 6.0) <= 1e-10
    for n in (5, 30):
        assert abs(spectral_radius(star(n)).rho - math.sqrt(n - 1)) <= 1e-9
    assert abs(spectral_radius(complete_bipartite(3, 12)).rho - 6.0) <= 1e-9
    w = join(complete(1), cycle(49))
    assert abs(spectral_radius(w).rho - (1 + math.sqrt(50))) <= 1e-9


def test_trivial_graphs():
    with pytest.raises(ValueError):
        spectral_radius(empty_graph(0))
    for n in (1, 5):
        est = spectral_radius(empty_graph(n))
        assert est.rho == 0.0 and est.residual == 0.0


def test_disconnected_takes_max_component():
    g = disjoint_union([complete(4), cycle(5), empty_graph(3)])
    assert abs(spectral_radius(g).rho - 3.0) <= 1e-9


def test_estimate_contract():
    rnd = random.Random(8)
    for _ in range(25):
        g = random_connected_graph(rnd, rnd.randint(3, 25), 0.3)
        est = spectral_radius(g)
        a = adjacency_csr(g)
        x = est.perron
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        assert (x > 0).all()  # connected => strictly positive vector
        recomputed = float(np.linalg.norm(a @ x - est.rho * x))
        assert recomputed <= est.residual + 1e-12
        assert est.residual <= 1e-10
        assert abs(est.perron_max.max() - 1.0) <= 1e-12
        assert abs(rayleigh_quotient(g, x) - est.rho) <= 1e-12


def test_tolerance_plumbing():
    g = construct(FamilySpec("k1hop", 500, t=2, l=5))
    for tol in (1e-6, 1e-10):
        assert spectral_radius(g, tol=tol).residual <= tol
    # below the float64 floor the extended-precision polish takes over
    big = construct(FamilySpec("k1hop", 2000, t=2, l=5))
    est = spectral_radius(big, tol=1e-13)
    assert est.residual <= 1e-13
    assert est.path == "polish"
    assert spectral_radius(big).path == "power"


def test_arpack_cross_check():
    rnd = random.Random(606)
    for _ in range(30):
        g = random_connected_graph(rnd, rnd.randint(10, 60), 0.15)
        est = spectral_radius(g)
        ref = float(
            spla.eigsh(adjacency_csr(g).astype(float), k=1, which="LA")[0][0]
        )
        assert abs(est.rho - ref) <= 1e-8


def test_subgraph_monotonicity():
    rnd = random.Random(55)
    for _ in range(30):
        g = random_connected_graph(rnd, rnd.randint(4, 15), 0.4)
        u, v = next(iter(g.edges()))
        hi = spectral_radius(g)
        lo = spectral_radius(g.remove_edge(u, v))
        assert lo.rho <= hi.rho + hi.residual + lo.residual


def test_rayleigh_quotient_errors():
    g = path(4)
    with pytest.raises(ValueError):
        rayleigh_quotient(g, np.zeros(4))
    with pytest.raises(ValueError):
        rayleigh_quotient(g, np.ones(3))


def test_convergence_error_carries_best():
    with pytest.raises(ConvergenceError) as err:
        spectral_radius(path(300), tol=1e-12, max_iterations=3)
    assert isinstance(err.value.best, SpectralEstimate)
    assert 0 < err.value.best.rho < 2.0


def test_strict_compare():
    def est(rho, res):
        return SpectralEstimate(rho, res, 1, np.ones(1), np.ones(1))

    assert strict_compare(est(2.0, 1e-3), est(1.0, 1e-3)) == "greater"
    assert strict_compare(est(1.0, 1e-3), est(2.0, 1e-3)) == "less"
    assert strict_compare(est(1.0, 1e-3), est(1.001, 1e-3)) == "indeterminate"


def test_shu_bound_reports():
    fan = join(complete(1), path(9))
    rep = check_shu_bound(fan)
    assert rep.passed and rep.lhs <= rep.rhs + 1e-12
    assert rep.details["n"] == 10
    with pytest.raises(ValueError):
        check_shu_bound(join(complete(1), cycle(9)))  # wheel: not outerplanar
    with pytest.raises(ValueError):
        check_shu_bound(disjoint_union([path(3), path(3)]))
    with pytest.raises(ValueError):
        check_shu_bound(path(2))


def test_lower_bound_witness_and_report():
    g = construct(FamilySpec("claimw", 20, t=4))
    assert g.n == 20 and g.degree(0) == 19
    assert g.edge_count() == 19 + 3
    for n, t in [(10, 1), (50, 3), (200, 20)]:
        rep = check_lower_bound_claim11(n, t)
        assert rep.passed
        # the quotient rho agrees with power iteration on the built witness
        est = spectral_radius(construct(FamilySpec("claimw", n, t=t)))
        assert abs(rep.rhs - est.rho) <= rep.details["residual"] + est.residual
    with pytest.raises(ValueError):
        check_lower_bound_claim11(5, 1)
    with pytest.raises(ValueError):
        check_lower_bound_claim11(20, 10)


def reference_box(g: Graph, hubs: int, box_eps: float = 1e-9):
    """The eigenvector box computed on the built graph: check that hubs
    0..hubs-1 are adjacent and dominate a disjoint union of paths, then box the Perron
    vector from spectral_radius. Returns (passed, worst, rho, residual)."""
    for h in range(hubs):
        assert g.degree(h) == g.n - 1
    assert hubs == 1 or g.has_edge(0, 1)
    rest = g.induced_subgraph(range(hubs, g.n))
    assert all(rest.degree(v) <= 2 for v in range(rest.n))
    assert rest.edge_count() == rest.n - len(rest.components())
    est = spectral_radius(g)
    x, rho = est.perron_max, est.rho
    c, width = (1.0, 2.04) if hubs == 1 else (2.0, 4.496)
    lo, hi = c / rho, c / rho + width / rho**2
    off = x[hubs:]
    worst = max(float((lo - off).max()), float((off - hi).max()), 0.0)
    worst = max(worst, max(abs(x[h] - 1.0) for h in range(hubs)))
    return worst <= box_eps, worst, rho, est.residual


BOX_GRID = [  # claim-3.1 and lemma-lm4 suite grids, then the n = 600 families
    (1, fill_partition(4999, 5, 3)),
    (1, fill_partition(4999, 9, 2)),
    (1, fill_partition(11999, 5, 3)),
    (1, fill_partition(11999, 9, 2)),
    (2, fill_partition(4998, 7, 3)),
    (1, family_partition(FamilySpec("k1hop", 600, t=3, l=5))),
    (2, family_partition(FamilySpec("k2hp", 600, t=3, l=5))),
]


@pytest.mark.parametrize(
    "hubs,h", BOX_GRID, ids=[f"hub{hubs}-n{h.total + hubs}-{h.part(1)}" for hubs, h in BOX_GRID]
)
def test_eigenvector_box_matches_built_graph(hubs, h):
    rep = check_eigenvector_box(hubs, h)
    passed, worst, rho, residual = reference_box(joined_paths(hubs, h), hubs)
    assert rep.name == f"eigenvector-box-hub{hubs}"
    assert rep.passed == passed
    assert abs(rep.details["rho"] - rho) <= rep.details["residual"] + residual
    assert abs(rep.lhs - worst) <= 1e-12


def test_eigenvector_box_regimes():
    # hub2 box is valid once rho is moderately large
    rep = check_eigenvector_box(2, family_partition(FamilySpec("k2hp", 600, t=3, l=5)))
    assert rep.passed and rep.details["box_low"] <= rep.details["min_entry"]
    # hub1 box needs rho >= 102, far beyond n=600: an honest failure
    rep1 = check_eigenvector_box(1, family_partition(FamilySpec("k1hop", 600, t=3, l=5)))
    assert not rep1.passed and rep1.lhs > 0


def test_eigenvector_box_validation():
    # a PathPartition is always a union of paths; only the hub count can
    # name no family
    with pytest.raises(ValueError):
        check_eigenvector_box(3, PathPartition([5]))


# hub-joined path families through the equitable quotient


CROSS_CHECK = [
    (1, (1, 1)),  # P_3
    (2, (2,)),  # K_4
    (1, (4, 4, 2, 2, 1)),
    (2, (7, 3, 3, 3, 3, 3, 2)),
    (1, (9, 8, 7, 6, 5, 4, 3, 2, 1)),
    (2, (17, 11, 5, 2)),
    (1, (300,)),
    (2, (1000,)),
    (1, (1500,)),
    (1, (5, 3) + (1,) * 511),  # n = 517
    (2, (40,) * 50 + (7,) * 20 + (1,) * 30),
    (1, family_partition(FamilySpec("k1hop", 2000, t=2, l=5)).parts),
    (2, family_partition(FamilySpec("k2hp", 3000, t=3, l=5)).parts),
    (1, (3,) * 600 + (1,)),
    (2, (4,) * 700 + (2, 2, 2)),
]
# spectral_radius stops on a float64 residual, which does not cover the
# rounding of its float64 Rayleigh quotient; on these its rho sits outside
# its own residual, by up to 7.7e-13 at n = 3000
GENERIC_ROUNDING_DEFECTS = [
    (1, (2,)),  # K_3 as K1 v P2
    (2, (1,)),  # K_3 as K2 v P1
    (2, (600,)),
    (1, (2999,)),
]
ALL_CASES = CROSS_CHECK + GENERIC_ROUNDING_DEFECTS
CASE_IDS = [f"hub{hubs}-n{sum(parts) + hubs}-q{len(parts)}" for hubs, parts in ALL_CASES]


@functools.cache
def _quotient_and_generic(hubs, parts):
    h = PathPartition(parts)
    return (
        joined_paths_radius(hubs, h, 1e-13),
        spectral_radius(joined_paths(hubs, h), 1e-13),
    )


@pytest.mark.parametrize("hubs,parts", ALL_CASES, ids=CASE_IDS)
def test_quotient_vector_matches_generic(hubs, parts):
    quo, gen = _quotient_and_generic(hubs, parts)
    assert quo.path == "quotient"
    assert quo.residual <= 1e-13
    assert quo.perron.shape == gen.perron.shape == (sum(parts) + hubs,)
    assert np.abs(quo.perron - gen.perron).max() <= 1e-10
    assert np.abs(quo.perron_max - gen.perron_max).max() <= 1e-10


@pytest.mark.parametrize(
    "hubs,parts",
    CROSS_CHECK
    + [
        pytest.param(
            *case,
            marks=pytest.mark.xfail(
                strict=True, reason="generic float64 residual omits rounding"
            ),
        )
        for case in GENERIC_ROUNDING_DEFECTS
    ],
    ids=CASE_IDS,
)
def test_quotient_rho_within_generic_residuals(hubs, parts):
    quo, gen = _quotient_and_generic(hubs, parts)
    assert abs(quo.rho - gen.rho) <= quo.residual + gen.residual


def test_quotient_exact_charpoly():
    rnd = random.Random(12)
    for _ in range(25):
        hubs = rnd.choice((1, 2))
        h = PathPartition(rnd.randint(1, 4) for _ in range(rnd.randint(1, 3)))
        est = joined_paths_radius(hubs, h, 1e-13)
        g = joined_paths(hubs, h)
        assert est.residual <= 1e-13
        assert abs(est.rho - dense_rho(g)) <= 1e-12
        assert exact_enclosure(g, est)


def test_quotient_degenerate_and_errors():
    assert joined_paths_radius(1, PathPartition([])).rho == 0.0  # K1
    assert joined_paths_radius(2, PathPartition([])).rho == 1.0  # K2
    est = joined_paths_radius(1, PathPartition([1] * 15))  # star K_{1,15}
    assert abs(est.rho - math.sqrt(15)) <= est.residual
    with pytest.raises(ValueError):
        joined_paths_radius(3, PathPartition([2]))
    with pytest.raises(ValueError):
        joined_paths_radius(1, PathPartition([2]), tol=0)
    with pytest.raises(ConvergenceError) as err:
        joined_paths_radius(1, PathPartition([5, 3, 1, 1]), tol=1e-25)
    assert err.value.best.path == "quotient"
