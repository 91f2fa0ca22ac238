"""Spectral radius engine vs exact and LAPACK/ARPACK oracles, plus the
eigenvector box of the experiments suites against the built graph."""

from __future__ import annotations

import functools
import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helpers import dense_rho, random_connected_graph, random_graph
from spexlab import spectral
from spexlab.constructions import (
    FamilySpec,
    PathPartition,
    construct,
    family_partition,
    fill_partition,
    joined_paths,
)
from spexlab.experiments import BOX_EPS, eigenvector_box
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
from spexlab.spectral import (
    ConvergenceError,
    SpectralEstimate,
    adjacency_csr,
    joined_paths_radius,
    spectral_radius,
    strict_compare,
)


def scipy_csr(g: Graph) -> sp.csr_matrix:
    """The adjacency matrix as a scipy CSR, from the arrays of
    ``adjacency_csr``; scipy is only a test dependency."""
    indptr, indices = adjacency_csr(g)
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(g.n, g.n))


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
        try:
            est = spectral_radius(g, tol=1e-16)
        except ConvergenceError as e:  # polish floor above tol
            est = e.best
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
        a = scipy_csr(g)
        x = est.perron
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        assert (x > 0).all()  # connected => strictly positive vector
        recomputed = float(np.linalg.norm(a @ x - est.rho * x))
        assert recomputed <= est.residual + 1e-12
        assert est.residual <= 1e-10
        assert abs(est.perron_max.max() - 1.0) <= 1e-12
        assert abs(float(x @ (a @ x)) / float(x @ x) - est.rho) <= 1e-12


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
            spla.eigsh(scipy_csr(g), k=1, which="LA")[0][0]
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


def reference_csr(g: Graph):
    """The adjacency CSR assembled from the edge list, both orientations."""
    ri = [i for u, v in g.edges() for i in (u, v)]
    ci = [j for u, v in g.edges() for j in (v, u)]
    return sp.csr_matrix((np.ones(len(ri)), (ri, ci)), shape=(g.n, g.n))


def assert_builder_matches(g: Graph):
    (indptr, indices), ref = adjacency_csr(g), reference_csr(g)
    assert np.array_equal(indptr, ref.indptr)
    assert np.array_equal(indices, ref.indices)
    assert scipy_csr(g).has_canonical_format


def test_adjacency_csr_matches_edge_list():
    for g in (empty_graph(0), empty_graph(1), empty_graph(4), path(2)):
        assert_builder_matches(g)
    # isolated vertices before, between and after the edges
    assert_builder_matches(disjoint_union([empty_graph(2), cycle(5), empty_graph(3), star(4)]))
    for G in nx.graph_atlas_g():
        assert_builder_matches(from_edges(G.number_of_nodes(), G.edges()))


def test_adjacency_csr_across_chunks():
    # every row reaches the last vertex, so every bitset row is n bits long
    # and the rows together take 4000 * 500 bytes
    rnd = random.Random(17)
    n = 4000
    edges = {(v, n - 1) for v in range(n - 1)}
    edges |= {tuple(sorted(rnd.sample(range(n), 2))) for _ in range(3 * n)}
    assert_builder_matches(from_edges(n, sorted(edges)))
    for _ in range(40):
        assert_builder_matches(random_graph(rnd, rnd.randint(0, 120), 0.1))


@pytest.mark.parametrize(
    "name,params",
    [("star", {}), ("k1hop", {"t": 2, "l": 5}), ("k2hp", {"t": 3, "l": 5}), ("jn", {})],
)
def test_adjacency_csr_matches_edge_list_on_hub_joins_at_scale(name, params):
    assert_builder_matches(construct(FamilySpec(name, 10**4, **params)))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_product_keeps_the_bits_of_a_csr_product(dtype):
    # every row summed from 0 in ascending column order, as scipy sums it,
    # also on the hub rows of 10^4 terms where another order moves bits
    rng = np.random.default_rng(4)
    hub_join = construct(FamilySpec("k2hp", 10**4, t=3, l=5))
    for g in (hub_join, random_graph(random.Random(4), 300, 0.2)):
        indptr, cols = adjacency_csr(g)
        rows = np.repeat(np.arange(g.n), np.diff(indptr))
        x = rng.random(g.n).astype(dtype)
        got = spectral._product((rows, cols), x)
        assert got.dtype == dtype
        assert np.array_equal(got, scipy_csr(g).astype(dtype) @ x)


def _modules_after(code: str, names: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout's spexlab and
    print which modules it left in sys.modules that are one of the
    packages ``names`` or inside one."""
    src = str(Path(spectral.__file__).resolve().parent.parent)
    code += (
        f"import sys\nnames = {names!r}.split()\n"
        "print(sorted(m for m in sys.modules\n"
        "             if any(m == k or m.startswith(k + '.') for k in names)))\n"
    )
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_spexlab_leaves_scipy_unimported():
    # scipy.sparse costs every process about 0.15 s and 13 MB to import;
    # the solver multiplies by its own CSR arrays, and components come from
    # Graph.adjacency. The disconnected graph takes the longdouble route at
    # tol 1e-15 and the float64 one at the default tol.
    code = (
        "import spexlab, spexlab.cli\n"
        "from spexlab.search import SearchConfig, exhaustive_spex\n"
        "from spexlab.spectral import spectral_radius\n"
        "g = spexlab.disjoint_union([spexlab.cycle(5), spexlab.complete(4), spexlab.empty_graph(1)])\n"
        "assert spectral_radius(g, 1e-15).path == 'polish'\n"
        "assert spectral_radius(g).path == 'power'\n"
        "exhaustive_spex(SearchConfig(4, 6))\n"
    )
    assert _modules_after(code, "scipy") == "[]"


def test_default_paths_leave_networkx_unimported():
    # networkx costs every process about 0.2 s to import; only the
    # left-right planarity fallback uses it, and no freeness test does
    code = (
        "import sys\n"
        "import spexlab.cli\n"
        "from spexlab.experiments import run_suite\n"
        "from spexlab.forbidden import ForbiddenSpec, is_free\n"
        "from spexlab.graph import complete, cycle, join, path\n"
        "from spexlab.recognition import is_planar\n"
        "from spexlab.search import SearchConfig, exhaustive_spex\n"
        "from spexlab.spectral import spectral_radius\n"
        "spectral_radius(join(complete(1), cycle(9)))\n"
        "exhaustive_spex(SearchConfig(4, 7))\n"
        "assert run_suite('lemma-lm1').ok\n"
        "g = join(complete(2), path(40))\n"
        "for spec in ('C4', 'B1x5', 'B2x3', 'M2', 'M30'):\n"
        "    is_free(g, ForbiddenSpec.parse(spec))\n"
        "assert 'networkx' not in sys.modules\n"
        "assert not is_planar(complete(5)).planar\n"
    )
    assert "'networkx'" in _modules_after(code, "networkx")


def test_solvers_leave_recognition_and_networkx_unimported():
    # spectral.py holds only the solvers; the claim checks that need
    # outerplanarity, and with it networkx, live in experiments.py
    code = (
        "from spexlab.constructions import PathPartition\n"
        "from spexlab.graph import join, complete, path\n"
        "from spexlab.spectral import joined_paths_radius, spectral_radius\n"
        "spectral_radius(join(complete(1), path(9)))\n"
        "joined_paths_radius(2, PathPartition([5, 3, 1]))\n"
    )
    assert _modules_after(code, "networkx spexlab.recognition") == "[]"


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, -math.inf])
def test_tol_must_be_finite_and_positive(tol):
    # a NaN tol fails every `res > tol` test, so any iterate would count as
    # certified; an infinite one stops before the first step
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        spectral_radius(cycle(5), tol)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        joined_paths_radius(1, PathPartition([4, 2]), tol)


def test_convergence_error_carries_best():
    with pytest.raises(ConvergenceError) as err:
        spectral_radius(path(300), tol=1e-12, max_iterations=3)
    assert isinstance(err.value.best, SpectralEstimate)
    assert 0 < err.value.best.rho < 2.0


# spectral_radius outputs pinned bit for bit: rho.hex(), residual.hex(),
# iterations, path and the SHA-256 of perron.tobytes(). The families at
# n = 2000 take the float64 path at 1e-10; at 1e-13 their float64 rounding
# bound exceeds tol / 2, so they go straight to the longdouble
# Rayleigh-Ritz solve, as do the unions' hub components at 1e-13 and every
# atlas graph at 1e-16. The atlas graphs mostly end on the longdouble floor
# above tol (read from ConvergenceError.best).
def golden_graph(name: str) -> Graph:
    if name.startswith("atlas-"):
        G = nx.graph_atlas(int(name[len("atlas-"):]))
        return from_edges(G.number_of_nodes(), G.edges())
    if name == "union":
        return disjoint_union(
            [cycle(7), complete(1), join(complete(1), path(30)), complete(5), path(9)]
        )
    if name == "union-k2hp":
        hub2 = construct(FamilySpec("k2hp", 300, t=3, l=5))
        return disjoint_union([path(9), empty_graph(2), hub2, cycle(7)])
    params = {"star": {}, "k1hop": {"t": 2, "l": 5}, "k2hp": {"t": 3, "l": 5}}[name]
    return construct(FamilySpec(name, 2000, **params))


GOLDEN = [
    ('star', 1e-10, '0x1.65ae71b46e8aap+5', '0x1.9ec23b7852cdep-34', 614, 'power',
     '827694151e6396aeead9b9f2d26b72c14a93154c1c769a78c56a3e84671de0de'),
    ('star', 1e-13, '0x1.65ae71b46e82ep+5', '0x1.1b12928a3b5f1p-46', 1, 'polish',
     'ae26c4662a276725cc40cc85db860c329774dff198fea93db2bfe717b323948f'),
    ('k1hop', 1e-10, '0x1.6b144c1194005p+5', '0x1.b4717ad0ace04p-34', 368, 'power',
     'f1ca92384fb61844927ed0588def801977010be5e913e8c0c82689d3fc31f409'),
    ('k1hop', 1e-13, '0x1.6b144c1193f84p+5', '0x1.435a709898d76p-45', 12, 'polish',
     'dcdaead44b7214a5b7f1b6781dcbe55720f2e050ee1be20268fb9544247c5903'),
    ('k2hp', 1e-10, '0x1.018833792b0eap+6', '0x1.a4ac98b35b665p-34', 405, 'power',
     'd2720f65e86cbd5423e2d4cf16014512c3595a75f7a855a3e5fbb80ae3362625'),
    ('k2hp', 1e-13, '0x1.018833792b0b9p+6', '0x1.3b765f1e379a0p-45', 10, 'polish',
     'd26a13e17b5a68a1ff5d1981e15b6f2e69607dd4cc046ef1eccef21a87fa929e'),
    ('union', 1e-13, '0x1.a231615d7831ap+2', '0x1.8fbe8d9e6e774p-45', 124, 'polish',
     '91bc12bfbc9c5ff5bba3e38cc251c3848ad5247df09768deba46646b874c7205'),
    ('union', 1e-10, '0x1.a231615d78319p+2', '0x1.edd331ce57481p-35', 108, 'power',
     'fc77dc6fdd0356ab0a4bdfc3a31d90d2e5542cf64888a3c82624beb617bffe71'),
    ('union-k2hp', 1e-13, '0x1.996cd9cd2a14fp+4', '0x1.ba729d769e9f7p-46', 114, 'polish',
     'a4005a5ff9f6c99f1d9fcb51d86e90a406e56ac3f47a969a9e9efac078adc252'),
    ('atlas-60', 1e-16, '0x1.6a09e667f3bcdp+0', '0x1.bf15db1140fe7p-53', 1, 'polish',
     '4a0833f09d00996094307ac89ca11dada6dd68926aac86075bb6592d625fc94f'),
    ('atlas-120', 1e-16, '0x1.5a50aa7723b1bp+1', '0x1.5295496e875f7p-53', 44, 'polish',
     '0e800c34dac945f916ce27afc202d896cb32b8fa53c5766fef9cc6a9af85ab95'),
    ('atlas-180', 1e-16, '0x1.cbdaccc4182f8p+1', '0x1.979353dd2e5dcp-53', 9, 'polish',
     '2f6371d7d7403f2a48fda6b2e7d67387e4e3d3879c356a9a3f9656ec2f8c4f02'),
    ('atlas-240', 1e-16, '0x1.cd4bca9cb5c71p+0', '0x1.19e9f193f7dc5p-53', 29, 'polish',
     '4c624d1677ea26f82463be13909f69ece89a191e437b846cfbc34d4a37ab31e7'),
    ('atlas-300', 1e-16, '0x1.5ac988f451f30p+1', '0x1.0e3dc633de417p-53', 9, 'polish',
     'ebee380e905845beaa3e32c7e1ce3cf627e66a02ea03245bfc065412db89c5e4'),
    ('atlas-360', 1e-16, '0x1.8599344fc75e3p+1', '0x1.a49153fe48a1ap-53', 26, 'polish',
     '4f99e9edd07dcefd9c4720490f40727ece1debc8aea4820bdccb2f5df932c769'),
    ('atlas-420', 1e-16, '0x1.5db3d742c2655p+1', '0x1.76451c4b7a03ep-52', 45, 'polish',
     '64202f0948f22fe5965fd5da3d1e0c4388a0f9fd5cce6f677de39ad3ebbda9db'),
    ('atlas-480', 1e-16, '0x1.92888a323002cp+1', '0x1.25c1f7c79f383p-52', 40, 'polish',
     '9302b1521e7588270195f0547b596e1260d982d74431f03e5951feea61d1cd48'),
    ('atlas-540', 1e-16, '0x1.6c3c4f3e57785p+1', '0x1.188399e32a68bp-52', 52, 'polish',
     'a5149ea98dd315d3cc8a9308ab1ebe8bb3f9eaff00cb096497976480c38593e9'),
    ('atlas-600', 1e-16, '0x1.bac8958296d6ap+1', '0x1.1b0ae4da9cb8ep-52', 33, 'polish',
     'a629fe6196506acb9adccfb6466be5ac80d18d09248c60022b32495b9e4f386d'),
    ('atlas-660', 1e-16, '0x1.9c9616659ef9ep+1', '0x1.56976fd62e74ep-53', 46, 'polish',
     '4864c95d7159325951de4ca3a1238d09742dea8f57c802fc8eb23ef36cdd992d'),
    ('atlas-720', 1e-16, '0x1.7ccfe7374eba7p+1', '0x1.8b7c8413241fcp-52', 58, 'polish',
     'f4fdbe5c482f04050c90658a552be6870d7aa5fbfb57c8d26214a682932bfc4a'),
    ('atlas-780', 1e-16, '0x1.bb1391ab68bb4p+1', '0x1.01e4fa498016dp-53', 37, 'polish',
     'f2cfcfa8a72b4677a77a4b74dd0c92eaa76ccf5bfc55dae6c196c1cd2b39707a'),
    ('atlas-840', 1e-16, '0x1.ad4b2578f680ap+1', '0x1.4115364f43b58p-53', 19, 'polish',
     'cc37e9998f150e2372d709ee465d4ae9e2f58021e29075d03b1f40806d213ec6'),
    ('atlas-900', 1e-16, '0x1.f4c665a9c487cp+1', '0x1.b087c4d5ac921p-53', 35, 'polish',
     'ad09b77b7f530e793088e670bbeffeb0ea4b39045dbfa6a3950db52187564ff9'),
    ('atlas-960', 1e-16, '0x1.cc2e3c5eb32d5p+1', '0x1.6cc9d47bf15a0p-52', 37, 'polish',
     '60b829c6d3be1f46932078da8f534a5e95ef16d11bfa271f9c9622be3b1059f7'),
    ('atlas-1020', 1e-16, '0x1.072c12ff6ed16p+2', '0x1.04215eb4fece9p-51', 28, 'polish',
     'af00b78b6f94ce9f8bddebb951fffc340c179332f7eded315e0bf968de62829f'),
    ('atlas-1080', 1e-16, '0x1.f569a09eb532ap+1', '0x1.557fd6272b1f2p-53', 9, 'polish',
     '6d74c563c3d82709bb3644b37aec659bf65a72d1d36bd74acc80126b1b55ee9a'),
    ('atlas-1140', 1e-16, '0x1.0df6c55bcd693p+2', '0x1.1d291e7d81e92p-51', 13, 'polish',
     '33468ff1659ece09f5ee2d57cd0bf95928b482e53c0cb194fa11f9c01c54253e'),
    ('atlas-1200', 1e-16, '0x1.18aee7e07347cp+2', '0x1.f1cdff96e7596p-52', 29, 'polish',
     'f0c0683ae7f5e4861f3c90b91e6090f39f0f239da8c122c8513cfb6a0a9bace4'),
]


@pytest.mark.parametrize(
    "name,tol,rho,residual,iterations,path_used,perron_sha256",
    GOLDEN,
    ids=[f"{case[0]}-{case[1]:g}" for case in GOLDEN],
)
def test_pinned_outputs(name, tol, rho, residual, iterations, path_used, perron_sha256):
    try:
        est, raised = spectral_radius(golden_graph(name), tol), False
    except ConvergenceError as e:
        est, raised = e.best, True
    assert raised == (est.residual > tol)
    assert est.rho.hex() == rho
    assert est.residual.hex() == residual
    assert est.iterations == iterations
    assert est.path == path_used
    assert hashlib.sha256(est.perron.tobytes()).hexdigest() == perron_sha256


def test_default_tol_keeps_small_graphs_on_the_float64_path():
    # search scores every graph at the default tol; its byte-identical
    # reports rest on these staying on the float64 path
    graphs = [from_edges(G.number_of_nodes(), G.edges()) for G in nx.graph_atlas_g()[1:]]
    rnd = random.Random(16)
    graphs += [random_graph(rnd, rnd.randint(2, 16), rnd.random()) for _ in range(300)]
    graphs += [complete(16), star(16), join(complete(2), path(14))]
    for g in graphs:
        assert spectral_radius(g).path == "power", g


@pytest.mark.parametrize(
    "name,params,hubs",
    [("star", {}, 1), ("k1hop", {"t": 2, "l": 5}, 1), ("k2hp", {"t": 3, "l": 5}, 2)],
)
def test_hub_joins_at_scale_take_the_longdouble_solve(name, params, hubs):
    spec = FamilySpec(name, 10**4, **params)
    g = construct(spec)
    deg = np.diff(adjacency_csr(g)[0])
    delta, m = g.n - 1, g.edge_count()
    k = (delta + 2) * 2.0**-53
    floor = k / (1 - k) * 2 * min(delta, math.sqrt(2 * m - g.n + 1))
    assert spectral._float64_floor(deg) == floor > spectral.DEFAULT_TOL / 2
    est = spectral_radius(g)
    assert est.path == "polish" and est.iterations <= 50
    assert est.residual <= spectral.DEFAULT_TOL
    quo = joined_paths_radius(hubs, family_partition(spec), 1e-13)
    assert abs(est.rho - quo.rho) <= est.residual + quo.residual


def test_longdouble_route_is_capped_by_max_iterations():
    # it replaces the float64 loop, so it shares that loop's cap
    big = construct(FamilySpec("k1hop", 2000, t=2, l=5))
    est = spectral_radius(big, tol=1e-13)
    assert est.path == "polish" and est.iterations > 2
    with pytest.raises(ConvergenceError) as err:
        spectral_radius(big, tol=1e-13, max_iterations=2)
    assert err.value.best.iterations == 2


def test_polish_floor_above_tol_raises():
    # the longdouble floor of K3 sits near 1e-18, so tol 1e-20 cannot be met
    with pytest.raises(ConvergenceError) as err:
        spectral_radius(complete(3), tol=1e-20)
    best = err.value.best
    assert best.path == "polish" and best.residual > 1e-20
    assert abs(best.rho - 2.0) <= best.residual


def test_strict_compare():
    def est(rho, res):
        return SpectralEstimate(rho, res, 1, np.ones(1), np.ones(1))

    assert strict_compare(est(2.0, 1e-3), est(1.0, 1e-3)) == "greater"
    assert strict_compare(est(1.0, 1e-3), est(2.0, 1e-3)) == "less"
    assert strict_compare(est(1.0, 1e-3), est(1.001, 1e-3)) == "indeterminate"


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
    worst, rho = eigenvector_box(hubs, h)
    quo = joined_paths_radius(hubs, h)
    passed, ref_worst, ref_rho, residual = reference_box(joined_paths(hubs, h), hubs)
    assert (worst <= BOX_EPS) == passed
    assert rho == quo.rho and abs(rho - ref_rho) <= quo.residual + residual
    assert abs(worst - ref_worst) <= 1e-12


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
    # at 1e-13 these two take the longdouble route, whose certificate
    # covers the rounding of rho; the float64 path would leave rho outside
    # its own residual, by up to 7.7e-13 at n = 3000
    (2, (600,)),
    (1, (2999,)),
]
# the float64 path stops on a residual that does not cover the rounding of
# its float64 Rayleigh quotient; on these its rho sits outside its own
# residual
GENERIC_ROUNDING_DEFECTS = [
    (1, (2,)),  # K_3 as K1 v P2
    (2, (1,)),  # K_3 as K2 v P1
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


def reference_quotient_radius(hubs: int, h: PathPartition):
    """The quotient solver ``joined_paths_radius`` used before its secular
    equation: a dense float64 ``eigh`` of the symmetrized quotient
    D^1/2 Q D^-1/2 (D = diag of the cell sizes), then shifted steps with
    the exact integer Q in longdouble, keeping the step of least residual.
    Returns rho and the unit Perron vector."""
    sizes = Counter(h.parts)
    lengths = list(sizes)
    cells = np.array([hubs] + [sizes[L] for L in lengths for _ in range(L)])
    link = np.ones(max(len(cells) - 2, 0))  # 1 between positions of one path
    link[np.cumsum(lengths[:-1], dtype=np.intp) - 1] = 0

    def apply_q(y):
        qy = np.empty_like(y)
        qy[0] = (hubs - 1) * y[0] + (cells[1:] * y[1:]).sum()
        qy[1:] = hubs * y[0]
        qy[2:] += link * y[1:-1]
        qy[1:-1] += link * y[2:]
        return qy

    top = len(cells) - 1
    sym = np.zeros((top + 1, top + 1))
    sym[0, 0] = hubs - 1
    sym[0, 1:] = sym[1:, 0] = np.sqrt(hubs * cells[1:])
    k = np.arange(1, top)
    sym[k, k + 1] = sym[k + 1, k] = link
    w, v = np.linalg.eigh(sym)
    shift = np.longdouble(w[-1])
    cl = cells.astype(np.longdouble)
    link = link.astype(np.longdouble)
    y = (np.abs(v[:, -1]) / np.sqrt(cells)).astype(np.longdouble)
    best = None
    for _ in range(51):
        qy = apply_q(y)
        norm2 = (cl * y * y).sum()
        rho = (cl * y * qy).sum() / norm2
        res2 = (cl * (qy - rho * y) ** 2).sum() / norm2
        if best is not None and res2 >= best[0]:
            break
        best = (res2, rho, y)
        if res2 == 0:
            break
        y = qy + shift * y
        y /= y.max()
    _, rho, y = best
    starts = np.cumsum([1] + lengths[:-1], dtype=np.intp)
    vertex_cell = np.concatenate(
        [np.zeros(hubs, dtype=np.intp)]
        + [np.tile(np.arange(s, s + L), sizes[L]) for s, L in zip(starts, lengths)]
    )
    perron, _ = spectral._normalized(np.asarray(y, dtype=float)[vertex_cell])
    return float(rho), perron


def _reference_grid():
    rnd = random.Random(15)
    for _ in range(1000):
        parts = [rnd.randint(1, 120) for _ in range(rnd.randint(0, 6))]
        yield rnd.choice((1, 2)), PathPartition(parts + [1] * rnd.choice((0, 5, 100, 2000)))
    for kind, hubs in (("k1hop", 1), ("k2hp", 2)):
        for t in (2, 3):
            for l in (4, 5):
                for n in (100, 2000, 10**5, 10**6):
                    yield hubs, family_partition(FamilySpec(kind, n, t=t, l=l))


def exact_secular(hubs: int, h: PathPartition, lam: Fraction) -> Fraction:
    """F(lam) = lam - (hubs - 1) - hubs sum_L m_L 1'(lam I - A(P_L))^-1 1 in
    exact arithmetic, by the Thomas sweep; lam must lie above every path
    eigenvalue, where F is increasing with its one root at rho."""
    total = Fraction(0)
    for length, m in Counter(h.parts).items():
        piv, z, p, g = [], [], None, Fraction(0)
        for _ in range(length):
            p = lam if p is None else lam - 1 / p
            g = (1 + g) / p
            piv.append(p)
            z.append(g)
        for i in range(length - 2, -1, -1):
            z[i] += z[i + 1] / piv[i]
        total += m * sum(z)
    return lam - (hubs - 1) - hubs * total


# [DERIVED] the grid cases whose float64 rho differs from the reference's,
# as (secular solver, reference); exact_secular shows the first is the
# float64 nearest to rho and the reference one ulp off
ROUNDED_DIFFERENTLY = {
    (1, (79, 70, 26) + (1,) * 2000): ("0x1.75c10c66bdee2p+5", "0x1.75c10c66bdee1p+5"),
}


def test_secular_solver_matches_reference():
    cases = 0
    for hubs, h in _reference_grid():
        est = joined_paths_radius(hubs, h)
        rho, perron = reference_quotient_radius(hubs, h)
        expected = ROUNDED_DIFFERENTLY.get((hubs, h.parts), (rho.hex(), rho.hex()))
        assert (est.rho.hex(), rho.hex()) == expected, (hubs, str(h))
        if est.rho != rho:  # rho lies within half an ulp of est.rho
            half = Fraction(abs(est.rho - rho)) / 2
            assert exact_secular(hubs, h, Fraction(est.rho) - half) < 0
            assert exact_secular(hubs, h, Fraction(est.rho) + half) > 0
        assert np.abs(est.perron - perron).max() <= 1e-14, (hubs, str(h))
        assert est.iterations <= 10, (hubs, str(h))
        cases += 1
    assert cases == 1032


def test_secular_solver_is_linear_in_the_path_length():
    tracemalloc.start()
    try:
        joined_paths_radius(1, PathPartition([5000]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20  # the dense quotient alone holds 5001^2 float64s, 200 MB
    h = PathPartition([20000])
    est = joined_paths_radius(1, h)
    ref = float(spla.eigsh(scipy_csr(joined_paths(1, h)), k=1, which="LA")[0][0])
    assert abs(est.rho - ref) <= 1e-12 * ref
