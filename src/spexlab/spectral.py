"""Certified spectral-radius estimates and strict comparisons of them.

``spectral_radius`` picks one of two routes for each connected component
before iterating. B = gamma_(Delta+2) * 2 rho_ub (``_float64_floor``)
bounds the float64 rounding of the power path's residual; Delta is the
component's largest degree and rho_ub = min(Delta, sqrt(2m - n + 1)).
When B <= tol / 2, shifted power iteration (A + I, degree-vector start)
runs in float64. When B > tol / 2, float64 cannot certify tol, so the
component goes straight to the longdouble solve ``_polish``: Rayleigh-Ritz
steps on span{x, A x - rho x} from the degree vector, certified in
longdouble. The same solve takes over when a float64 run stalls above
tol. At the default tol every graph on up to 16 vertices takes the float64
route; hub joins with thousands of vertices, and strict tols, take the
longdouble one.

``residual`` is ||A x - rho x||_2 for the unit vector x returned; for a
symmetric matrix some eigenvalue lies within residual of rho. That it is
the spectral radius rests on a convergence argument (positive iterates
tend to the Perron branch), not a proof, so the upper side is not yet
rigorous (ROADMAP item 1). Strict comparisons must clear the sum of both
residuals or they are reported indeterminate.

Hub-joined path families K_h v (disjoint paths) have an equitable
partition, so ``joined_paths_radius`` solves their secular equation, one
tridiagonal sweep per distinct path length, instead of iterating.

Both solvers take any finite positive tol. The paper's claims are checked
from their estimates in ``experiments``, beside the suites that run them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .constructions import PathPartition
from .graph import Graph, components_of

DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 10**6


@dataclass
class SpectralEstimate:
    """``path`` names the solver that produced the estimate: "power"
    (float64 power iteration only), "polish" (the longdouble Rayleigh-Ritz
    solve: straight from the degree vector when the float64 rounding bound
    B exceeds tol / 2, or after a float64 run that stalled above tol) or
    "quotient" (``joined_paths_radius``). ``iterations`` counts float64
    power steps plus Rayleigh-Ritz steps, summed over the components; on
    "quotient", Newton steps."""

    rho: float
    residual: float
    iterations: int
    perron: np.ndarray
    perron_max: np.ndarray
    path: str = "power"


class ConvergenceError(RuntimeError):
    """Iteration cap hit; ``best`` carries the last estimate."""

    def __init__(self, message: str, best: SpectralEstimate):
        super().__init__(message)
        self.best = best


def adjacency_csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the adjacency matrix of g in CSR form, read
    from ``Graph.adjacency``: ascending columns in every row, and no data
    array, since every entry is 1."""
    return _csr(g.adjacency())


def _csr(adj: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """indptr from the lengths of the neighbour lists ``adj``, indices
    their concatenation."""
    n = len(adj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, adj), dtype=np.int64, count=n), out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=indptr[-1])
    return indptr, indices


def _product(a: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """A x in the dtype of x; ``a`` holds the row and the column of each
    entry, in CSR order. ``np.add.at`` adds in index order, so each row is
    summed from 0 in ascending column order like a CSR product; the pairwise
    sums of ``np.add.reduceat`` or a dense ``@`` would move the last bits."""
    rows, cols = a
    y = np.zeros_like(x)
    np.add.at(y, rows, x[cols])
    return y


def spectral_radius(
    g: Graph, tol: float = DEFAULT_TOL, max_iterations: int = MAX_ITERATIONS
) -> SpectralEstimate:
    """Spectral radius of the adjacency matrix with a residual certificate.

    Disconnected graphs score as the max over components; the returned
    Perron vector is supported on the winning component (entrywise
    positive there, zero elsewhere). Raises ``ConvergenceError`` when the
    iteration cap is hit or the winning component's residual ends above
    tol (its polish stalled at the longdouble floor).
    """
    if g.n == 0:
        raise ValueError("spectral radius undefined for the empty graph")
    if not 0 < tol < math.inf:  # NaN fails too: it would certify any iterate
        raise ValueError(f"tol must be finite and positive, got {tol}")
    adj = g.adjacency()
    comps = components_of(adj)
    best: tuple[float, float, list[int], np.ndarray, str] | None = None
    total_iters = 0
    failure: str | None = None
    for comp in comps:
        if len(comp) == 1:
            rho_c, res_c, x_c, iters, path_c = 0.0, 0.0, np.ones(1), 0, "power"
        else:
            sub = adj
            if len(comp) < g.n:  # relabel by position; comp is sorted, so rows stay ascending
                pos = {v: i for i, v in enumerate(comp)}
                sub = [[pos[w] for w in adj[v]] for v in comp]
            rho_c, res_c, x_c, iters, converged, path_c = _power_iterate(
                sub, tol, max_iterations - total_iters
            )
            if not converged and total_iters + iters >= max_iterations:
                failure = f"iteration cap {max_iterations} hit"
        total_iters += iters
        if best is None or rho_c > best[0]:
            best = (rho_c, res_c, comp, x_c, path_c)
        if failure:
            break
    assert best is not None
    rho, res, comp, x_c, path_used = best
    if failure is None and res > tol:
        failure = f"residual {res:.3g} above tol {tol:g} after the polish"
    perron = np.zeros(g.n)
    perron[comp] = x_c
    perron, perron_max = _normalized(perron)
    est = SpectralEstimate(rho, res, total_iters, perron, perron_max, path_used)
    if failure:
        raise ConvergenceError(failure, est)
    return est


def _power_iterate(adj: list[list[int]], tol: float, budget: int):
    """rho, residual, unit Perron vector, steps, whether it converged, and
    the path of one connected component (n >= 2) with neighbour lists
    ``adj``, by the route the module docstring describes. The longdouble
    route gets the whole budget, like the float64 loop it replaces. That
    loop stops at residual <= tol, or at the float64 rounding floor: when
    the residual has not improved for 200 iterations the best iterate is
    taken (its residual is still a sound certificate), and if it sits above
    tol, ``_polish`` continues from it with what is left of the budget.
    """
    indptr, cols = _csr(adj)
    deg = np.diff(indptr)
    a = np.repeat(np.arange(len(deg)), deg), cols  # row and column of each entry
    x = deg / np.linalg.norm(deg)
    if _float64_floor(deg) > tol / 2:
        rho, res, x, iters = _polish(a, x, tol, budget)
        return rho, res, x, iters, res <= tol, "polish"
    best = (math.inf, 0.0, x)  # residual, rho, iterate
    since_improvement = 0
    iters = 0
    while iters < budget:
        ax = _product(a, x)
        rho = float(x @ ax)
        res = float(np.linalg.norm(ax - rho * x))
        if res < best[0]:
            best = (res, rho, x)
            since_improvement = 0
        else:
            since_improvement += 1
        if res <= tol or since_improvement >= 200:
            res, rho, x = best
            if res > tol:
                rho, res, x, extra = _polish(a, x, tol, budget - iters)
                return rho, res, x, iters + extra, res <= tol, "polish"
            return rho, res, np.abs(x), iters, True, "power"
        y = ax + x  # shift by +I keeps the top eigenvalue dominant
        x = y / np.linalg.norm(y)
        iters += 1
    res, rho, x = best
    return rho, res, np.abs(x), iters, res <= tol, "power"


def _float64_floor(deg: np.ndarray) -> float:
    """B = gamma_(Delta+2) * 2 rho_ub, a bound on the float64 rounding of
    the power path's residual vector A x - rho x at a unit nonnegative
    iterate x of a connected graph with degree sequence ``deg``.

    gamma_k = k u / (1 - k u) with u = 2^-53 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 3.1). Row i of A x sums at most
    Delta nonnegative terms, so its computed value is off by at most
    gamma_Delta (A x)_i; the product rho x_i adds u rho x_i and the
    subtraction one more rounding, so entry i of the computed residual is
    off by at most gamma_(Delta+2) ((A x)_i + rho x_i). In 2-norm that is
    at most gamma_(Delta+2) (||A x|| + rho) <= gamma_(Delta+2) 2 lambda_max,
    and lambda_max <= rho_ub = min(Delta, sqrt(2m - n + 1)) for a connected
    graph on n vertices and m edges (Hong's bound). When B > tol / 2 the
    rounding alone can cover half of tol, so float64 cannot certify it.
    """
    delta = int(deg.max())
    rho_ub = min(delta, math.sqrt(int(deg.sum()) - len(deg) + 1))
    k = (delta + 2) * 2.0**-53
    return k / (1 - k) * 2 * rho_ub


def _normalized(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x scaled to unit 2-norm, and to maximum entry 1."""
    norm = float(np.linalg.norm(x))
    x = x / norm if norm else x
    top = float(x.max())
    return x, (x / top if top else x)


def _rounding_slack(rho, terms: int) -> tuple[float, float]:
    """float64 rho, and what a residual summed in longdouble must add to
    bound |lambda - rho64| rather than |lambda - rho|: the distance rho
    moved when rounded to float64, plus (terms + 2) longdouble ulps of rho
    for the rounding of (A x)_i - rho x_i when the row sums (A x)_i have
    up to ``terms`` positive entries."""
    rho64 = float(rho)
    ulps = (terms + 2) * np.finfo(np.longdouble).eps * abs(rho)
    return rho64, float(abs(rho - np.longdouble(rho64)) + ulps)


def _longdouble_certificate(a: tuple[np.ndarray, np.ndarray], x: np.ndarray):
    """rho and ||Ax - rho x|| / ||x|| for a float64 x, summed in longdouble;
    ``a`` is the adjacency matrix as ``_product`` takes it.

    The adjacency matrix is exactly representable, so the only rounding in
    the certificate is the longdouble accumulation (~1e-19 relative). Each
    (A x)_i is summed by ``_product`` in ascending column order;
    the inner products use ``.sum()``, since numpy's ``@`` on dense
    longdouble arrays loses that precision at n in the thousands. The
    bound |lambda_max - rho| <= residual then holds for the vector x as
    returned, independent of how x was produced. The residual includes
    that accumulation and the rounding of rho to float64, so the bound
    holds for the float64 rho that is returned.
    """
    xl = x.astype(np.longdouble)
    ax = _product(a, xl)
    nrm2 = (xl * xl).sum()
    rho = (xl * ax).sum() / nrm2
    rho64, slack = _rounding_slack(rho, int(np.bincount(a[0]).max()))
    res = math.sqrt(float(((ax - rho * xl) ** 2).sum() / nrm2))
    return rho64, res + slack


def _polish(a: tuple[np.ndarray, np.ndarray], x: np.ndarray, tol: float, budget: int):
    """Rayleigh-Ritz ascent in longdouble from x: rho, its certificate,
    the certified unit Perron vector and the number of steps.

    With rho = x'Ax for the unit iterate x and r = A x - rho x, each step
    replaces x by the larger Ritz vector of span{x, p}, p = r / ||r||. In
    that orthonormal basis A projects to [[rho, ||r||], [||r||, p'Ap]],
    whose larger eigenvalue theta exceeds rho by ||r||^2 / (h + sqrt(h^2
    + ||r||^2)), h = (rho - p'Ap) / 2, a form without cancellation (for
    h < 0 it is sqrt(h^2 + ||r||^2) - h); its eigenvector is x + tau p
    with tau = (theta - rho) / ||r||. This is steepest ascent of the
    Rayleigh quotient with an exact line search (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 11). Unlike the shifted power step it clears
    an eigenvalue near -rho as fast as the rest of the spectrum, so a hub
    join takes a handful of steps where the power step takes hundreds.

    A x is carried along as the same combination, so a step costs one
    product, A p, by ``_product`` in longdouble (rows summed in ascending
    column order); inner products and norms use ``.sum()``, not numpy's
    ``@`` on dense longdouble arrays. The loop stops at residual <= tol / 2,
    after 50 steps without improvement (the longdouble floor), or after
    ``budget`` steps. The iterate of least residual is rounded to float64,
    taken entrywise absolute and certified by ``_longdouble_certificate``,
    so the certificate holds for the vector returned.
    """
    xl = x.astype(np.longdouble)
    xl /= np.sqrt((xl * xl).sum())
    ax = _product(a, xl)
    best = (np.inf, xl)
    since_improvement = 0
    iters = 0
    while True:
        rho = (xl * ax).sum()
        r = ax - rho * xl
        res = np.sqrt((r * r).sum())
        if res < best[0]:
            best = (res, xl)
            since_improvement = 0
        else:
            since_improvement += 1
        if res <= tol * 0.5 or since_improvement >= 50 or iters >= budget:
            break
        p = r / res
        ap = _product(a, p)
        h = (rho - (p * ap).sum()) / 2
        root = np.sqrt(h * h + res * res)
        tau = res / (h + root) if h > 0 else (root - h) / res  # (theta - rho) / ||r||
        y = xl + tau * p
        scale = 1 / np.sqrt((y * y).sum())
        xl, ax = y * scale, (ax + tau * ap) * scale
        iters += 1
    x64 = np.abs(np.asarray(best[1], dtype=float))
    x64 /= np.linalg.norm(x64)
    rho, res = _longdouble_certificate(a, x64)
    return rho, res, x64, iters


_QUOTIENT_STEPS = 50


def _path_resolvent(L: int, lam) -> np.ndarray:
    """z = (lam I - A(P_L))^-1 1 in longdouble, for lam above the spectrum
    of the path P_L, by one Thomas sweep: the forward elimination keeps
    the pivots p_i = lam - 1/p_(i-1), all positive there, and the back
    substitution runs from the far end."""
    piv = np.empty(L, dtype=np.longdouble)
    z = np.empty(L, dtype=np.longdouble)
    p, g = np.inf, np.longdouble(0)
    for i in range(L):
        p = lam - 1 / p
        g = (1 + g) / p
        piv[i], z[i] = p, g
    for i in range(L - 2, -1, -1):
        z[i] += z[i + 1] / piv[i]
    return z


def joined_paths_radius(
    hubs: int, h: PathPartition, tol: float = DEFAULT_TOL
) -> SpectralEstimate:
    """rho of ``joined_paths(hubs, h)`` from its secular equation, without
    building the graph.

    The hubs form one cell and each (path length, position) pair another,
    of size m_L, the number of parts of length L. This partition is
    equitable: A P = P Q for the cell indicator matrix P, and the Perron
    root of the quotient Q is rho(G) (Godsil & Royle, *Algebraic Graph
    Theory*, 9.3). With hub entries 1 a path of length L carries
    y_L = hubs z_L, z_L = (lam I - A(P_L))^-1 1 (``_path_resolvent``), so
    rho is the root above the path spectra of the Schur complement
    F(lam) = lam - (hubs - 1) - hubs sum_L m_L 1'z_L, where
    F' = 1 + hubs sum_L m_L z_L'z_L. F is increasing and concave there, so
    Newton steps from the star bound rho(K_hubs v (n - hubs) K_1), which
    lies below rho and above every path eigenvalue, climb monotonically;
    they stop when a step no longer raises lam, after at most
    ``_QUOTIENT_STEPS``. All of it runs in longdouble.

    rho is the Rayleigh quotient of y, and the certificate ||A x - rho x||
    / ||x|| of the lifted x = P y is sqrt(sum_k c_k ((Q y)_k - rho y_k)^2
    / sum_k c_k y_k^2) over the cells k of sizes c_k, summed once per
    distinct length, plus the longdouble and float64 rounding of rho. The
    Perron vectors are in the vertex order of ``joined_paths``: hubs, then
    ``h.parts`` in order, each path from one end to the other. Raises
    ``ConvergenceError`` when the residual cannot reach ``tol``.
    """
    if hubs not in (1, 2):
        raise ValueError("hubs must be 1 or 2")
    if not 0 < tol < math.inf:  # NaN fails too: it would certify any iterate
        raise ValueError(f"tol must be finite and positive, got {tol}")
    sizes = Counter(h.parts)  # distinct lengths, largest first
    q00 = np.longdouble(hubs - 1)  # Q[0, 0], the hub cell's own degree
    # rho(K_hubs v (n - hubs) K_1) >= sqrt(L) > 2 cos(pi / (L + 1)) for every part L
    lam = (q00 + np.sqrt(q00 * q00 + 4 * hubs * h.total)) / 2
    steps = 0
    while True:
        y = {L: hubs * _path_resolvent(L, lam) for L in sizes}
        to_hub = sum(m * y[L].sum() for L, m in sizes.items())
        sq = sum(m * (y[L] * y[L]).sum() for L, m in sizes.items())
        step = lam - (lam - q00 - to_hub) / (1 + sq / hubs)  # lam - F / F'
        if not step > lam or steps == _QUOTIENT_STEPS:
            break
        lam, steps = step, steps + 1
    qy = {L: hubs + np.convolve(yl, (1, 0, 1))[1:-1] for L, yl in y.items()}
    qy0 = q00 + to_hub
    norm2 = hubs + sq
    rho = (hubs * qy0 + sum(m * (y[L] * qy[L]).sum() for L, m in sizes.items())) / norm2
    res2 = (
        hubs * (qy0 - rho) ** 2
        + sum(m * ((qy[L] - rho * y[L]) ** 2).sum() for L, m in sizes.items())
    ) / norm2
    rho64, slack = _rounding_slack(rho, 1 + sum(sizes))
    residual = math.sqrt(float(res2)) + slack
    tiles = [np.tile(y[L].astype(float), m) for L, m in sizes.items()]
    perron, perron_max = _normalized(np.concatenate([np.ones(hubs)] + tiles))
    est = SpectralEstimate(rho64, residual, steps, perron, perron_max, "quotient")
    if residual > tol:
        raise ConvergenceError(
            f"quotient residual {residual:.3e} above tol {tol:.3e}", est
        )
    return est


def strict_compare(hi: SpectralEstimate, lo: SpectralEstimate) -> str:
    """'greater'/'less' only when the gap clears both residuals, else
    'indeterminate'."""
    gap = hi.rho - lo.rho
    combined = hi.residual + lo.residual
    if gap > combined:
        return "greater"
    if gap < -combined:
        return "less"
    return "indeterminate"

