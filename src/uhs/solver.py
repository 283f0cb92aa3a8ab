"""Numerical computation of the p-spectral radius and its certificates.

Three engines: a damped fixed-point iteration on the eigenequation for
p >= r, a batched multi-start projected-gradient ascent on the
nonnegative l^p sphere for 1 <= p < r, and the orbit-reduced weight
system.  The p < r critical points are polished on their support, and the
weight system is solved, by one Newton helper with analytic Jacobians.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._kernels import _leave_one_out, polynomial_sum, support_sums
from ._kernels import support_sums as batch_support_sums  # own name: perfbench times batch calls apart
from .core import UniformHypergraph, degrees, induced_subhypergraph
from .errors import ConvergenceError, PreconditionError
from .labeling import (
    Labeling,
    PVector,
    eigenvector_from_labeling,
    labeling_from_eigenvector,
    weight_only_residual,
)


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10
    max_iter: int = 100_000
    damping: float = 1.0
    restarts: int = 32
    seed: int = 0
    subgraph_limit: int = 20
    confirm_sub_r: bool = False

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise PreconditionError("tol must be positive")
        if not (0 < self.damping <= 1):
            raise PreconditionError("damping must lie in (0, 1]")
        if self.max_iter < 1:
            raise PreconditionError("max_iter must be at least 1")
        if self.restarts < 0:
            raise PreconditionError("restarts must be nonnegative")


@dataclass(frozen=True)
class SpectralResult:
    """lam = P(x) and its bracket [lam_lo, lam_hi] on lambda^(p).

    lam_hi is the concavity bound of P in x^p on the final iterate (at
    p = r the Collatz-Wielandt bound); it is set for p >= r when x > 0
    and is None otherwise.
    """

    lam: float
    x: PVector
    residual: float
    iterations: int
    converged: bool
    support: tuple[int, ...]
    lam_hi: float | None = None

    @property
    def lam_lo(self) -> float:
        return self.lam  # P(x) at a unit x never exceeds the maximum

    def to_json(self) -> str:
        payload = {
            "lambda": self.lam,
            "lambda_lo": self.lam_lo,
            "lambda_hi": self.lam_hi,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "x": self.x.values.tolist(),
            "support": list(self.support),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


@dataclass(frozen=True)
class CertificateSearchResult:
    S: tuple[int, ...]
    labeling: Labeling
    lam: float
    exhaustive: bool


def _norm_p(v: np.ndarray, p: float) -> float:
    return float(np.power(v, p).sum() ** (1.0 / p))


def polynomial_form(G: UniformHypergraph, x: np.ndarray) -> float:
    """P_G(x) = r * sum over edges of the vertex products (compensated sum)."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != G.n:
        raise PreconditionError("vector length does not match vertex count")
    _, prods = support_sums(x, G.edges_array, G.n)
    return G.r * float(polynomial_sum(prods))


def _residual(s: np.ndarray, x: np.ndarray, lam: float | np.ndarray, p: float):
    """Max eigen-equation deviation over the support, along the last axis.

    For a batch, pass lam as a (k, 1) column; returns a (k,) array.
    """
    return np.where(x > 0, np.abs(s - lam * np.power(x, p - 1.0)), 0.0).max(axis=-1)


def _empty_result(G: UniformHypergraph, p: float) -> SpectralResult:
    return SpectralResult(
        lam=0.0,
        x=PVector(values=np.zeros(G.n), p=p),
        residual=0.0,
        iterations=0,
        converged=True,
        support=(),
    )


def _solve_fixed_point(G: UniformHypergraph, p: float, opts: SolverOptions) -> SpectralResult:
    """Normalized fixed point x <- (s(x) / lam)^{1/(p-1)} on the unit l^p sphere.

    On bipartite-like inputs (odd paths at p = r) the undamped map keeps a
    -lam mode and falls into a 2-cycle.  The iteration shows it: successive
    steps point opposite ways for a few steps running while the residual
    does not fall over two steps.  Then the map is damped to theta = 1/2,
    which sends that mode to 0.
    """
    n, r = G.n, G.r
    edges = G.edges_array
    x = np.full(n, n ** (-1.0 / p))
    theta = opts.damping
    step = np.zeros(n)
    flips = 0
    res2 = res1 = np.inf  # residuals two steps and one step back
    for it in range(1, opts.max_iter + 1):
        s, prods = support_sums(x, edges, n)
        xq = x ** (p - 1.0)
        lam = r * float(prods.sum())
        res = float(np.abs(s - lam * xq).max())
        if res <= opts.tol or it == opts.max_iter:
            break  # s, prods and xq stay those of the returned x
        y = ((1.0 - theta) * xq + theta * s / lam) ** (1.0 / (p - 1.0))
        y /= _norm_p(y, p)
        prev, step = step, y - x
        flips = flips + 1 if float(step @ prev) < 0 else 0
        if theta > 0.5 and flips >= 3 and res >= res2:
            theta = 0.5
        res2, res1 = res1, res
        x = y
    # one compensated sum, on the final iterate
    lam = r * float(polynomial_sum(prods))
    res = float(np.abs(s - lam * xq).max())
    lam_hi = None
    if xq.min() > 0:
        # max s/xq >= P(x) on the unit sphere; rounding can put it an ulp below
        lam_hi = lam + (r / p) * max(float((s / xq).max()) - lam, 0.0)
    return SpectralResult(
        lam=lam,
        x=PVector(values=x, p=p),
        residual=res,
        iterations=it,
        converged=res <= opts.tol,
        support=tuple(np.flatnonzero(x > 0).tolist()),
        lam_hi=lam_hi,
    )


def _pga_starts(G: UniformHypergraph, p: float, opts: SolverOptions, rng) -> np.ndarray:
    """The all-ones vector, one indicator row per edge, then random restarts."""
    n = G.n
    indicators = np.zeros((G.m, n))
    indicators[np.arange(G.m)[:, None], G.edges_array] = 1.0
    X = np.vstack([np.ones((1, n)), indicators, rng.gamma(1.0, size=(opts.restarts, n))])
    X /= np.power(np.power(X, p).sum(axis=1), 1.0 / p)[:, None]
    return X


def _pga_best(
    G: UniformHypergraph, p: float, opts: SolverOptions, rng, max_iter: int = 20000
) -> SpectralResult:
    """Batched projected-gradient ascent of P_G on the nonnegative l^p sphere."""
    n, r = G.n, G.r
    edges = G.edges_array
    X = _pga_starts(G, p, opts, rng)
    k = X.shape[0]
    eta = np.full(k, 0.25)
    S, prods = batch_support_sums(X, edges, n)
    P = r * prods.sum(axis=1)
    it = 0
    cap = min(opts.max_iter, max_iter)
    window = 100
    P_window = P.copy()
    for it in range(1, cap + 1):
        res = _residual(S, X, P[:, None], p)
        done = (res <= opts.tol) | (eta <= 1e-15)
        if done.all():
            break
        if it % window == 0:
            # critical values stalled across the window: nothing left to gain
            if (P - P_window).max() < 1e-14:
                break
            P_window = P.copy()
        # ascent direction tangent to the l^p sphere (raw gradient plus
        # renormalization is not an ascent direction for P on the sphere)
        grad = r * S
        normal = np.power(X, p - 1.0)
        coef = (grad * normal).sum(axis=1) / np.maximum((normal * normal).sum(axis=1), 1e-300)
        grad = grad - coef[:, None] * normal
        Y = np.clip(X + eta[:, None] * grad, 0.0, None)
        nrm = np.power(np.power(Y, p).sum(axis=1), 1.0 / p)
        ok = nrm > 0
        Y[ok] /= nrm[ok, None]
        SY, prods = batch_support_sums(Y, edges, n)
        Pn = r * prods.sum(axis=1)
        accept = ok & (Pn >= P - 1e-15) & ~done
        X[accept] = Y[accept]
        S[accept] = SY[accept]
        P[accept] = Pn[accept]
        eta[accept] = np.minimum(eta[accept] * 1.1, 1.0)
        shrink = ~accept & ~done
        eta[shrink] *= 0.5
    res = _residual(S, X, P[:, None], p)
    best = int(np.argmax(P))
    x = X[best].copy()
    lam = float(P[best])
    residual = float(res[best])
    support = np.flatnonzero(x > 1e-9)
    if residual > opts.tol:
        polished = _polish_critical(G, x, lam, p, support, opts.tol)
        if polished is not None:
            x, lam, residual = polished
    return SpectralResult(
        lam=lam,
        x=PVector(values=x, p=p),
        residual=residual,
        iterations=it,
        converged=bool(residual <= opts.tol),
        support=tuple(np.flatnonzero(x > 1e-12).tolist()),
    )


def _newton(F, J, u: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Damped Newton iteration for F(u) = 0; returns the last accepted u.

    Each step solves J(u) du = -F(u) in the least-squares sense, so a
    singular Jacobian (a degenerate critical set) still gives a step.  The
    step is halved until ||F|| falls; the iteration stops when it never
    does, at max|F| <= tol, or after max_iter steps.  Callers check the
    answer themselves.
    """
    fu = F(u)
    norm = np.linalg.norm(fu)
    for _ in range(max_iter):
        if np.abs(fu).max() <= tol:
            break
        step = np.linalg.lstsq(J(u), -fu, rcond=None)[0]
        for t in 0.5 ** np.arange(40):
            # a trial may overflow; its non-finite norm fails the test below
            with np.errstate(over="ignore", invalid="ignore"):
                ft = F(u + t * step)
                nt = np.linalg.norm(ft)
            if nt <= (1 - 1e-4 * t) * norm:
                break
        else:
            break
        u, fu, norm = u + t * step, ft, nt
    return u


def _polish_critical(
    G: UniformHypergraph, x0: np.ndarray, lam0: float, p: float, support: np.ndarray, tol: float
):
    """Newton refinement of the eigensystem on a fixed support.

    Solves s_i(x) = lam * x_i^{p-1} on G[support] together with the unit
    l^p norm, in the unknowns (log x, lam), so x stays positive.  The
    Jacobian is exact: d s_i / d log x_j (j != i) is the sum, over edges
    holding both i and j, of the product of x over the edge without i.
    Returns None when the iteration drifts to a different critical value.
    """
    sub, vmap = induced_subhypergraph(G, support)
    edges, ns = sub.edges_array, sub.n
    a, b = np.nonzero(~np.eye(G.r, dtype=bool))  # ordered position pairs within an edge

    def F(u: np.ndarray) -> np.ndarray:
        x = np.exp(u[:ns])
        s, _ = support_sums(x, edges, ns)
        return np.append(s - u[ns] * np.power(x, p - 1.0), np.power(x, p).sum() - 1.0)

    def J(u: np.ndarray) -> np.ndarray:
        x = np.exp(u[:ns])
        xq = np.power(x, p - 1.0)
        out = np.zeros((ns + 1, ns + 1))
        np.add.at(out, (edges[:, a], edges[:, b]), _leave_one_out(x[edges])[:, a])
        out[np.arange(ns), np.arange(ns)] = -u[ns] * (p - 1.0) * xq
        out[:ns, ns] = -xq
        out[ns, :ns] = p * xq * x
        return out

    u = _newton(F, J, np.append(np.log(x0[vmap]), lam0), 0.01 * tol, 40)
    x = np.zeros(G.n)
    x[vmap] = np.exp(u[:ns])
    s, prods = support_sums(x, G.edges_array, G.n)
    lam = G.r * float(polynomial_sum(prods))
    residual = float(_residual(s, x, lam, p))
    if abs(lam - lam0) > 1e-4 * max(1.0, lam0):
        return None  # drifted to a different critical point
    return x, lam, residual


def solve_p_spectral(
    G: UniformHypergraph, p: float, opts: SolverOptions | None = None
) -> SpectralResult:
    """Compute lambda^(p)(G) and an eigenvector estimate.

    For p >= r: damped normalized fixed-point iteration on the
    eigenequation (unique positive eigenvector for p > r).  For
    1 <= p < r: multi-start projected gradient; maximizers may sit on the
    boundary, so the support is reported and convergence means the best
    restart satisfied the eigenequation residual on its support.
    """
    if p < 1:
        raise PreconditionError(f"p={p} must be >= 1")
    opts = opts or SolverOptions()
    if G.m == 0:
        return _empty_result(G, p)
    if p >= G.r:
        if p > G.r and degrees(G).delta == 0:
            raise PreconditionError(
                "p > r requires no isolated vertices (positive-eigenvector theorem)"
            )
        return _solve_fixed_point(G, p, opts)
    rng = np.random.default_rng(opts.seed)
    result = _pga_best(G, p, opts, rng)
    if opts.confirm_sub_r and G.n <= opts.subgraph_limit:
        cert = certificate_search_sub_r(G, p, opts)
        if cert.lam > result.lam:
            x = np.zeros(G.n)
            xs = eigenvector_from_labeling(induced_subhypergraph(G, cert.S)[0], cert.labeling)
            x[list(cert.S)] = xs.values
            result = replace(
                result,
                lam=cert.lam,
                x=PVector(values=x, p=p),
                support=cert.S,
            )
        if abs(cert.lam - result.lam) <= 1e-6 * max(1.0, result.lam):
            result = replace(result, converged=True)
    return result


def certificate_search_sub_r(
    G: UniformHypergraph, p: float, opts: SolverOptions | None = None
) -> CertificateSearchResult:
    """Induced-subgraph certificate search for 1 <= p < r.

    Candidate supports are unions of edge subsets (any admissible support
    must leave no isolated vertex in the induced sub-hypergraph).  Each
    candidate is optimized from interior starts; only strictly positive
    critical points are kept.  Ties in lambda break to the
    lexicographically smallest vertex set.
    """
    if not (1 <= p < G.r):
        raise PreconditionError(f"certificate search requires 1 <= p < r (got p={p}, r={G.r})")
    if G.m == 0:
        raise PreconditionError("hypergraph has no edges")
    opts = opts or SolverOptions()
    sub_opts = replace(opts, restarts=min(opts.restarts, 8))
    exhaustive = G.n <= opts.subgraph_limit
    if exhaustive:
        # every union of edges, as boolean vertex rows: fold in one edge at a time
        rows = np.zeros((G.m, G.n), dtype=bool)
        rows[np.arange(G.m)[:, None], G.edges_array] = True
        unions = np.zeros((1, G.n), dtype=bool)
        for row in rows:
            unions = np.unique(np.vstack([unions, unions | row]), axis=0)
        candidates = sorted(tuple(np.flatnonzero(u).tolist()) for u in unions if u.any())
    else:
        rng = np.random.default_rng(opts.seed)
        heur = _pga_best(G, p, opts, rng)
        candidates = [heur.support] if heur.support else []
    best: tuple[tuple[int, ...], Labeling, float] | None = None
    tie_tol = 1e-9
    for S in candidates:
        sub, vmap = induced_subhypergraph(G, S)
        if sub.m == 0 or degrees(sub).delta == 0:
            continue
        rng = np.random.default_rng(opts.seed)
        res = _pga_best(sub, p, sub_opts, rng, max_iter=5000)
        x = res.x.values
        if res.residual > max(opts.tol, 1e-9) * 100 or x.min() <= 1e-7 * x.max():
            continue
        lab = labeling_from_eigenvector(sub, res.x, res.lam)
        if best is None or res.lam > best[2] + tie_tol:
            best = (S, lab, res.lam)
        elif abs(res.lam - best[2]) <= tie_tol and S < best[0]:
            best = (S, lab, res.lam)
    if best is None:
        raise ConvergenceError(
            "no induced sub-hypergraph with a strictly positive critical point was found"
        )
    return CertificateSearchResult(S=best[0], labeling=best[1], lam=best[2], exhaustive=exhaustive)


def solve_weight_system(
    G: UniformHypergraph,
    orbits: Sequence[Sequence[int]],
    p: float,
    opts: SolverOptions | None = None,
) -> tuple[np.ndarray, float]:
    """Newton's method on the orbit-reduced weight system.

    Unknowns are one weight per edge orbit plus alpha (in log form for
    positivity): for a representative edge of each orbit,
    w_k^p / prod_{v in e_k} (sum of weights at v) = alpha, together with
    the normalization that all edge weights sum to 1.  The expanded
    weight vector is validated against the full per-edge system.
    """
    opts = opts or SolverOptions()
    if p <= G.r:
        raise PreconditionError(f"weight system requires p > r (got p={p}, r={G.r})")
    seen = sorted(k for cls in orbits for k in cls)
    if seen != list(range(G.m)):
        raise PreconditionError("orbits must partition the edge index set")
    korb = len(orbits)
    orbit_of = np.empty(G.m, dtype=np.int64)
    for k, cls in enumerate(orbits):
        orbit_of[list(cls)] = k
    edges = G.edges_array
    count = np.zeros((G.n, korb))  # count[v, j]: edges of orbit j holding v
    np.add.at(count, (edges, orbit_of[:, None]), 1.0)
    size = np.bincount(orbit_of, minlength=korb)
    rep = edges[[cls[0] for cls in orbits]]

    def F(u: np.ndarray) -> np.ndarray:
        wo = np.exp(u[:korb])
        out = p * u[:korb] - np.log((count @ wo)[rep]).sum(axis=1) - u[korb]
        return np.append(out, size @ wo - 1.0)

    def J(u: np.ndarray) -> np.ndarray:
        wo = np.exp(u[:korb])
        sums = count @ wo
        out = np.zeros((korb + 1, korb + 1))
        out[:korb, :korb] = p * np.eye(korb) - (count[rep] / sums[rep][..., None]).sum(axis=1) * wo
        out[:korb, korb] = -1.0
        out[korb, :korb] = size * wo
        return out

    u = np.zeros(korb + 1)
    u[:korb] = -np.log(G.m)
    u[korb] = F(u)[0]  # make the first orbit equation exact at the start
    u = _newton(F, J, u, 1e-13, 100)
    if np.abs(F(u)).max() > 1e-13:
        raise ConvergenceError("weight-system Newton did not converge")
    w_full = np.exp(u[:korb])[orbit_of]
    alpha = float(np.exp(u[korb]))
    check = weight_only_residual(G, w_full, alpha, p)
    if np.abs(check["per_edge"]).max() > max(opts.tol, 1e-9) or check["weight_sum"] > max(
        opts.tol, 1e-9
    ):
        raise ConvergenceError(
            "orbit-constant weights do not satisfy the full system for this hypergraph"
        )
    return w_full, alpha


def compose_components(lams: Sequence[float], p: float, r: int) -> float:
    """(sum lam_i^{p/(p-r)})^{(p-r)/p}; the p > r disjoint-union rule."""
    if p <= r:
        raise PreconditionError(
            f"component composition requires p > r (got p={p}, r={r}); "
            "use compose_components_max for 1 <= p <= r"
        )
    if any(l <= 0 for l in lams):
        raise PreconditionError("component values must be positive")
    q = p / (p - r)
    return float(sum(l**q for l in lams) ** (1.0 / q))


def compose_components_max(lams: Sequence[float]) -> float:
    """max_i lam_i; the disjoint-union rule for 1 <= p <= r."""
    return float(max(lams))


def solver_certificate(G: UniformHypergraph, result: SpectralResult) -> Labeling:
    """Labeling induced by a converged solver eigenpair."""
    return labeling_from_eigenvector(G, result.x, result.lam)
