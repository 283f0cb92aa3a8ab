"""Numerical computation of the p-spectral radius and its certificates.

Three engines: a damped fixed-point iteration on the eigenequation for
p >= r, a batched multi-start projected-gradient ascent on the
nonnegative l^p sphere for 1 <= p < r, and a Newton solver for the
orbit-reduced weight system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._kernels import batch_support_sums, polynomial_sum, support_sums
from .core import UniformHypergraph, degrees, induced_subhypergraph
from .errors import ConvergenceError, PreconditionError
from .labeling import Labeling, PVector, labeling_from_eigenvector, weight_only_residual


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


@dataclass(frozen=True)
class SpectralResult:
    lam: float
    x: PVector
    residual: float
    iterations: int
    converged: bool
    support: tuple[int, ...]

    def to_json(self) -> str:
        payload = {
            "lambda": self.lam,
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


def _residual(s: np.ndarray, x: np.ndarray, lam: float, p: float) -> float:
    sup = x > 0
    if not sup.any():
        return 0.0
    return float(np.abs(s[sup] - lam * np.power(x[sup], p - 1.0)).max())


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
    n, r = G.n, G.r
    edges = G.edges_array
    x = np.full(n, n ** (-1.0 / p))
    theta = opts.damping
    prev = np.inf
    worse = 0
    lam = 0.0
    res = np.inf
    it = 0
    for it in range(1, opts.max_iter + 1):
        s, prods = support_sums(x, edges, n)
        lam = r * float(polynomial_sum(prods))
        res = _residual(s, x, lam, p)
        if res <= opts.tol:
            break
        if res > prev:
            worse += 1
            if worse >= 10 and theta > 0.5:
                theta = 0.5
                worse = 0
        else:
            worse = 0
        prev = res
        y = ((1.0 - theta) * np.power(x, p - 1.0) + theta * s / lam) ** (1.0 / (p - 1.0))
        x = y / _norm_p(y, p)
    return SpectralResult(
        lam=lam,
        x=PVector(values=x, p=p),
        residual=res,
        iterations=it,
        converged=res <= opts.tol,
        support=tuple(np.flatnonzero(x > 0).tolist()),
    )


def _pga_starts(G: UniformHypergraph, p: float, opts: SolverOptions, rng) -> np.ndarray:
    """The all-ones vector, one indicator row per edge, then random restarts."""
    n = G.n
    indicators = np.zeros((G.m, n))
    indicators[np.arange(G.m)[:, None], G.edges_array] = 1.0
    X = np.vstack([np.ones((1, n)), indicators, rng.gamma(1.0, size=(opts.restarts, n))])
    X /= np.power(np.power(X, p).sum(axis=1), 1.0 / p)[:, None]
    return X


def _batch_residuals(X: np.ndarray, S: np.ndarray, P: np.ndarray, p: float) -> np.ndarray:
    sup = X > 0
    dev = np.abs(S - P[:, None] * np.power(X, p - 1.0, where=sup, out=np.zeros_like(X)))
    dev[~sup] = 0.0
    return dev.max(axis=1)


def _pga_best(
    G: UniformHypergraph, p: float, opts: SolverOptions, rng, max_iter: int = 20000
) -> SpectralResult:
    """Batched projected-gradient ascent of P_G on the nonnegative l^p sphere."""
    n, r = G.n, G.r
    edges = G.edges_array
    X = _pga_starts(G, p, opts, rng)
    k = X.shape[0]
    eta = np.full(k, 0.25)
    _, prods = batch_support_sums(X, edges, n)
    P = r * prods.sum(axis=1)
    it = 0
    cap = min(opts.max_iter, max_iter)
    window = 100
    P_window = P.copy()
    for it in range(1, cap + 1):
        S, _ = batch_support_sums(X, edges, n)
        res = _batch_residuals(X, S, P, p)
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
        _, prods = batch_support_sums(Y, edges, n)
        Pn = r * prods.sum(axis=1)
        accept = ok & (Pn >= P - 1e-15) & ~done
        X[accept] = Y[accept]
        P[accept] = Pn[accept]
        eta[accept] = np.minimum(eta[accept] * 1.1, 1.0)
        shrink = ~accept & ~done
        eta[shrink] *= 0.5
    S, _ = batch_support_sums(X, edges, n)
    res = _batch_residuals(X, S, P, p)
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


def _polish_critical(
    G: UniformHypergraph, x0: np.ndarray, lam0: float, p: float, support: np.ndarray, tol: float
):
    """Newton refinement of the eigensystem on a fixed support.

    Solves s_i(x) = lam * x_i^{p-1} (i in support) together with the unit
    l^p norm; returns None when the Jacobian is singular (degenerate
    critical manifolds) or the iteration leaves the positive cone.
    """
    ns = support.shape[0]
    if ns == 0 or ns > 40:
        return None
    n = G.n

    def F(u: np.ndarray) -> np.ndarray:
        x = np.zeros(n)
        x[support] = u[:ns]
        lam = u[ns]
        s, _ = support_sums(x, G.edges_array, n)
        out = np.empty(ns + 1)
        out[:ns] = s[support] - lam * np.power(u[:ns], p - 1.0)
        out[ns] = np.power(u[:ns], p).sum() - 1.0
        return out

    u = np.concatenate([x0[support], [lam0]])
    fu = F(u)
    for _ in range(40):
        if np.abs(fu).max() <= 0.01 * tol:
            break
        h = 1e-7
        J = np.empty((ns + 1, ns + 1))
        for j in range(ns + 1):
            du = np.zeros_like(u)
            du[j] = h * max(1.0, abs(u[j]))
            J[:, j] = (F(u + du) - F(u - du)) / (2 * du[j])
        try:
            step = np.linalg.solve(J, -fu)
        except np.linalg.LinAlgError:
            return None
        trial = u + step
        if not (np.isfinite(trial) & (trial > 0)).all():
            return None
        ft = F(trial)
        if np.linalg.norm(ft) >= np.linalg.norm(fu):
            break
        u, fu = trial, ft
    x = np.zeros(n)
    x[support] = u[:ns]
    s, prods = support_sums(x, G.edges_array, n)
    lam = G.r * float(polynomial_sum(prods))
    residual = _residual(s, x, lam, p)
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
            from .labeling import eigenvector_from_labeling

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
    reps = [orbits[k][0] for k in range(korb)]
    edges = G.edges_array

    def F(u: np.ndarray) -> np.ndarray:
        wo = np.exp(u[:korb])
        a = u[korb]
        w = wo[orbit_of]
        sums = np.bincount(edges.ravel(), weights=np.repeat(w, G.r), minlength=G.n)
        out = np.empty(korb + 1)
        out[:korb] = p * u[:korb] - np.log(sums[edges[reps]]).sum(axis=1) - a
        out[korb] = w.sum() - 1.0
        return out

    u = np.zeros(korb + 1)
    u[:korb] = -np.log(G.m)
    u[korb] = F(u)[0] + u[korb]  # make the first orbit equation exact at the start
    fu = F(u)
    h = 1e-7
    for _ in range(100):
        if np.abs(fu).max() <= 1e-13:
            break
        J = np.empty((korb + 1, korb + 1))
        for j in range(korb + 1):
            du = np.zeros_like(u)
            du[j] = h
            J[:, j] = (F(u + du) - F(u - du)) / (2 * h)
        try:
            step = np.linalg.solve(J, -fu)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Jacobian in weight-system Newton") from exc
        t = 1.0
        norm0 = np.linalg.norm(fu)
        for _ in range(40):
            trial = u + t * step
            ft = F(trial)
            if np.linalg.norm(ft) <= (1 - 1e-4 * t) * norm0:
                u, fu = trial, ft
                break
            t *= 0.5
        else:
            raise ConvergenceError("line search failed in weight-system Newton")
    else:
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
