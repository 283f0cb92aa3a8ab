"""Numerical computation of the p-spectral radius and its certificates.

Three engines: a damped fixed-point iteration on the eigenequation for
p >= r, a batched multi-start projected-gradient ascent on the
nonnegative l^p sphere for 1 <= p < r, and the orbit-reduced weight
system.  The p < r critical points are polished on their support, and the
weight system is solved, by one Newton helper with analytic Jacobians.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._kernels import _leave_one_out, polynomial_sum, support_sums
from ._kernels import support_sums as batch_support_sums  # own name: perfbench times batch calls apart
from .core import UniformHypergraph, degrees, induced_subhypergraph
from .errors import ConvergenceError, PreconditionError
from .labeling import Labeling, PVector, labeling_from_eigenvector, weight_only_residual


# the exhaustive p < r certificate search runs on graphs of at most this many vertices
SUBGRAPH_LIMIT = 20

# x counts as strictly positive when every entry exceeds this share of its largest
POSITIVE_SHARE = 1e-7

# the Newton polish rejects a critical point more than POLISH_DRIFT * max(1, lambda0)
# from the value lambda0 it starts at
POLISH_DRIFT = 1e-4

# the p < r ascent hands its winner to the Newton polish once no row gained
# STALL_GAIN * max(1, max P) over the last STALL_WINDOW steps
STALL_GAIN = 1e-9
STALL_WINDOW = 5

# the p < r certificate search ascends up to WAVE candidate supports in one batch
WAVE = 4


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10
    max_iter: int = 100_000
    restarts: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.tol < math.inf):  # also rejects nan
            raise PreconditionError("tol must be positive and finite")
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
        return json.dumps(payload, sort_keys=True, allow_nan=False)


@dataclass(frozen=True)
class CertificateSearchResult:
    """The certificate found, with the search counts: `tried` supports were
    optimized and `pruned` were skipped by their bound on lambda.

    lam is a lower bound on lambda^(p)(G); lam_hi, set by the exhaustive
    search only, is an upper bound.
    """

    S: tuple[int, ...]
    labeling: Labeling
    lam: float
    exhaustive: bool
    tried: int
    pruned: int
    lam_hi: float | None = None


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
    theta = 1.0
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


def _pga_starts(
    G: UniformHypergraph, p: float, opts: SolverOptions, S: Sequence[int]
) -> np.ndarray:
    """The starts of G[S] scattered into the columns S of G, zero elsewhere:
    the all-ones vector, the first edge's indicator, then random restarts
    drawn afresh from opts.seed.

    All edge indicators are critical points with the same P and residual,
    bit for bit, so the first stands for all: the final pick of `_pga_best`
    breaks their ties toward it.  G[S] keeps the edge order of G, so its
    first edge is the first edge of G inside S.
    """
    edges = G.edges_array
    cols = list(S)
    inside = np.zeros(G.n, dtype=bool)
    inside[cols] = True
    X = np.zeros((2 + opts.restarts, G.n))
    X[0, cols] = 1.0
    X[1, edges[np.argmax(inside[edges].all(axis=1))]] = 1.0
    X[2:, cols] = np.random.default_rng(opts.seed).gamma(1.0, size=(opts.restarts, len(cols)))
    X /= np.power(np.power(X, p).sum(axis=1), 1.0 / p)[:, None]
    return X


def _positive_rows(X: np.ndarray, M: np.ndarray | None) -> np.ndarray:
    """Which rows of X are strictly positive on their support: the columns
    where the mask M is set, or every column when M is None."""
    positive = X > POSITIVE_SHARE * X.max(axis=1, keepdims=True)
    if M is not None:
        positive |= M == 0
    return positive.all(axis=1)


def _pga_winner(X, S, P, M, p: float, rows: slice, it: int):
    """(x, lam, residual, it): the pick of `_pga_best` among one group's
    rows of the batch X, with support sums S, values P and column mask M
    (None: every column)."""
    X, S, P = X[rows], S[rows], P[rows]
    top = float(P.max())
    pick = (P >= top - 1e-12 * max(1.0, top)) & _positive_rows(X, None if M is None else M[rows])
    best = int(np.argmax(pick if pick.any() else P))
    x = X[best].copy()
    lam = float(P[best])
    return x, lam, float(_residual(S[best], x, lam, p)), it


def _pga_best(
    G: UniformHypergraph,
    p: float,
    opts: SolverOptions,
    max_iter: int,
    groups: Sequence[tuple[Sequence[int], float]],
):
    """Batched projected-gradient ascent of P_G on the nonnegative l^p sphere.

    The rows step together in groups.  Each (S, U) in `groups` ascends P on
    G[S] without building G[S]: its rows start at `_pga_starts(G, p, opts,
    S)`, and a mask M keeps them on S (there is none when every group spans
    G, as in the solve: an all-ones mask changes no bit).  The mask stands
    for x^(p-1) at p = 1, where 0^0 = 1 off S (for p > 1, x^(p-1) is 0
    there already), and multiplies the step before the clip, since s_i > 0
    at vertices just outside S.  Every row reduces over the same n columns
    and m edges of G, so a group's result is, bit for bit, the same
    whichever groups share its batch.  The result is one unpolished winner
    (x, lam, residual, iterations) per group, for `_pga_result`.

    A row is done once its residual is at most tol or its step size
    underflows; a done row no longer moves.  A group stops when every row
    is done, when none of its rows gained STALL_GAIN * max(1, max P) over
    the last STALL_WINDOW steps, or at the cap; its rows then leave the
    batch.  Once P gains that little, Newton on the winner's support
    reaches the critical point in a few steps where the ascent needs
    hundreds.  The hand-off cannot go much earlier: the polish accepts any
    critical point within POLISH_DRIFT * lambda, so a winner handed off far
    from its own critical point can land on a lower one.  A group (S, U)
    with U < inf also stops once a row strictly positive on S with residual
    at most tol has P >= U - 1e-12 * max(1, U): U bounds lambda^(p)(G[S]),
    so no row can do better.  The winner is the first row strictly
    positive on the group's support whose P is within 1e-12 * max(1, max P)
    of the group's largest, else the first row with the largest P: the
    certificate search needs a strictly positive critical point, and an
    edge indicator ties with one on degenerate supports.
    """
    n, r = G.n, G.r
    edges = G.edges_array
    k = 2 + opts.restarts  # rows per group
    M = cut = None
    X = np.vstack([_pga_starts(G, p, opts, T) for T, _ in groups])
    if any(len(T) < n for T, _ in groups):
        M = np.zeros_like(X)
        for g, (T, _) in enumerate(groups):
            M[g * k : (g + 1) * k, list(T)] = 1.0
    if any(U < math.inf for _, U in groups):
        cut = np.repeat([U - 1e-12 * max(1.0, U) if U < math.inf else U for _, U in groups], k)
    live = list(range(len(groups)))  # groups still stepping, in row order
    out: list = [None] * len(live)
    eta = np.full(X.shape[0], 0.25)
    S, prods = batch_support_sums(X, edges, n)
    P = r * prods.sum(axis=1)
    it = 0
    cap = min(opts.max_iter, max_iter)
    P_window = P.copy()
    for it in range(1, cap + 1):
        xq = M if M is not None and p == 1.0 else np.power(X, p - 1.0)
        res = np.where(X > 0, np.abs(S - P[:, None] * xq), 0.0).max(axis=1)
        converged = res <= opts.tol
        done = converged | (eta <= 1e-15)
        stop = done.reshape(-1, k).all(axis=1)
        if cut is not None:
            certified = converged & (P >= cut)
            if certified.any():
                certified &= _positive_rows(X, M)
                stop |= certified.reshape(-1, k).any(axis=1)
        if it % STALL_WINDOW == 0:
            gain = (P - P_window).reshape(-1, k).max(axis=1)
            stop |= gain < STALL_GAIN * np.maximum(1.0, P.reshape(-1, k).max(axis=1))
            P_window = P.copy()
        stopped = stop.tolist()
        if any(stopped):
            for j, g in enumerate(live):
                if stopped[j]:
                    out[g] = _pga_winner(X, S, P, M, p, slice(j * k, (j + 1) * k), it)
            live = [g for g, s in zip(live, stopped) if not s]
            if not live:
                break
            keep = np.repeat(~stop, k)
            X, S, P, eta, P_window, xq, done, M, cut = (
                None if a is None else a[keep] for a in (X, S, P, eta, P_window, xq, done, M, cut)
            )
        # ascent direction tangent to the l^p sphere (raw gradient plus
        # renormalization is not an ascent direction for P on the sphere):
        # the gradient r * S less its part along xq, with r in the step size
        coef = np.einsum("ij,ij->i", S, xq) / np.maximum(np.einsum("ij,ij->i", xq, xq), 1e-300)
        Y = S - coef[:, None] * xq
        Y *= (r * eta)[:, None]
        Y += X
        if M is not None:
            Y *= M
        np.maximum(Y, 0.0, out=Y)
        nrm = np.power(np.power(Y, p).sum(axis=1), 1.0 / p)
        ok = nrm > 0
        np.divide(Y, nrm[:, None], out=Y, where=ok[:, None])
        SY, prods = batch_support_sums(Y, edges, n)
        Pn = r * prods.sum(axis=1)
        accept = ok & (Pn >= P - 1e-15) & ~done
        # accepted rows take the step in place, with no gather or scatter copies
        np.copyto(X, Y, where=accept[:, None])
        np.copyto(S, SY, where=accept[:, None])
        np.copyto(P, Pn, where=accept)
        eta = np.where(accept, np.minimum(eta * 1.1, 1.0), eta * 0.5)
    for j, g in enumerate(live):  # the groups still stepping at the cap
        out[g] = _pga_winner(X, S, P, M, p, slice(j * k, (j + 1) * k), it)
    return out


def _pga_result(
    G: UniformHypergraph,
    p: float,
    tol: float,
    x: np.ndarray,
    lam: float,
    residual: float,
    iterations: int,
) -> SpectralResult:
    """An ascent winner as a result, polished by `_polish_critical` on its
    support when its residual exceeds tol."""
    if residual > tol:
        polished = _polish_critical(G, x, lam, p, np.flatnonzero(x > 1e-9), tol)
        if polished is not None:
            x, lam, residual = polished
    return SpectralResult(
        lam=lam,
        x=PVector(values=x, p=p),
        residual=residual,
        iterations=iterations,
        converged=bool(residual <= tol),
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
        np.add.at(out, (edges[:, a], edges[:, b]), _leave_one_out(x[edges])[0][:, a])
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
    if abs(lam - lam0) > POLISH_DRIFT * max(1.0, lam0):
        return None  # drifted to a different critical point
    return x, lam, residual


def solve_p_spectral(
    G: UniformHypergraph, p: float, opts: SolverOptions | None = None
) -> SpectralResult:
    """Compute lambda^(p)(G) and an eigenvector estimate.

    For p >= r: damped normalized fixed-point iteration on the
    eigenequation (unique positive eigenvector for p > r).  For
    1 <= p < r: multi-start projected gradient until P stalls, then Newton
    on the winner's support (`_pga_best`); maximizers may sit on the
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
    ascent = _pga_best(G, p, opts, 20000, [(range(G.n), math.inf)])[0]
    return _pga_result(G, p, opts.tol, *ascent)


def _mask(vertices: Sequence[int]) -> int:
    """The vertex bitmask of a vertex collection: bit v is set for vertex v."""
    return sum(1 << v for v in vertices)


def _vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _edges_inside(edge_masks: list[int], S: int) -> list[int] | None:
    """The edges of G[S] as vertex masks, or None when they do not cover the
    nonempty vertex mask S, that is when G[S] has no edge or an isolated vertex."""
    inside = [e for e in edge_masks if e | S == S]
    covered = 0
    for e in inside:
        covered |= e
    return inside if covered == S else None


def _clique_number(adj: list[int], cand: int) -> int:
    """Size of a largest clique among the vertices of mask cand, in the graph
    whose vertex v has neighbour bitmask adj[v] (v itself not set)."""
    best = 0

    def grow(size: int, cand: int) -> None:
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if not cand:
            best = size
            return
        v = cand.bit_length() - 1
        grow(size + 1, cand & adj[v])  # cliques holding v
        grow(size, cand & ~(1 << v))  # cliques without v

    grow(0, cand)
    return best


def _shadow_bound(r: int, inside: list[int], S: int, p: float) -> float:
    """Upper bound on lambda^(p) of the r-graph on vertex mask S whose
    m >= 1 edges have the masks `inside`.

    Step 1: (lambda^(p) / (r m))^p is non-increasing in p.  For q < p take
    y optimal at p and put x = y^{p/q}, so ||x||_q = 1.  By the power mean
    with exponent p/q >= 1 over the m edges,
    lambda^(q) >= r sum_e (prod_e y)^{p/q} >= r m (lambda^(p) / (r m))^{p/q}.
    With q = 1 this reads lambda^(p) <= (r m)^{1 - 1/p} * lambda^(1)^{1/p}.

    Step 2 bounds lambda^(1) by r C(omega, r) / omega^r, omega the clique
    number of the 2-shadow (the pairs of vertices that share an edge).
    Some optimal vector at p = 1 has a support whose pairs all lie in an
    edge (Frankl-Rodl 1984), so the support is a shadow clique on
    t <= omega vertices.  P on t vertices is at most that of the complete
    r-graph, r C(t, r) / t^r by Maclaurin's inequality, which grows with
    t.  For r = 2 this is 1 - 1/omega (Motzkin-Straus).
    """
    adj = [0] * S.bit_length()
    for e in inside:
        rest = e
        while rest:
            low = rest & -rest
            adj[low.bit_length() - 1] |= e ^ low
            rest ^= low
    omega = _clique_number(adj, S)
    lam1 = r * math.comb(omega, r) / omega**r
    return (r * len(inside)) ** (1.0 - 1.0 / p) * lam1 ** (1.0 / p)


def _lambda_bound(H: UniformHypergraph, p: float) -> float:
    """Upper bound on lambda^(p)(H) for p >= 1 and m >= 1 edges: the
    2-shadow clique bound of `_shadow_bound` on all of H."""
    return _shadow_bound(H.r, [_mask(e) for e in H.edges_array.tolist()], (1 << H.n) - 1, p)


def certificate_search_sub_r(
    G: UniformHypergraph, p: float, opts: SolverOptions | None = None
) -> CertificateSearchResult:
    """Induced-subgraph certificate search for 1 <= p < r.

    On at most SUBGRAPH_LIMIT vertices the search is exhaustive: candidate
    supports are unions of edge subsets (any admissible support must leave
    no isolated vertex in the induced sub-hypergraph), visited in
    lexicographic order.  Past the limit the first candidate is the
    support of `solve_p_spectral` on G, and when a candidate's winner is
    not strictly positive on it, the winner's positive part, a smaller
    support, is the next candidate.  Edges and candidates are vertex
    bitmasks: the edges of G[S] are those with no vertex outside S, and S
    is skipped when they do not cover it.

    Each remaining candidate is optimized by `_pga_best`, whose starts
    include an edge indicator, a boundary point.  Where that indicator ties
    a strictly positive critical point, `_pga_best` returns the positive
    one; only strictly positive critical points are kept.  The first
    support that beats the running best by more than tie_tol wins, so ties
    in lambda go to the lexicographically smallest vertex set.  A support
    whose 2-shadow clique bound (`_shadow_bound` on the edges of G[S]) is
    at most best + tie_tol/2 is skipped unoptimized.  Its PGA or polish
    value exceeds lambda(G[S]) only by the polish's norm error, at most
    lambda * (r/p) * 0.01 * tol, which is below tie_tol/2 while
    lambda * r/p < 500 at the default tol.  So it could not have beaten the
    running best by tie_tol, and skipping it changes neither S nor lambda.

    The candidates are ascended in waves: the next WAVE whose bound beats
    the best at the start of the wave, as masked groups of one batch on G,
    each stopping once it reaches its bound (a candidate of more than
    SUBGRAPH_LIMIT vertices gets none).  The wave is then replayed in order
    with the rules above, so S, lambda, `tried` and `pruned` are those of
    one candidate at a time.  A tried support is polished only when its
    ascent value, moved by twice the most the polish accepts, would beat
    the best by tie_tol; else it cannot win.  G[S] and its labeling are
    built for the final S alone.  lam_hi, set when the search is
    exhaustive, is the bound on all of G: a maximizer's support leaves no
    vertex of its induced sub-hypergraph isolated, so it is a candidate,
    and the bound grows with the candidate.
    """
    if not (1 <= p < G.r):
        raise PreconditionError(f"certificate search requires 1 <= p < r (got p={p}, r={G.r})")
    if G.m == 0:
        raise PreconditionError("hypergraph has no edges")
    opts = opts or SolverOptions()
    sub_opts = replace(opts, restarts=min(opts.restarts, 8))
    edge_masks = [_mask(e) for e in G.edges_array.tolist()]
    screened = []  # (S, bound on lambda^(p)(G[S])) for each S its edges cover

    def screen(S: tuple[int, ...], mask: int) -> None:
        inside = _edges_inside(edge_masks, mask)
        if inside is not None:
            # the clique search on a large shadow can take exponential time
            bound = _shadow_bound(G.r, inside, mask, p) if len(S) <= SUBGRAPH_LIMIT else math.inf
            screened.append((S, bound))

    exhaustive = G.n <= SUBGRAPH_LIMIT
    if exhaustive:
        # every union of edges: fold in one edge at a time
        unions = {0}
        for e in edge_masks:
            unions |= {u | e for u in unions}
        unions.discard(0)
        for S, mask in sorted((_vertices(u), u) for u in unions):
            screen(S, mask)
    else:
        support = solve_p_spectral(G, p, opts).support
        if support:
            screen(support, _mask(support))
    best: tuple[tuple[int, ...], SpectralResult] | None = None
    tie_tol = 1e-9
    tried = pruned = 0
    i = 0
    while i < len(screened):
        floor = -math.inf if best is None else best[1].lam + tie_tol / 2
        wave = []
        while i < len(screened) and len(wave) < WAVE:
            if screened[i][1] <= floor:
                pruned += 1
            else:
                wave.append(screened[i])
            i += 1
        if not wave:
            break
        for (S, bound), ascent in zip(wave, _pga_best(G, p, sub_opts, 5000, wave)):
            if best is not None and bound <= best[1].lam + tie_tol / 2:
                pruned += 1
                continue
            tried += 1
            lam0 = ascent[1]
            reach = lam0 + 2 * POLISH_DRIFT * max(1.0, lam0)
            if best is not None and reach <= best[1].lam + tie_tol:
                continue  # not even the polish could lift it past the best
            res = _pga_result(G, p, opts.tol, *ascent)
            x = res.x.values[list(S)]
            positive = x > POSITIVE_SHARE * x.max()
            if not (exhaustive or positive.all()):
                T = tuple(np.asarray(S)[positive].tolist())
                screen(T, _mask(T))  # the winner's positive part, a smaller candidate
            if res.residual > max(opts.tol, 1e-9) * 100 or not positive.all():
                continue
            if best is None or res.lam > best[1].lam + tie_tol:
                best = (S, res)
    if best is None:
        raise ConvergenceError(
            "no induced sub-hypergraph with a strictly positive critical point was found"
        )
    S, res = best
    sub, vmap = induced_subhypergraph(G, S)
    labeling = labeling_from_eigenvector(sub, PVector(values=res.x.values[vmap], p=p), res.lam)
    # where the bound is tight, rounding can put lam an ulp above it
    lam_hi = max(_lambda_bound(G, p), res.lam) if exhaustive else None
    return CertificateSearchResult(
        S=S,
        labeling=labeling,
        lam=res.lam,
        exhaustive=exhaustive,
        tried=tried,
        pruned=pruned,
        lam_hi=lam_hi,
    )


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
    """Labeling induced by a converged solver eigenpair; x must be positive on every edge."""
    if not (result.x.values[G.edges_array] > 0).all():
        raise PreconditionError(
            f"x vanishes on an edge: its support S = {list(result.support)} is proper, so "
            "G[S], not G, has the certificate; `uhs certify-sub-r` certifies G[S]"
        )
    return labeling_from_eigenvector(G, result.x, result.lam)
