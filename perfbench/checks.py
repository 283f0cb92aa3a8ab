"""Checks on the values `uhs` prints, computed without `uhs`.

All quantities are recomputed here from the generated edge array:

* P(x) = r * sum_e prod_{v in e} x_v, and s_i(x) = sum_{e ni i} prod_{v in e, v != i} x_v.
* For p >= r, P is concave in y = x^p on the simplex, so at any x > 0 on the
  unit l^p sphere  lambda <= P(x) + (r/p) * (max_i s_i / x_i^{p-1} - P(x)).
  At p = r this is the Collatz-Wielandt bound (Chang-Pearson-Zhang 2008).
* Closed forms: paths and their generalized powers at p = r, d-regular
  hypergraphs, complete hypergraphs K_n^(r), and Motzkin-Straus
  lambda^(1) = 1 - 1/omega for graphs.
* For p < r, a multi-start SLSQP search gives a lower reference that the
  printed lambda must reach.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

REL_TOL = 1e-9  # P(x) against the printed lambda, and closed forms
NORM_TOL = 1e-9  # | ||x||_p - 1 |
GAP_TOL = 1e-7  # relative width of the bracket [P(x), upper bound]
KKT_TOL = 1e-7  # eigen-equation residual on the support, p < r
CONSISTENCY_TOL = 1e-7  # spread of x_v recovered from a certificate
NORMAL_TOL = 1e-7  # conditions of a normal labeling
LOWER_TOL = 1e-8  # slack below the independent lower reference


def poly(edges: np.ndarray, r: int, x: np.ndarray) -> float:
    return r * math.fsum(x[edges].prod(axis=1).tolist())


def support_sums(edges: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    xe = x[edges]
    s = np.zeros(n)
    for j in range(edges.shape[1]):
        others = np.prod(np.delete(xe, j, axis=1), axis=1)
        s += np.bincount(edges[:, j], weights=others, minlength=n)
    return s


def norm_p(x: np.ndarray, p: float) -> float:
    return float(np.power(x, p).sum() ** (1.0 / p))


def upper_bound(edges: np.ndarray, n: int, r: int, p: float, x: np.ndarray) -> float:
    """Concavity bound on lambda^(p), valid for p >= r and x > 0 with ||x||_p = 1."""
    P = poly(edges, r, x)
    ratio = support_sums(edges, n, x) / np.power(x, p - 1.0)
    return P + (r / p) * (float(ratio.max()) - P)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_sphere(edges, n, r, p, lam, x) -> list[str]:
    """x is a nonnegative unit l^p vector of length n with P(x) = lambda."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) or not np.isfinite(x).all():
        return [f"x has shape {x.shape} or non-finite entries"]
    if not math.isfinite(lam):
        return [f"lambda {lam} is not finite"]
    bad = []
    if (x < 0).any():
        bad.append("x has a negative entry")
        return bad
    if abs(norm_p(x, p) - 1.0) > NORM_TOL:
        bad.append(f"||x||_p = {norm_p(x, p)!r}, not 1")
    P = poly(edges, r, x)
    if not _close(P, lam, REL_TOL):
        bad.append(f"P(x) = {P!r} differs from lambda = {lam!r}")
    return bad


def check_p_ge_r(edges, n, r, p, lam, x, exact: float | None = None) -> list[str]:
    """p >= r: x > 0, on the sphere, P(x) = lambda, and the bracket
    [P(x), upper bound] is narrow and holds lambda (and `exact` if given)."""
    bad = check_sphere(edges, n, r, p, lam, x)
    if bad:
        return bad
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        return [f"x has {int((x <= 0).sum())} zero entries; p >= r needs x > 0"]
    hi = upper_bound(edges, n, r, p, x)
    if lam > hi * (1.0 + 1e-13):
        bad.append(f"lambda = {lam!r} exceeds the upper bound {hi!r}")
    if hi - lam > GAP_TOL * lam:
        bad.append(f"bracket [{lam!r}, {hi!r}] is wider than {GAP_TOL} relative")
    if exact is not None and not _close(lam, exact, REL_TOL):
        bad.append(f"lambda = {lam!r}, closed form {exact!r}")
    return bad


def check_p_lt_r(edges, n, r, p, lam, x, lower: float, exact: float | None = None) -> list[str]:
    """p < r: x on the sphere with P(x) = lambda, critical on its support,
    at least the independent lower reference, and the closed form if any."""
    bad = check_sphere(edges, n, r, p, lam, x)
    if bad:
        return bad
    x = np.asarray(x, dtype=float)
    sup = x > 0
    s = support_sums(edges, n, x)
    kkt = float(np.abs(s[sup] - lam * np.power(x[sup], p - 1.0)).max())
    if kkt > KKT_TOL * max(1.0, lam):
        bad.append(f"eigen-equation residual {kkt!r} on the support")
    if lam < lower - LOWER_TOL * max(1.0, lower):
        bad.append(f"lambda = {lam!r} is below the lower reference {lower!r}")
    if exact is not None and not _close(lam, exact, REL_TOL):
        bad.append(f"lambda = {lam!r}, closed form {exact!r}")
    return bad


def induced(edges: np.ndarray, n: int, S) -> np.ndarray:
    """Edges of G[S] in local indices (rank within sorted S), canonical order."""
    S = np.asarray(sorted(S), dtype=np.int64)
    local = np.full(n, -1, dtype=np.int64)
    local[S] = np.arange(S.size)
    sub = local[edges]
    sub = sub[(sub >= 0).all(axis=1)]
    sub = np.sort(sub, axis=1)
    return sub[np.lexsort(sub.T[::-1])] if sub.size else sub.reshape(0, edges.shape[1])


def normal_problems(sub: np.ndarray, k: int, r: int, p: float, B, w, alpha: float) -> list[str]:
    """The conditions of a normal labeling on the hypergraph with k vertices
    and edge array `sub`: sum_e w(e) = 1, sum_{e ni v} B(v, e) = 1 at every
    vertex, and w(e)^{p-r} prod_{v in e} B(v, e) = alpha on every edge
    (relative to alpha, which is tiny when lambda is large)."""
    bad = []
    total = math.fsum(w.tolist())
    if abs(total - 1.0) > NORMAL_TOL:
        bad.append(f"certificate weights sum to {total!r}")
    rows = np.bincount(sub.ravel(), weights=B.ravel(), minlength=k)
    dev = float(np.abs(rows - 1.0).max())
    if dev > NORMAL_TOL:
        bad.append(f"certificate row sums are off 1 by {dev!r}")
    edge = float(np.abs(np.power(w, p - r) * B.prod(axis=1) / alpha - 1.0).max())
    if edge > NORMAL_TOL:
        bad.append(f"certificate edge values are off alpha by {edge!r} relative")
    return bad


def x_from_certificate(edges, n, r, p, S, B, w, alpha) -> tuple[np.ndarray | None, list[str]]:
    """Check that (B, w, alpha) is a normal labeling of G[S], and recover
    x_v = (w(e) / (r * B(v, e)))^{1/p} on S, zero elsewhere; every corner
    at v must give the same value."""
    sub = induced(edges, n, S)
    B = np.asarray(B, dtype=float)
    w = np.asarray(w, dtype=float)
    if sub.shape[0] == 0 or B.shape != sub.shape or w.shape != (sub.shape[0],):
        return None, [f"certificate shape B{B.shape} w{w.shape} does not match G[S] {sub.shape}"]
    if (B <= 0).any() or (w <= 0).any() or not alpha > 0:
        return None, ["certificate has a nonpositive entry"]
    k = len(S)
    bad = normal_problems(sub, k, r, p, B, w, alpha)
    if bad:
        return None, bad
    corner = np.power(w[:, None] / (r * B), 1.0 / p)
    hi = np.full(k, -np.inf)
    lo = np.full(k, np.inf)
    np.maximum.at(hi, sub.ravel(), corner.ravel())
    np.minimum.at(lo, sub.ravel(), corner.ravel())
    if not np.isfinite(hi).all():
        return None, ["a vertex of S lies in no edge of G[S]"]
    spread = float(((hi - lo) / hi).max())
    if spread > CONSISTENCY_TOL:
        return None, [f"certificate is inconsistent: spread {spread!r}"]
    x = np.zeros(n)
    x[np.asarray(sorted(S), dtype=np.int64)] = hi
    return x, []


def check_x_matches(x_cert: np.ndarray, x: np.ndarray) -> list[str]:
    d = float(np.abs(np.asarray(x_cert) - np.asarray(x)).max())
    return [] if d <= CONSISTENCY_TOL else [f"certificate x differs from the solution x by {d!r}"]


def clique_number(n: int, edges: np.ndarray) -> int:
    """Maximum clique of a graph by exhaustive search (small n only)."""
    adj = [0] * n
    for a, b in edges.tolist():
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    best = 1
    for size in range(2, n + 1):
        found = False
        for c in combinations(range(n), size):
            if all(adj[u] >> v & 1 for u, v in combinations(c, 2)):
                found = True
                break
        if not found:
            break
        best = size
    return best


def motzkin_straus(n: int, edges: np.ndarray) -> float:
    """lambda^(1) of a graph: 1 - 1/omega (Motzkin-Straus 1965)."""
    return 1.0 - 1.0 / clique_number(n, edges)


def complete_lambda(r: int, n: int, p: float) -> float:
    """lambda^(p)(K_n^(r)) = r * C(n, r) * n^{-r/p} for every p >= 1."""
    return r * math.comb(n, r) * n ** (-r / p)


def regular_lambda(r: int, n: int, m: int, p: float) -> float:
    """lambda^(p) of a regular r-uniform hypergraph for p >= r: r m n^{-r/p}."""
    return r * m * n ** (-r / p)


def path_power_lambda(path_n: int, r: int) -> float:
    """lambda^(r) of the (r-2)-fold generalized power of P_n: (2 cos(pi/(n+1)))^{2/r}."""
    return (2.0 * math.cos(math.pi / (path_n + 1))) ** (2.0 / r)


def degree_bound(edges: np.ndarray, n: int, r: int, p: float) -> float:
    """(r * sum_e prod_{v in e} d_v^{1/(p-r)})^{(p-r)/p}, recomputed."""
    d = np.bincount(edges.ravel(), minlength=n).astype(float)
    total = math.fsum(np.power(d[edges], 1.0 / (p - r)).prod(axis=1).tolist())
    return (r * total) ** ((p - r) / p)


def simple_degree_bound(edges: np.ndarray, n: int, r: int, p: float) -> float:
    """(r m)^{1-r/p} * max_e prod_{v in e} d_v^{1/p}, recomputed."""
    d = np.bincount(edges.ravel(), minlength=n).astype(float)
    best = float(np.power(d[edges], 1.0 / p).prod(axis=1).max())
    return (r * edges.shape[0]) ** (1.0 - r / p) * best


def slsqp_lower(edges: np.ndarray, n: int, r: int, p: float, seed: int,
                edge_starts: int = 24, random_starts: int = 8) -> float:
    """Best P(x) over multi-start SLSQP on the nonnegative unit l^p sphere.

    Starts: the uniform vector, the indicators of up to `edge_starts`
    edges, and `random_starts` random vectors.  Every local result is
    projected back to the sphere before it counts, so the value is a true
    lower bound.
    """
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)

    def f(x):
        return -poly(edges, r, x)

    def grad(x):
        return -r * support_sums(edges, n, x)

    cons = {
        "type": "eq",
        "fun": lambda x: np.power(x, p).sum() - 1.0,
        "jac": lambda x: p * np.power(x, p - 1.0),
    }
    starts = [np.ones(n)]
    picked = rng.permutation(edges.shape[0])[:edge_starts]
    for e in edges[np.sort(picked)]:
        v = np.full(n, 1e-3)
        v[e] = 1.0
        starts.append(v)
    starts.extend(rng.gamma(1.0, size=(random_starts, n)))
    best = 0.0
    for x0 in starts:
        x0 = x0 / norm_p(x0, p)
        res = minimize(f, x0, jac=grad, bounds=[(0.0, 1.0)] * n, constraints=[cons],
                       method="SLSQP", options={"maxiter": 300, "ftol": 1e-13})
        x = np.clip(res.x, 0.0, None)
        if norm_p(x, p) > 0:
            x = x / norm_p(x, p)
            best = max(best, poly(edges, r, x))
    return best
