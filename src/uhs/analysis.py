"""Degree-based bounds and p-parametric diagnostics.

The sweep runs the solver over a grid of p values and evaluates the
derived curves whose monotonicity/convexity the check_* functions assert:
f = (lambda/Delta)^{p/(p-r)} (non-decreasing), g = (lambda/delta)^{p/(p-r)}
(non-increasing), (lambda/(rm))^p (non-increasing), h = p*log(lambda)
(convex in p) and log(lambda) (convex in 1/p).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._kernels import edge_products
from .constructions import extensions_enumerate, power_lambda
from .core import UniformHypergraph, degrees
from .errors import PreconditionError, check_p
from .solver import SUBGRAPH_LIMIT, SolverOptions, certificate_search_sub_r, solve_p_spectral

CHECK_SLACK = 1e-7
SANDWICH_SLACK = 1e-8


def _pow_safe(base: float, q: float) -> float:
    """base**q, saturating to inf instead of raising when q is enormous
    (the exponent p/(p-r) diverges as p approaches r from above)."""
    try:
        return base**q
    except OverflowError:
        return math.inf


def degree_bound(G: UniformHypergraph, p: float) -> float:
    """Upper bound (r * sum_e prod_{v in e} d_v^{1/(p-r)})^{(p-r)/p}, taken as
    A^{1/p} (r sum_e (a_e/A)^{1/(p-r)})^{(p-r)/p} for a_e = prod_{v in e} d_v
    and A = max_e a_e, which does not overflow as p approaches r from above."""
    check_p(p, "p > r", "degree bound", G.r)
    if G.m == 0:
        raise PreconditionError("degree bound requires at least one edge")
    a = edge_products(degrees(G).degrees.astype(float)[G.edges_array])
    A = float(a.max())
    total = float(np.power(a / A, 1.0 / (p - G.r)).sum())
    return A ** (1.0 / p) * (G.r * total) ** ((p - G.r) / p)


def simple_degree_bound(G: UniformHypergraph, p: float) -> float:
    """Upper bound (rm)^{1-r/p} * max_e prod_{v in e} d_v^{1/p}."""
    check_p(p, "p > r", "degree bound", G.r)
    if G.m == 0:
        raise PreconditionError("degree bound requires at least one edge")
    d = degrees(G).degrees.astype(float)
    best = float(edge_products(np.power(d[G.edges_array], 1.0 / p)).max())
    return (G.r * G.m) ** (1.0 - G.r / p) * best


def weight_bounds(alpha: float, delta: int, Delta: int, r: int, p: float) -> tuple[float, float]:
    """Interval [(alpha*delta^r)^{1/(p-r)}, (alpha*Delta^r)^{1/(p-r)}] that
    contains every edge weight of a consistent normal labeling.  Near p = r
    an end saturates to inf, or to 0.0 when its base is below 1."""
    check_p(p, "p > r", "weight bounds", r)
    if delta < 1:
        raise PreconditionError("weight bounds require minimum degree >= 1")
    q = 1.0 / (p - r)
    return _pow_safe(alpha * delta**r, q), _pow_safe(alpha * Delta**r, q)


@dataclass(frozen=True)
class SweepCurve:
    p_grid: tuple[float, ...]
    lam: tuple[float, ...]
    f: tuple[float | None, ...]  # None for p < r, where f and g are undefined
    g: tuple[float | None, ...]
    h: tuple[float, ...]
    ratio: tuple[float, ...]
    r: int
    m: int
    converged: tuple[bool, ...]
    heuristic: bool = False

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("p,lambda,f,g,h,ratio\n")
        for i, p in enumerate(self.p_grid):
            fval, gval = ("" if v[i] is None else repr(v[i]) for v in (self.f, self.g))
            buf.write(f"{p!r},{self.lam[i]!r},{fval},{gval},{self.h[i]!r},{self.ratio[i]!r}\n")
        return buf.getvalue()


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    worst_violation: float
    details: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "passed": self.passed,
                "worst_violation": self.worst_violation,
                "details": self.details,
            },
            indent=2,
            sort_keys=True,
        )


def sweep(
    G: UniformHypergraph, p_grid: Sequence[float], opts: SolverOptions | None = None
) -> SweepCurve:
    """Solver run per grid point plus the derived diagnostic curves."""
    grid = [float(p) for p in p_grid]
    for p in grid:
        check_p(p, "p >= 1", "each sweep point")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise PreconditionError("p grid must be strictly increasing")
    sub_mode = all(p < G.r for p in grid)
    if not sub_mode and any(p <= G.r for p in grid):
        raise PreconditionError("p grid must be entirely > r, or entirely in [1, r)")
    if G.m == 0:
        raise PreconditionError("hypergraph has no edges")
    opts = opts or SolverOptions()
    prof = degrees(G)
    if not sub_mode and prof.delta == 0:
        raise PreconditionError("p > r sweep requires no isolated vertices")
    lams, conv = [], []
    heuristic = False
    for i, p in enumerate(grid):
        point_opts = replace(opts, seed=opts.seed * 1_000_003 + i)
        if sub_mode and G.n <= SUBGRAPH_LIMIT:
            cert = certificate_search_sub_r(G, p, point_opts)
            lams.append(cert.lam)
            conv.append(True)
        else:
            res = solve_p_spectral(G, p, point_opts)
            lams.append(res.lam)
            conv.append(res.converged)
            heuristic = heuristic or sub_mode
    f, g, h, ratio = [], [], [], []
    for p, lam in zip(grid, lams):
        h.append(p * math.log(lam))
        ratio.append((lam / (G.r * G.m)) ** p)
        if sub_mode:
            f.append(None)
            g.append(None)
            continue
        q = p / (p - G.r)
        f.append(_pow_safe(lam / prof.Delta, q))
        g.append(_pow_safe(lam / prof.delta, q))
    return SweepCurve(
        p_grid=tuple(grid),
        lam=tuple(lams),
        f=tuple(f),
        g=tuple(g),
        h=tuple(h),
        ratio=tuple(ratio),
        r=G.r,
        m=G.m,
        converged=tuple(conv),
        heuristic=heuristic,
    )


def check_monotone_f_g(curve: SweepCurve, slack: float = CHECK_SLACK) -> CheckReport:
    """f non-decreasing and g non-increasing along the grid."""
    if curve.p_grid[0] < curve.r:  # f and g are defined for p > r only
        return CheckReport("monotone_f_g", True, 0.0, {"g": "N/A (p < r)"})
    worst = 0.0
    for a, b in zip(curve.f, curve.f[1:]):
        worst = max(worst, a - b)
    for a, b in zip(curve.g, curve.g[1:]):
        worst = max(worst, b - a)
    return CheckReport("monotone_f_g", worst <= slack, worst, {"g": "checked"})


def check_ratio_monotone(curve: SweepCurve, slack: float = CHECK_SLACK) -> CheckReport:
    """(lambda/(rm))^p non-increasing along the grid."""
    worst = 0.0
    for a, b in zip(curve.ratio, curve.ratio[1:]):
        worst = max(worst, b - a)
    return CheckReport("ratio_monotone", worst <= slack, worst)


def check_concavity(curve: SweepCurve, slack: float = CHECK_SLACK) -> CheckReport:
    """Chord tests on consecutive triples for both convexity statements:
    h(p) = p*log(lambda) convex in p, and log(lambda) convex in 1/p."""
    if len(curve.p_grid) < 3:
        raise PreconditionError("concavity check needs at least 3 grid points")
    worst_h = 0.0
    worst_inv = 0.0
    ps, hs, lams = curve.p_grid, curve.h, curve.lam
    for i in range(len(ps) - 2):
        p1, p2, p3 = ps[i], ps[i + 1], ps[i + 2]
        mu = (p3 - p2) / (p3 - p1)
        chord = mu * hs[i] + (1 - mu) * hs[i + 2]
        worst_h = max(worst_h, hs[i + 1] - chord)
        # In 1/p the grid order reverses; convexity is order-free for the
        # chord test as long as the middle abscissa lies between the ends.
        u1, u2, u3 = 1.0 / p1, 1.0 / p2, 1.0 / p3
        nu = (u2 - u3) / (u1 - u3)
        chord_inv = nu * math.log(lams[i]) + (1 - nu) * math.log(lams[i + 2])
        worst_inv = max(worst_inv, math.log(lams[i + 1]) - chord_inv)
    worst = max(worst_h, worst_inv)
    return CheckReport(
        "concavity",
        worst <= slack,
        worst,
        {"h_in_p": worst_h, "log_lambda_in_inv_p": worst_inv},
    )


def extension_sandwich_check(
    G: UniformHypergraph, p: float, opts: SolverOptions | None = None
) -> CheckReport:
    """Every extension H satisfies lower <= lambda^{(p+1)}(H) <= upper with
    the endpoints attained by the all-singletons and one-class partitions."""
    check_p(p, "p > r", "extension check", G.r)
    opts = opts or SolverOptions()
    r = G.r
    lam_p = solve_p_spectral(G, p, opts).lam
    lam_p1 = solve_p_spectral(G, p + 1, opts).lam
    lower = power_lambda(lam_p, r, p)
    upper = ((r + 1.0) ** (p - r) / r ** (p + 1.0 - r)) ** (1.0 / (p + 1.0)) * lam_p1
    worst = 0.0
    lower_hit = upper_hit = False
    values = []
    for H in extensions_enumerate(G):
        lam_h = solve_p_spectral(H, p + 1, opts).lam
        values.append(lam_h)
        worst = max(worst, lower - lam_h, lam_h - upper)
        singleton = H.n == G.n + G.m
        one_class = H.n == G.n + 1
        if abs(lam_h - lower) <= 1e-6:
            lower_hit = lower_hit or singleton
        if abs(lam_h - upper) <= 1e-6:
            upper_hit = upper_hit or one_class
    passed = worst <= SANDWICH_SLACK and lower_hit and upper_hit
    return CheckReport(
        "extension_sandwich",
        passed,
        worst,
        {
            "lower": lower,
            "upper": upper,
            "lower_attained_by_singletons": lower_hit,
            "upper_attained_by_one_class": upper_hit,
            "extension_count": len(values),
        },
    )
