"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add -s to see the lines
as they print).  Tolerances are pinned in each criterion.
"""

import time

import numpy as np
import pytest

from helpers import (
    enumerate_connected,
    grid_lambda,
    random_connected,
    star_lambda,
    star_weights,
)
from oracle import brute_force_lambda
from uhs.analysis import (
    check_concavity,
    check_monotone_f_g,
    check_ratio_monotone,
    degree_bound,
    extension_sandwich_check,
    simple_degree_bound,
    sweep,
    weight_bounds,
)
from uhs.constructions import (
    direct_product,
    generalized_power,
    grid_g1,
    join,
    join_lambda,
    k_r_r,
    power_lambda,
    product_lambda,
    star_g2,
    star_g2_orbits,
    two_triangles_path,
)
from uhs.core import UniformHypergraph, degrees
from uhs.labeling import (
    classify_labeling,
    lambda_from_alpha,
    labeling_from_eigenvector,
)
from uhs.solver import (
    SolverOptions,
    certificate_search_sub_r,
    compose_components,
    solve_p_spectral,
    solve_weight_system,
)


_capsys = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    # let the per-criterion lines through even without -s
    global _capsys
    _capsys = capsys
    yield
    _capsys = None


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    if _capsys is not None:
        with _capsys.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def test_ac1_grid_closed_form():
    G = grid_g1()
    solve_p_spectral(k_r_r(4), 6.0)  # warm the jit cache outside the timer
    t0 = time.monotonic()
    worst = 0.0
    for p in (4.5, 5.0, 6.0, 8.0):
        worst = max(worst, abs(solve_p_spectral(G, p).lam - grid_lambda(p)))
    near = abs(solve_p_spectral(G, 4.0 + 1e-3).lam - 3.0)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and near <= 5e-3 and elapsed < 5.0
    _report(
        "AC1 grid closed form",
        ok,
        f"worst={worst:.2e} (tol 1e-8), |lam(4.001)-3|={near:.2e} (tol 5e-3), "
        f"runtime={elapsed:.2f}s (<5s)",
    )


def test_ac2_star_closed_form():
    G = star_g2()
    worst = 0.0
    for p in (3.5, 4.0, 5.0, 7.0):
        worst = max(worst, abs(solve_p_spectral(G, p).lam - star_lambda(p)))
    worst_w = 0.0
    for p in (3.5, 4.0, 5.0, 7.0):
        w, alpha = solve_weight_system(G, star_g2_orbits(), p)
        w1, w2, a = star_weights(p)
        worst_w = max(
            worst_w, abs(w[0] - w1), abs(w[1] - w1), abs(w[2] - w2), abs(w[3] - w2),
            abs(alpha - a),
        )
    near = abs(solve_p_spectral(G, 3.0 + 1e-3).lam - 6.0 ** (1.0 / 3.0))
    ok = worst <= 1e-8 and worst_w <= 1e-10 and near <= 5e-3
    _report(
        "AC2 star closed form",
        ok,
        f"solver worst={worst:.2e} (tol 1e-8), weights worst={worst_w:.2e} "
        f"(tol 1e-10), |lam(3.001)-6^(1/3)|={near:.2e} (tol 5e-3)",
    )


def test_ac3_p1_certificate_search():
    out = certificate_search_sub_r(two_triangles_path(), 1.0)
    lam_err = abs(out.lam - 2.0 / 3.0)
    alpha_err = abs(out.labeling.alpha - 0.75)
    triangle = set(out.S) in ({0, 1, 2}, {3, 4, 5})
    ok = lam_err <= 1e-10 and alpha_err <= 1e-10 and triangle
    _report(
        "AC3 p=1 certificate search",
        ok,
        f"|lam-2/3|={lam_err:.2e} (tol 1e-10), S={out.S} triangle={triangle}, "
        f"|alpha-3/4|={alpha_err:.2e} (tol 1e-10)",
    )


def test_ac4_certificate_roundtrip():
    rng = np.random.default_rng(42)
    failures = 0
    worst_inv = 0.0
    count = 0
    for i in range(100):
        r = (2, 3, 4)[i % 3]
        n = int(rng.integers(r + 1, 11))
        G = random_connected(rng, r, n)
        for p in (r + 0.5, r + 2.0):
            count += 1
            res = solve_p_spectral(G, p)
            L = labeling_from_eigenvector(G, res.x, res.lam)
            verdict = classify_labeling(G, L, tol=1e-6)
            if verdict.classification != "normal" or not verdict.consistent:
                failures += 1
                continue
            worst_inv = max(worst_inv, abs(lambda_from_alpha(L.alpha, r, p) - res.lam))
    ok = failures == 0 and worst_inv <= 1e-6
    _report(
        "AC4 certificate round-trip",
        ok,
        f"{count - failures}/{count} normal+consistent at tol 1e-6, "
        f"worst inversion={worst_inv:.2e} (tol 1e-6)",
    )


def test_ac5_composition_oracles():
    rng = np.random.default_rng(7)
    worst = {"join": 0.0, "product": 0.0, "power": 0.0, "disjoint": 0.0}

    for _ in range(20):
        A = random_connected(rng, 2, int(rng.integers(3, 6)))
        B = random_connected(rng, 2, int(rng.integers(3, 6)))
        p = 5.5
        pred = join_lambda(
            solve_p_spectral(A, p).lam, solve_p_spectral(B, p).lam, 2, 2, p
        )
        got = solve_p_spectral(join(A, B), p).lam
        worst["join"] = max(worst["join"], abs(got - pred))

    for i in range(20):
        if i == 0:
            A = B = k_r_r(3)  # the 2*(sqrt 3)^2 = 6 instance
            r, p = 3, 6.0
        else:
            r, p = 2, 4.5
            A = random_connected(rng, 2, int(rng.integers(3, 5)))
            B = random_connected(rng, 2, int(rng.integers(3, 5)))
        pred = product_lambda(
            solve_p_spectral(A, p).lam, solve_p_spectral(B, p).lam, r, p
        )
        got = solve_p_spectral(direct_product(A, B), p).lam
        if i == 0:
            assert abs(pred - 6.0) <= 1e-12
        worst["product"] = max(worst["product"], abs(got - pred))

    for _ in range(20):
        r = int(rng.integers(2, 4))
        G = random_connected(rng, r, int(rng.integers(r + 1, r + 4)))
        p = r + 1.5
        pred = power_lambda(solve_p_spectral(G, p).lam, r, p)
        got = solve_p_spectral(generalized_power(G), p + 1.0).lam
        worst["power"] = max(worst["power"], abs(got - pred))

    for _ in range(20):
        r = int(rng.integers(2, 4))
        A = random_connected(rng, r, int(rng.integers(r + 1, r + 4)))
        B = random_connected(rng, r, int(rng.integers(r + 1, r + 4)))
        edges = list(A.edges) + [tuple(v + A.n for v in e) for e in B.edges]
        G = UniformHypergraph.from_edges(r, A.n + B.n, edges)
        p = r + 1.5
        pred = compose_components(
            [solve_p_spectral(A, p).lam, solve_p_spectral(B, p).lam], p, r
        )
        got = solve_p_spectral(G, p).lam
        worst["disjoint"] = max(worst["disjoint"], abs(got - pred))

    bad = {k: v for k, v in worst.items() if v > 1e-7}
    _report(
        "AC5 composition oracles",
        not bad,
        "20 pairs/op, worst "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + " (tol 1e-7)",
    )


def test_ac6_inequality_suite():
    rng = np.random.default_rng(13)
    worst_slack = 0.0  # most negative bound-minus-lambda, sign flipped
    worst_weight = 0.0
    for i in range(200):
        r = (2, 3, 4)[i % 3]
        n = int(rng.integers(r + 1, 11))
        G = random_connected(rng, r, n)
        p = r + (0.5, 2.0, float(r))[i % 3]
        res = solve_p_spectral(G, p)
        worst_slack = max(
            worst_slack,
            res.lam - degree_bound(G, p),
            res.lam - simple_degree_bound(G, p),
        )
        L = labeling_from_eigenvector(G, res.x, res.lam)
        prof = degrees(G)
        lo, hi = weight_bounds(L.alpha, prof.delta, prof.Delta, r, p)
        worst_weight = max(worst_weight, float(lo - L.w.min()), float(L.w.max() - hi))
    sandwich_ok = True
    sandwich_n = 0
    small = [UniformHypergraph.from_edges(2, 3, [(0, 1), (1, 2)])]
    while len(small) < 8:
        r = int(rng.integers(2, 4))
        G = random_connected(rng, r, int(rng.integers(r, r + 3)), extra=1)
        if G.m <= 5:
            small.append(G)
    for G in small:
        rep = extension_sandwich_check(G, G.r + 1.5)
        sandwich_n += rep.details["extension_count"]
        sandwich_ok = sandwich_ok and rep.passed
    ok = worst_slack <= 1e-8 and worst_weight <= 1e-8 and sandwich_ok
    _report(
        "AC6 inequality suite",
        ok,
        f"200 instances, bound slack={worst_slack:.2e} (>= -1e-8), weight "
        f"containment={worst_weight:.2e}, sandwich over {sandwich_n} "
        f"extensions of {len(small)} small instances: {sandwich_ok}",
    )


def test_ac7_theorem_checks():
    cases = [
        (grid_g1(), [4.5, 5.0, 5.5, 6.0, 8.0]),
        (star_g2(), [3.5, 4.0, 4.5, 5.0, 6.0]),
        (two_triangles_path(), [2.5, 3.0, 3.5, 4.0, 5.0]),
    ]
    rng = np.random.default_rng(19)
    for _ in range(50):
        r = int(rng.integers(2, 4))
        G = random_connected(rng, r, int(rng.integers(r + 1, 8)))
        cases.append((G, [r + 0.5, r + 1.0, r + 1.5, r + 2.0, r + 3.0]))
    failed = []
    for G, grid in cases:
        curve = sweep(G, grid)
        for rep in (
            check_monotone_f_g(curve, slack=1e-7),
            check_ratio_monotone(curve, slack=1e-7),
            check_concavity(curve, slack=1e-7),
        ):
            if not rep.passed:
                failed.append((G.r, G.n, rep.name, rep.worst_violation))
    _report(
        "AC7 theorem checks",
        not failed,
        f"{len(cases)} instances x 3 checks over 5-point grids, slack 1e-7"
        + (f", failures={failed}" if failed else ""),
    )


@pytest.mark.slow
def test_ac8_brute_force_equivalence():
    instances = []
    for r in (2, 3):
        for n in range(r, 6):
            instances.extend((G, r) for G in enumerate_connected(n, r))
    opts = SolverOptions(restarts=6)
    worst = 0.0
    checks = 0
    for G, r in instances:
        for p in (1.0, 2.5, r + 1.0):
            if p < r:
                lam = certificate_search_sub_r(G, p, opts).lam
            else:
                lam = solve_p_spectral(G, p, opts).lam
            worst = max(worst, abs(lam - brute_force_lambda(G, p)))
            checks += 1
    _report(
        "AC8 brute-force equivalence",
        worst <= 1e-3,
        f"{len(instances)} connected hypergraphs (n<=5, r in 2..3), "
        f"{checks} checks, worst={worst:.2e} (tol 1e-3)",
    )
