import math

import numpy as np
import pytest

from helpers import grid_lambda, random_connected, star_lambda
from uhs.analysis import (
    CheckReport,
    check_concavity,
    check_monotone_f_g,
    check_ratio_monotone,
    degree_bound,
    extension_sandwich_check,
    simple_degree_bound,
    sweep,
    weight_bounds,
)
from uhs.constructions import grid_g1, k_r_r, star_g2, two_triangles_path
from uhs.core import UniformHypergraph, degrees
from uhs.errors import PreconditionError
from uhs.labeling import alpha_from_lambda, labeling_from_eigenvector
from uhs.solver import SolverOptions, solve_p_spectral


def test_degree_bound_single_edge_is_tight():
    # all degrees 1: the bound collapses to r^{1-r/p} = lambda
    for r in (2, 3, 4):
        p = r + 1.5
        assert abs(degree_bound(k_r_r(r), p) - r ** (1.0 - r / p)) <= 1e-14


def test_degree_bounds_dominate_fixtures():
    for G, lam_fn, ps in (
        (grid_g1(), grid_lambda, (4.5, 6.0)),
        (star_g2(), star_lambda, (3.5, 5.0)),
    ):
        for p in ps:
            lam = lam_fn(p)
            assert degree_bound(G, p) >= lam - 1e-10
            assert simple_degree_bound(G, p) >= lam - 1e-10


def test_simple_bound_two_components():
    # two disjoint single edges: bound (rm)^{1-r/p} with unit degrees
    G = UniformHypergraph.from_edges(3, 6, [(0, 1, 2), (3, 4, 5)])
    p = 6.0
    lam = solve_p_spectral(G, p).lam
    assert abs(simple_degree_bound(G, p) - 6.0 ** (1.0 - 3.0 / p)) <= 1e-13
    assert simple_degree_bound(G, p) >= lam - 1e-10


def test_bound_gates():
    with pytest.raises(PreconditionError):
        degree_bound(k_r_r(3), 3.0)
    with pytest.raises(PreconditionError):
        simple_degree_bound(k_r_r(3), 2.0)
    with pytest.raises(PreconditionError):
        degree_bound(UniformHypergraph.from_edges(3, 3, []), 5.0)
    with pytest.raises(PreconditionError):
        weight_bounds(0.5, 1, 2, 3, 3.0)
    with pytest.raises(PreconditionError):
        weight_bounds(0.5, 0, 2, 3, 5.0)


@pytest.mark.parametrize(
    "alpha, delta, Delta, expected",
    [(1.0, 2, 3, (math.inf, math.inf)), (0.1, 1, 3, (0.0, math.inf)), (0.01, 1, 2, (0.0, 0.0))],
)
def test_weight_bounds_saturate_just_above_r(alpha, delta, Delta, expected):
    # the exponent 1/(p - r) is 1e6: a base above 1 saturates to inf, one below to 0
    assert weight_bounds(alpha, delta, Delta, 3, 3.000001) == expected


def test_sweep_rejects_an_edgeless_hypergraph_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on an edgeless hypergraph")

    monkeypatch.setattr("uhs.analysis.solve_p_spectral", no_solve)
    monkeypatch.setattr("uhs.analysis.certificate_search_sub_r", no_solve)
    for n, grid in ((25, [1.5, 2.0]), (5, [1.5, 2.0]), (25, [4.0, 5.0])):
        with pytest.raises(PreconditionError, match="hypergraph has no edges"):
            sweep(UniformHypergraph.from_edges(3, n, []), grid)


def test_weight_bounds_contain_certificate_weights():
    rng = np.random.default_rng(14)
    for _ in range(10):
        r = int(rng.integers(2, 4))
        n = int(rng.integers(r + 1, r + 5))
        G = random_connected(rng, r, n)
        p = r + 1.0 + float(rng.uniform(0, 2))
        res = solve_p_spectral(G, p)
        L = labeling_from_eigenvector(G, res.x, res.lam)
        prof = degrees(G)
        lo, hi = weight_bounds(L.alpha, prof.delta, prof.Delta, r, p)
        assert (L.w >= lo - 1e-9).all() and (L.w <= hi + 1e-9).all()


def test_sweep_matches_closed_forms():
    curve = sweep(grid_g1(), [4.5, 5.0, 6.0, 8.0])
    assert all(curve.converged) and not curve.heuristic
    for p, lam in zip(curve.p_grid, curve.lam):
        assert abs(lam - grid_lambda(p)) <= 1e-8


def test_sweep_curve_values():
    G = star_g2()
    curve = sweep(G, [3.5, 4.0, 5.0])
    prof = degrees(G)
    for p, lam, f, g, h, ratio in zip(
        curve.p_grid, curve.lam, curve.f, curve.g, curve.h, curve.ratio
    ):
        q = p / (p - G.r)
        assert abs(f - (lam / prof.Delta) ** q) <= 1e-12
        assert abs(g - (lam / prof.delta) ** q) <= 1e-12
        assert abs(h - p * np.log(lam)) <= 1e-12
        assert abs(ratio - (lam / (G.r * G.m)) ** p) <= 1e-12


def test_sweep_near_r_limit():
    # approaching p = r from above the radius tends to 6^{1/3} for the star
    curve = sweep(star_g2(), [3.001, 3.5])
    assert abs(curve.lam[0] - 6.0 ** (1.0 / 3.0)) <= 1e-2


def test_sweep_sub_r_mode():
    curve = sweep(two_triangles_path(), [1.0, 1.5])
    assert abs(curve.lam[0] - 2.0 / 3.0) <= 1e-9
    assert curve.g[0] is None and curve.f[0] is None
    assert all(line.split(",")[2:4] == ["", ""] for line in curve.to_csv().splitlines()[1:])


def test_sweep_grid_gates():
    with pytest.raises(PreconditionError):
        sweep(star_g2(), [5.0, 4.0])  # not increasing
    with pytest.raises(PreconditionError):
        sweep(star_g2(), [2.0, 5.0])  # straddles r


def test_sweep_csv_shape():
    curve = sweep(star_g2(), [3.5, 5.0])
    lines = curve.to_csv().strip().splitlines()
    assert lines[0] == "p,lambda,f,g,h,ratio"
    assert len(lines) == 3
    assert len(lines[1].split(",")) == 6


def test_checks_pass_on_fixtures():
    for G, grid in (
        (grid_g1(), [4.5, 5.0, 5.5, 6.0, 8.0]),
        (star_g2(), [3.5, 4.0, 4.5, 5.0, 6.0]),
        (two_triangles_path(), [2.5, 3.0, 3.5, 4.0, 5.0]),
    ):
        curve = sweep(G, grid)
        for report in (
            check_monotone_f_g(curve),
            check_ratio_monotone(curve),
            check_concavity(curve),
        ):
            assert report.passed, report.to_json()


def test_check_detects_violation():
    curve = sweep(star_g2(), [3.5, 4.0, 5.0])
    broken = type(curve)(
        p_grid=curve.p_grid,
        lam=(curve.lam[0], curve.lam[1] * 2.0, curve.lam[2]),
        f=(curve.f[2], curve.f[1], curve.f[0]),
        g=curve.g,
        h=curve.h,
        ratio=(curve.ratio[0], curve.ratio[1], curve.ratio[0] * 2.0),
        r=curve.r,
        m=curve.m,
        converged=curve.converged,
    )
    assert not check_monotone_f_g(broken).passed
    assert not check_ratio_monotone(broken).passed


def test_concavity_needs_three_points():
    curve = sweep(star_g2(), [3.5, 5.0])
    with pytest.raises(PreconditionError):
        check_concavity(curve)


def test_check_report_json():
    import json

    rep = CheckReport("demo", True, 0.0, {"note": "x"})
    payload = json.loads(rep.to_json())
    assert payload["name"] == "demo" and payload["passed"] is True


def test_extension_sandwich_path():
    G = UniformHypergraph.from_edges(2, 3, [(0, 1), (1, 2)])
    rep = extension_sandwich_check(G, 4.0)
    assert rep.passed, rep.to_json()
    assert rep.details["extension_count"] == 2


def test_extension_sandwich_star():
    rep = extension_sandwich_check(star_g2(), 5.0)
    assert rep.passed, rep.to_json()
    assert rep.details["extension_count"] == 15
    assert rep.details["lower_attained_by_singletons"]
    assert rep.details["upper_attained_by_one_class"]


def test_extension_sandwich_gate():
    with pytest.raises(PreconditionError):
        extension_sandwich_check(star_g2(), 3.0)


def test_alpha_lambda_consistency_along_sweep():
    G = star_g2()
    curve = sweep(G, [3.5, 4.5, 6.0])
    for p, lam in zip(curve.p_grid, curve.lam):
        alpha = alpha_from_lambda(lam, G.r, p)
        assert abs(G.r ** (1 - G.r / p) * alpha ** (-1.0 / p) - lam) <= 1e-12 * lam


def test_sweep_seed_independent_above_r():
    G = star_g2()
    a = sweep(G, [3.5, 5.0], SolverOptions(seed=0))
    b = sweep(G, [3.5, 5.0], SolverOptions(seed=123))
    assert a.lam == b.lam
