import numpy as np
import pytest

from helpers import grid_lambda, random_connected, star_lambda, star_weights
from oracle import brute_force_lambda
from uhs.constructions import (
    grid_g1,
    grid_g1_orbits,
    k_r_r,
    star_g2,
    star_g2_orbits,
    two_triangles_path,
)
from uhs.core import UniformHypergraph
from uhs.errors import PreconditionError
from uhs.labeling import alpha_from_lambda, classify_labeling, eigenvector_from_labeling
from uhs.solver import (
    SolverOptions,
    _polish_critical,
    certificate_search_sub_r,
    compose_components,
    compose_components_max,
    polynomial_form,
    solve_p_spectral,
    solve_weight_system,
    solver_certificate,
)


def test_polynomial_form_triangle():
    G = UniformHypergraph.from_edges(2, 3, [(0, 1), (0, 2), (1, 2)])
    x = np.array([0.5, 0.5, 0.5])
    assert abs(polynomial_form(G, x) - 2 * 3 * 0.25) <= 1e-15


def test_polynomial_form_zero_vector():
    assert polynomial_form(star_g2(), np.zeros(8)) == 0.0


def test_polynomial_form_length_check():
    with pytest.raises(PreconditionError):
        polynomial_form(star_g2(), np.zeros(7))


def test_single_edge_radius():
    # lambda^(p)(K_r^r) = r^{1 - r/p} at the uniform vector
    for r in (2, 3, 4):
        for p in (r + 0.5, r + 2.0, 2.0 * r):
            res = solve_p_spectral(k_r_r(r), p)
            assert res.converged
            assert abs(res.lam - r ** (1.0 - r / p)) <= 1e-10
            assert np.abs(res.x.values - r ** (-1.0 / p)).max() <= 1e-8


def test_p_equals_r_single_edge():
    res = solve_p_spectral(k_r_r(3), 3.0)
    assert abs(res.lam - 1.0) <= 1e-10


def test_grid_closed_form():
    G = grid_g1()
    for p in (4.5, 6.0, 8.0):
        res = solve_p_spectral(G, p)
        assert res.converged and res.residual <= 1e-10
        assert abs(res.lam - grid_lambda(p)) <= 1e-8


def test_star_closed_form():
    G = star_g2()
    for p in (3.5, 5.0):
        res = solve_p_spectral(G, p)
        assert abs(res.lam - star_lambda(p)) <= 1e-8


def test_eigenvector_positive_and_normalized():
    res = solve_p_spectral(grid_g1(), 6.0)
    x = res.x.values
    assert (x > 0).all()
    assert abs(np.power(x, 6.0).sum() - 1.0) <= 1e-12
    assert res.support == tuple(range(25))


def test_lambda_matches_polynomial_form():
    G = star_g2()
    res = solve_p_spectral(G, 5.0)
    assert abs(res.lam - polynomial_form(G, res.x.values)) <= 1e-12 * res.lam


def test_seed_invariance_above_r():
    G = grid_g1()
    a = solve_p_spectral(G, 6.0, SolverOptions(seed=1))
    b = solve_p_spectral(G, 6.0, SolverOptions(seed=99))
    assert a.lam == b.lam


def test_empty_hypergraph():
    G = UniformHypergraph.from_edges(3, 4, [])
    res = solve_p_spectral(G, 5.0)
    assert res.lam == 0.0 and res.converged and res.support == ()


def test_isolated_vertex_rejected_above_r():
    G = UniformHypergraph.from_edges(2, 3, [(0, 1)])
    with pytest.raises(PreconditionError):
        solve_p_spectral(G, 3.0)


def test_p_below_one_rejected():
    with pytest.raises(PreconditionError):
        solve_p_spectral(k_r_r(2), 0.5)


def test_two_triangles_at_p_one():
    res = solve_p_spectral(two_triangles_path(), 1.0)
    assert res.converged
    assert abs(res.lam - 2.0 / 3.0) <= 1e-10
    assert set(res.support) in ({0, 1, 2}, {3, 4, 5})


def test_polish_rejects_non_finite_trial():
    # a support entry of 1e-9 sends the finite-difference Jacobian through
    # negative entries; the NaN step must not be accepted as a solution
    G = star_g2()
    p = 1.5
    res = solve_p_spectral(G, p)
    support = np.flatnonzero(res.x.values > 1e-12)
    x0 = res.x.values.copy()
    x0[support[-1]] = 1e-9
    with np.errstate(invalid="ignore"):
        polished = _polish_critical(G, x0, res.lam, p, support, 1e-10)
    assert polished is None or np.isfinite(polished[1])


def test_certificate_search_two_triangles():
    out = certificate_search_sub_r(two_triangles_path(), 1.0)
    assert out.exhaustive
    assert out.S == (0, 1, 2)  # lexicographic tie-break between the triangles
    assert abs(out.lam - 2.0 / 3.0) <= 1e-10
    assert abs(out.labeling.alpha - 0.75) <= 1e-10


def test_certificate_search_single_edge():
    out = certificate_search_sub_r(k_r_r(3), 1.5)
    assert out.S == (0, 1, 2)
    assert abs(out.lam - 3.0 ** (1.0 - 3.0 / 1.5)) <= 1e-9


def test_certificate_search_certificate_is_usable():
    from uhs.core import induced_subhypergraph

    out = certificate_search_sub_r(two_triangles_path(), 1.0)
    sub, vmap = induced_subhypergraph(two_triangles_path(), out.S)
    x = eigenvector_from_labeling(sub, out.labeling)
    assert abs(polynomial_form(sub, x.values) - out.lam) <= 1e-9
    assert vmap == list(out.S)


def test_certificate_search_rejects_large_p():
    with pytest.raises(PreconditionError):
        certificate_search_sub_r(k_r_r(2), 2.0)


def test_confirm_sub_r_flag():
    opts = SolverOptions(confirm_sub_r=True)
    res = solve_p_spectral(two_triangles_path(), 1.0, opts)
    assert res.converged and abs(res.lam - 2.0 / 3.0) <= 1e-9


def test_weight_system_star():
    G = star_g2()
    for p in (3.5, 5.0, 7.0):
        w, alpha = solve_weight_system(G, star_g2_orbits(), p)
        w1, w2, a = star_weights(p)
        assert abs(w[0] - w1) <= 1e-12 and abs(w[1] - w1) <= 1e-12
        assert abs(w[2] - w2) <= 1e-12 and abs(w[3] - w2) <= 1e-12
        assert abs(alpha - a) <= 1e-12


def test_weight_system_single_orbit():
    w, alpha = solve_weight_system(k_r_r(3), [[0]], 5.0)
    assert abs(w[0] - 1.0) <= 1e-12 and abs(alpha - 1.0) <= 1e-12


def test_weight_system_grid_matches_solver():
    G = grid_g1()
    p = 6.0
    w, alpha = solve_weight_system(G, grid_g1_orbits(), p)
    assert abs(w.sum() - 1.0) <= 1e-12
    lam = G.r ** (1.0 - G.r / p) * alpha ** (-1.0 / p)
    assert abs(lam - grid_lambda(p)) <= 1e-10


def test_weight_system_rejects_bad_orbits():
    G = star_g2()
    with pytest.raises(PreconditionError):
        solve_weight_system(G, [[0, 1]], 5.0)  # does not cover all edges
    with pytest.raises(PreconditionError):
        solve_weight_system(G, star_g2_orbits(), 2.0)  # p <= r


def test_weight_system_detects_wrong_orbit_merge():
    from uhs.errors import ConvergenceError

    # forcing all four star edges onto one weight cannot satisfy the system
    with pytest.raises(ConvergenceError):
        solve_weight_system(star_g2(), [[0, 1, 2, 3]], 5.0)


def test_compose_components_identity():
    assert abs(compose_components([2.5], 5.0, 3) - 2.5) <= 1e-15
    assert compose_components_max([0.5, 2.0, 1.0]) == 2.0


def test_compose_components_matches_disjoint_union():
    rng = np.random.default_rng(11)
    for _ in range(6):
        r = int(rng.integers(2, 4))
        A = random_connected(rng, r, r + 2)
        B = random_connected(rng, r, r + 3)
        edges = list(A.edges) + [tuple(v + A.n for v in e) for e in B.edges]
        G = UniformHypergraph.from_edges(r, A.n + B.n, edges)
        p = r + 1.5
        lam = solve_p_spectral(G, p).lam
        composed = compose_components(
            [solve_p_spectral(A, p).lam, solve_p_spectral(B, p).lam], p, r
        )
        assert abs(lam - composed) <= 1e-8 * max(1.0, lam)


def test_compose_components_max_matches_sub_r():
    A = two_triangles_path()
    B = k_r_r(2)
    edges = list(A.edges) + [tuple(v + A.n for v in e) for e in B.edges]
    G = UniformHypergraph.from_edges(2, A.n + B.n, edges)
    lam = certificate_search_sub_r(G, 1.0).lam
    assert abs(lam - compose_components_max([2.0 / 3.0, 0.5])) <= 1e-9


def test_solver_certificate_is_normal():
    G = star_g2()
    res = solve_p_spectral(G, 5.0)
    cert = solver_certificate(G, res)
    v = classify_labeling(G, cert, tol=1e-8)
    assert v.classification == "normal" and v.consistent
    assert abs(cert.alpha - alpha_from_lambda(res.lam, G.r, 5.0)) <= 1e-15


def test_residual_certifies_lambda():
    rng = np.random.default_rng(5)
    for _ in range(8):
        r = int(rng.integers(2, 4))
        n = int(rng.integers(r + 1, r + 4))
        G = random_connected(rng, r, n)
        p = r + 1.0 + float(rng.uniform(0, 2))
        res = solve_p_spectral(G, p)
        assert res.converged and res.residual <= 1e-10
        assert abs(res.lam - polynomial_form(G, res.x.values)) <= 1e-10 * max(1.0, res.lam)


def test_adding_an_edge_never_decreases_lambda():
    rng = np.random.default_rng(9)
    from itertools import combinations

    for _ in range(6):
        G = random_connected(rng, 3, 6)
        pool = [e for e in combinations(range(6), 3) if e not in set(G.edges)]
        extra = pool[int(rng.integers(len(pool)))]
        H = UniformHypergraph.from_edges(3, 6, list(G.edges) + [extra])
        for p in (3.5, 5.0):
            assert solve_p_spectral(H, p).lam >= solve_p_spectral(G, p).lam - 1e-10


def test_oracle_spot_check():
    rng = np.random.default_rng(21)
    for _ in range(4):
        r = int(rng.integers(2, 4))
        G = random_connected(rng, r, r + 2)
        for p in (1.0, 2.5, r + 1.0):
            if p < r:
                lam = certificate_search_sub_r(G, p).lam
            else:
                lam = solve_p_spectral(G, p).lam
            assert abs(lam - brute_force_lambda(G, p)) <= 1e-3


def test_invalid_options_rejected():
    with pytest.raises(PreconditionError):
        SolverOptions(tol=0.0)
    with pytest.raises(PreconditionError):
        SolverOptions(damping=1.5)
