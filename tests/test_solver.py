import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from helpers import enumerate_connected, grid_lambda, random_connected, star_lambda, star_weights
from oracle import brute_force_lambda, clique_number, loose_path_lambda, path_lambda
from uhs.constructions import (
    grid_g1,
    grid_g1_orbits,
    k_r_r,
    star_g2,
    star_g2_orbits,
    two_triangles_path,
)
from uhs.core import UniformHypergraph, degrees, induced_subhypergraph
from uhs.errors import PreconditionError
from uhs.labeling import alpha_from_lambda, classify_labeling, eigenvector_from_labeling
from uhs.solver import (
    SolverOptions,
    _edges_inside,
    _lambda_bound,
    _mask,
    _pga_best,
    _pga_result,
    _polish_critical,
    _residual,
    _shadow_bound,
    _vertices,
    certificate_search_sub_r,
    compose_components,
    compose_components_max,
    polynomial_form,
    solve_p_spectral,
    solve_weight_system,
    solver_certificate,
    support_sums,
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
    # a support entry of 1e-9 once sent the Newton step through negative
    # entries; a NaN step must not be accepted as a solution
    G = star_g2()
    p = 1.5
    res = solve_p_spectral(G, p)
    support = np.flatnonzero(res.x.values > 1e-12)
    x0 = res.x.values.copy()
    x0[support[-1]] = 1e-9
    with np.errstate(invalid="ignore"):
        polished = _polish_critical(G, x0, res.lam, p, support, 1e-10)
    assert polished is None or np.isfinite(polished[1])


def test_polish_recovers_tiny_support_entry():
    G = star_g2()
    p = 1.5
    res = solve_p_spectral(G, p)
    support = np.flatnonzero(res.x.values > 1e-12)
    x0 = res.x.values.copy()
    x0[support[-1]] = 1e-9
    _, lam, residual = _polish_critical(G, x0, res.lam, p, support, 1e-10)
    assert residual <= 1e-10
    assert abs(lam - res.lam) <= 1e-12


def test_polish_converges_from_perturbed_eigenvector():
    # 40 Newton steps from a 1e-3 perturbation reach 1e-13 only with the
    # exact Jacobian; an approximate one converges linearly
    G = grid_g1()
    p = 3.0
    res = solve_p_spectral(G, p)
    x0 = res.x.values * (1 + 1e-3 * np.random.default_rng(0).standard_normal(G.n))
    *_, residual = _polish_critical(G, x0, res.lam, p, np.arange(G.n), 1e-11)
    assert residual <= 1e-13


@pytest.mark.parametrize("p", [1.0, 2.5])
def test_residual_batch_rows_match_single_calls(p):
    # row 1 has a partial support, row 2 none (residual 0)
    G = grid_g1()
    X = np.random.default_rng(5).uniform(0.0, 1.0, (4, G.n))
    X[1, ::3] = 0.0
    X[2] = 0.0
    S, prods = support_sums(X, G.edges_array, G.n)
    P = G.r * prods.sum(axis=1)
    res = _residual(S, X, P[:, None], p)
    assert res.shape == (4,) and res[2] == 0.0
    for k in range(4):
        assert res[k] == _residual(S[k], X[k], P[k], p)
    sup = X[1] > 0
    assert res[1] == np.abs(S[1][sup] - P[1] * np.power(X[1][sup], p - 1.0)).max()


def test_p3_at_p_one_converges():
    # the maximizers of P3 at p = 1 form a segment, so the Jacobian is
    # singular; Motzkin-Straus gives 1 - 1/omega = 1/2
    G = UniformHypergraph.from_edges(2, 3, [(0, 1), (1, 2)])
    res = solve_p_spectral(G, 1.0)
    assert res.converged
    assert abs(res.lam - 0.5) <= 1e-10


def test_support_of_more_than_forty_vertices_converges():
    G = random_connected(np.random.default_rng(0), 3, 50, 50)
    res = solve_p_spectral(G, 2.5)
    assert len(res.support) > 40
    assert res.converged


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


def _plain_certificate_search(G: UniformHypergraph, p: float, opts: SolverOptions):
    """The exhaustive search with no pruning and no waves: every support is
    optimized on its own, as a group of one, and ties within 1e-9 go to the
    lexicographically smaller support."""
    unions = {frozenset()}
    for e in G.edges_array.tolist():
        unions |= {u | set(e) for u in unions}
    sub_opts = replace(opts, restarts=min(opts.restarts, 8))
    best = None
    for S in sorted(tuple(sorted(u)) for u in unions if u):
        sub, _ = induced_subhypergraph(G, S)
        if sub.m == 0 or degrees(sub).delta == 0:
            continue
        ascent = _pga_best(G, p, sub_opts, 5000, [(S, _lambda_bound(sub, p))])[0]
        res = _pga_result(G, p, opts.tol, *ascent)
        x = res.x.values[list(S)]
        if res.residual > max(opts.tol, 1e-9) * 100 or x.min() <= 1e-7 * x.max():
            continue
        if best is None or res.lam > best[1] + 1e-9:
            best = (S, res.lam)
        elif abs(res.lam - best[1]) <= 1e-9 and S < best[0]:
            best = (S, res.lam)
    return best


def _parity_instances():
    rng = np.random.default_rng(17)
    out = []
    for i in range(20):
        r = (2, 3)[i % 2]
        n = int(rng.integers(r + 1, 7 if r == 2 else 8))  # graphs on 7 vertices take seconds
        ps = (1.0, 1.5) if r == 2 else (1.0, 1.5, 2.0, 2.5)
        out.append((random_connected(rng, r, n, int(rng.integers(0, 3))), ps[i // 2 % len(ps)]))
    rng = np.random.default_rng(19)
    for p in (1.0, 2.0, 3.0, 2.5):  # r = 4: the shadow of G[S] has more than r vertices
        n = int(rng.integers(5, 7))
        out.append((random_connected(rng, 4, n, int(rng.integers(0, 3))), p))
    return out


def test_certificate_search_matches_the_unpruned_search():
    star = UniformHypergraph.from_edges(2, 3, [(0, 2), (1, 2)])
    ties = [(two_triangles_path(), 1.0), (_cycle(4), 1.0), (_cycle(4), 1.5), (star, 1.0)]
    opts = SolverOptions()
    for G, p in ties + _parity_instances():
        out = certificate_search_sub_r(G, p, opts)
        assert (out.S, out.lam) == _plain_certificate_search(G, p, opts)
        assert out.lam <= out.lam_hi == max(_lambda_bound(G, p), out.lam)
    # the non-clique support ties the clique (0, 2) at 1/2 and comes first,
    # also as a proper support, where positivity is judged on S alone
    assert certificate_search_sub_r(star, 1.0).S == (0, 1, 2)
    star_and_edge = UniformHypergraph.from_edges(2, 5, [(0, 2), (1, 2), (3, 4)])
    assert certificate_search_sub_r(star_and_edge, 1.0).S == (0, 1, 2)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_lambda_bound_dominates_brute_force(r):
    # the exhaustive search's lam_hi is this bound on all of G
    for n in range(r, 6):
        for G in enumerate_connected(n, r):
            for p in (1.0, 1.5, 2.5):
                assert _lambda_bound(G, p) >= brute_force_lambda(G, p) - 1e-9


def _complete_graph_bound(H, p):
    """The bound with lambda^(1)(H) replaced by that of the complete r-graph
    on all n vertices of H, r C(n, r) / n^r."""
    r, n = H.r, H.n
    return (r * H.m) ** (1.0 - 1.0 / p) * (r * math.comb(n, r) / n**r) ** (1.0 / p)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_bitmask_screen_matches_the_induced_subhypergraph(r):
    rng = np.random.default_rng(40 + r)
    for _ in range(10):
        n = int(rng.integers(r + 1, 9))
        G = random_connected(rng, r, n, int(rng.integers(0, 2 * n)))
        edge_masks = [_mask(e) for e in G.edges_array.tolist()]
        for S in range(1, 1 << n):  # every vertex set, not only the unions of edges
            sub, _ = induced_subhypergraph(G, _vertices(S))
            inside = _edges_inside(edge_masks, S)
            assert (inside is None) == (sub.m == 0 or degrees(sub).delta == 0)
            if inside is None:
                continue
            assert len(inside) == sub.m
            # at p = 1 the bound is lambda^(1) of the complete r-graph on a
            # largest clique of the 2-shadow of G[S]
            pairs = {pair for e in sub.edges_array.tolist() for pair in combinations(e, 2)}
            omega = clique_number(sub.n, pairs)
            assert _shadow_bound(r, inside, S, 1.0) == r * math.comb(omega, r) / omega**r
            for p in (1.0, 1.5, 2.5):
                bound = _shadow_bound(r, inside, S, p)
                assert bound == _lambda_bound(sub, p)
                if r >= 3:
                    assert bound <= _complete_graph_bound(sub, p)


def test_certificate_search_p1_is_motzkin_straus():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        G = random_connected(rng, 2, n, int(rng.integers(0, n)))
        omega = clique_number(G.n, G.edges_array.tolist())
        out = certificate_search_sub_r(G, 1.0)
        assert abs(out.lam - (1.0 - 1.0 / omega)) <= 1e-9
        assert abs(out.lam_hi - (1.0 - 1.0 / omega)) <= 1e-15


def _wave_instances():
    rng = np.random.default_rng(23)
    out = []
    for i in range(12):
        r = (2, 3, 4)[i % 3]
        n = int(rng.integers(r + 2, 9))
        G = random_connected(rng, r, n, int(rng.integers(1, n)))
        ps = np.arange(1.0, r - 0.25, 0.5)
        out.append(pytest.param(G, float(ps[i // 3 % len(ps)]), id=f"r{r}-n{n}-m{G.m}"))
    return out


@pytest.mark.parametrize("G, p", _wave_instances())
def test_wave_groups_match_their_own_ascent(G, p):
    # a wave of several candidate supports: each group's winner is, bit for
    # bit, that of its one-group call, and agrees with the ascent on G[S]
    opts = SolverOptions(restarts=8)
    edge_masks = [_mask(e) for e in G.edges_array.tolist()]
    unions = {0}
    for e in edge_masks:
        unions |= {u | e for u in unions}
    screened = []
    for S, mask in sorted((_vertices(u), u) for u in unions if u):
        inside = _edges_inside(edge_masks, mask)
        if inside is not None:
            screened.append((S, _shadow_bound(G.r, inside, mask, p)))
    wave = screened[:: max(1, len(screened) // 5)][:6] + screened[-1:]
    assert len(wave) >= 3
    for (S, bound), got in zip(wave, _pga_best(G, p, opts, 5000, wave)):
        alone = _pga_best(G, p, opts, 5000, [(S, bound)])[0]
        assert np.array_equal(got[0], alone[0]) and got[1:] == alone[1:]
        sub, vmap = induced_subhypergraph(G, S)
        ref = solve_p_spectral(sub, p, replace(opts, max_iter=5000))
        res = _pga_result(G, p, opts.tol, *got)
        assert abs(res.lam - ref.lam) <= 1e-12
        assert res.support == tuple(vmap[v] for v in ref.support)


@pytest.mark.parametrize("r, n, p", [(2, 4, 1.5), (3, 5, 2.0)])
def test_complete_graph_supports_stop_at_their_bound(r, n, p, monkeypatch):
    # every candidate support of K_n^(r) spans a complete r-graph, whose
    # all-ones start is a critical point at its bound r C(t, r) t^(-r/p):
    # each ascent stops there at its first iteration
    import uhs.solver

    iterations = []

    def recording(*args, **kwargs):
        out = _pga_best(*args, **kwargs)
        iterations.extend(ascent[3] for ascent in out)
        return out

    monkeypatch.setattr(uhs.solver, "_pga_best", recording)
    G = UniformHypergraph.from_edges(r, n, list(combinations(range(n), r)))
    out = certificate_search_sub_r(G, p)
    assert out.S == tuple(range(n))
    assert out.tried >= 1 and len(iterations) >= out.tried
    assert set(iterations) == {1}
    assert abs(out.lam - r * math.comb(n, r) * n ** (-r / p)) <= 1e-12


def test_certificate_search_beyond_the_subgraph_limit():
    # n > SUBGRAPH_LIMIT: the one candidate is the support of the solve on G
    # at the full restarts, and there is no upper end
    G = random_connected(np.random.default_rng(3), 2, 24, 20)
    out = certificate_search_sub_r(G, 1.5)
    heur = solve_p_spectral(G, 1.5)
    assert not out.exhaustive and out.lam_hi is None
    assert out.S == heur.support and out.tried == 1 and out.pruned == 0
    assert abs(out.lam - heur.lam) <= 1e-9


def test_certificate_search_beyond_the_limit_shrinks_to_a_positive_support():
    # the solve on G ends at lambda 0.504 on 21 vertices, and the ascent on
    # that support at a boundary point; the winners' positive parts lead to
    # a strictly positive critical point at 1 - 1/omega = 3/4
    G = random_connected(np.random.default_rng(1), 2, 60, 200)
    out = certificate_search_sub_r(G, 1.0)
    assert not out.exhaustive and out.lam_hi is None
    assert _lambda_bound(G, 1.0) == 0.75  # Motzkin-Straus: omega = 4
    assert abs(out.lam - 0.75) <= 1e-9
    assert len(out.S) < len(solve_p_spectral(G, 1.0).support)
    sub, _ = induced_subhypergraph(G, out.S)
    x = eigenvector_from_labeling(sub, out.labeling).values
    assert x.min() > 1e-7 * x.max()
    assert abs(polynomial_form(sub, x) - out.lam) <= 1e-9


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
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(PreconditionError):
            SolverOptions(tol=tol)
    with pytest.raises(PreconditionError):
        SolverOptions(max_iter=0)
    with pytest.raises(PreconditionError):
        SolverOptions(restarts=-1)


def _path(n: int) -> UniformHypergraph:
    return UniformHypergraph.from_edges(2, n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> UniformHypergraph:
    return UniformHypergraph.from_edges(2, n, [(i, (i + 1) % n) for i in range(n)])


def _loose_path(n: int, r: int) -> UniformHypergraph:
    """The n-vertex path with r - 2 fresh vertices added to every edge."""
    fresh = n + (r - 2) * np.arange(n - 1)[:, None] + np.arange(r - 2)
    edges = np.hstack([np.arange(n - 1)[:, None], np.arange(1, n)[:, None], fresh])
    return UniformHypergraph.from_edges(r, n + (r - 2) * (n - 1), edges)


@pytest.mark.parametrize("n", [3, 5])
def test_odd_path_at_p_equals_r_converges(n):
    # the undamped map 2-cycles here from the uniform start
    res = solve_p_spectral(_path(n), 2.0)
    assert res.converged and res.iterations <= 100
    assert abs(res.lam - path_lambda(n)) <= 1e-9


@pytest.mark.parametrize(
    "G, exact",
    [pytest.param(_path(n), path_lambda(n), id=f"P{n}") for n in (3, 5, 7, 9, 21)]
    + [
        pytest.param(_cycle(2 * k), 2.0, id=f"C{2 * k}")  # 2-regular
        for k in (2, 3, 5)
    ]
    + [
        pytest.param(_loose_path(n, r), loose_path_lambda(n, r), id=f"loose{r}-P{n}")
        for n, r in ((6, 3), (9, 3), (5, 4))
    ],
)
def test_bracket_holds_closed_form_at_p_equals_r(G, exact):
    res = solve_p_spectral(G, float(G.r))
    assert res.converged
    assert res.lam_lo <= exact * (1 + 1e-15) and exact <= res.lam_hi * (1 + 1e-15)
    assert res.lam_hi - res.lam_lo <= 1e-7 * res.lam


@pytest.mark.parametrize(
    "G, p, exact",
    [
        pytest.param(star_g2(), 3.5, star_lambda(3.5), id="star-p3.5"),
        pytest.param(grid_g1(), 6.0, grid_lambda(6.0), id="grid-p6"),
        pytest.param(_path(5), 2.0, path_lambda(5), id="P5-p2"),
    ],
)
def test_bracket_holds_before_convergence(G, p, exact):
    for cap in range(1, 6):
        res = solve_p_spectral(G, p, SolverOptions(max_iter=cap))
        assert res.iterations == cap and not res.converged
        assert res.lam_lo <= exact <= res.lam_hi


@pytest.mark.parametrize("G", [star_g2(), grid_g1(), _path(5)], ids=["star", "grid", "P5"])
def test_bracket_at_the_uniform_start(G):
    # at x = n^(-1/p) (1, ..., 1): s_i / x_i^(p-1) = d_i n^((p-r)/p) and P = r m n^(-r/p);
    # at p = r the upper end is the maximum degree (Collatz-Wielandt)
    n, r, top = G.n, G.r, float(np.bincount(G.edges_array.ravel()).max())
    for p in (float(r), r + 1.5):
        res = solve_p_spectral(G, p, SolverOptions(max_iter=1))
        P = r * G.m * n ** (-r / p)
        assert res.lam_lo == pytest.approx(P, rel=1e-14)
        assert res.lam_hi == pytest.approx(P + (r / p) * (top * n ** ((p - r) / p) - P), rel=1e-14)


def test_bracket_missing_when_x_has_a_zero_entry():
    # P3 plus an isolated vertex: its entry is 0 after one step, so no upper
    # bound (and no 0/0 warning, which the test configuration makes an error)
    G = UniformHypergraph.from_edges(2, 4, [(0, 1), (1, 2)])
    res = solve_p_spectral(G, 2.0)
    assert res.converged and res.x.values[3] == 0.0
    assert res.lam_hi is None and res.lam_lo == res.lam
