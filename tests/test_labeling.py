import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_connected, star_weights
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
from uhs.labeling import (
    JSON_BLOCK_ROWS,
    Labeling,
    LabelingVerdict,
    PVector,
    alpha_from_lambda,
    classify_labeling,
    classify_labeling_sub_r,
    condition_residuals,
    eigenvector_from_labeling,
    labeling_from_eigenvector,
    lambda_from_alpha,
    weight_only_residual,
)
from uhs.solver import certificate_search_sub_r, solve_p_spectral, solve_weight_system


def consistent_labeling_from_weights(G, w, p, alpha):
    """B(v,e) = w(e) / sum_{f at v} w(f); the consistent completion."""
    w = np.asarray(w, dtype=float)
    sums = np.zeros(G.n)
    np.add.at(sums, G.edges_array, np.broadcast_to(w[:, None], G.edges_array.shape))
    B = w[:, None] / sums[G.edges_array]
    return Labeling(B=B, w=w, p=p, alpha=alpha)


def orbit_weights(G, orbits, per_orbit):
    w = np.empty(G.m)
    for k, cls in enumerate(orbits):
        w[list(cls)] = per_orbit[k]
    return w


def test_lambda_alpha_roundtrip():
    for r, p, lam in [(3, 4.5, 2.3), (2, 3.0, 1.1), (4, 6.0, 8.0)]:
        alpha = alpha_from_lambda(lam, r, p)
        assert abs(lambda_from_alpha(alpha, r, p) - lam) <= 1e-14 * lam


def test_alpha_from_lambda_values():
    assert abs(alpha_from_lambda(3.0, 4, 4.0) - 1.0 / 81.0) <= 1e-16
    assert abs(alpha_from_lambda(2.0, 2, 4.0) - 0.25) <= 1e-16


def test_lambda_from_alpha_requires_p_above_r():
    with pytest.raises(PreconditionError):
        lambda_from_alpha(0.5, 3, 3.0)


def test_single_edge_unit_labeling_is_normal():
    G = k_r_r(3)
    L = Labeling(B=np.ones((1, 3)), w=np.ones(1), p=5.0, alpha=1.0)
    v = classify_labeling(G, L)
    assert v.classification == "normal" and v.consistent


def test_scaled_weights_go_strictly_subnormal():
    # shrink the edge weight: weight sum drops below 1, alpha condition
    # holds with the matching rescale, rows stay exact
    G = k_r_r(3)
    p = 5.0
    L = Labeling(B=np.ones((1, 3)), w=np.array([0.9]), p=p, alpha=0.9 ** (p - 3))
    v = classify_labeling(G, L)
    assert v.classification == "strictly-subnormal"


def test_inflated_weights_go_strictly_supernormal():
    G = k_r_r(3)
    p = 5.0
    L = Labeling(B=np.ones((1, 3)), w=np.array([1.1]), p=p, alpha=1.1 ** (p - 3))
    v = classify_labeling(G, L)
    assert v.classification == "strictly-supernormal"


def test_mixed_violations_classify_none():
    G = star_g2()
    B = np.full((4, 3), 0.5)
    w = np.array([0.5, 0.5, 0.2, 0.2])  # weight sum 1.4, rows both over and under
    L = Labeling(B=B, w=w, p=4.0, alpha=0.1)
    assert classify_labeling(G, L).classification == "none"


def test_wrong_alpha_detected_when_alpha_is_tiny():
    # K_4^(3) at p = 20: lambda = 9.747, alpha = 2.16e-12
    G = UniformHypergraph.from_edges(3, 4, list(combinations(range(4), 3)))
    res = solve_p_spectral(G, 20.0)
    L = labeling_from_eigenvector(G, res.x, res.lam)
    assert L.alpha < 1e-11
    assert classify_labeling(G, L).classification == "normal"
    wrong = Labeling(B=L.B, w=L.w, p=L.p, alpha=L.alpha * 1.05)
    assert classify_labeling(G, wrong).classification != "normal"


def test_classify_rejects_small_p():
    G = star_g2()
    L = Labeling(B=np.full((4, 3), 1 / 3), w=np.full(4, 0.25), p=2.0, alpha=0.5)
    with pytest.raises(PreconditionError):
        classify_labeling(G, L)


def test_star_closed_form_labeling_is_normal():
    G = star_g2()
    for p in (3.5, 5.0, 7.0):
        w1, w2, alpha = star_weights(p)
        w = orbit_weights(G, star_g2_orbits(), [w1, w2])
        L = consistent_labeling_from_weights(G, w, p, alpha)
        v = classify_labeling(G, L, tol=1e-10)
        assert v.classification == "normal" and v.consistent


def test_grid_solver_labeling_is_normal():
    G = grid_g1()
    p = 6.0
    res = solve_p_spectral(G, p)
    L = labeling_from_eigenvector(G, res.x, res.lam)
    v = classify_labeling(G, L, tol=1e-8)
    assert v.classification == "normal" and v.consistent


def test_non_eigenvector_labeling_not_normal():
    G = grid_g1()
    x = PVector(values=np.arange(1.0, 26.0), p=6.0)
    L = labeling_from_eigenvector(G, x, 5.0)
    v = classify_labeling(G, L)
    assert v.classification != "normal"


def test_sub_r_unit_degree_split_is_subnormal():
    # B(v,e) = 1/d_v gives unit rows; alpha at the worst edge is tight
    G = two_triangles_path()
    p = 1.0
    d = degrees(G).degrees.astype(float)
    B = 1.0 / d[G.edges_array]
    alpha = G.m ** (G.r - p) * B.prod(axis=1).min()
    v = classify_labeling_sub_r(G, B, alpha, p)
    assert v.classification == "subnormal"
    # any larger alpha breaks the per-edge condition
    v2 = classify_labeling_sub_r(G, B, alpha * 1.01, p)
    assert v2.classification == "none"


def test_sub_r_rejects_large_p():
    # p outside [1, r): p >= r, and p below 1 where no sub-r theory holds
    for G, p in ((k_r_r(2), 2.0), (k_r_r(3), 0.5), (k_r_r(3), -1.0)):
        with pytest.raises(PreconditionError):
            classify_labeling_sub_r(G, np.full((1, G.r), 0.5), 0.1, p)


def test_sub_r_residuals_are_the_true_extremes():
    # both extremes lie on the far side of 0: all rows below 1, all edges above alpha
    G, p = star_g2(), 2.0
    out = certificate_search_sub_r(G, p)
    sub, _ = induced_subhypergraph(G, out.S)
    v = classify_labeling_sub_r(sub, out.labeling.B / 2, out.labeling.alpha * 0.01, p)
    assert v.classification == "subnormal"
    assert v.residuals["row_max"] == pytest.approx(-0.5, abs=1e-12)
    assert v.residuals["edge_min"] == pytest.approx(0.0575, abs=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_classify_rejects_a_tol_that_is_not_finite_and_positive(tol):
    L = Labeling(B=np.ones((1, 3)), w=np.ones(1), p=5.0, alpha=1.0)
    with pytest.raises(PreconditionError):
        classify_labeling(k_r_r(3), L, tol=tol)
    with pytest.raises(PreconditionError):
        classify_labeling_sub_r(k_r_r(3), np.full((1, 3), 1.0), 1.0, 1.0, tol=tol)


def test_verdict_json_rejects_non_finite_numbers():
    verdict = LabelingVerdict("none", False, {"row_max": math.inf}, 1e-8)
    with pytest.raises(ValueError):
        verdict.to_json()


def test_labeling_roundtrip_eigenvector():
    G = star_g2()
    res = solve_p_spectral(G, 5.0)
    L = labeling_from_eigenvector(G, res.x, res.lam)
    x2 = eigenvector_from_labeling(G, L)
    assert np.abs(x2.values - res.x.values).max() <= 1e-10
    assert abs(x2.norm_p() - 1.0) <= 1e-12


def test_eigenvector_from_inconsistent_labeling_raises():
    G = star_g2()
    w1, w2, alpha = star_weights(5.0)
    w = orbit_weights(G, star_g2_orbits(), [w1, w2])
    L = consistent_labeling_from_weights(G, w, 5.0, alpha)
    B = L.B.copy()
    B[0, 0] *= 2.0  # break the shared-vertex ratio
    with pytest.raises(PreconditionError):
        eigenvector_from_labeling(G, Labeling(B=B, w=w, p=5.0, alpha=alpha))


def test_eigenvector_requires_full_coverage():
    from uhs.core import UniformHypergraph

    G = UniformHypergraph.from_edges(2, 3, [(0, 1)])
    L = Labeling(B=np.full((1, 2), 1.0), w=np.ones(1), p=5.0, alpha=1.0)
    with pytest.raises(PreconditionError):
        eigenvector_from_labeling(G, L)


def test_corner_reductions_match_vertex_loop():
    # reference: per vertex, the corners (k, position of v in edge k) in edge order
    rng = np.random.default_rng(5)
    for _ in range(5):
        G = random_connected(rng, 3, 9, extra=4)
        corners = [[(k, e.index(v)) for k, e in enumerate(G.edges) if v in e] for v in range(G.n)]
        B = rng.uniform(0.1, 1.0, (G.m, G.r))
        w = rng.uniform(0.1, 1.0, G.m)
        spread = condition_residuals(G, B, w, 4.0, 1.0)["consistency_spread"]
        for v, cs in enumerate(corners):
            vals = [w[k] / B[k, j] for k, j in cs]
            hi, lo = max(vals), min(vals)
            assert spread[v] == (hi - lo) / hi
        res = solve_p_spectral(G, 4.0)
        L = labeling_from_eigenvector(G, res.x, res.lam)
        first = [(L.w[k] / (G.r * L.B[k, j])) ** (1.0 / L.p) for k, j in (cs[0] for cs in corners)]
        assert np.array_equal(eigenvector_from_labeling(G, L).values, PVector(np.array(first), 4.0).values)


def test_weight_only_residual_closed_form():
    G = star_g2()
    p = 5.0
    w1, w2, alpha = star_weights(p)
    w = orbit_weights(G, star_g2_orbits(), [w1, w2])
    res = weight_only_residual(G, w, alpha, p)
    assert np.abs(res["per_edge"]).max() <= 1e-12
    assert res["weight_sum"] <= 1e-12


def test_weight_only_residual_grid_newton():
    G = grid_g1()
    w, alpha = solve_weight_system(G, grid_g1_orbits(), 6.0)
    res = weight_only_residual(G, w, alpha, 6.0)
    assert np.abs(res["per_edge"]).max() <= 1e-10


def test_weight_only_residual_detects_bad_weights():
    G = star_g2()
    res = weight_only_residual(G, np.full(4, 0.25), 1.0, 5.0)
    assert np.abs(res["per_edge"]).max() > 1e-3


def test_json_roundtrip():
    G = star_g2()
    res = solve_p_spectral(G, 5.0)
    L = labeling_from_eigenvector(G, res.x, res.lam)
    L2 = Labeling.from_json(L.to_json())
    assert L2.p == L.p and L2.alpha == L.alpha
    assert np.array_equal(L2.B, L.B) and np.array_equal(L2.w, L.w)


def test_json_is_one_sorted_line():
    L = Labeling(B=np.full((2, 2), 0.5), w=np.full(2, 0.5), p=3.0, alpha=0.25)
    text = L.to_json()
    assert "\n" not in text
    assert text.startswith('{"B": [[0.5, 0.5], [0.5, 0.5]], "alpha": 0.25, "p": 3.0, "w": ')


@pytest.mark.parametrize("m", [1, JSON_BLOCK_ROWS, JSON_BLOCK_ROWS + 1])
def test_json_pieces_join_to_one_json_dumps(m):
    rng = np.random.default_rng(m)
    L = Labeling(B=rng.uniform(1e-300, 1.0, (m, 3)), w=rng.uniform(1e-9, 1.0, m), p=3.5, alpha=1e-12)
    payload = {"p": L.p, "alpha": L.alpha, "w": L.w.tolist(), "B": L.B.tolist()}
    text = "".join(L.json_pieces())
    assert text == json.dumps(payload, sort_keys=True, allow_nan=False) == L.to_json()
    L2 = Labeling.from_json(text)
    assert L2.p == L.p and L2.alpha == L.alpha
    assert np.array_equal(L2.B, L.B) and np.array_equal(L2.w, L.w)


@pytest.mark.parametrize(
    "field, value",
    [
        ("B", [[math.nan, 1.0], [0.5, 1.0]]),
        ("B", [[math.inf, 1.0], [0.5, 1.0]]),
        ("w", [0.5, math.inf]),
        ("p", math.inf),
        ("p", math.nan),
        ("alpha", math.nan),
        ("alpha", math.inf),
    ],
)
def test_non_finite_labeling_rejected(field, value):
    entries = dict(B=np.full((2, 2), 0.5), w=np.full(2, 0.5), p=3.0, alpha=0.25)
    entries[field] = value
    with pytest.raises(PreconditionError, match="finite"):
        Labeling(**entries)


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '"B"',
        '{"p": 3.0, "w": [0.5, 0.5]}',
        '{"B": [[0.5, 0.5]], "w": [1.0], "p": null, "alpha": 0.25}',
        '{"B": [[0.5, 0.5]], "w": [1.0], "p": 3.0, "alpha": [0.25]}',
        '{"B": [[NaN, 0.5]], "w": [1.0], "p": 3.0, "alpha": 0.25}',
        '{"B": [[0.5, 0.5]], "w": [1.0], "p": true, "alpha": 0.25}',
        '{"B": [[0.5, 0.5]], "w": [1.0], "p": "3", "alpha": 0.25}',
        '{"B": [[0.5, 0.5]], "w": [1.0], "p": 3.0, "alpha": false}',
        '{"B": [[0.5, 0.5]], "w": [1.0], "p": 3.0, "alpha": "1"}',
        '{"B": [[0.5, "0.5"]], "w": [1.0], "p": 3.0, "alpha": 0.25}',
        '{"B": [[0.5, 0.5]], "w": ["1.0"], "p": 3.0, "alpha": 0.25}',
        '{"B": [[true, true]], "w": [1.0], "p": 3.0, "alpha": 0.25}',
        '{"B": [[0.5, null]], "w": [1.0], "p": 3.0, "alpha": 0.25}',
        '{"B": [[0.5, 0.5], [0.5]], "w": [0.5, 0.5], "p": 3.0, "alpha": 0.25}',
        pytest.param('{"B": [[0.5, 0.5]], "w": [1.0], "p": 3.0, "alpha": 1' + "0" * 400 + "}", id="alpha-1e400"),
    ],
)
def test_from_json_rejects_malformed(text):
    with pytest.raises(PreconditionError):
        Labeling.from_json(text)


def test_verdict_json_exposes_class():
    import json

    G = k_r_r(3)
    L = Labeling(B=np.ones((1, 3)), w=np.ones(1), p=5.0, alpha=1.0)
    payload = json.loads(classify_labeling(G, L).to_json())
    assert payload["class"] == "normal" and payload["consistent"] is True


def test_pvector_normalizes():
    v = PVector(values=np.array([3.0, 4.0]), p=2.0)
    assert abs(v.norm_p() - 1.0) <= 1e-15
    with pytest.raises(PreconditionError):
        PVector(values=np.array([-1.0, 2.0]), p=2.0)


@given(
    st.floats(3.2, 12.0),
    st.floats(0.2, 0.8),
)
@settings(max_examples=40, deadline=None)
def test_star_residuals_scale_free(p, scale):
    # consistency spread is invariant under a global rescale of w and B
    G = star_g2()
    w1, w2, alpha = star_weights(p)
    w = orbit_weights(G, star_g2_orbits(), [w1, w2])
    L = consistent_labeling_from_weights(G, w, p, alpha)
    res = condition_residuals(G, L.B, L.w, p, alpha)
    res2 = condition_residuals(G, scale * L.B, L.w, p, alpha)
    assert math.isclose(
        float(res["consistency_spread"].max()),
        float(res2["consistency_spread"].max()),
        abs_tol=1e-12,
    )


@given(st.floats(4.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_normal_stays_normal_at_larger_tol(p):
    G = star_g2()
    w1, w2, alpha = star_weights(p)
    w = orbit_weights(G, star_g2_orbits(), [w1, w2])
    L = consistent_labeling_from_weights(G, w, p, alpha)
    for tol in (1e-10, 1e-8, 1e-6):
        assert classify_labeling(G, L, tol=tol).classification == "normal"
