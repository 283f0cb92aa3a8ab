"""The p < r ascent needs one edge-indicator start, not one per edge.

`_reference_pga_best` is the whole-batch loop over all 1 + m + restarts
starts: the all-ones vector, the indicator of every edge and the random
restarts.  `_pga_best` keeps only the first edge's indicator, since every
indicator has the same P and residual bit for bit and the final pick
breaks their tie toward the first.  It must reproduce the reference bit
for bit.
"""

import tracemalloc

import numpy as np
import pytest

from helpers import random_connected
from uhs._kernels import support_sums
from uhs.core import UniformHypergraph
from uhs.labeling import PVector
from uhs.solver import (
    POSITIVE_SHARE,
    STALL_GAIN,
    STALL_WINDOW,
    SolverOptions,
    SpectralResult,
    _pga_best,
    _pga_starts,
    _polish_critical,
    _residual,
    solve_p_spectral,
)


def _reference_pga_best(G, p, opts, rng, max_iter=20000):
    n, r = G.n, G.r
    edges = G.edges_array
    indicators = np.zeros((G.m, n))
    indicators[np.arange(G.m)[:, None], edges] = 1.0
    X = np.vstack([np.ones((1, n)), indicators, rng.gamma(1.0, size=(opts.restarts, n))])
    X /= np.power(np.power(X, p).sum(axis=1), 1.0 / p)[:, None]
    k = X.shape[0]
    eta = np.full(k, 0.25)
    S, prods = support_sums(X, edges, n)
    P = r * prods.sum(axis=1)
    it = 0
    cap = min(opts.max_iter, max_iter)
    P_window = P.copy()
    for it in range(1, cap + 1):
        res = _residual(S, X, P[:, None], p)
        done = (res <= opts.tol) | (eta <= 1e-15)
        if done.all():
            break
        if it % STALL_WINDOW == 0:
            if (P - P_window).max() < STALL_GAIN * max(1.0, P.max()):
                break
            P_window = P.copy()
        normal = np.power(X, p - 1.0)
        coef = np.einsum("ij,ij->i", S, normal) / np.maximum(np.einsum("ij,ij->i", normal, normal), 1e-300)
        step = S - coef[:, None] * normal
        step *= (r * eta)[:, None]
        Y = np.clip(X + step, 0.0, None)
        nrm = np.power(np.power(Y, p).sum(axis=1), 1.0 / p)
        ok = nrm > 0
        Y[ok] /= nrm[ok, None]
        SY, prods = support_sums(Y, edges, n)
        Pn = r * prods.sum(axis=1)
        accept = ok & (Pn >= P - 1e-15) & ~done
        X[accept] = Y[accept]
        S[accept] = SY[accept]
        P[accept] = Pn[accept]
        eta[accept] = np.minimum(eta[accept] * 1.1, 1.0)
        shrink = ~accept & ~done
        eta[shrink] *= 0.5
    res = _residual(S, X, P[:, None], p)
    # the first strictly positive row among those tied for the largest P
    best = int(np.argmax(P))
    for i in range(k):
        if P[i] >= P.max() - 1e-12 * max(1.0, P.max()) and (X[i] > POSITIVE_SHARE * X[i].max()).all():
            best = i
            break
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


def _assert_same(G, p, opts, max_iter=20000):
    got = _pga_best(G, p, opts, np.random.default_rng(opts.seed), max_iter)
    ref = _reference_pga_best(G, p, opts, np.random.default_rng(opts.seed), max_iter)
    assert got.lam == ref.lam
    assert np.array_equal(got.x.values, ref.x.values)
    assert got.residual == ref.residual
    assert got.iterations == ref.iterations
    assert got.support == ref.support
    assert got.converged == ref.converged
    return got


def _random_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(20):
        r = (2, 3, 4)[i % 3]
        n = int(rng.integers(r + 2, 14))
        G = random_connected(rng, r, n, extra=int(rng.integers(1, 3 * n)))
        p = float(rng.choice([1.0, 1.5, 2.0, 2.5, 3.0][: {2: 2, 3: 4, 4: 5}[r]]))
        restarts = (0, 8, 32)[i % 3 if r != 2 else (i + 1) % 3]
        cases.append(pytest.param(G, p, restarts, id=f"r{r}-n{n}-m{G.m}-p{p:g}-k{restarts}"))
    return cases


@pytest.mark.parametrize("G, p, restarts", _random_cases())
def test_live_rows_match_the_whole_batch(G, p, restarts):
    _assert_same(G, p, SolverOptions(restarts=restarts), max_iter=2000)


@pytest.mark.parametrize("max_iter", [1, 3, 45])
def test_live_rows_match_at_the_iteration_cap(max_iter):
    # uncapped, this ascent stalls at iteration 200 (at p = 2 already at 30)
    G = random_connected(np.random.default_rng(5), 3, 12, extra=20)
    res = _assert_same(G, 1.5, SolverOptions(restarts=8), max_iter=max_iter)
    assert res.iterations == max_iter  # the cap hit with rows still live


def test_live_rows_match_when_every_start_is_done():
    # the all-ones start of a single edge is its indicator: no row ever steps
    edge = UniformHypergraph.from_edges(3, 3, [(0, 1, 2)])
    assert _assert_same(edge, 2.0, SolverOptions(restarts=0)).iterations == 1
    # every row of two 3-edges sharing a pair finishes at iteration 18,
    # between two stall checks
    pair = UniformHypergraph.from_edges(3, 4, [(0, 1, 2), (0, 1, 3)])
    assert _assert_same(pair, 1.0, SolverOptions(restarts=2)).iterations == 18


def test_live_rows_match_with_one_row_left():
    # one row keeps stepping after the others are done; with m >= 8 edges its
    # P must still be added in the order the reference's wide batch uses
    G = UniformHypergraph.from_edges(
        3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 3, 4)]
    )
    _assert_same(G, 1.0, SolverOptions(restarts=6), max_iter=5000)


def test_live_rows_match_when_a_retired_row_gained_in_the_window():
    # at iteration 25 the rows still stepping have not moved since
    # iteration 20, but a row that finished since then gained 0.04: the
    # whole batch did not stall, and it stalls at the next check
    G = UniformHypergraph.from_edges(
        3, 12, [(0, 2, 11), (0, 10, 11), (1, 3, 8), (2, 5, 7), (3, 4, 9), (6, 7, 9)]
    )
    assert _assert_same(G, 1.0, SolverOptions()).iterations == 30


def test_live_rows_match_on_a_medium_instance():
    G = random_connected(np.random.default_rng(11), 3, 40, extra=60)
    _assert_same(G, 2.5, SolverOptions())


def test_medium_instance_stops_once_its_value_stalls():
    # P gains less than 1e-9 over five steps by step 35; stopping at a gain
    # of 1e-14 over 10 steps ran it to 60 steps, and a 100-step window to
    # 200, for the same lambda up to the polish's rounding
    G = random_connected(np.random.default_rng(11), 3, 40, extra=60)
    res = _pga_best(G, 2.5, SolverOptions(), np.random.default_rng(0))
    assert res.iterations <= 100
    assert res.converged
    assert abs(res.lam - 3.251504603658173) <= 1e-12


def test_slow_graph_ascent_hands_off_to_the_polish():
    # perfbench/gen.py connected_with_m(default_rng(0), 2, 30, 60) at
    # p = 1.5: stopping at a gain of 1e-14 over 10 steps took 8320 steps
    edges = [
        (0, 8), (0, 19), (1, 4), (1, 15), (1, 24), (2, 3), (2, 11), (3, 22), (3, 25), (3, 29),
        (4, 10), (4, 27), (4, 28), (5, 7), (5, 17), (5, 28), (6, 9), (6, 11), (6, 18), (6, 23),
        (7, 9), (7, 13), (7, 16), (8, 14), (8, 16), (8, 28), (8, 29), (9, 22), (9, 27), (10, 12),
        (10, 16), (10, 21), (10, 27), (11, 19), (11, 26), (12, 15), (12, 19), (12, 20), (12, 21),
        (12, 27), (13, 20), (13, 23), (13, 27), (14, 17), (14, 22), (15, 19), (16, 23), (16, 25),
        (16, 28), (17, 23), (18, 20), (18, 25), (19, 27), (20, 26), (21, 26), (21, 28), (22, 25),
        (22, 29), (24, 27), (27, 28),
    ]
    G = UniformHypergraph.from_edges(2, 30, edges)
    res = solve_p_spectral(G, 1.5)
    assert res.converged
    assert abs(res.lam - 2.0497652539389564) <= 1e-12
    assert res.iterations <= 2500


def test_every_edge_ties_and_the_first_edge_wins():
    # on C5 at p = 1 each edge's indicator reaches lambda^(1) = 1/2 and the
    # all-ones start only 0.4; the reference's tie among all m indicators
    # goes to edge (0, 1), the one indicator _pga_best keeps
    C5 = UniformHypergraph.from_edges(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    res = _assert_same(C5, 1.0, SolverOptions())
    assert res.lam == 0.5 and res.support == (0, 1)
    assert np.array_equal(res.x.values, [0.5, 0.5, 0.0, 0.0, 0.0])


def _random_instance(r: int, n: int, m: int, seed: int) -> UniformHypergraph:
    rng = np.random.default_rng(seed)
    edges = {tuple(range(i, i + r)) for i in range(0, n - r + 1, r - 1)}  # a covering chain
    edges.add(tuple(range(n - r, n)))
    while len(edges) < m:
        edges.add(tuple(sorted(rng.choice(n, r, replace=False).tolist())))
    return UniformHypergraph.from_edges(r, n, sorted(edges))


def _traced_peak_mib(fn):
    """fn's result and the tracemalloc peak during the call, in MiB."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


def test_twenty_steps_at_m_2000_stay_under_64_mib():
    # a step over all 2033 starts would hold 2033 x 2000 x 3 floats per array (93 MiB)
    G = _random_instance(3, 200, 2000, seed=1)
    opts = SolverOptions(max_iter=20)
    _, peak = _traced_peak_mib(lambda: _pga_best(G, 2.0, opts, np.random.default_rng(0)))
    assert peak <= 64.0


def test_one_step_at_m_10k_stays_under_48_mib():
    # one (1 + m + restarts) x n array of starts alone would be 38 MiB here
    G = _random_instance(3, 500, 10_000, seed=1)
    opts = SolverOptions(max_iter=1)
    for H in (UniformHypergraph.from_edges(3, 3, [(0, 1, 2)]), G):
        starts = _pga_starts(H, 2.0, opts, np.random.default_rng(0))
        assert starts.shape == (2 + opts.restarts, H.n)
    _, peak = _traced_peak_mib(lambda: _pga_best(G, 2.0, opts, np.random.default_rng(0)))
    assert peak <= 48.0


@pytest.mark.slow
def test_large_sub_r_instance_converges_in_bounded_memory():
    G = _random_instance(3, 500, 10_000, seed=1)
    res, peak = _traced_peak_mib(lambda: _pga_best(G, 2.0, SolverOptions(), np.random.default_rng(0)))
    assert res.converged
    assert peak <= 512.0
