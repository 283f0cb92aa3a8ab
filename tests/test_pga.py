"""The p < r ascent needs one edge-indicator start, not one per edge.

`_reference_pga_best` is the whole-batch loop over all 1 + m + restarts
starts: the all-ones vector, the indicator of every edge and the random
restarts.  `_pga_best` keeps only the first edge's indicator, since every
indicator has the same P and residual bit for bit and the final pick
breaks their tie toward the first.  It must reproduce the reference bit
for bit.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from helpers import random_connected
from uhs._kernels import support_sums
from uhs.core import UniformHypergraph
from uhs.labeling import PVector
from uhs.solver import (
    POSITIVE_SHARE,
    SolverOptions,
    SpectralResult,
    _pga_best,
    _pga_starts,
    _polish_critical,
    _residual,
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
    window = 10
    P_window = P.copy()
    for it in range(1, cap + 1):
        res = _residual(S, X, P[:, None], p)
        done = (res <= opts.tol) | (eta <= 1e-15)
        if done.all():
            break
        if it % window == 0:
            if (P - P_window).max() < 1e-14:
                break
            P_window = P.copy()
        grad = r * S
        normal = np.power(X, p - 1.0)
        coef = (grad * normal).sum(axis=1) / np.maximum((normal * normal).sum(axis=1), 1e-300)
        grad = grad - coef[:, None] * normal
        Y = np.clip(X + eta[:, None] * grad, 0.0, None)
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
    G = random_connected(np.random.default_rng(5), 3, 12, extra=20)
    res = _assert_same(G, 2.0, SolverOptions(restarts=8), max_iter=max_iter)
    assert res.iterations == max_iter  # the cap hit with rows still live


def test_live_rows_match_when_every_start_is_done():
    # the all-ones start of a single edge is its indicator: no row ever steps
    edge = UniformHypergraph.from_edges(3, 3, [(0, 1, 2)])
    assert _assert_same(edge, 2.0, SolverOptions(restarts=0)).iterations == 1
    # every row of K5^(3) finishes at iteration 31, between two stall checks
    K5 = UniformHypergraph.from_edges(3, 5, list(combinations(range(5), 3)))
    assert _assert_same(K5, 2.0, SolverOptions(restarts=8, seed=2)).iterations == 31


def test_live_rows_match_with_one_row_left():
    # one row keeps stepping after the others are done; with m >= 8 edges its
    # P must still be added in the order the reference's wide batch uses
    G = UniformHypergraph.from_edges(
        3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 3, 4)]
    )
    _assert_same(G, 1.0, SolverOptions(restarts=6), max_iter=5000)


def test_live_rows_match_when_a_retired_row_gained_in_the_window():
    # at iteration 30 the two rows still stepping have not moved since
    # iteration 20, but rows that finished since then gained 2.8e-13: the
    # whole batch did not stall
    K5 = UniformHypergraph.from_edges(3, 5, list(combinations(range(5), 3)))
    assert _assert_same(K5, 2.0, SolverOptions()).iterations > 30


def test_live_rows_match_on_a_medium_instance():
    G = random_connected(np.random.default_rng(11), 3, 40, extra=60)
    _assert_same(G, 2.5, SolverOptions())


def test_medium_instance_stops_once_its_value_stalls():
    # P stops rising by step 60; a 100-step stall window ran it to 200
    # steps for the same lambda, up to the polish's rounding
    G = random_connected(np.random.default_rng(11), 3, 40, extra=60)
    res = _pga_best(G, 2.5, SolverOptions(), np.random.default_rng(0))
    assert res.iterations <= 100
    assert res.converged
    assert abs(res.lam - 3.251504603658173) <= 1e-12


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
