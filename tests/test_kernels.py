import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uhs import _kernels
from uhs.constructions import grid_g1


def test_support_sums_definition():
    # s_i is the leave-one-out edge sum; prods are full edge products
    G = grid_g1()
    rng = np.random.default_rng(2)
    x = rng.uniform(0.1, 1.0, G.n)
    s, prods = _kernels.support_sums(x, G.edges_array, G.n)
    for k, e in enumerate(G.edges):
        assert math.isclose(prods[k], np.prod([x[v] for v in e]), rel_tol=1e-14)
    edges = G.edges
    for i in range(G.n):
        expect = sum(np.prod([x[v] for v in e if v != i]) for e in edges if i in e)
        assert math.isclose(s[i], expect, rel_tol=1e-12, abs_tol=1e-15)


def test_empty_edge_set():
    edges = np.zeros((0, 3), dtype=np.int64)
    s, prods = _kernels.support_sums(np.ones(4), edges, 4)
    assert s.tolist() == [0.0] * 4 and s.dtype == float and prods.size == 0
    S, P = _kernels.support_sums(np.ones((2, 4)), edges, 4)
    assert S.shape == (2, 4) and S.dtype == float and P.shape == (2, 0)


def test_batch_matches_single():
    # each batch row is summed in the same order as on its own: bit-identical
    G = grid_g1()
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 1.0, (5, G.n))
    S, P = _kernels.support_sums(X, G.edges_array, G.n)
    for k in range(5):
        s, prods = _kernels.support_sums(X[k], G.edges_array, G.n)
        assert np.array_equal(S[k], s)
        assert np.array_equal(P[k], prods)
    # a batch row's products are contiguous, so prods.sum(axis=1) adds them
    # pairwise, in the order prods.sum() uses for a single vector
    n = 40
    for r in (2, 3, 4):
        for m in (8, 80, 300):
            edges = np.argsort(rng.random((m, n)), axis=1)[:, :r]
            X = rng.uniform(0.0, 1.0, (34, n))
            S, P = _kernels.support_sums(X, edges, n)
            row_sums = P.sum(axis=1)
            for k in range(X.shape[0]):
                s, prods = _kernels.support_sums(X[k], edges, n)
                assert np.array_equal(S[k], s)
                assert np.array_equal(P[k], prods)
                assert row_sums[k] == prods.sum()


def test_polynomial_sum_matches_fsum():
    rng = np.random.default_rng(4)
    vals = rng.uniform(-1.0, 1.0, 1000) * 10.0 ** rng.integers(-8, 8, 1000)
    got = float(_kernels.polynomial_sum(vals))
    want = math.fsum(vals.tolist())
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_leave_one_out_identity(seed):
    # position j holds the product of the other entries; prods all of them
    rng = np.random.default_rng(seed)
    xe = rng.uniform(0.1, 2.0, (4, 5))
    loo, prods = _kernels._leave_one_out(xe)
    for k in range(4):
        assert math.isclose(prods[k], np.prod(xe[k]), rel_tol=1e-12)
        for j in range(5):
            other = np.prod(np.delete(xe[k], j))
            assert math.isclose(loo[k, j], other, rel_tol=1e-12)


def _cumprod_support_sums(x, edges, n):
    """The kernel as it was written with np.cumprod and prod: the bit-for-bit reference."""
    if x.ndim == 1:
        xe, idx = x[edges], edges
    else:
        xe, idx = x[:, edges], edges + n * np.arange(x.shape[0])[:, None, None]
    pre = np.ones_like(xe)
    suf = np.ones_like(xe)
    np.cumprod(xe[..., :-1], axis=-1, out=pre[..., 1:])
    np.cumprod(xe[..., :0:-1], axis=-1, out=suf[..., -2::-1])
    pre *= suf
    s = np.bincount(idx.ravel(), weights=pre.ravel(), minlength=x.size)
    return s.reshape(x.shape).astype(float, copy=False), xe.prod(axis=-1)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


def _awkward_entries(rng, shape):
    # zeros, subnormals, values near 1e150 (products overflow to inf, and inf * 0 is nan)
    pool = np.array([0.0, 5e-324, 2.5e-310, 1e-160, 0.3, 1.0, 7.25, 1e150, 3e150])
    x = rng.uniform(0.0, 2.0, shape)
    pick = rng.random(shape) < 0.4
    x[pick] = rng.choice(pool, int(pick.sum()))
    return x


@pytest.mark.parametrize("r", range(1, 8))
@pytest.mark.parametrize("m", [0, 1, 50])
def test_support_sums_match_the_cumprod_kernel_bit_for_bit(r, m):
    rng = np.random.default_rng(100 * r + m)
    n = r + 6
    edges = np.array([rng.choice(n, r, replace=False) for _ in range(m)], dtype=np.int64).reshape(m, r)
    for shape in [(n,), (1, n), (7, n)]:
        x = _awkward_entries(rng, shape)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got = _kernels.support_sums(x, edges, n)
            want = _cumprod_support_sums(x, edges, n)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


@pytest.mark.parametrize("r", range(1, 8))
def test_edge_products_match_prod_bit_for_bit(r):
    rng = np.random.default_rng(r)
    for m in [0, 1, 50, 1000]:
        a = rng.uniform(0.0, 3.0, (m, r))
        got = _kernels.edge_products(a)
        assert _same_bits(got, a.prod(axis=1))
        assert _same_bits(got, _kernels._leave_one_out(a)[1])
