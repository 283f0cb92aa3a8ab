import math

import numpy as np
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


def test_polynomial_sum_matches_fsum():
    rng = np.random.default_rng(4)
    vals = rng.uniform(-1.0, 1.0, 1000) * 10.0 ** rng.integers(-8, 8, 1000)
    got = float(_kernels.polynomial_sum(vals))
    want = math.fsum(vals.tolist())
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_leave_one_out_identity(seed):
    # pre*suf at position j equals the product of the other entries
    rng = np.random.default_rng(seed)
    xe = rng.uniform(0.1, 2.0, (4, 5))
    loo = _kernels._leave_one_out(xe)
    for k in range(4):
        for j in range(5):
            other = np.prod(np.delete(xe[k], j))
            assert math.isclose(loo[k, j], other, rel_tol=1e-12)
