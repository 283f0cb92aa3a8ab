"""Hot numeric kernels for edge sweeps, in plain numpy.

Every solver iteration needs, for the current vector x, the per-edge
products prod_{v in e} x_v and the per-vertex sums
s_i = sum_{e: i in e} prod_{j in e, j != i} x_j.  The leave-one-out
products come from prefix and suffix cumulative products along each
edge, and the per-vertex sums from one scatter over the m x r corner
array in edge order, so results are reproducible.
"""

from __future__ import annotations

import math

import numpy as np


def _leave_one_out(xe: np.ndarray) -> np.ndarray:
    """Per-position product over the other positions, along the last axis."""
    r = xe.shape[-1]
    pre = np.ones_like(xe)
    suf = np.ones_like(xe)
    np.cumprod(xe[..., :-1], axis=-1, out=pre[..., 1:])
    np.cumprod(xe[..., :0:-1], axis=-1, out=suf[..., -2::-1])
    return pre * suf


def support_sums(x: np.ndarray, edges: np.ndarray, n: int):
    """Return (s, prods) for one vector x of length n."""
    if edges.shape[0] == 0:
        return np.zeros(n), np.zeros(0)
    xe = x[edges]
    s = np.bincount(edges.ravel(), weights=_leave_one_out(xe).ravel(), minlength=n)
    return s, xe.prod(axis=1)


def polynomial_sum(prods: np.ndarray) -> float:
    return math.fsum(prods.tolist())


def batch_support_sums(X: np.ndarray, edges: np.ndarray, n: int):
    """Vectorized (s, prods) for a batch of vectors X of shape (k, n).

    Used by the multi-start optimizer and the brute-force harness, where
    many small instances are swept at once.
    """
    k = X.shape[0]
    if edges.shape[0] == 0:
        return np.zeros((k, n)), np.zeros((k, 0))
    xe = X[:, edges]
    loo = _leave_one_out(xe)
    s = np.zeros((k, n))
    rows = np.arange(k)[:, None, None]
    np.add.at(s, (rows, edges[None, :, :]), loo)
    return s, xe.prod(axis=2)
