"""Hot numeric kernels for edge sweeps, in plain numpy.

Every solver iteration needs, for the current vector x, the per-edge
products prod_{v in e} x_v and the per-vertex sums
s_i = sum_{e: i in e} prod_{j in e, j != i} x_j.  The leave-one-out
products come from prefix and suffix cumulative products along each
edge, and the per-vertex sums from one ``np.bincount`` over the m x r
corner array in edge order, so results are reproducible.  A batch of k
vectors is scattered by the same call: row b's corners go to bins
b*n .. b*n + n - 1, so each row is summed in the same order as on its
own and the batch result equals k single-vector calls bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def _leave_one_out(xe: np.ndarray) -> np.ndarray:
    """Per-position product over the other positions, along the last axis."""
    pre = np.ones_like(xe)
    suf = np.ones_like(xe)
    np.cumprod(xe[..., :-1], axis=-1, out=pre[..., 1:])
    np.cumprod(xe[..., :0:-1], axis=-1, out=suf[..., -2::-1])
    pre *= suf  # in place: a batch holds one (k, m, r) array less
    return pre


def support_sums(x: np.ndarray, edges: np.ndarray, n: int):
    """Return (s, prods) for one vector x of shape (n,) or a batch of shape (k, n).

    s has the shape of x; prods has shape (m,) or (k, m).
    """
    if x.ndim == 1:
        xe, idx = x[edges], edges
    else:
        xe, idx = x[:, edges], edges + n * np.arange(x.shape[0])[:, None, None]
    s = np.bincount(idx.ravel(), weights=_leave_one_out(xe).ravel(), minlength=x.size)
    # with no edges bincount returns integer zeros
    return s.reshape(x.shape).astype(float, copy=False), xe.prod(axis=-1)


def polynomial_sum(prods: np.ndarray) -> float:
    return math.fsum(prods.tolist())
