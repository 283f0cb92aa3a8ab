"""Hot numeric kernels for edge sweeps, in plain numpy.

Every solver iteration needs, for the current vector x, the per-edge
products prod_{v in e} x_v and the per-vertex sums
s_i = sum_{e: i in e} prod_{j in e, j != i} x_j.  Both come from one
chain of whole-column multiplies along the r positions of the edge
array: prefix products left to right, whose last step is the edge
product, then suffix products right to left, multiplied into the
prefixes in place.  Each step is one numpy call over all edges at once,
so an edge costs no per-edge loop setup.  The per-vertex sums come from
one ``np.bincount`` over the m x r corner array in edge order, so
results are reproducible.  A batch of k vectors is scattered by the same
call: row b's corners go to bins b*n .. b*n + n - 1, so each row is
summed in the same order as on its own, and a batch's s and prods equal
those of k single-vector calls bit for bit.  The batch is gathered
through those same offset indices from the flattened x, so the corner
array is C-contiguous (k, m, r): the column multiplies run on one block
per row, and prods comes out C-contiguous (k, m).  A caller's
``prods.sum(axis=1)`` then sums each row pairwise, as ``prods.sum()``
does for a single vector, so a batch row's P equals the single-vector P
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def edge_products(a: np.ndarray) -> np.ndarray:
    """Product along the last axis, multiplied left to right one column at a time
    (the order of ``a.prod(axis=-1)``, which runs one short loop per row)."""
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        out *= a[..., j]
    return out


def _leave_one_out(xe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (loo, prods): per position the product over the other positions,
    and the product over all of them, along the last axis.

    Prefixes run left to right and suffixes right to left, one column per
    step; the empty prefix of position 0 and the empty suffix of position
    r - 1 are never multiplied in, since times 1 is exact.  prods continues
    the prefix chain, so it equals ``edge_products(xe)`` bit for bit.
    """
    r = xe.shape[-1]
    if r == 1:  # the only position has no other
        return np.ones_like(xe), xe[..., 0].copy()
    loo = np.empty_like(xe)
    loo[..., 1] = xe[..., 0]
    for j in range(2, r):
        np.multiply(loo[..., j - 1], xe[..., j - 1], out=loo[..., j])
    prods = loo[..., r - 1] * xe[..., r - 1]
    suf = xe[..., r - 1]  # product of positions j + 1 .. r - 1
    for j in range(r - 2, 0, -1):
        loo[..., j] *= suf
        suf = suf * xe[..., j]
    loo[..., 0] = suf
    return loo, prods


def support_sums(x: np.ndarray, edges: np.ndarray, n: int):
    """Return (s, prods) for one vector x of shape (n,) or a batch of shape (k, n).

    s has the shape of x; prods has shape (m,) or (k, m).
    """
    if x.ndim == 1:
        xe, idx = x[edges], edges
    else:
        idx = edges + n * np.arange(x.shape[0])[:, None, None]
        xe = x.reshape(-1)[idx]
    loo, prods = _leave_one_out(xe)
    s = np.bincount(idx.ravel(), weights=loo.ravel(), minlength=x.size)
    # with no edges bincount returns integer zeros
    return s.reshape(x.shape).astype(float, copy=False), prods


def polynomial_sum(prods: np.ndarray) -> float:
    return math.fsum(prods.tolist())
