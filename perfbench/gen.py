"""Seeded instance generators, written apart from `uhs`.

Every generator takes a `numpy.random.Generator` and returns an edge
array of shape (m, r) whose rows are sorted and whose row order is
lexicographic, i.e. the canonical form of the `.uhg` format.  Sizes are
fixed by the caller; the seed only decides the structure (which vertices
meet in which edges), so the amount of work a workload asks for stays
close to constant from seed to seed.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def canonical(edges: np.ndarray) -> np.ndarray:
    """Sort within rows, then rows lexicographically."""
    e = np.sort(np.asarray(edges, dtype=np.int64), axis=1)
    order = np.lexsort(e.T[::-1])
    return e[order]


def _keys(edges: np.ndarray, n: int) -> np.ndarray:
    key = np.zeros(edges.shape[0], dtype=np.int64)
    for j in range(edges.shape[1]):
        key = key * n + edges[:, j]
    return key


def _cover_chain(rng, r: int, n: int) -> np.ndarray:
    """Edges along a random vertex order, consecutive edges sharing one
    vertex: every vertex is covered and the hypergraph is connected."""
    perm = rng.permutation(n)
    rows = [perm[i : i + r] for i in range(0, n - r + 1, r - 1)]
    if (n - 1) % (r - 1):
        rows.append(perm[n - r :])
    return np.sort(np.asarray(rows, dtype=np.int64), axis=1)


def irregular(rng, r: int, n: int, m: int, skew: float = 0.6) -> np.ndarray:
    """Connected r-uniform hypergraph with exactly m edges and a skewed
    degree sequence: after a covering chain, vertices are drawn with
    weight (1 + rank)^-skew over a random ranking."""
    base = _cover_chain(rng, r, n)
    weight = (1.0 + rng.permutation(n)) ** -skew
    weight /= weight.sum()
    chosen = [base]
    seen = set(_keys(base, n).tolist())
    have = base.shape[0]
    while have < m:
        draw = np.sort(rng.choice(n, size=(2 * (m - have) + 16, r), p=weight), axis=1)
        draw = draw[(np.diff(draw, axis=1) > 0).all(axis=1)]
        keys = _keys(draw, n)
        _, first = np.unique(keys, return_index=True)
        first.sort()
        fresh = [i for i in first.tolist() if keys[i] not in seen][: m - have]
        seen.update(keys[fresh].tolist())
        chosen.append(draw[fresh])
        have += len(fresh)
    return canonical(np.concatenate(chosen))


def regular(rng, r: int, n: int, d: int) -> np.ndarray:
    """d-regular r-uniform hypergraph: the union of d random partitions of
    the n vertices into blocks of r, redrawing a partition that repeats an
    edge.  n must be a multiple of r."""
    if n % r:
        raise ValueError("n must be a multiple of r")
    seen: set[int] = set()
    parts = []
    while len(parts) < d:
        block = np.sort(rng.permutation(n).reshape(n // r, r), axis=1)
        keys = set(_keys(block, n).tolist())
        if keys & seen:
            continue
        seen |= keys
        parts.append(block)
    return canonical(np.concatenate(parts))


def path_power(r: int, n: int) -> tuple[int, np.ndarray]:
    """The path P_n with r - 2 fresh vertices added to each of its edges
    (P_n itself for r = 2).  Returns (vertex count, edges)."""
    extra = r - 2
    rows = []
    for k in range(n - 1):
        rows.append([k, k + 1] + [n + k * extra + j for j in range(extra)])
    return n + (n - 1) * extra, canonical(np.asarray(rows, dtype=np.int64).reshape(-1, r))


def relabel(rng, n: int, edges: np.ndarray) -> np.ndarray:
    """The same hypergraph under a random vertex relabeling."""
    return canonical(rng.permutation(n)[edges])


def complete(r: int, n: int) -> np.ndarray:
    return np.asarray(list(combinations(range(n), r)), dtype=np.int64)


def connected_with_m(rng, r: int, n: int, m: int) -> np.ndarray:
    """Uniformly drawn extra edges on top of a covering chain, exactly m
    edges in all (small instances for the exhaustive search)."""
    base = _cover_chain(rng, r, n)
    have = {tuple(e) for e in base.tolist()}
    pool = [e for e in combinations(range(n), r) if e not in have]
    need = m - len(have)
    if need < 0 or need > len(pool):
        raise ValueError(f"cannot draw {m} edges on {n} vertices")
    pick = rng.choice(len(pool), size=need, replace=False)
    rows = list(have) + [pool[int(k)] for k in pick]
    return canonical(np.asarray(rows, dtype=np.int64))


def uhg_text(r: int, n: int, edges: np.ndarray) -> str:
    """Canonical `.uhg` text: header `r n`, one sorted edge per line."""
    body = "\n".join(" ".join(map(str, row)) for row in edges.tolist())
    return f"{r} {n}\n{body}\n"

