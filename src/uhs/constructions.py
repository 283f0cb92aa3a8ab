"""Composite hypergraphs (join, direct product, generalized power,
extensions) with the closed-form radius each construction predicts, plus
the named example fixtures used throughout the tests and CLI.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from .core import UniformHypergraph
from .errors import PreconditionError, check_p


def join(G1: UniformHypergraph, G2: UniformHypergraph) -> UniformHypergraph:
    """G1 * G2: (r1+r2)-uniform, edges e u f; G2 vertices shifted by n1."""
    A, B = G1.edges_array, G2.edges_array + G1.n
    edges = np.hstack([np.repeat(A, B.shape[0], axis=0), np.tile(B, (A.shape[0], 1))])
    return UniformHypergraph.from_edges(G1.r + G2.r, G1.n + G2.n, edges)


def join_lambda(lam1: float, lam2: float, r1: int, r2: int, p: float) -> float:
    """Closed-form radius of G1 * G2 from the operand radii (p > r1+r2)."""
    check_p(p, "p > r", "join formula (r = r1 + r2)", r1 + r2)
    if lam1 <= 0 or lam2 <= 0:
        raise PreconditionError("operand radii must be positive")
    rs = r1 + r2
    return rs ** (1.0 - rs / p) / (r1 ** (1.0 - r1 / p) * r2 ** (1.0 - r2 / p)) * lam1 * lam2


def direct_product(G1: UniformHypergraph, G2: UniformHypergraph) -> UniformHypergraph:
    """G1 x G2 on V1 x V2 ((i, j) -> i*n2 + j, row-major), same uniformity.

    Edges are all r-sets projecting onto an edge in each operand: for each
    edge pair, every matching of the two vertex sets.  Each such set
    determines its edge pair and matching, so none repeats.
    """
    if G1.r != G2.r:
        raise PreconditionError("direct product requires equal uniformity")
    r, n2 = G1.r, G2.n
    matchings = G2.edges_array[:, np.array(list(permutations(range(r))))]
    edges = G1.edges_array[:, None, None, :] * n2 + matchings[None]
    return UniformHypergraph.from_edges(r, G1.n * G2.n, edges.reshape(-1, r))


def product_lambda(lam1: float, lam2: float, r: int, p: float) -> float:
    """(r-1)! * lam1 * lam2; closed form for the direct product (p > r)."""
    check_p(p, "p > r", "product formula", r)
    return math.factorial(r - 1) * lam1 * lam2


def generalized_power(G: UniformHypergraph) -> UniformHypergraph:
    """G^{r+1}: add one fresh degree-1 vertex to every edge."""
    edges = np.hstack([G.edges_array, G.n + np.arange(G.m)[:, None]])
    return UniformHypergraph.from_edges(G.r + 1, G.n + G.m, edges)


def power_lambda(lam: float, r: int, p: float) -> float:
    """lambda^{(p+1)} of G^{r+1} given lambda^{(p)}(G) = lam (p > r)."""
    check_p(p, "p > r", "power formula", r)
    return ((r + 1.0) / r) ** ((p - r) / (p + 1.0)) * lam ** (p / (p + 1.0))


def _set_partitions(items: list[int]):
    """All partitions of items into nonempty classes (classes ordered by
    their smallest element, so each partition appears once)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


EXTENSION_MAX_EDGES = 8  # the partitions of m edges number Bell(m): 4140 at m = 8


def extensions_enumerate(G: UniformHypergraph) -> list[UniformHypergraph]:
    """All extensions of G: one new vertex per class of an edge partition,
    added to every edge of its class.  Includes G^{r+1} (all singletons)
    and G*K_1 (one class).  Enumeration over set partitions; guarded by m.
    """
    if G.m > EXTENSION_MAX_EDGES:
        raise PreconditionError(
            f"extension enumeration limited to m <= {EXTENSION_MAX_EDGES} (m={G.m})"
        )
    out = []
    for part in _set_partitions(list(range(G.m))):
        cls_of = np.empty(G.m, dtype=np.int64)
        for i, cls in enumerate(sorted(part, key=min)):
            cls_of[cls] = i
        edges = np.hstack([G.edges_array, G.n + cls_of[:, None]])
        out.append(UniformHypergraph.from_edges(G.r + 1, G.n + len(part), edges))
    return out


def k_r_r(r: int) -> UniformHypergraph:
    """Single-edge r-uniform hypergraph on r vertices (r >= 1; r = 1 gives
    the K_1 join operand with radius 1 for every p)."""
    return UniformHypergraph.from_edges(r, r, [tuple(range(r))])


def grid_g1() -> UniformHypergraph:
    """4-uniform grid on 25 vertices: the 16 unit cells of a 4x4 subdivision
    of a square, each cell's four corners forming one edge."""
    edges = []
    for i in range(4):
        for j in range(4):
            v = 5 * i + j
            edges.append((v, v + 1, v + 5, v + 6))
    return UniformHypergraph.from_edges(4, 25, edges)


def grid_g1_orbits() -> list[list[int]]:
    """Edge orbit classes of the grid under its dihedral symmetry:
    corner cells, side cells, center cells (in that order)."""
    corner, side, center = [], [], []
    for i in range(4):
        for j in range(4):
            k = 4 * i + j
            if i in (0, 3) and j in (0, 3):
                corner.append(k)
            elif i in (1, 2) and j in (1, 2):
                center.append(k)
            else:
                side.append(k)
    return [corner, side, center]


def star_g2() -> UniformHypergraph:
    """3-uniform hypergraph on 8 vertices with 4 edges through a common
    center; two of the edges additionally share a second vertex."""
    return UniformHypergraph.from_edges(
        3, 8, [(0, 1, 2), (0, 1, 3), (0, 4, 5), (0, 6, 7)]
    )


def star_g2_orbits() -> list[list[int]]:
    """Edge orbits of star_g2: the two edges through the shared pair, then
    the two pendant edges."""
    return [[0, 1], [2, 3]]


def two_triangles_path() -> UniformHypergraph:
    """Graph (r=2) on 6 vertices and 7 edges: two triangles linked by an
    edge between them."""
    return UniformHypergraph.from_edges(
        2, 6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    )


def fixtures() -> dict[str, UniformHypergraph]:
    """Named example hypergraphs addressable from the CLI."""
    return {
        "grid_g1": grid_g1(),
        "star_g2": star_g2(),
        "two_triangles_path": two_triangles_path(),
        "k_2_2": k_r_r(2),
        "k_3_3": k_r_r(3),
        "k_4_4": k_r_r(4),
    }
