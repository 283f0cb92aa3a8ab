"""r-uniform hypergraphs: representation, validation, I/O, basic combinatorics.

Vertices are dense integer indices 0..n-1.  The edges are stored once, as
the read-only m x r int64 array ``edges_array`` in canonical form: each
row strictly increasing, rows in strictly increasing lexicographic
order.  ``edges`` is a tuple-of-tuples view of it, built on access.
Isolated vertices are representable because n is explicit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import HypergraphFormatError


def _edge_array(r: int, edges) -> np.ndarray:
    """Any m x r integer array-like as a fresh m x r int64 array."""
    try:
        a = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise HypergraphFormatError(f"edges are not an m x {r} integer array") from exc
    if a.size == 0:
        a = a.reshape(0, r)
    if a.ndim != 2 or a.shape[1] != r:
        raise HypergraphFormatError(f"edges do not all have {r} vertices")
    return a


def _first_row(a: np.ndarray, bad: np.ndarray) -> tuple[int, ...]:
    return tuple(a[np.flatnonzero(bad)[0]].tolist())


@dataclass(frozen=True, init=False, eq=False)
class UniformHypergraph:
    """Immutable r-uniform hypergraph in canonical form.

    The constructor takes any m x r integer array-like and rejects input
    that is not canonical; ``from_edges`` canonicalizes first.  Equality
    compares (r, n, edges_array).
    """

    r: int
    n: int
    edges_array: np.ndarray

    def __init__(self, r: int, n: int, edges) -> None:
        r, n = int(r), int(n)
        if r < 1:
            raise HypergraphFormatError(f"uniformity r={r} must be >= 1")
        if n < 0:
            raise HypergraphFormatError(f"vertex count n={n} must be >= 0")
        a = _edge_array(r, edges)
        outside = ((a < 0) | (a >= n)).any(axis=1)
        if outside.any():
            e = _first_row(a, outside)
            raise HypergraphFormatError(f"edge {e} has a vertex index outside 0..{n - 1}")
        unsorted = (np.diff(a, axis=1) <= 0).any(axis=1)
        if unsorted.any():
            e = _first_row(a, unsorted)
            raise HypergraphFormatError(f"edge {e} is not strictly increasing (non-canonical)")
        # consecutive rows: the first nonzero difference must be positive
        d = np.diff(a, axis=0)
        nonzero = d != 0
        same = ~nonzero.any(axis=1)
        if same.any():
            raise HypergraphFormatError(f"duplicate edge {_first_row(a, same)}")
        if (d[np.arange(d.shape[0]), nonzero.argmax(axis=1)] < 0).any():
            raise HypergraphFormatError("edge list is not in lexicographic order")
        a.flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges_array", a)

    @property
    def m(self) -> int:
        return self.edges_array.shape[0]

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The edges as sorted vertex tuples, built from ``edges_array``."""
        return tuple(map(tuple, self.edges_array.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniformHypergraph):
            return NotImplemented
        return (self.r, self.n) == (other.r, other.n) and np.array_equal(
            self.edges_array, other.edges_array
        )

    def __hash__(self) -> int:
        return hash((self.r, self.n, self.edges_array.tobytes()))

    @classmethod
    def from_edges(cls, r: int, n: int, edges: Iterable[Iterable[int]]) -> "UniformHypergraph":
        """Canonicalize (sort within edges, sort edge list) and validate.

        An array the constructor already accepts is taken as it is.
        """
        a = _edge_array(r, edges)
        try:
            return cls(r=r, n=n, edges=a)
        except HypergraphFormatError:
            pass  # not canonical, or invalid: sort, then report what remains
        a = np.sort(a, axis=1)
        repeated = (np.diff(a, axis=1) == 0).any(axis=1)
        if repeated.any():
            raise HypergraphFormatError(f"edge {_first_row(a, repeated)} has a repeated vertex")
        a = a[np.lexsort(a.T[::-1])]
        if (a[1:] == a[:-1]).all(axis=1).any():
            raise HypergraphFormatError("duplicate edge after canonicalization")
        return cls(r=r, n=n, edges=a)


@dataclass(frozen=True)
class DegreeProfile:
    degrees: np.ndarray
    delta: int
    Delta: int


class ComponentsResult(NamedTuple):
    components: list[tuple[UniformHypergraph, list[int]]]
    isolated: list[int]


def parse_hypergraph(text: str) -> UniformHypergraph:
    """Parse .uhg text: header ``r n`` then one edge per line; whole-line # comments."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise HypergraphFormatError("empty .uhg input")
    header = lines[0].split()
    if len(header) != 2:
        raise HypergraphFormatError(f"malformed header {lines[0]!r}; expected 'r n'")
    try:
        r, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise HypergraphFormatError(f"malformed header {lines[0]!r}") from exc
    if r < 2:
        raise HypergraphFormatError(f"uniformity r={r} must be >= 2")
    if len(lines) == 1:  # no edge lines; loadtxt would warn on empty input
        return UniformHypergraph(r, n, ())
    # mixed arity fails in loadtxt, a constant wrong arity in the constructor;
    # loadtxt only warns when it truncates a float token such as 2.7
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            edges = np.loadtxt(lines[1:], dtype=np.int64, comments=None, ndmin=2)
    except ValueError as exc:
        raise HypergraphFormatError(f"malformed edge lines: {exc}") from exc
    return UniformHypergraph.from_edges(r, n, edges)


def serialize_hypergraph(G: UniformHypergraph) -> str:
    """Emit canonical .uhg text; parse(serialize(G)) == G bit-exactly for
    r >= 2 (the parser rejects r = 1, such as the K_1 join operand)."""
    row = " ".join(["%d"] * G.r)
    out = [f"{G.r} {G.n}"]
    out.extend(row % tuple(e) for e in G.edges_array.tolist())
    return "\n".join(out) + "\n"


def load_hypergraph(path) -> UniformHypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def degrees(G: UniformHypergraph) -> DegreeProfile:
    d = np.bincount(G.edges_array.ravel(), minlength=G.n)
    delta = int(d.min()) if G.n else 0
    Delta = int(d.max()) if G.n else 0
    return DegreeProfile(degrees=d, delta=delta, Delta=Delta)


def _induced(G: UniformHypergraph, inside: np.ndarray) -> UniformHypergraph:
    """Edges of G inside the boolean vertex mask, relabeled monotonically
    (which keeps rows sorted and in lexicographic order)."""
    local = np.cumsum(inside) - 1
    kept = G.edges_array[inside[G.edges_array].all(axis=1)]
    return UniformHypergraph(G.r, int(inside.sum()), local[kept])


def connected_components(G: UniformHypergraph) -> ComponentsResult:
    """Edge-connected components of the non-isolated vertices.

    Each component comes with the map from its local vertex indices back
    to indices in G.  Isolated vertices are listed separately.
    """
    edges = G.edges_array
    # min-label propagation with pointer jumping: every vertex ends up
    # labeled by the smallest vertex of its component
    label = np.arange(G.n)
    while True:
        low = label.copy()
        np.minimum.at(low, edges, label[edges].min(axis=1, keepdims=True))
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    covered = degrees(G).degrees > 0
    components = []
    for root in np.unique(label[covered]):
        inside = label == root
        components.append((_induced(G, inside), np.flatnonzero(inside).tolist()))
    return ComponentsResult(components, np.flatnonzero(~covered).tolist())


def induced_subhypergraph(
    G: UniformHypergraph, S: Iterable[int]
) -> tuple[UniformHypergraph, list[int]]:
    """G[S]: keep exactly the edges contained in S, reindex vertices.

    Returns the induced sub-hypergraph and the map local index -> original.
    """
    vmap = np.unique(np.fromiter(S, dtype=np.int64))
    if vmap.size and not (0 <= vmap[0] and vmap[-1] < G.n):
        raise HypergraphFormatError("S contains a vertex outside 0..n-1")
    inside = np.zeros(G.n, dtype=bool)
    inside[vmap] = True
    return _induced(G, inside), vmap.tolist()


def is_connected(G: UniformHypergraph) -> bool:
    comps, isolated = connected_components(G)
    return len(comps) == 1 and not isolated
