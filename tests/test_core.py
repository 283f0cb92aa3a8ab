import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_connected
from uhs.core import (
    UniformHypergraph,
    connected_components,
    degrees,
    induced_subhypergraph,
    is_connected,
    parse_hypergraph,
    serialize_hypergraph,
)
from uhs.constructions import grid_g1, k_r_r, star_g2, two_triangles_path
from uhs.errors import HypergraphFormatError


def test_parse_basic():
    G = parse_hypergraph("3 4\n0 1 2\n1 2 3\n")
    assert (G.r, G.n, G.m) == (3, 4, 2)
    assert G.edges == ((0, 1, 2), (1, 2, 3))


def test_parse_comments_and_blank_lines():
    G = parse_hypergraph("# header comment\n2 3\n\n0 1\n# trailing\n1 2\n")
    assert G.edges == ((0, 1), (1, 2))


def test_parse_canonicalizes_edge_order():
    G = parse_hypergraph("3 4\n3 2 1\n2 0 1\n")
    assert G.edges == ((0, 1, 2), (1, 2, 3))


def test_parse_duplicate_edge_rejected():
    with pytest.raises(HypergraphFormatError):
        parse_hypergraph("3 3\n0 1 2\n2 1 0\n")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n0 1 2\n",
        "x 3\n0 1 2\n",
        "1 3\n0\n",  # r < 2 in file input
        "3 3\n0 1\n",  # wrong arity
        "3 3\n0 1 3\n",  # vertex out of range
        "3 3\n0 1 1\n",  # repeated vertex
        "3 3\n0 1 a\n",
        "3 4\n0 1 2\n1 2\n",  # mixed arity
        "3 3\n0 1 2 # c\n",  # comments take a whole line
        "3 4\n0 1 2.7\n",  # float tokens are not truncated
        "3 3\n0 1 2.5\n",
        "3 3\n0 1 2.0\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(HypergraphFormatError):
        parse_hypergraph(text)


def test_parse_header_only():
    G = parse_hypergraph("# no edges\n3 4\n")
    assert (G.r, G.n, G.m) == (3, 4, 0) and G.edges_array.shape == (0, 3)


def test_roundtrip_fixtures():
    for G in (grid_g1(), star_g2(), two_triangles_path(), k_r_r(4)):
        assert parse_hypergraph(serialize_hypergraph(G)) == G


def test_from_edges_keeps_canonical_input():
    G = grid_g1()
    a = G.edges_array.copy()
    H = UniformHypergraph.from_edges(G.r, G.n, a)
    assert np.array_equal(H.edges_array, G.edges_array) and H == G
    # the caller's array is neither frozen nor shared
    a[0, 0] = -1
    assert a.flags.writeable and H.edges_array[0, 0] == G.edges_array[0, 0]


@pytest.mark.parametrize(
    "edges",
    [
        [(1, 2, 3), (0, 1, 2)],  # rows out of order
        [(2, 1, 0), (1, 3, 2)],  # entries out of order
        [(0, 2, 1), (0, 1, 3)],  # rows out of order only after sorting entries
    ],
)
def test_from_edges_canonicalizes(edges):
    G = UniformHypergraph.from_edges(3, 4, edges)
    assert G.edges == tuple(sorted(tuple(sorted(e)) for e in edges))


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, 2), (2, 1, 0)],  # duplicate only after sorting entries
        [(0, 1, 2), (1, 2, 3), (0, 1, 2)],  # duplicate only after sorting rows
        [(0, 1, 1)],  # repeated vertex, entries in order
        [(1, 0, 1), (0, 1, 2)],  # repeated vertex, entries out of order
        [(0, 1, 4)],  # vertex out of range, otherwise canonical
    ],
)
def test_from_edges_rejects_invalid(edges):
    with pytest.raises(HypergraphFormatError):
        UniformHypergraph.from_edges(3, 4, edges)


def test_noncanonical_constructor_rejected():
    with pytest.raises(HypergraphFormatError):
        UniformHypergraph(r=2, n=3, edges=((1, 0),))
    with pytest.raises(HypergraphFormatError):
        UniformHypergraph(r=2, n=3, edges=((1, 2), (0, 1)))


def test_degrees_single_edge():
    prof = degrees(k_r_r(3))
    assert prof.degrees.tolist() == [1, 1, 1]
    assert (prof.delta, prof.Delta) == (1, 1)


def test_degrees_star():
    # center degree 4, one shared second vertex of degree 2, rest degree 1
    prof = degrees(star_g2())
    assert prof.degrees.tolist() == [4, 2, 1, 1, 1, 1, 1, 1]
    assert (prof.delta, prof.Delta) == (1, 4)


def test_degrees_grid():
    prof = degrees(grid_g1())
    d = prof.degrees
    assert d[0] == 1 and d[2] == 2 and d[12] == 4
    assert (prof.delta, prof.Delta) == (1, 4)
    assert int(d.sum()) == 4 * 16


def test_degrees_isolated_vertex():
    G = UniformHypergraph.from_edges(2, 3, [(0, 1)])
    assert degrees(G).delta == 0


def test_components_connected_fixture():
    comps, isolated = connected_components(star_g2())
    assert len(comps) == 1 and not isolated
    assert is_connected(star_g2())


def test_components_two_pieces_with_isolated():
    G = UniformHypergraph.from_edges(2, 6, [(0, 1), (3, 4)])
    comps, isolated = connected_components(G)
    assert isolated == [2, 5]
    assert [vmap for _, vmap in comps] == [[0, 1], [3, 4]]
    assert all(sub.edges == ((0, 1),) for sub, _ in comps)
    assert not is_connected(G)


def test_components_vertex_maps_partition():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = random_connected(rng, 3, 6)
        B = random_connected(rng, 3, 5)
        edges = list(A.edges) + [tuple(v + A.n for v in e) for e in B.edges]
        G = UniformHypergraph.from_edges(3, A.n + B.n, edges)
        comps, isolated = connected_components(G)
        covered = sorted(v for _, vmap in comps for v in vmap) + sorted(isolated)
        assert covered == list(range(G.n))
        assert sum(sub.m for sub, _ in comps) == G.m


def test_induced_full_set_is_identity():
    G = two_triangles_path()
    sub, vmap = induced_subhypergraph(G, range(G.n))
    assert sub == G and vmap == list(range(G.n))


def test_induced_triangle():
    sub, vmap = induced_subhypergraph(two_triangles_path(), [0, 1, 2])
    assert vmap == [0, 1, 2]
    assert sub.edges == ((0, 1), (0, 2), (1, 2))


def test_induced_small_set_has_no_edges():
    sub, _ = induced_subhypergraph(star_g2(), [0, 1])
    assert sub.m == 0 and sub.n == 2


def test_induced_rejects_bad_vertex():
    with pytest.raises(HypergraphFormatError):
        induced_subhypergraph(star_g2(), [0, 99])


@st.composite
def hypergraphs(draw):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 8))
    pool = st.lists(
        st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True),
        max_size=8,
    )
    edges = {tuple(sorted(e)) for e in draw(pool)}
    return UniformHypergraph.from_edges(r, n, edges)


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_roundtrip(G):
    assert parse_hypergraph(serialize_hypergraph(G)) == G


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_degree_sum_invariant(G):
    assert int(degrees(G).degrees.sum()) == G.r * G.m


@given(hypergraphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_induced_matches_reference(G, data):
    S = data.draw(st.sets(st.integers(0, G.n - 1)))
    sub, vmap = induced_subhypergraph(G, S)
    local = {v: i for i, v in enumerate(sorted(S))}
    expect = sorted(tuple(local[v] for v in e) for e in G.edges if S.issuperset(e))
    assert vmap == sorted(S) and sub.n == len(S) and sub.edges == tuple(expect)


@given(hypergraphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_from_edges_inverts_any_permutation(G, rnd):
    rows = [rnd.sample(e, len(e)) for e in G.edges_array.tolist()]
    rnd.shuffle(rows)
    assert UniformHypergraph.from_edges(G.r, G.n, np.array(rows).reshape(-1, G.r)) == G
