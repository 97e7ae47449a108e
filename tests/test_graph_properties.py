"""Property tests for vertex-set member decoding, graph edge listing and the
set-level degree queries.

Every set is drawn as a random bitmask, built from its ids in reverse order
with repeats, and compared with a plain per-bit loop over the universe.  Every
degree and edge count is compared with a count over `Graph.edges()`.
Universe sizes run past several byte and 64-bit word boundaries.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from monogrid.graphs import Graph, VertexSet, degrees_into, edge_count

SETTINGS = settings(max_examples=80, deadline=None)


def reference_ids(n: int, bits: int) -> list[int]:
    return [v for v in range(n) if bits >> v & 1]


def vertex_set(n: int, bits: int) -> VertexSet:
    """The set of the set bits of `bits`, built from its ids out of order."""
    ids = reference_ids(n, bits)
    return VertexSet(n, ids[::-1] + ids[:len(ids) // 2])


@st.composite
def vertex_sets(draw):
    """(n, bits): dense random masks, sparse id lists, often with bit n-1 set."""
    n = draw(st.integers(0, 2100))
    if n == 0:
        return 0, 0
    if draw(st.booleans()):
        bits = draw(st.integers(0, (1 << n) - 1))
    else:
        bits = 0
        for v in draw(st.lists(st.integers(0, n - 1), max_size=40)):
            bits |= 1 << v
    if draw(st.booleans()):
        bits |= 1 << (n - 1)
    return n, bits


@SETTINGS
@given(vertex_sets())
@example((0, 0))
@example((1, 1))
@example((8, 1 << 7))
@example((65, 1 << 64))
@example((2100, 0))
@example((2100, (1 << 2100) - 1))
def test_ids_match_a_per_bit_loop(case):
    n, bits = case
    want = reference_ids(n, bits)
    S = vertex_set(n, bits)
    assert isinstance(S.ids, np.ndarray) and S.ids.dtype == np.int64
    assert S.ids.tolist() == want
    assert S.ids is S.ids  # decoded once


@SETTINGS
@given(vertex_sets())
@example((0, 0))
@example((64, 1 << 63))
def test_iteration_is_the_same_before_and_after_decoding(case):
    n, bits = case
    want = reference_ids(n, bits)
    S = vertex_set(n, bits)
    assert list(S) == want
    assert S.ids is not None
    assert list(S) == want


@SETTINGS
@given(vertex_sets())
def test_to_list_hands_out_a_fresh_list(case):
    n, bits = case
    S = vertex_set(n, bits)
    first = S.to_list()
    assert first == reference_ids(n, bits)
    first.append(-1)
    assert S.to_list() == reference_ids(n, bits)
    assert S.to_list() is not S.to_list()


@SETTINGS
@given(vertex_sets(), st.integers(0, 2**32 - 1), st.data())
def test_sample_keeps_the_rng_stream(case, seed, data):
    n, bits = case
    want = reference_ids(n, bits)
    k = data.draw(st.integers(0, len(want)))
    got = vertex_set(n, bits).sample(k, default_rng(seed))
    rng = default_rng(seed)
    picked = rng.choice(len(want), size=k, replace=False)
    assert got == VertexSet(n, [want[int(i)] for i in picked])


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 140))
    if n < 2:
        return Graph.from_edges(n, [])
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=300))
    if draw(st.booleans()):
        pairs.append((0, n - 1))
    return Graph.from_edges(n, [(u, v) for u, v in pairs if u != v])


@SETTINGS
@given(graphs())
@example(Graph.complete(70))
def test_edges_match_a_double_loop(G):
    want = [(u, v) for u in range(G.n) for v in range(u + 1, G.n)
            if G.has_edge(u, v)]
    assert list(G.edges()) == want


@st.composite
def graph_and_sets(draw):
    """A graph with two disjoint vertex sets of it, either possibly empty."""
    G = draw(graphs())
    side = draw(st.lists(st.sampled_from("ABx"), min_size=G.n, max_size=G.n))
    A = VertexSet(G.n, [v for v, t in enumerate(side) if t == "A"])
    B = VertexSet(G.n, [v for v, t in enumerate(side) if t == "B"])
    return G, A, B


@SETTINGS
@given(graph_and_sets(), st.data())
def test_degrees_into_match_an_edge_count(case, data):
    G, _, B = case
    ids = np.array(data.draw(st.lists(st.integers(0, G.n - 1), max_size=50))
                   if G.n else [], dtype=np.int64)
    edges = list(G.edges())
    want = [sum(1 for u, w in edges if (u == v and w in B) or (w == v and u in B))
            for v in ids]
    assert degrees_into(G, ids, B).tolist() == want


@SETTINGS
@given(graph_and_sets())
def test_edges_between_match_an_edge_count(case):
    G, A, B = case
    want = sum(1 for u, v in G.edges()
               if (u in A and v in B) or (u in B and v in A))
    assert edge_count(G, A.ids, B.ids) == edge_count(G, B.ids, A.ids) == want
