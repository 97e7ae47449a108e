"""Property tests for the graph and embedding file round trips."""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from monogrid.embedder import GridEmbedding, read_embedding, write_embedding
from monogrid.graphs import Graph, read_graph, write_graph

SETTINGS = settings(max_examples=60, deadline=None)

# Any ASCII text, control characters and line breaks included: the writers
# turn each of its lines into one "# " line.
comments = st.none() | st.text(st.characters(codec="ascii"), max_size=40)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=60)) if pairs else set()
    return Graph.from_edges(n, edges)


@st.composite
def embeddings(draw):
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = [(i, j) for i in range(a) for j in range(b)]
    image = draw(st.dictionaries(st.sampled_from(cells), st.integers(0, 10**6)))
    return GridEmbedding(a, b, draw(st.integers(0, 5)), image)


def _round_trip(write, read, obj, comment):
    """Write `obj`, read it back, write that again; returns (back, first, second)."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        write(obj, first, comment=comment)
        back = read(first)
        write(back, second, comment=comment)
        with open(first, "rb") as f1, open(second, "rb") as f2:
            return back, f1.read(), f2.read()


@SETTINGS
@given(graphs(), comments)
def test_graph_file_round_trip(G, comment):
    back, first, second = _round_trip(write_graph, read_graph, G, comment)
    assert back == G
    assert back.edge_count == G.edge_count
    assert first == second


@SETTINGS
@given(embeddings(), comments)
def test_embedding_file_round_trip(emb, comment):
    back, first, second = _round_trip(write_embedding, read_embedding, emb, comment)
    assert (back.a, back.b, back.colour) == (emb.a, emb.b, emb.colour)
    assert back.image == emb.image
    assert first == second
