"""Property tests for edge colourings stored as colour-class graphs."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogrid.blowup import build_blowup
from monogrid.graphs import (
    EdgeColouring,
    Graph,
    VertexSet,
    read_colouring,
    write_colouring,
)
from monogrid.pipeline import majority_colour
from colour_map import colouring_from

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def colourings(draw):
    """(G, r, mapping): a random graph and a colouring of some vertex pairs.

    The coloured pairs are G's edges with a few pairs toggled, so the
    colouring is usually total, sometimes partial, sometimes names non-edges.
    """
    n = draw(st.integers(2, 12))
    r = draw(st.sampled_from([2, 3]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    colour_of = draw(st.lists(st.none() | st.integers(0, r - 1),
                              min_size=len(pairs), max_size=len(pairs)))
    mapping = {e: c for e, c in zip(pairs, colour_of) if c is not None}
    toggled = draw(st.sets(st.sampled_from(pairs), max_size=2)
                   | st.just(set()))
    G = Graph.from_edges(n, set(mapping) ^ toggled)
    return G, r, mapping


def _union_rows(chi: EdgeColouring) -> list[int]:
    union = [0] * chi.n
    for g in chi.classes:
        for v, row in enumerate(g.rows()):
            union[v] |= row
    return union


@SETTINGS
@given(colourings())
def test_file_round_trip_keeps_items_and_r(case):
    G, r, mapping = case
    chi = colouring_from(G.n, r, mapping)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chi.txt")
        write_colouring(chi, path, comment="property")
        back = read_colouring(path, n=G.n)
    assert back.r == r
    assert list(back.items()) == list(chi.items()) == sorted(mapping.items())


@SETTINGS
@given(colourings())
def test_classes_are_disjoint_and_validate_total_means_union_is_e(case):
    G, r, mapping = case
    chi = colouring_from(G.n, r, mapping)
    rows = [g.rows() for g in chi.classes]
    for c in range(r):
        for d in range(c + 1, r):
            assert all(x & y == 0 for x, y in zip(rows[c], rows[d]))
    covers = _union_rows(chi) == G.rows()
    try:
        chi.validate_total(G)
        total = True
    except ValueError:
        total = False
    assert total == covers


@SETTINGS
@given(colourings())
def test_colour_counts_sum_to_length(case):
    G, r, mapping = case
    chi = colouring_from(G.n, r, mapping)
    counts = chi.colour_counts()
    assert sum(counts) == len(chi) == len(mapping)
    assert counts == [sum(1 for c in mapping.values() if c == k)
                      for k in range(r)]


@SETTINGS
@given(colourings(), st.data())
def test_constant_equals_dict_built(case, data):
    G, r, _ = case
    c = data.draw(st.integers(0, r - 1))
    const = EdgeColouring.constant(G, r, c)
    built = EdgeColouring.by_edge(G, r, [c] * G.edge_count)
    assert const.classes == built.classes
    assert list(const.items()) == list(built.items())
    const.validate_total(G)


def test_constant_rejects_colour_out_of_range():
    with pytest.raises(ValueError):
        EdgeColouring.constant(Graph.complete(3), 2, 2)


@SETTINGS
@given(st.integers(0, 2**16), st.sampled_from([2, 3]), st.data())
def test_majority_colour_matches_per_edge_count(seed, r, data):
    s = 6
    bg = build_blowup(Graph.path(2), s, 0.6, seed)
    colours = data.draw(st.lists(st.integers(0, r - 1),
                                 min_size=bg.gamma.edge_count,
                                 max_size=bg.gamma.edge_count))
    chi = EdgeColouring.by_edge(bg.gamma, r, colours)
    A = VertexSet(bg.gamma.n, data.draw(
        st.sets(st.sampled_from(list(bg.part(0))), min_size=1)))
    B = VertexSet(bg.gamma.n, data.draw(
        st.sets(st.sampled_from(list(bg.part(1))), min_size=1)))
    counts = [0] * r
    for a in A:
        for b in B:
            if bg.gamma.has_edge(a, b):
                counts[chi.colour(a, b)] += 1
    if sum(counts) == 0:
        with pytest.raises(ValueError):
            majority_colour(chi, A, B)
        return
    want = max(range(r), key=lambda c: (counts[c], -c))
    assert majority_colour(chi, A, B) == want
