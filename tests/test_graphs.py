"""Graph core: bitset adjacency, exact densities, colourings, file IO."""

import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from monogrid.graphs import (
    MAX_COLOURS,
    MAX_VERTICES,
    EdgeColouring,
    Graph,
    PairMatrix,
    VertexSet,
    colour_subgraph,
    edge_count,
    neighbours_in,
    pair_density,
    read_colouring,
    read_graph,
    subsets,
    write_colouring,
    write_graph,
)

SEEDS = [0, 1, 2, 7, 11, 42, 101, 2024]


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# VertexSet


def test_vertexset_basics():
    s = VertexSet(10, [3, 1, 7])
    assert len(s) == 3
    assert list(s) == [1, 3, 7]
    assert 3 in s and 4 not in s
    assert s == VertexSet(10, [7, 3, 1])
    assert VertexSet(5, range(5)).size == 5
    assert not VertexSet.empty(5)


def test_vertexset_operators():
    a = VertexSet(8, [0, 1, 2, 3])
    b = VertexSet(8, [2, 3, 4, 5])
    assert list(a & b) == [2, 3]
    assert list(a | b) == [0, 1, 2, 3, 4, 5]
    assert list(a - b) == [0, 1]
    assert not a.isdisjoint(b)
    assert a.isdisjoint(VertexSet(8, [6, 7]))


def test_vertexset_lowest_and_sample():
    s = VertexSet(20, [15, 2, 9, 4, 18])
    assert list(s.lowest(3)) == [2, 4, 9]
    assert s.lowest(0).size == 0
    rng = np.random.default_rng(0)
    picked = s.sample(3, rng)
    assert picked.size == 3
    assert (picked & s) == picked
    with pytest.raises(ValueError):
        s.sample(6, rng)


@pytest.mark.parametrize("make", [
    lambda: VertexSet(200, np.array([0, 2, 63, 150])),
    lambda: VertexSet(200, [150, 63, 0, 2]),
    lambda: VertexSet(200, range(60, 160)).sample(7, np.random.default_rng(1)),
    lambda: VertexSet(200, [199, 150, 63]).lowest(2),
])
def test_vertexset_ids_are_a_read_only_int64_array(make):
    S = make()
    assert S.ids.dtype == np.int64 and not S.ids.flags.writeable
    with pytest.raises(ValueError):
        S.ids[0] = 1
    assert S.ids.tolist() == sorted(S.ids.tolist())
    assert S == VertexSet(S.n, S.to_list())


def test_vertexset_hands_out_python_ints():
    S = VertexSet(200, [150, 63, 64])
    for members in (list(S), S.to_list()):
        assert members == [63, 64, 150]
        assert all(type(v) is int for v in members)
        # a numpy int64 would wrap here
        assert [1 << v for v in members] == [2**63, 2**64, 2**150]


@pytest.mark.parametrize("bad", [-1, 10])
def test_vertexset_from_ids_rejects_ids_outside_the_universe(bad):
    with pytest.raises(ValueError, match=f"^vertex {bad} outside universe of size 10$"):
        VertexSet(10, [3, bad, 4])
    with pytest.raises(ValueError, match=f"^vertex {bad} outside universe of size 10$"):
        VertexSet(10, np.array([bad]))


def test_pair_matrix_matches_has_edge():
    # id arrays that cross tile boundaries, and row words that hold
    # neighbours outside the columns
    rng = np.random.default_rng(5)
    n = 1500
    pairs = rng.integers(0, n, (6000, 2))
    G = Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])
    a_ids = np.sort(rng.choice(n, 1100, replace=False))
    b_ids = np.sort(rng.choice(n, 77, replace=False))
    M = PairMatrix(G, a_ids, b_ids)
    ref = np.array([[G.has_edge(a, b) for b in b_ids.tolist()] for a in a_ids.tolist()])
    # every row with a one, across 64-row blocks, some twice: a random, the
    # first and the last of its ones
    rows = np.flatnonzero(ref.any(axis=1))[::-1].repeat(2)
    degree = ref[rows].sum(axis=1)
    ranks = np.stack([rng.integers(degree), np.zeros_like(degree), degree - 1], axis=1)
    assert M.select(rows, ranks).tolist() == [
        np.flatnonzero(ref[i])[t].tolist() for i, t in zip(rows, ranks)]
    x, y = np.sort(rng.choice(1100, 40, replace=False)), np.sort(rng.choice(77, 30, replace=False))
    sub = ref[x][:, y]
    assert M.count(x, y) == edge_count(G, a_ids[x], b_ids[y]) == sub.sum()
    assert M.count(x, y, 0).tolist() == sub.sum(axis=0).tolist()
    assert M.count(x, y, 1).tolist() == sub.sum(axis=1).tolist()
    everything = np.arange(1100), np.arange(77)
    assert M.count(*everything) == edge_count(G, a_ids, b_ids) == ref.sum()
    # many submatrices at once: rows xs[r] under the mask of a subset of columns
    xs = np.array([rng.choice(1100, 5, replace=False) for _ in range(9)])
    for cols in (np.arange(77), np.array([rng.choice(77, 30, replace=False) for _ in xs])):
        # drawn on the masks, the same subsets as drawn on positions
        masks = M.draw(np.random.default_rng(3), len(xs), cols, 20)
        at = subsets(np.random.default_rng(3), cols.shape[-1], 20, len(xs))
        picked = np.take_along_axis(np.broadcast_to(cols, (len(xs), cols.shape[-1])), at, 1)
        assert M.score(xs, masks).tolist() == [
            int(ref[row][:, c].sum()) for row, c in zip(xs, picked)]


def test_subsets_are_uniform():
    # every 2-subset of range(5) about equally often, each row ascending
    got = subsets(np.random.default_rng(0), 5, 2, 20000)
    assert (np.diff(got, axis=1) > 0).all() and got.min() >= 0 and got.max() < 5
    _, counts = np.unique(got, axis=0, return_counts=True)
    assert len(counts) == 10 and abs(counts - 2000).max() < 150
    # a size per row; n == k takes all of range(n)
    n = np.array([3, 7, 2, 9])
    got = subsets(np.random.default_rng(1), n, 2, 4)
    assert (got < n[:, None]).all() and (np.diff(got, axis=1) > 0).all()
    assert subsets(np.random.default_rng(2), 4, 4, 3).tolist() == [[0, 1, 2, 3]] * 3


@pytest.mark.parametrize("ids", [[1.5], np.array([2.0, 3.0]), np.array([True])])
def test_vertexset_from_ids_rejects_ids_that_are_not_integers(ids):
    with pytest.raises(TypeError, match="^vertex ids must be integers"):
        VertexSet(10, ids)
    with pytest.raises(TypeError, match="^vertex ids must be integers"):
        VertexSet(10, ids)


def test_vertexset_from_ids_takes_duplicates_and_empty_input():
    assert VertexSet(10, [3, 3, 1, 3]) == VertexSet(10, np.array([1, 3]))
    assert VertexSet(10, iter([9, 9])) == VertexSet(10, np.array([9]))
    for empty in ([], (), iter(()), np.array([], dtype=np.int64)):
        S = VertexSet(10, empty)
        assert S == VertexSet.empty(10) and S.to_list() == []


def test_vertexset_universe_mismatch():
    with pytest.raises(ValueError):
        VertexSet(4, range(4)) & VertexSet(5, range(5))
    with pytest.raises(ValueError):
        VertexSet(4, [4])


# ---------------------------------------------------------------------------
# Graph construction


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    # duplicate edges collapse rather than double-count
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_standard_constructors():
    k4 = Graph.complete(4)
    assert k4.edge_count == 6
    assert all(k4.degree(v) == 3 for v in k4.vertices())
    c5 = Graph.cycle(5)
    assert c5.edge_count == 5
    assert sorted(c5.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    p4 = Graph.path(4)
    assert p4.edge_count == 3
    assert p4.max_degree() == 2


def test_edges_round_trip():
    for seed in SEEDS:
        g = random_graph(17, 0.3, seed)
        assert Graph.from_edges(17, g.edges()) == g
        assert g.edge_count == sum(1 for _ in g.edges())


# ---------------------------------------------------------------------------
# pair density and subset degrees


def test_pair_density_example():
    # two left vertices, two right vertices, three of four edges present
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2)])
    A = VertexSet(4, [0, 1])
    B = VertexSet(4, [2, 3])
    assert pair_density(g, A, B) == Fraction(3, 4)


def test_pair_density_is_exact():
    g = Graph.from_edges(3, [(0, 1)])
    d = pair_density(g, VertexSet(3, [0]), VertexSet(3, [1, 2]))
    assert d == Fraction(1, 2)
    assert isinstance(d, Fraction)


def test_pair_density_domain_errors():
    g = Graph.complete(4)
    A = VertexSet(4, [0, 1])
    with pytest.raises(ValueError):
        pair_density(g, A, VertexSet.empty(4))
    with pytest.raises(ValueError):
        pair_density(g, A, VertexSet(4, [1, 2]))


@pytest.mark.parametrize("seed", SEEDS)
def test_pair_density_matches_double_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    g = random_graph(n, 0.4, seed + 1000)
    ids = rng.permutation(n)
    ka = int(rng.integers(1, n // 2 + 1))
    kb = int(rng.integers(1, n - ka + 1))
    A = VertexSet(n, ids[:ka].tolist())
    B = VertexSet(n, ids[ka : ka + kb].tolist())
    naive = sum(1 for a in A for b in B if g.has_edge(a, b))
    assert pair_density(g, A, B) == Fraction(naive, ka * kb)


def test_degree_into_cycle():
    c5 = Graph.cycle(5)
    B = VertexSet(5, [1, 2, 3])
    assert neighbours_in(c5, 0, B) == VertexSet(5, [1])


def test_degree_into_domain_errors():
    g = Graph.complete(4)
    B = VertexSet(4, [1, 2])
    with pytest.raises(ValueError):
        neighbours_in(g, 1, B)
    with pytest.raises(ValueError):
        neighbours_in(g, 7, B)
    with pytest.raises(ValueError):
        neighbours_in(g, 2, B)


@pytest.mark.parametrize("seed", SEEDS)
def test_degree_into_matches_loop(seed):
    g = random_graph(23, 0.35, seed)
    rng = np.random.default_rng(seed + 5)
    B = VertexSet(23, rng.permutation(23)[:9].tolist())
    for v in range(23):
        if v in B:
            continue
        expect = sum(1 for b in B if g.has_edge(v, b))
        assert neighbours_in(g, v, B).size == expect


# ---------------------------------------------------------------------------
# edge colourings


def test_colouring_normalises_keys():
    chi = EdgeColouring(3, 2, {(2, 0): 1, (0, 1): 0})
    assert chi.colour(0, 2) == 1
    assert chi.colour(2, 0) == 1
    assert len(chi) == 2


def test_colouring_rejects_bad_input():
    with pytest.raises(ValueError):
        EdgeColouring(3, 1, {})
    with pytest.raises(ValueError):
        EdgeColouring(3, 2, {(0, 1): 2})
    with pytest.raises(ValueError):
        EdgeColouring(3, 2, {(0, 0): 0})
    with pytest.raises(ValueError):
        EdgeColouring(3, 2, {(0, 1): 0, (1, 0): 1})


def test_colour_subgraph_triangle():
    k3 = Graph.complete(3)
    chi = EdgeColouring(3, 2, {(0, 1): 0, (1, 2): 0, (0, 2): 1})
    red = colour_subgraph(k3, chi, 0)
    assert sorted(red.edges()) == [(0, 1), (1, 2)]
    blue = colour_subgraph(k3, chi, 1)
    assert sorted(blue.edges()) == [(0, 2)]
    # the colour classes partition E(G)
    assert red.edge_count + blue.edge_count == k3.edge_count


def test_colour_subgraph_domain_errors():
    k3 = Graph.complete(3)
    chi = EdgeColouring.constant(k3, 2, 0)
    with pytest.raises(ValueError):
        colour_subgraph(k3, chi, 2)
    # a colouring naming an edge the graph does not have
    p3 = Graph.path(3)
    ghost = EdgeColouring(3, 2, {(0, 2): 0})
    with pytest.raises(ValueError):
        colour_subgraph(p3, ghost, 0)


def test_validate_total():
    k3 = Graph.complete(3)
    full = EdgeColouring.constant(k3, 2, 1)
    full.validate_total(k3)
    partial = EdgeColouring(3, 2, {(0, 1): 0})
    with pytest.raises(ValueError):
        partial.validate_total(k3)


def test_colour_counts():
    k3 = Graph.complete(3)
    chi = EdgeColouring(3, 3, {(0, 1): 0, (1, 2): 0, (0, 2): 2})
    assert chi.colour_counts() == [2, 0, 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_colour_subgraphs_partition_edges(seed):
    g = random_graph(15, 0.4, seed)
    rng = np.random.default_rng(seed + 77)
    r = 3
    chi = EdgeColouring(15, r, {e: int(rng.integers(r)) for e in g.edges()})
    pieces = [colour_subgraph(g, chi, c) for c in range(r)]
    assert sum(p.edge_count for p in pieces) == g.edge_count
    union = [0] * 15
    for p in pieces:
        for v in range(15):
            assert union[v] & p.row(v) == 0  # classes are edge-disjoint
            union[v] |= p.row(v)
    assert union == [g.row(v) for v in range(15)]


# ---------------------------------------------------------------------------
# file IO


def test_graph_file_round_trip(tmp_path):
    for seed in SEEDS[:4]:
        g = random_graph(20, 0.3, seed)
        path = str(tmp_path / f"g{seed}.txt")
        write_graph(g, path, comment="round trip")
        assert read_graph(path) == g


def test_graph_file_format(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("# triangle\nn 3\n0 1\n1 2\n\n0 2\n")
    g = read_graph(str(path))
    assert g == Graph.complete(3)


@pytest.mark.parametrize(
    "body,lineno",
    [
        ("0 1\n", 1),            # missing header
        ("n 3\n0 1 2\n", 2),     # wrong field count
        ("n 3\n0 x\n", 2),       # non-integer id
        ("n 3\n0 3\n", 2),       # out of range
        ("n 3\n1 1\n", 2),       # self-loop
        ("n 3\n0 1\n1 0\n", 3),  # duplicate edge
        (f"n {MAX_VERTICES + 1}\n0 1\n", 1),         # too many vertices
        ("# big\nn 1099511627776\n1099511627775 1\n", 2),
    ],
)
def test_graph_file_errors_carry_line_numbers(tmp_path, body, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=f":{lineno}:"):
        read_graph(str(path))


def test_colouring_file_round_trip(tmp_path):
    g = random_graph(12, 0.4, 3)
    rng = np.random.default_rng(9)
    chi = EdgeColouring(12, 2, {e: int(rng.integers(2)) for e in g.edges()})
    path = str(tmp_path / "chi.txt")
    write_colouring(chi, path)
    back = read_colouring(path, n=12)
    assert back.r == 2
    assert dict(back.items()) == dict(chi.items())


@pytest.mark.parametrize(
    "body,lineno",
    [
        ("0 1 0\n", 1),              # missing header
        ("r 1\n", 1),                # too few colours
        ("r 2\n0 1\n", 2),           # wrong field count
        ("r 2\n0 1 5\n", 2),         # colour out of range
        ("r 2\n0 1 0\n1 0 1\n", 3),  # duplicate edge
        (f"r {MAX_COLOURS + 1}\n", 1),  # too many colours
        ("r 100000000\n0 1 0\n", 1),
    ],
)
def test_colouring_file_errors_carry_line_numbers(tmp_path, body, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=f":{lineno}:"):
        read_colouring(str(path), n=4)


def test_readers_take_header_counts_up_to_their_bounds(tmp_path):
    graph, colouring = tmp_path / "g.txt", tmp_path / "c.txt"
    graph.write_text(f"n {MAX_VERTICES}\n0 1\n")
    assert read_graph(str(graph)).n == MAX_VERTICES
    colouring.write_text(f"r {MAX_COLOURS}\n0 1 {MAX_COLOURS - 1}\n")
    assert read_colouring(str(colouring), n=3).r == MAX_COLOURS


# ---------------------------------------------------------------------------
# layout boundary

# Adjacency is tiles only inside graphs.py, and bit operations on it too;
# these modules ask set-level questions instead, and read no `PairMatrix`
# words or column bits (`.words`, `.bit`).  oracle.py keeps int-mask
# search state, which it takes from `Graph.row` and from nothing else of the
# layout.
_TILE_READS = re.compile(r"\._(tiles|keys|ptr|col|mask|words|rows)\b|\.(bits?|words)\b|\.row\("
                         r"|\b(un)?packbits\b|\bbitwise_count\b")
_SRC = Path(__file__).resolve().parents[1] / "src" / "monogrid"


@pytest.mark.parametrize("name", ["regularity.py", "embedder.py", "pipeline.py",
                                  "cli.py", "blowup.py", "oracle.py"])
def test_only_graphs_reads_bit_rows(name):
    allowed = {".row("} if name == "oracle.py" else set()
    hits = [line for line in (_SRC / name).read_text().splitlines()
            if {m.group(0) for m in _TILE_READS.finditer(line)} - allowed]
    assert not hits
