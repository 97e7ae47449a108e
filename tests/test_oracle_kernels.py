"""Differential tests: the oracles' search and grid-count kernels against
plain reference versions.

The references below are the earlier kernels, kept verbatim: a recursive
backtracking search that tries every candidate without forward checking, a
recursive path enumerator, and a three-column count over dense t x t
matrices.  Hypothesis draws G(n, p) with n <= 30 and a range of targets; the
kernels must give the same statuses, mappings and counts, never spend more
search nodes, and decide within every budget the reference decided in.
The reference's copy count is the one exhaustive counter the suite has;
`test_oracle` checks grid counts and expectations against it.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogrid import oracle
from monogrid.graphs import Graph
from monogrid.oracle import (
    ABSENT,
    FOUND,
    UNKNOWN,
    SearchResult,
    _Budget,
    _anchored_plans,
    _search_order,
)

SETTINGS = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# references


def _iter_bits(bits: int):
    """The set-bit positions of a non-negative int, ascending, one at a time."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _embed(
    rows: list[int],
    T: Graph,
    order: list[int],
    assigned: dict[int, int],
    used: int,
    budget: _Budget,
    count_all: bool = False,
) -> int | None:
    """Extend a partial embedding along `order`; count completions or stop at one.

    Returns the completion count in counting mode, 1/0 when searching for a
    single embedding (with `assigned` left holding it), or None on budget
    exhaustion.
    """
    depth = len(assigned)
    if depth == len(order):
        return 1
    t = order[depth]
    cand = ~used & ((1 << len(rows)) - 1)
    for t2 in T.neighbours(t):
        if t2 in assigned:
            cand &= rows[assigned[t2]]
    deg_t = T.degree(t)
    total = 0
    for g in _iter_bits(cand):
        if rows[g].bit_count() < deg_t:
            continue
        if not budget.spend():
            return None
        assigned[t] = g
        sub = _embed(rows, T, order, assigned, used | (1 << g), budget, count_all)
        if sub is None:
            return None
        if sub and not count_all:
            return 1
        total += sub
        del assigned[t]
    return total


def contains_subgraph(G: Graph, T: Graph, budget: int | None = None) -> SearchResult:
    """Search for an injective adjacency-preserving map of T into G."""
    if T.n == 0:
        return SearchResult(FOUND, {}, 0)
    if T.n > G.n or T.edge_count > G.edge_count or T.max_degree() > G.max_degree():
        return SearchResult(ABSENT, None, 0)
    rows = [G.row(v) for v in G.vertices()]
    order = _search_order(T)
    tracker = _Budget(budget)
    assigned: dict[int, int] = {}
    out = _embed(rows, T, order, assigned, 0, tracker)
    if out is None:
        return SearchResult(UNKNOWN, None, tracker.nodes)
    if out:
        return SearchResult(FOUND, dict(assigned), tracker.nodes)
    return SearchResult(ABSENT, None, tracker.nodes)


def count_labelled_copies(G: Graph, T: Graph, budget: int | None = None) -> int:
    """Exact number of injective adjacency-preserving maps T -> G."""
    if T.n == 0:
        return 1
    rows = [G.row(v) for v in G.vertices()]
    order = _search_order(T)
    tracker = _Budget(budget)
    out = _embed(rows, T, order, {}, 0, tracker, count_all=True)
    if out is None:
        raise RuntimeError(f"copy count exhausted its budget after {tracker.nodes} nodes")
    return out


def _anchored_copy(rows: list[int], n: int, T: Graph, u: int, v: int,
                   budget: _Budget) -> bool:
    """Does the graph given by `rows` contain T through the edge (u, v)?"""
    for x, y in T.edges():
        for ax, ay in ((x, y), (y, x)):
            order = _search_order(T)
            order.remove(ax)
            order.remove(ay)
            assigned = {ax: u, ay: v}
            # degree guard for the anchors themselves
            if rows[u].bit_count() < T.degree(ax) or rows[v].bit_count() < T.degree(ay):
                continue
            out = _embed(rows, T, [ax, ay] + order, assigned, (1 << u) | (1 << v),
                         budget)
            if out:
                return True
    return False


def _ordered_paths(A: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """All ordered a-vertex paths in the graph with adjacency matrix A.

    Returns (tuples, masks): tuples is (t, a) int vertex ids, masks is (t,)
    int64 occupancy bitmasks.  Requires n <= 63.
    """
    n = A.shape[0]
    neigh = [int.from_bytes(np.packbits(A[v], bitorder="little").tobytes(), "little")
             for v in range(n)]
    tuples: list[tuple[int, ...]] = []
    masks: list[int] = []

    def extend(tup: tuple[int, ...], mask: int) -> None:
        if len(tup) == a:
            tuples.append(tup)
            masks.append(mask)
            return
        for w in _iter_bits(neigh[tup[-1]] & ~mask):
            extend(tup + (w,), mask | (1 << w))

    for v in range(n):
        extend((v,), 1 << v)
    if not tuples:
        return np.zeros((0, a), dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.array(tuples, dtype=np.int64), np.array(masks, dtype=np.int64)


def _count_grid_in_adj(A: np.ndarray, a: int, b: int) -> int:
    """Labelled a-by-b grid copies in adjacency matrix A, for b <= 3, n <= 63.

    A copy is a sequence of b column paths: each column an ordered a-vertex
    path, consecutive columns adjacent position by position, all columns
    pairwise disjoint.  With at most three columns the disjointness is purely
    pairwise, so the count collapses to matrix algebra over the column list.
    """
    tuples, masks = _ordered_paths(A, a)
    t = len(tuples)
    if t == 0:
        return 0
    if b == 1:
        return t
    disjoint = (masks[:, None] & masks[None, :]) == 0
    compat = disjoint.copy()
    for pos in range(a):
        col = tuples[:, pos]
        compat &= A[col[:, None], col[None, :]]
    if b == 2:
        return int(compat.sum(dtype=np.int64))
    # b == 3: a middle column j with ends i, k drawn from j's compatible set,
    # needing only mutual disjointness.  The compatible sets are small, so a
    # loop over middle columns beats dense matrix products.
    total = 0
    for j in range(t):
        ends = np.nonzero(compat[j])[0]
        if len(ends) >= 2:
            total += int(disjoint[np.ix_(ends, ends)].sum(dtype=np.int64))
    return total


# ---------------------------------------------------------------------------
# inputs


def _star(k: int) -> Graph:
    return Graph.from_edges(k + 1, [(0, v) for v in range(1, k + 1)])


TARGETS = {
    **{f"grid {a}x{b}": Graph.grid(a, b)
       for a, b in ((1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4))},
    **{f"path {k}": Graph.path(k) for k in (2, 3, 5, 7)},
    **{f"cycle {k}": Graph.cycle(k) for k in (3, 4, 5, 6)},
    "K3": Graph.complete(3),
    "K4": Graph.complete(4),
    "star 3": _star(3),
    "star 5": _star(5),
    # a triangle, a separate edge and an isolated vertex
    "disconnected": Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)]),
}


def _adjacency(n: int, p: float, seed: int) -> np.ndarray:
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, k=1)
    return upper | upper.T


def _graph(A: np.ndarray) -> Graph:
    upper = np.triu(A, k=1)
    return Graph.from_edges(
        A.shape[0], [(int(u), int(v)) for u, v in zip(*np.nonzero(upper))])


@st.composite
def gnp(draw, max_n: int = 30):
    n = draw(st.integers(0, max_n))
    p = draw(st.floats(0.0, 1.0))
    return _graph(_adjacency(n, p, draw(st.integers(0, 2**32 - 1))))


targets = st.sampled_from(sorted(TARGETS)).map(TARGETS.get)
budgets = st.one_of(st.integers(0, 40), st.just(20_000))


# ---------------------------------------------------------------------------
# search


@SETTINGS
@given(gnp(), targets, budgets)
def test_search_matches_the_reference(G, T, budget):
    old = contains_subgraph(G, T, budget)
    new = oracle.contains_subgraph(G, T, budget)
    assert new.nodes <= old.nodes
    if old.status != UNKNOWN:
        assert new.status == old.status
        assert new.mapping == old.mapping
    elif new.status == FOUND:
        assert all(G.has_edge(new.mapping[u], new.mapping[v]) for u, v in T.edges())
        assert len(set(new.mapping.values())) == T.n


@SETTINGS
@given(gnp(max_n=12), targets)
def test_unlimited_search_matches_the_reference(G, T):
    old = contains_subgraph(G, T)
    new = oracle.contains_subgraph(G, T)
    assert (new.status, new.mapping) == (old.status, old.mapping)
    assert new.nodes <= old.nodes


@SETTINGS
@given(gnp(max_n=9), targets, st.data())
def test_anchored_copies_match_the_reference(G, T, data):
    edges = list(G.edges())
    if T.edge_count == 0 or not edges:
        return
    u, v = data.draw(st.sampled_from(edges))
    if data.draw(st.booleans()):
        u, v = v, u
    rows = [G.row(g) for g in G.vertices()]
    old, new = _Budget(None), _Budget(None)
    assert (oracle._anchored_copy(rows, _anchored_plans(T), u, v, new)
            == _anchored_copy(rows, G.n, T, u, v, old))
    assert new.nodes <= old.nodes


# ---------------------------------------------------------------------------
# grid counts


@st.composite
def sparse_adjacency(draw):
    """A G(n, p) whose a-vertex path count stays small enough for the
    reference's t x t matrices."""
    n = draw(st.integers(0, 30))
    a = draw(st.integers(1, 4))
    # about n (np)^(a-1) ordered paths: keep that near 1500 or below
    top = 1.0 if n < 2 or a == 1 else min(1.0, (1500 / n) ** (1 / (a - 1)) / n)
    p = draw(st.floats(0.0, top))
    return _adjacency(n, p, draw(st.integers(0, 2**32 - 1))), a


def _matrix(G: Graph) -> np.ndarray:
    A = np.zeros((G.n, G.n), dtype=bool)
    for u, v in G.edges():
        A[u, v] = A[v, u] = True
    return A


# dense inputs the sparse strategy never draws: K_9, where every injective
# placement is a copy, and the 5x5 grid with its 72 labelled 3x3 copies
K9, GRID5 = _matrix(Graph.complete(9)), _matrix(Graph.grid(5, 5))


@SETTINGS
@given(sparse_adjacency(), st.sampled_from([1, 2, 3]),
       st.sampled_from([oracle._TRIPLE_CHUNK, 20]))
@example((K9, 1), 3, 20)
@example((K9, 2), 3, 20)
@example((K9, 3), 2, oracle._TRIPLE_CHUNK)
@example((K9, 3), 3, 20)
@example((GRID5, 3), 3, 20)
@example((GRID5, 2), 3, oracle._TRIPLE_CHUNK)
def test_grid_counts_match_the_reference(case, b, chunk):
    A, a = case
    paths = oracle._ordered_paths(A, a)
    want_tuples, want_masks = _ordered_paths(A, a)
    assert np.array_equal(paths[0], want_tuples)
    assert np.array_equal(paths[1], want_masks)
    # a 20-triple chunk splits every middle-column set size into many passes
    with mock.patch.object(oracle, "_TRIPLE_CHUNK", chunk):
        assert oracle._count_grid_in_adj(A, paths, b) == _count_grid_in_adj(A, a, b)


def test_grid_count_chunking_is_exercised():
    # the dense 3 x 3 case of criterion 9, sample 0, split into tiny chunks
    A = _adjacency(25, 0.3, 0)
    paths = oracle._ordered_paths(A, 3)
    want = _count_grid_in_adj(A, 3, 3)
    for chunk in (1, 20, 1000, oracle._TRIPLE_CHUNK):
        with mock.patch.object(oracle, "_TRIPLE_CHUNK", chunk):
            assert oracle._count_grid_in_adj(A, paths, 3) == want
