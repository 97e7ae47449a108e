"""Exact ground truth at tiny scale.

Everything downstream of this module is heuristic or probabilistic, so the
oracles here are deliberately brute force: backtracking subgraph search,
exhaustive arrow checking over edge colourings, and closed-form plus Monte
Carlo grid counts.  They run only at sizes where exhaustion is affordable,
and they refuse (or report unknown) rather than guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from monogrid import seeds
from monogrid.graphs import EdgeColouring, Graph, _iter_bits, colour_subgraph

FOUND = "found"
ABSENT = "absent"
ARROWS = "arrows"
NOT_ARROWS = "not_arrows"
UNKNOWN = "unknown"


def grid_graph(a: int, b: int) -> Graph:
    """The a-by-b grid: cell (i, j) is vertex i*b + j, axis neighbours adjacent."""
    if a < 1 or b < 1:
        raise ValueError("grid dimensions must be at least 1")
    edges = []
    for i in range(a):
        for j in range(b):
            v = i * b + j
            if j + 1 < b:
                edges.append((v, v + 1))
            if i + 1 < a:
                edges.append((v, v + b))
    return Graph.from_edges(a * b, edges)


def grid_automorphisms(a: int, b: int) -> int:
    """|Aut| of the a-by-b grid, by case: square 8, rectangle 4, path 2, point 1."""
    if a >= 2 and b >= 2:
        return 8 if a == b else 4
    return 1 if a * b == 1 else 2


# ---------------------------------------------------------------------------
# subgraph search


@dataclass(frozen=True)
class SearchResult:
    status: str  # found | absent | unknown
    mapping: dict[int, int] | None
    nodes: int


def _search_order(T: Graph) -> list[int]:
    # BFS from a max-degree vertex, restarting per component, so every
    # vertex after a component root has an already-placed neighbour.
    remaining = set(T.vertices())
    order: list[int] = []
    while remaining:
        root = max(remaining, key=T.degree)
        queue = [root]
        remaining.discard(root)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in T.neighbours(v):
                if w in remaining:
                    remaining.discard(w)
                    queue.append(w)
    return order


class _Budget:
    __slots__ = ("left", "nodes")

    def __init__(self, budget: int | None):
        self.left = budget
        self.nodes = 0

    def spend(self) -> bool:
        self.nodes += 1
        if self.left is None:
            return True
        self.left -= 1
        return self.left >= 0


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


# ---------------------------------------------------------------------------
# arrow relation


@dataclass(frozen=True)
class ArrowResult:
    status: str  # arrows | not_arrows | unknown
    witness: EdgeColouring | None
    nodes: int

    def to_json(self) -> dict:
        return {"status": self.status, "nodes": self.nodes,
                "has_witness": self.witness is not None}


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


def validate_not_arrows_witness(G: Graph, T: Graph, chi: EdgeColouring) -> bool:
    """Independent re-check: no colour class of chi contains a copy of T."""
    chi.validate_total(G)
    for c in range(chi.r):
        if contains_subgraph(colour_subgraph(G, chi, c), T).status == FOUND:
            return False
    return True


def arrows(G: Graph, T: Graph, r: int, budget: int = 2_000_000,
           allow_large: bool = False) -> ArrowResult:
    """Does every r-colouring of E(G) contain a monochromatic copy of T?

    Depth-first over edge colourings with the first edge's colour fixed (the
    colour classes are interchangeable) and a branch pruned as soon as the
    newly coloured edge completes a monochromatic copy.  A leaf that survives
    is re-checked in full and returned as the avoiding witness.
    """
    if r < 1:
        raise ValueError("need at least one colour")
    if G.edge_count > 30 and not allow_large:
        raise ValueError(
            f"{G.edge_count} edges is past the exhaustive-search guard; "
            "pass allow_large=True to insist"
        )
    if r == 1:
        # one colour class: the whole of G
        found = contains_subgraph(G, T, budget)
        if found.status == UNKNOWN:
            return ArrowResult(UNKNOWN, None, found.nodes)
        return ArrowResult(ARROWS if found.status == FOUND else NOT_ARROWS,
                           None, found.nodes)
    whole = contains_subgraph(G, T, budget)
    if whole.status == UNKNOWN:
        return ArrowResult(UNKNOWN, None, whole.nodes)
    if whole.status == ABSENT:
        # no copy in G at all, so any colouring avoids T
        return ArrowResult(NOT_ARROWS, EdgeColouring.constant(G, r), whole.nodes)
    if T.edge_count == 0:
        # copies of an edgeless target need no coloured edges
        return ArrowResult(ARROWS, None, whole.nodes)

    edges = list(G.edges())
    m = len(edges)
    class_rows = [[0] * G.n for _ in range(r)]
    tracker = _Budget(budget)
    witness: list[EdgeColouring] = []

    def descend(depth: int) -> str:
        if depth == m:
            chi = EdgeColouring.from_classes(
                [Graph(G.n, list(rows)) for rows in class_rows])
            if validate_not_arrows_witness(G, T, chi):
                witness.append(chi)
                return NOT_ARROWS
            return ARROWS  # incremental check missed nothing; defensive only
        u, v = edges[depth]
        choices = range(1 if depth == 0 else r)
        for c in choices:
            if not tracker.spend():
                return UNKNOWN
            rows = class_rows[c]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            out = ARROWS
            if not _anchored_copy(rows, G.n, T, u, v, tracker):
                out = descend(depth + 1)
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
            if out != ARROWS:
                return out
        return ARROWS

    status = descend(0)
    return ArrowResult(status, witness[0] if witness else None, tracker.nodes)


# ---------------------------------------------------------------------------
# first-moment grid counts


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def expected_grid_count(n: int, p: float, a: int, b: int) -> float:
    """Expected number of unlabelled a-by-b grid copies in a binomial random graph.

    Falling factorial times p to the number of grid edges, divided by the
    grid's automorphism count.  Setting the divisor to 1 gives the labelled
    variant.
    """
    if a < 1 or b < 1:
        raise ValueError("grid dimensions must be at least 1")
    if a * b > n:
        raise ValueError("grid has more vertices than the host")
    e = 2 * a * b - a - b
    return _falling(n, a * b) * (p ** e) / grid_automorphisms(a, b)


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


_FAST_TUPLE_CAP = 200_000


def count_grid_copies(G: Graph, a: int, b: int) -> int:
    """Exact number of unlabelled a-by-b grid copies in G."""
    if a < 1 or b < 1:
        raise ValueError("grid dimensions must be at least 1")
    aut = grid_automorphisms(a, b)
    if b > a:
        a, b = b, a  # count along the shorter axis
    if b <= 3 and G.n <= 63:
        A = np.zeros((G.n, G.n), dtype=bool)
        for u, v in G.edges():
            A[u, v] = A[v, u] = True
        tuples, _ = _ordered_paths(A, a)
        if len(tuples) <= _FAST_TUPLE_CAP:
            return _count_grid_in_adj(A, a, b) // aut
    if a * b <= 12 and G.n <= 30:
        return count_labelled_copies(G, grid_graph(a, b)) // aut
    raise ValueError(f"grid counting intractable at n={G.n}, {a}x{b}")


@dataclass(frozen=True)
class GridCountReport:
    n: int
    p: float
    a: int
    b: int
    expectation: float
    samples: int
    mean: float
    variance: float
    flagged: bool

    def to_json(self) -> dict:
        return {
            "n": self.n, "p": self.p, "a": self.a, "b": self.b,
            "expectation": self.expectation, "samples": self.samples,
            "mean": self.mean, "variance": self.variance,
            "flagged": self.flagged,
        }


def monte_carlo_grid_count(n: int, p: float, a: int, b: int, samples: int,
                           seed: int) -> GridCountReport:
    """Sample binomial random graphs and count grid copies exactly in each.

    Flags the report when the empirical mean sits more than three standard
    errors from the closed-form expectation.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    lo, hi = (b, a) if a >= b else (a, b)
    if not (lo <= 3 and n <= 63) and not (a * b <= 12 and n <= 30):
        raise ValueError(f"refusing Monte Carlo at n={n}, {a}x{b}: counting intractable")
    expectation = expected_grid_count(n, p, a, b)
    aut = grid_automorphisms(a, b)
    rng = seeds.rng(seed)
    counts = np.zeros(samples, dtype=np.float64)
    for i in range(samples):
        upper = np.triu(rng.random((n, n)) < p, k=1)
        A = upper | upper.T
        if lo <= 3 and n <= 63:
            counts[i] = _count_grid_in_adj(A, hi, lo) // aut
        else:
            edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(upper))]
            counts[i] = count_grid_copies(Graph.from_edges(n, edges), a, b)
    mean = float(counts.mean())
    variance = float(counts.var(ddof=1)) if samples > 1 else 0.0
    stderr = math.sqrt(variance / samples)
    flagged = abs(mean - expectation) > 3 * stderr
    return GridCountReport(n, p, a, b, expectation, samples, mean, variance, flagged)
