"""Exact ground truth at tiny scale.

Everything downstream of this module is heuristic or probabilistic, so the
oracles here are deliberately exhaustive: backtracking subgraph search,
exhaustive arrow checking over edge colourings, and closed-form plus Monte
Carlo grid counts.  They run only at sizes where exhaustion is affordable,
and they refuse (or report unknown) rather than guess.

The subgraph search is one depth-first loop over int masks (the rows that
`Graph.rows` decodes from the tiles in one pass) with an explicit stack, so
no pattern size meets the recursion limit.  It prunes by forward checking
(the cheapest form of Ullmann's refinement, J. ACM 23(1), 1976): each
unplaced pattern vertex next to a placed one keeps a candidate mask, and a
branch is cut as soon as one empties.  The cut branches hold no embedding,
so every answer and found mapping is that of the plain search; only the node
count is smaller.  It is the package's one backtracking search: `find_cycle`
scans cycle lengths and colour classes with it, for the pipeline's host
cycle.
Grid counts with at most three columns never enumerate grids.  Each vertex
has an int64 neighbour mask, and numpy extends the column paths, then the
compatible column pairs, a position at a time by walking the set bits of
their candidate masks (a neighbour mask less the occupied vertices) in
row-major order.  Three-column grids are counted from popcount bitsets: for
each middle column, one bitset per vertex over the compatible columns that
hold it, so the ends meeting a column are the OR of its vertices' bitsets.
The counts build only the copies whose middle column runs from a lower to a
higher end id and double the result: reversing every column is a grid
automorphism that swaps the two directions, so the halving is exact.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from monogrid import seeds
from monogrid.graphs import MAX_COLOURS, EdgeColouring, Graph, colour_subgraph

FOUND = "found"
ABSENT = "absent"
ARROWS = "arrows"
NOT_ARROWS = "not_arrows"
UNKNOWN = "unknown"

# the default node budget of one exhaustive search
SEARCH_BUDGET = 2_000_000


# The grid is `Graph.grid`; the bench harness's workloads, which stay fixed,
# still build their 4 x 4 pattern under this name.
grid_graph = Graph.grid


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
    """A search's node count and its budget, None for no bound; a search
    past its budget stops with `nodes` one above it."""

    __slots__ = ("budget", "nodes")

    def __init__(self, budget: int | None):
        self.budget = budget
        self.nodes = 0


@dataclass(frozen=True)
class _Plan:
    """T laid out for the search: depth d places T-vertex order[d].

    The first `fixed` depths are anchors whose images the caller supplies.
    ahead[d] lists the depths of order[d]'s neighbours placed after it.
    """

    order: tuple[int, ...]
    degree: tuple[int, ...]
    ahead: tuple[tuple[int, ...], ...]
    fixed: int = 0


def _plan(T: Graph, order: list[int], fixed: int = 0) -> _Plan:
    depth = {t: d for d, t in enumerate(order)}
    return _Plan(
        order=tuple(order),
        degree=tuple(T.degree(t) for t in order),
        ahead=tuple(tuple(sorted(depth[w] for w in T.neighbours(t) if depth[w] > d))
                    for d, t in enumerate(order)),
        fixed=fixed,
    )


def _at_least(rows: list[int], degrees: tuple[int, ...]) -> dict[int, int]:
    """For each wanted degree d, the mask of vertices of degree at least d."""
    masks = dict.fromkeys(degrees, 0)
    for g, row in enumerate(rows):
        k = row.bit_count()
        for d in masks:
            if k >= d:
                masks[d] |= 1 << g
    return masks


def _embed(
    rows: list[int],
    plan: _Plan,
    images: list[int],
    budget: _Budget,
) -> bool | None:
    """Extend the anchors images[:plan.fixed] along the plan; stop at one.

    Depth-first with an explicit stack, trying each depth's candidates in
    ascending vertex order.  Forward checking: placing a vertex intersects
    the candidate mask of every later neighbour with its row, and the branch
    is cut as soon as one of them is empty.  A cut branch holds no
    completion, so the surviving branches are those of the plain search, in
    the same order; only the node count falls.

    Returns True (with `images` left holding the embedding), False, or None
    on budget exhaustion.  The nodes are counted in a local and written back
    to `budget` on every exit.
    """
    k = len(plan.order)
    top = plan.fixed
    if top == k:
        return True
    nodes = budget.nodes
    cap = math.inf if budget.budget is None else budget.budget
    ahead = plan.ahead
    used = 0
    for g in images[:top]:
        used |= 1 << g
    fit = _at_least(rows, plan.degree)
    # dom[f]: the vertices of large enough degree adjacent to the images of
    # every placed neighbour of depth f
    dom = [fit[x] for x in plan.degree]
    for b in range(top):
        for f in ahead[b]:
            dom[f] &= rows[images[b]]
    # base[d]: dom of ahead[d] as it stood before depth d was placed
    base: list[tuple[int, ...]] = [()] * k
    left = [0] * k
    d = top
    base[d] = tuple(dom[f] for f in ahead[d])
    left[d] = dom[d] & ~used
    while True:
        cand = left[d]
        if not cand:
            for f, m in zip(ahead[d], base[d]):
                dom[f] = m
            if d == top:
                budget.nodes = nodes
                return False
            d -= 1
            used ^= 1 << images[d]
            continue
        low = cand & -cand
        left[d] = cand ^ low
        nodes += 1
        if nodes > cap:
            budget.nodes = nodes
            return None
        g = low.bit_length() - 1
        images[d] = g
        row = rows[g]
        free = ~(used | low)
        for f, m in zip(ahead[d], base[d]):
            m &= row
            dom[f] = m
            if not m & free:
                break
        else:
            if d + 1 == k:
                budget.nodes = nodes
                return True
            used |= low
            d += 1
            base[d] = tuple(dom[f] for f in ahead[d])
            left[d] = dom[d] & ~used


def contains_subgraph(G: Graph, T: Graph, budget: int | None = None) -> SearchResult:
    """Search for an injective adjacency-preserving map of T into G."""
    if T.n > G.n or T.edge_count > G.edge_count or T.max_degree() > G.max_degree():
        return SearchResult(ABSENT, None, 0)
    plan = _plan(T, _search_order(T))
    tracker = _Budget(budget)
    images = [0] * T.n
    out = _embed(G.rows(), plan, images, tracker)
    if out is None:
        return SearchResult(UNKNOWN, None, tracker.nodes)
    if out:
        return SearchResult(FOUND, dict(zip(plan.order, images)), tracker.nodes)
    return SearchResult(ABSENT, None, tracker.nodes)


def _cycle_plan(ell: int) -> _Plan:
    """`_plan` of the ell-cycle in path order: depth d meets d + 1, 0 also ell - 1."""
    ahead = ((1, ell - 1),) + tuple((d + 1,) for d in range(1, ell - 1)) + ((),)
    return _Plan(order=tuple(range(ell)), degree=(2,) * ell, ahead=ahead)


def find_cycle(classes: list[Graph], lengths: range,
               budget: int | None) -> tuple[tuple[int, list[int]] | None, int]:
    """The first cycle over `lengths`, each colour class in turn: (its class,
    its vertices in path order) or None; and the nodes the scan placed.

    Depth d places the d-th vertex, candidates ascending, so a cycle starts
    at the least vertex on any ell-cycle of its class.  None also when the
    budget runs out; the node count then exceeds it.
    """
    rows = [G.rows() for G in classes]
    tracker = _Budget(budget)
    for ell in lengths:
        plan = _cycle_plan(ell)
        images = [0] * ell
        for c, G in enumerate(classes):
            if ell > min(G.n, G.edge_count):  # too few vertices or edges
                continue
            out = _embed(rows[c], plan, images, tracker)
            if out is None:
                return None, tracker.nodes
            if out:
                return (c, images), tracker.nodes
    return None, tracker.nodes


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


def _anchored_plans(T: Graph) -> list[_Plan]:
    """One plan per orientation (x, y) of each T-edge, anchoring x then y."""
    order = _search_order(T)
    plans = []
    for x, y in T.edges():
        for ax, ay in ((x, y), (y, x)):
            rest = [t for t in order if t != ax and t != ay]
            plans.append(_plan(T, [ax, ay] + rest, fixed=2))
    return plans


def _anchored_copy(rows: list[int], plans: list[_Plan], u: int, v: int,
                   budget: _Budget) -> bool:
    """Does the graph given by `rows` contain T through the edge (u, v)?"""
    du, dv = rows[u].bit_count(), rows[v].bit_count()
    for plan in plans:
        # degree guard for the anchors themselves
        if du < plan.degree[0] or dv < plan.degree[1]:
            continue
        images = [u, v] + [0] * (len(plan.order) - 2)
        if _embed(rows, plan, images, budget):
            return True
    return False


def validate_not_arrows_witness(G: Graph, T: Graph, chi: EdgeColouring) -> bool:
    """Independent re-check: no colour class of chi contains a copy of T."""
    chi.validate_total(G)
    return all(contains_subgraph(colour_subgraph(G, chi, c), T).status != FOUND
               for c in range(chi.r))


def arrows(G: Graph, T: Graph, r: int, budget: int = SEARCH_BUDGET,
           allow_large: bool = False) -> ArrowResult:
    """Does every r-colouring of E(G) contain a monochromatic copy of T?

    Depth-first over edge colourings, one loop over the edges in order, with
    the first edge's colour fixed (the colour classes are interchangeable)
    and a branch pruned as soon as the newly coloured edge completes a
    monochromatic copy.  A leaf that survives is re-checked in full and
    returned as the avoiding witness.
    """
    if r < 1:
        raise ValueError("need at least one colour")
    if r > MAX_COLOURS:
        raise ValueError(f"need at most {MAX_COLOURS} colours, got r={r}")
    if G.edge_count > 30 and not allow_large:
        raise ValueError(
            f"{G.edge_count} edges is past the exhaustive-search guard; "
            "pass allow_large=True to insist"
        )
    whole = contains_subgraph(G, T, budget)
    if whole.status == UNKNOWN:
        return ArrowResult(UNKNOWN, None, whole.nodes)
    if whole.status == ABSENT:
        # no copy in G at all, so any colouring avoids T; with one colour
        # the class is G itself and no colouring is a witness
        return ArrowResult(NOT_ARROWS, EdgeColouring.constant(G, r) if r > 1 else None,
                           whole.nodes)
    if r == 1 or T.edge_count == 0:
        # with one colour the copy in G is monochromatic, and copies of an
        # edgeless target need no coloured edges
        return ArrowResult(ARROWS, None, whole.nodes)

    edges = list(G.edges())
    class_rows = [[0] * G.n for _ in range(r)]
    tracker = _Budget(budget)
    plans = _anchored_plans(T)
    # tried[d] is the colour edge d holds, or held last; -1 before its first
    tried = [-1] * len(edges)
    depth, status, witness = 0, ARROWS, None
    while depth >= 0:
        if depth == len(edges):
            chi = EdgeColouring.by_edge(G, r, tried)
            if validate_not_arrows_witness(G, T, chi):
                status, witness = NOT_ARROWS, chi
                break
            depth -= 1  # incremental check missed nothing; defensive only
            continue
        u, v = edges[depth]
        c = tried[depth]
        if c >= 0:
            class_rows[c][u] &= ~(1 << v)
            class_rows[c][v] &= ~(1 << u)
        c += 1
        if c == (1 if depth == 0 else r):
            tried[depth] = -1
            depth -= 1
            continue
        tracker.nodes += 1
        if tracker.nodes > budget:
            status = UNKNOWN
            break
        tried[depth] = c
        rows = class_rows[c]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        if not _anchored_copy(rows, plans, u, v, tracker):
            depth += 1
    return ArrowResult(status, witness, tracker.nodes)


# ---------------------------------------------------------------------------
# first-moment grid counts


# the least int that rounds past the largest float, to 2**1024
_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


def expected_grid_count(n: int, p: float, a: int, b: int) -> float:
    """Expected number of unlabelled a-by-b grid copies in a binomial random graph.

    Falling factorial times p to the number of grid edges, divided by the
    grid's automorphism count.  Setting the divisor to 1 gives the labelled
    variant.  A falling factorial n!/(n - ab)! past the float range has no
    float expectation and is refused as it grows past it: every factor but
    the last is at least 2, so that takes at most 1025 products.
    """
    if a < 1 or b < 1:
        raise ValueError("grid dimensions must be at least 1")
    if a * b > n:
        raise ValueError("grid has more vertices than the host")
    falling = 1
    for factor in range(n, n - a * b, -1):
        falling *= factor
        if falling >= _FLOAT_OVERFLOW:
            raise ValueError(f"n!/(n - ab)! at n={n}, ab={a * b} exceeds the "
                             "float range")
    e = 2 * a * b - a - b
    return falling * (p ** e) / grid_automorphisms(a, b)


def _bits(n: int) -> np.ndarray:
    """The int64 one-vertex masks 1 << v for v < n."""
    return np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))


def _neighbour_masks(A: np.ndarray) -> np.ndarray:
    """Every vertex's row of the adjacency matrix A as an int64 mask; n <= 63."""
    return A @ _bits(A.shape[0])


def _set_bits(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every set bit of the int64 `masks`, row-major and ascending: the row
    it sits in (int32) and its position (int8).

    Each round takes the lowest bit of every row still holding one (the
    popcount of x ^ (x - 1) is its position plus one), writes it at its
    row's next output slot, clears it and drops the emptied rows.
    """
    count = np.bitwise_count(masks)
    rows = np.repeat(np.arange(len(masks), dtype=np.int32), count)
    pos = np.empty(len(rows), dtype=np.int8)
    live = count.nonzero()[0]
    left = masks[live]
    at = (np.cumsum(count, dtype=np.int32) - count)[live]
    while len(left):
        less = left - 1
        pos[at] = np.bitwise_count(left ^ less)
        left &= less
        live = left.nonzero()[0]
        left, at = left[live], at[live] + 1
    pos -= 1
    return rows, pos


def _ordered_paths(A: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """All ordered a-vertex paths in the graph with adjacency matrix A.

    Returns (tuples, masks): tuples is (t, a) int8 vertex ids in
    lexicographic order, masks is (t,) int64 occupancy bitmasks.  Requires
    n <= 63.
    """
    am = _neighbour_masks(A)
    bit = _bits(A.shape[0])
    tuples = np.arange(A.shape[0], dtype=np.int8)[:, None]
    masks = bit
    for _ in range(a - 1):
        # extend every path by each free neighbour of its last vertex,
        # row-major, so the order stays lexicographic
        rows, w = _set_bits(am[tuples[:, -1]] & ~masks)
        tuples = np.column_stack((tuples[rows], w))
        masks = masks[rows] | bit[w]
    return tuples, masks


# Bound on the expected cells (rows times n) of a count's largest stage: the
# partial paths or column pairs.  The set-bit walks that extend a stage keep
# a few tens of bytes a row, whatever n.  A three-column count also keeps,
# for each kept middle column and vertex, a 64-bit word per 64 pairs of the
# widest middle, 32 bytes each while built; in G(n, p) the widest holds a
# small multiple of the mean, so that is a few bytes a cell of the pairs
# stage.  So a sample stays within about ten bytes a cell, near 200 MB at
# the bound.
_COUNT_CELLS = 1 << 24


def _largest_stage(n: int, p: float, a: int, b: int) -> float:
    """Expected rows of the largest stage of the count of b columns of a
    vertices in G(n, p): the ordered k-vertex paths for k <= a, then, with
    two or more columns, the kept column pairs with their second column
    built to m <= a positions.
    """
    rows = [math.perm(n, k) * p ** (k - 1) for k in range(1, a + 1)]
    if b > 1:
        kept = 0.5 if a > 1 else 1.0
        rows += [kept * math.perm(n, a + m) * p ** (a + 2 * m - 2)
                 for m in range(1, a + 1)]
    return max(rows)


def _rungs(am: np.ndarray, tuples: np.ndarray,
           masks: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Every compatible column pair: (j, y) with y a path adjacent to path j
    position by position and disjoint from it.

    Built by extending y one position at a time beside every path j at
    once, walking the set bits of each candidate mask: the neighbour mask
    `am` of j's vertex there, less the occupied vertices, and ANDed with
    that of y's previous vertex.  Returns (mids, ys): the ids j, ascending
    (int32), and y's vertex ids, one int8 array per position.
    """
    bit = _bits(len(am))
    a = tuples.shape[1]
    column = list(tuples.T)
    mids = np.arange(len(tuples), dtype=np.int32)
    occupied = masks
    ys: list[np.ndarray] = []
    for pos in range(a):
        free = am[column[pos][mids]] & ~occupied
        if pos:
            free &= am[ys[-1]]
        rows, w = _set_bits(free)
        mids = mids[rows]
        ys = [y[rows] for y in ys] + [w]
        if pos + 1 < a:
            occupied = occupied[rows] | bit[w]
    return mids, ys


def _count_grid_in_adj(A: np.ndarray, paths: tuple[np.ndarray, np.ndarray],
                       b: int) -> int:
    """Labelled a-by-b grid copies in adjacency matrix A, for b <= 3, n <= 63.

    `paths` is `_ordered_paths(A, a)`.  A copy is a sequence of b column
    paths: each column an ordered a-vertex path, consecutive columns adjacent
    position by position, all columns pairwise disjoint.  With at most three
    columns the disjointness is purely pairwise, so the count needs only the
    sparse compatibility relation between columns, never a t x t matrix.

    Only half the copies are built.  Reversing every column is an
    automorphism of the grid, and it reverses the middle column (the first
    when b = 2).  A column of two or more vertices has distinct ends, so of
    each copy and its reversal exactly one has a middle column running from
    a lower to a higher end id: the count keeps those middles and doubles.
    A one-vertex column is its own reversal and keeps the full count.
    """
    tuples, masks = paths
    t = len(tuples)
    if t == 0:
        return 0
    if b == 1:
        return t
    # keep the middles that run from a lower to a higher end id
    copies = 1
    if tuples.shape[1] > 1:
        keep = tuples[:, 0] < tuples[:, -1]
        tuples, masks, copies = tuples[keep], masks[keep], 2
    mids, ys = _rungs(_neighbour_masks(A), tuples, masks)
    if b == 2 or len(mids) == 0:
        return copies * len(mids)
    # b == 3: a middle column j with ends i, k from j's compatible set (the
    # run of its d_j pairs, since `mids` ascend), needing only i and k
    # disjoint.  Row w of B holds, at cell (j, v), word w of the bitset over
    # the ranks within j's run of the pairs whose column y holds v.  The OR
    # of those cells over the vertices of i marks every end meeting i (i
    # among them), so d_j less its popcount ends are disjoint from i.
    n = A.shape[0]
    size = np.bincount(mids, minlength=len(tuples))
    start = (np.cumsum(size) - size).astype(np.int32)
    rank = np.arange(len(mids), dtype=np.int32) - start[mids]
    words = (int(size.max()) + 63) // 64
    cells = len(tuples) * n
    at = mids * n
    # B's 32-bit halves by bincount, exact: each bin sums distinct powers of
    # two, since a pair's column holds each vertex once
    slot = 2 * ((rank >> 6) * cells + at) + ((rank >> 5) & 1)
    weight = np.ldexp(1.0, rank & 31)
    halves = np.zeros(2 * words * cells)
    for y in ys:
        halves += np.bincount(slot + 2 * y, weight, minlength=len(halves))
    B = halves.astype("<u4").view("<u8").reshape(words, cells)
    ends = [at + y for y in ys]
    total = int(size @ size)
    for row in B:
        # one word column at a time
        hit = row[ends[0]]
        for e in ends[1:]:
            hit |= row[e]
        total -= int(np.bitwise_count(hit).sum())
    return copies * total


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
        return asdict(self)


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
    if lo > 3 or n > 63 or n * _largest_stage(n, p, hi, lo) > _COUNT_CELLS:
        raise ValueError(f"refusing Monte Carlo at n={n}, {a}x{b}: counting intractable")
    expectation = expected_grid_count(n, p, a, b)
    aut = grid_automorphisms(a, b)
    rng = seeds.rng(seed)
    counts = np.zeros(samples, dtype=np.float64)
    for i in range(samples):
        upper = np.triu(rng.random((n, n)) < p, k=1)
        A = upper | upper.T
        counts[i] = _count_grid_in_adj(A, _ordered_paths(A, hi), lo) // aut
    mean = float(counts.mean())
    variance = float(counts.var(ddof=1)) if samples > 1 else 0.0
    stderr = math.sqrt(variance / samples)
    flagged = abs(mean - expectation) > 3 * stderr
    return GridCountReport(n, p, a, b, expectation, samples, mean, variance, flagged)
