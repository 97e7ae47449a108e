"""Placing a square grid inside a one-coloured cycle of surviving sets.

The level chain ends with a usable pair along every host edge; stringing
those pairs around a one-coloured host cycle leaves m vertex sets in which
an m x m grid can be embedded row by row.  Cell (i, j) goes to set
(i + j) mod m, so the right-hand neighbour and the cell below both land in
the next set of the cycle, and every row visits every set exactly once.

Each placed vertex banks a candidate set inside the next cycle set; the row
below is threaded through those banks after two cleaning passes, a degree
filter against the occupied vertices and a backward connectivity filter.
One generator, `placements`, places every cell: it walks the candidate
vertices under a budget and yields each (vertex, bank) that passes the
forward and link checks; row 0 takes the first, later rows search depth first.
The finished grid is checked by independent code that knows nothing about
how the rows were built.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from monogrid import seeds
from monogrid.blowup import BlowupGraph
from monogrid.config import Knobs
from monogrid.graphs import (
    MAX_VERTICES,
    EdgeColouring,
    Graph,
    VertexSet,
    _significant_lines,
    _write_comment,
    colour_subgraph,
    degrees_into,
    neighbours_in,
)
from monogrid.pipeline import CycleCertificate, PipelineResult
from monogrid.regularity import (
    BadSetError,
    RegParams,
    RegVerdict,
    bank_size,
    compute_bad_set,
    sampled_lower_regular,
)


class EmbedFailure(Exception):
    """A row could not be placed or a cleaning pass lost too much.

    Carries the stage name, the grid row (None for context-level failures),
    the position within the row (or the set index, depending on the stage),
    a human-readable detail string and the verdicts of the last regularity
    checks that were consulted.
    """

    def __init__(self, stage: str, detail: str = "", row: int | None = None,
                 position: int | None = None,
                 verdicts: list[RegVerdict] | None = None):
        self.stage = stage
        self.detail = detail
        self.row = row
        self.position = position
        self.verdicts = verdicts or []
        at = ""
        if row is not None:
            at += f" in row {row}"
        if position is not None:
            at += f" at position {position}"
        msg = f"{stage} failed{at}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "row": self.row,
            "position": self.position,
            "detail": self.detail,
            "verdicts": [v.to_json() for v in self.verdicts],
        }


@dataclass
class EmbedContext:
    """Frozen surroundings for one grid embedding.

    sets[t] are the cycle sets, bad[t] the audited bad vertices inside
    them, G the working graph: the chosen colour class, asked only about
    subsets of the sets.  s is the blow-up part size the allowances are
    quoted against, which may exceed the actual set sizes when the chain
    shrank its parts.
    """

    sets: list[VertexSet]
    bad: list[VertexSet]
    G: Graph
    params: RegParams
    s: int

    def __post_init__(self):
        if len(self.sets) < 2:
            raise ValueError("a grid needs at least two cycle sets")
        if len(self.bad) != len(self.sets):
            raise ValueError("one bad set per cycle set")
        for t, (U, B) in enumerate(zip(self.sets, self.bad)):
            if U.n != self.G.n or B.n != self.G.n:
                raise ValueError("set universe does not match the graph")
            if (B & U) != B:
                raise ValueError(f"bad set {t} leaves its cycle set")
        if np.bincount(np.concatenate([U.ids for U in self.sets]), minlength=1).max() > 1:
            raise ValueError("cycle sets overlap")

    @property
    def m(self) -> int:
        return len(self.sets)

    @property
    def candidate_size(self) -> int:
        """ceil(alpha * s * p / 4), the working size of every banked set."""
        return bank_size(self.params.alpha_p, self.s, 4)

    @property
    def filter_slack(self) -> int:
        """How many vertices the degree filter may drop, ceil(alpha s p / 16)."""
        return bank_size(self.params.alpha_p, self.s, 16)

    @property
    def backward_cut(self) -> int:
        return bank_size(self.params.alpha_p, self.s, 8)

    @property
    def q_target(self) -> int:
        """Occupied sets are padded to exactly ceil(2 eps s) before filtering."""
        return math.ceil(2 * self.params.eps * self.s)

    def free(self, t: int) -> VertexSet:
        """Cycle set t with its bad vertices removed."""
        return self.sets[t] - self.bad[t]

    def validate(self) -> None:
        """The allowance invariants, beyond the structural checks."""
        sizes = {U.size for U in self.sets}
        if len(sizes) != 1:
            raise AssertionError(f"cycle sets have mixed sizes {sorted(sizes)}")
        allowance = self.params.eps * self.s
        for t, B in enumerate(self.bad):
            if B.size > allowance:
                raise AssertionError(
                    f"bad set {t} has {B.size} vertices, allowance "
                    f"{float(allowance):.1f}"
                )


@dataclass
class RowState:
    """One embedded grid row plus the material for the next one.

    images[j] is the vertex at cell (index, j).  family[j] is the banked
    candidate set for cell (index + 1, j), drawn from the neighbours of
    images[j] one cycle set further on.  occupied[t] is indexed by cycle
    set and holds the bad vertices plus every image placed so far.
    """

    index: int
    images: list[int]
    family: list[VertexSet]
    occupied: list[VertexSet]
    stats: dict = field(default_factory=dict)


@dataclass
class GridEmbedding:
    """A placed a x b grid, cells keyed (row, column), plus its colour."""

    a: int
    b: int
    colour: int
    image: dict[tuple[int, int], int]


def placements(ctx: EmbedContext, vertices: VertexSet, target: VertexSet,
               forward: VertexSet, link: VertexSet | None, skip_thin: bool,
               cap: int, keys: tuple[tuple[int, ...], ...], knobs: Knobs,
               stats: dict, refuse: Callable[[str, list[RegVerdict]], None]
               ) -> Iterator[tuple[int, VertexSet]]:
    """Every (vertex, bank) a grid cell can take, in search order.

    Walks `vertices` in ascending id until stats["vertices_tried"] reaches
    `cap`.  Try t of vertex v, for t below knobs.subset_tries, samples a
    candidate-size bank from N(v) & target with stream (*keys[0], v, t),
    checks it against `forward` (stream keys[1]) and then `link`, the
    previous bank if any, against it (stream keys[2]), over
    knobs.embed_check_trials trials each.  Passing banks are yielded;
    refused ones, and reaching the cap, go to refuse(detail, verdicts).  A
    neighbourhood too small for a bank is skipped when `skip_thin` and
    otherwise cannot occur.  Vertices, draws and checks count in `stats`.
    """
    draw_key, forward_key, link_key = keys
    G, eps, alpha_p = ctx.G, ctx.params.eps, ctx.params.alpha_p
    cand, trials = ctx.candidate_size, knobs.embed_check_trials
    for v in vertices:
        if stats["vertices_tried"] >= cap:
            refuse("search budget exhausted", [])
            return
        stats["vertices_tried"] += 1
        hood = neighbours_in(G, v, target)
        if hood.size < cand:
            assert skip_thin, f"vertex {v} cannot bank {cand} neighbours"
            continue
        for t in range(knobs.subset_tries):
            stats["subsets_drawn"] += 1
            bank = hood.sample(cand, seeds.rng(*draw_key, v, t))
            checks = [sampled_lower_regular(G, bank, forward, eps, alpha_p, trials,
                                            seeds.derive(*forward_key, v, t))]
            if link is not None:
                checks.append(sampled_lower_regular(G, link, bank, eps, alpha_p, trials,
                                                    seeds.derive(*link_key, v, t)))
            stats["checks"] += len(checks)
            if all(c.passed for c in checks):
                yield v, bank
            else:
                refuse(f"bank rejected at vertex {v}", checks)


def seed_first_row(ctx: EmbedContext, seed: int, *,
                   knobs: Knobs = Knobs()) -> RowState:
    """Embed row 0 and bank the candidate family for row 1.

    The opening pair (set 0 minus bad, set 1 minus bad) is audited directly
    at (2 eps', alpha p), over knobs.embed_audit_trials trials, with eps'
    the inheritance level; the first vertex only needs a large enough
    degree into the audited set.  Later positions draw their vertex from
    the previous position's bank, so row edges come for free.

    Each position takes the first (vertex, bank) of `placements`, with a
    fresh budget of knobs.vertex_budget vertices, forward checks against
    the next-but-one set minus bad and link checks against the previous
    bank.  A position that yields none raises an EmbedFailure naming it and
    carrying the verdicts of its last refused bank.
    """
    m = ctx.m
    free = [ctx.free(t) for t in range(m)]

    if free[0] and free[1]:
        opening = sampled_lower_regular(
            ctx.G, free[0], free[1], 2 * ctx.params.eps_inherit, ctx.params.alpha_p,
            knobs.embed_audit_trials, seeds.derive(seed, 3))
        if not opening.passed:
            raise EmbedFailure(
                "first-row-audit", row=0, position=0, verdicts=[opening],
                detail="the opening pair fails its direct regularity check",
            )

    images: list[int] = []
    family: list[VertexSet] = []
    stats = {"vertices_tried": 0, "subsets_drawn": 0, "checks": 0}

    def refuse(detail: str, verdicts: list[RegVerdict]) -> None:
        if verdicts:
            last[:] = verdicts

    for j in range(m):
        link = family[j - 1] if j > 0 else None
        pool = free[0] if link is None else link
        target = free[(j + 1) % m]
        start = stats["vertices_tried"]
        last: list[RegVerdict] = []
        step = next(placements(ctx, pool, target, free[(j + 2) % m], link, True,
                               start + knobs.vertex_budget,
                               ((seed, 1, j), (seed, 2, j), (seed, 4, j)),
                               knobs, stats, refuse), None)
        if step is None:
            raise EmbedFailure(
                "first-row", row=0, position=j, verdicts=last,
                detail=f"no vertex qualified after trying "
                       f"{stats['vertices_tried'] - start} "
                       f"(pool {pool.size}, target {target.size})",
            )
        images.append(step[0])
        family.append(step[1])
    occupied = [ctx.bad[t].add(images[t]) for t in range(m)]
    return RowState(0, images, family, occupied, stats)


def filter_well_connected(S: VertexSet, U_next: VertexSet, Q_next: VertexSet,
                          ctx: EmbedContext) -> VertexSet:
    """Keep the members of S with enough forward degree left.

    Q_next is padded with the lowest-id vertices of U_next outside it until
    it holds exactly ceil(2 eps s) vertices; the survivors are those whose
    degree into the remainder still reaches the candidate size.  Losing
    more than ceil(alpha s p / 16) members is an error.
    """
    target = ctx.q_target
    if Q_next.size > target:
        raise EmbedFailure(
            "occupied-overflow",
            detail=f"|Q| = {Q_next.size} exceeds the padding target {target}",
        )
    room = U_next - Q_next
    pad = target - Q_next.size
    if room.size < pad:
        raise EmbedFailure(
            "well-connected-filter",
            detail=f"cannot pad Q to {target}: only {room.size} vertices left",
        )
    avail = room - room.lowest(pad)
    cand = ctx.candidate_size
    out = VertexSet(ctx.G.n, S.ids[degrees_into(ctx.G, S.ids, avail) >= cand])
    dropped = S.size - out.size
    if dropped > ctx.filter_slack:
        raise EmbedFailure(
            "well-connected-filter",
            detail=f"dropped {dropped} of {S.size} members, "
                   f"tolerance {ctx.filter_slack}",
        )
    return out


def backward_filter(s_prime: list[VertexSet], ctx: EmbedContext) -> list[VertexSet]:
    """Prune a filtered family so every member can reach the next bank.

    The last bank is cut to its lowest candidate_size - ceil(alpha s p / 8)
    ids; walking backwards, each earlier bank keeps the vertices with at
    least one neighbour in the pruned successor.  Any bank falling below
    the cut size is an error naming its index.
    """
    cut = ctx.candidate_size - ctx.backward_cut
    last = s_prime[-1]
    if last.size < cut:
        raise EmbedFailure(
            "backward-filter", position=len(s_prime) - 1,
            detail=f"final bank has {last.size} members, need {cut}",
        )
    out = [last.lowest(cut)]
    for j in range(len(s_prime) - 2, -1, -1):
        ids = s_prime[j].ids
        pruned = VertexSet(ctx.G.n, ids[degrees_into(ctx.G, ids, out[-1]) > 0])
        if pruned.size < cut:
            raise EmbedFailure(
                "backward-filter", position=j,
                detail=f"retained {pruned.size} of {s_prime[j].size} members, "
                       f"need {cut}",
            )
        out.append(pruned)
    return out[::-1]


def embed_row(ctx: EmbedContext, prev: RowState, seed: int, *,
              knobs: Knobs = Knobs()) -> RowState:
    """Thread the next row through the banks the previous row left behind.

    The banks are pruned of occupied vertices, degree-filtered, and
    backward-filtered; the row itself is then a depth-first search over
    positions, left to right, through each position's `placements` from
    the pruned bank (next to the cell on its left), sharing one budget of
    knobs.vertex_budget * m vertices, and backtracking when a position
    cannot also bank a fresh candidate set for the row below.
    Fresh banks avoid the occupied sets as they stand before this row, so
    a later row can only ever collide with the single vertex this row adds
    to each cycle set, and the pruning pass removes exactly that.
    """
    m = ctx.m
    i = prev.index + 1
    occ = prev.occupied
    for t in range(m):
        if occ[t].size > ctx.q_target:
            raise EmbedFailure(
                "occupied-overflow", row=i, position=t,
                detail=f"occupied set {t} holds {occ[t].size} vertices, "
                       f"cap {ctx.q_target}",
            )

    def set_at(j: int) -> int:
        return (i + j) % m

    try:
        filtered = [filter_well_connected(prev.family[j] - occ[set_at(j)],
                                          ctx.sets[set_at(j + 1)],
                                          occ[set_at(j + 1)], ctx)
                    for j in range(m)]
        pruned = backward_filter(filtered, ctx)
    except EmbedFailure as e:
        raise EmbedFailure(e.stage, e.detail, row=i,
                           position=e.position, verdicts=e.verdicts) from None

    images: list[int | None] = [None] * m
    banks: list[VertexSet | None] = [None] * m
    stats = {"vertices_tried": 0, "subsets_drawn": 0, "checks": 0,
             "backtracks": 0}
    deepest = {"position": 0, "verdicts": [], "detail": "no options"}

    def note(j: int, detail: str, verdicts: list[RegVerdict]) -> None:
        if j >= deepest["position"]:
            deepest.update(position=j, detail=detail, verdicts=verdicts)

    def position(j: int):
        """The placements of position j, next to the cell placed left of it."""
        options = neighbours_in(ctx.G, images[j - 1], pruned[j]) if j > 0 else pruned[0]
        if not options:
            note(j, "no neighbour survives in the pruned bank", [])
        target = set_at(j + 1)
        link = banks[j - 1] if j > 0 else None
        keys = ((seed, 4, i, j), (seed, 5, i, j), (seed, 6, i, j))
        # the degree filter ran against a padded, therefore smaller, set, so
        # no option is too thin to bank
        return placements(ctx, options, ctx.sets[target] - occ[target],
                          ctx.free(set_at(j + 2)), link, False,
                          knobs.vertex_budget * m, keys,
                          knobs, stats, partial(note, j))

    # Depth-first over positions with one suspended placement generator per
    # placed position.  An explicit stack, not recursion: a self-referencing
    # closure would keep this frame, and the context with its working
    # graph, alive until the cycle collector ran.
    stack = [position(0)]
    while stack:
        j = len(stack) - 1
        step = next(stack[j], None)
        if step is None:
            stack.pop()
            if stack:
                stats["backtracks"] += 1
                images[j - 1] = banks[j - 1] = None
            continue
        images[j], banks[j] = step
        if j + 1 == m:
            break
        stack.append(position(j + 1))
    if not stack:
        raise EmbedFailure(
            "row-path", row=i, position=deepest["position"],
            detail=deepest["detail"], verdicts=deepest["verdicts"],
        )
    occupied = list(occ)
    for j, v in enumerate(images):
        occupied[set_at(j)] = occupied[set_at(j)].add(v)
    return RowState(i, images, banks, occupied, stats)  # type: ignore[arg-type]


def build_context(bg: BlowupGraph, chi: EdgeColouring, result: PipelineResult,
                  cycle: CycleCertificate, params: RegParams, seed: int = 0, *,
                  knobs: Knobs = Knobs()) -> EmbedContext:
    """Assemble the cycle sets, working graph and bad sets for one embedding.

    The bad-set audits read their draws from `knobs`.
    """
    m = len(cycle.vertices)
    cycle.validate(bg.host, result.phi, 2, max(2, m))
    sets = []
    for x in cycle.vertices:
        if x not in result.final_sets:
            raise ValueError(f"no surviving set for host vertex {x}")
        sets.append(result.final_sets[x])

    G = colour_subgraph(bg.gamma, chi, cycle.colour)

    bad = []
    for t in range(m):
        try:
            bad.append(compute_bad_set(
                bg.gamma, G, sets[(t + 1) % m], sets[(t + 2) % m], sets[t],
                params.eps, params.alpha, params.p,
                draws=knobs.badset_draws, seed=seeds.derive(seed, 17, t),
            ))
        except BadSetError as e:
            raise EmbedFailure("bad-set", str(e), position=t) from e

    ctx = EmbedContext(sets, bad, G, params, bg.part_size)
    ctx.validate()
    return ctx


def embed_grid(bg: BlowupGraph, chi: EdgeColouring, result: PipelineResult,
               cycle: CycleCertificate, params: RegParams, seed: int = 0, *,
               knobs: Knobs = Knobs()) -> GridEmbedding:
    """Embed the full square grid along a one-coloured host cycle.

    The grid side equals the cycle length, which must in turn match the
    plan's slice of the part size, delta * s.  Each row is threaded from the
    row above alone, so only that row is held beside the cell images;
    failures from the row machinery propagate with their row and position
    attached.  `knobs` reaches every stage.
    """
    m = len(cycle.vertices)
    side = params.delta * bg.part_size
    if m != side:
        raise ValueError(
            f"cycle length {m} does not match the planned grid side "
            f"{float(side):g}"
        )
    ctx = build_context(bg, chi, result, cycle, params, seed, knobs=knobs)
    row = seed_first_row(ctx, seeds.derive(seed, 40, 0), knobs=knobs)
    image = {(0, j): v for j, v in enumerate(row.images)}
    for i in range(1, m):
        row = embed_row(ctx, row, seeds.derive(seed, 40, i), knobs=knobs)
        image.update(((i, j), v) for j, v in enumerate(row.images))
    return GridEmbedding(m, m, cycle.colour, image)


def verify_grid_embedding(gamma: Graph, chi: EdgeColouring,
                          emb: GridEmbedding) -> tuple[bool, list[str]]:
    """Independent check of a finished grid: totality, injectivity, edges.

    Walks every placed cell and every one of the 2ab - a - b grid edges
    between placed cells directly on the supplied graph and colouring;
    returns a flag and the list of violations found, one line each.  The
    cells with no image share one line, which names the first of them.
    """
    violations = []
    cells = sorted(c for c in emb.image if 0 <= c[0] < emb.a and 0 <= c[1] < emb.b)
    missing = emb.a * emb.b - len(cells)
    if missing:
        # among the first len(cells) + 1 cells in row-major order one is missing
        first = next(c for c in (divmod(k, emb.b) for k in range(len(cells) + 1))
                     if c not in emb.image)
        more = f", nor do {missing - 1} more cells" if missing > 1 else ""
        violations.append(f"cell {first} has no image{more}")
    seen: dict[int, tuple[int, int]] = {}
    for i, j in cells:
        v = emb.image[(i, j)]
        if not 0 <= v < gamma.n:
            violations.append(f"cell ({i}, {j}) maps outside the graph")
        elif v in seen:
            violations.append(f"cells {seen[v]} and ({i}, {j}) share vertex {v}")
        else:
            seen[v] = (i, j)
    for i, j in emb.image:
        if not (0 <= i < emb.a and 0 <= j < emb.b):
            violations.append(f"cell ({i}, {j}) lies outside the grid")

    def check_edge(c1: tuple[int, int], c2: tuple[int, int]) -> None:
        if c1 not in emb.image or c2 not in emb.image:
            return
        u, v = emb.image[c1], emb.image[c2]
        if not (0 <= u < gamma.n and 0 <= v < gamma.n) or u == v:
            return
        if not gamma.has_edge(u, v):
            violations.append(f"grid edge {c1}-{c2} maps to the non-edge ({u}, {v})")
            return
        try:
            col = chi.colour(u, v)
        except ValueError:
            violations.append(f"grid edge {c1}-{c2} maps to an uncoloured edge")
            return
        if col != emb.colour:
            violations.append(
                f"grid edge {c1}-{c2} has colour {col}, want {emb.colour}"
            )

    for i, j in cells:
        if j + 1 < emb.b:
            check_edge((i, j), (i, j + 1))
        if i + 1 < emb.a:
            check_edge((i, j), (i + 1, j))
    return not violations, violations


# ---------------------------------------------------------------------------
# file format
#
# Embedding file: header "grid a b colour c", then one "i j vertex" line per
# cell.  Blank lines and "#" comments are ignored.


def write_embedding(emb: GridEmbedding, path: str,
                    comment: str | None = None) -> None:
    with open(path, "w") as fh:
        _write_comment(fh, comment)
        fh.write(f"grid {emb.a} {emb.b} colour {emb.colour}\n")
        for (i, j), v in sorted(emb.image.items()):
            fh.write(f"{i} {j} {v}\n")


def read_embedding(path: str) -> GridEmbedding:
    header = None
    image: dict[tuple[int, int], int] = {}
    for lineno, parts in _significant_lines(path):
        if header is None:
            if len(parts) != 5 or parts[0] != "grid" or parts[3] != "colour":
                raise ValueError(
                    f"{path}:{lineno}: expected header 'grid a b colour c'"
                )
            try:
                header = (int(parts[1]), int(parts[2]), int(parts[4]))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-integer header field"
                ) from None
            if header[0] < 1 or header[1] < 1 or header[2] < 0:
                raise ValueError(f"{path}:{lineno}: bad grid dimensions")
            if header[0] * header[1] > MAX_VERTICES:
                raise ValueError(f"{path}:{lineno}: grid of {header[0] * header[1]} "
                                 f"cells exceeds {MAX_VERTICES}")
            continue
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'i j vertex'")
        try:
            i, j, v = (int(x) for x in parts)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer cell") from None
        if not (0 <= i < header[0] and 0 <= j < header[1]):
            raise ValueError(f"{path}:{lineno}: cell outside the grid")
        if (i, j) in image:
            raise ValueError(f"{path}:{lineno}: duplicate cell ({i}, {j})")
        if v < 0:
            raise ValueError(f"{path}:{lineno}: negative vertex id")
        image[(i, j)] = v
    if header is None:
        raise ValueError(f"{path}: missing header line")
    return GridEmbedding(header[0], header[1], header[2], image)
