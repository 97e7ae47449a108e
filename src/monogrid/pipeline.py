"""The level chain: from a coloured blow-up to regular pairs along every host edge.

The host's edges are split into at most Delta+1 matchings by a constructive
proper edge colouring.  Level i processes matching i: every edge of it gets
the majority colour of its current pair and a density-increment search for a
lower-regular sub-pair at that level's parameters; every host vertex the
matching misses shrinks by the level's factor anyway, so the chain sizes
stay aligned.  After each level a sampled audit re-checks the pairs settled
at earlier levels, because slicing guarantees are asymptotic and this module
refuses to assume them silently.

The upshot of a complete run is an edge colouring of the host plus one
final set per host vertex such that every host edge's final pair passes a
lower-regularity check in its assigned colour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from monogrid import seeds
from monogrid.blowup import BlowupGraph
from monogrid.config import Knobs
from monogrid.graphs import (
    EdgeColouring,
    Graph,
    VertexSet,
    colour_subgraph,
    edge_count,
    pair_density,
)
from monogrid.oracle import find_cycle
from monogrid.regularity import (
    EpsSchedule,
    RegParams,
    RegVerdict,
    check_lower_regular,
    find_lower_regular_pair,
)


# ---------------------------------------------------------------------------
# matching decomposition


@dataclass(frozen=True)
class MatchingDecomposition:
    matchings: list[list[tuple[int, int]]]

    def validate(self, H: Graph) -> None:
        seen = set()
        for matching in self.matchings:
            touched = set()
            for u, v in matching:
                if not H.has_edge(u, v):
                    raise AssertionError(f"({u}, {v}) is not a host edge")
                if u in touched or v in touched:
                    raise AssertionError(f"({u}, {v}) collides within its matching")
                touched.update((u, v))
                key = (min(u, v), max(u, v))
                if key in seen:
                    raise AssertionError(f"edge {key} appears twice")
                seen.add(key)
        if len(seen) != H.edge_count:
            raise AssertionError("matchings do not cover the edge set")
        if len(self.matchings) > H.degree_bound() + 1:
            raise AssertionError("too many matchings")


def matching_decomposition(H: Graph) -> MatchingDecomposition:
    """Partition E(H) into at most max_degree+1 matchings.

    The matchings are the classes of a Misra-Gries proper edge colouring:
    each edge builds a fan of neighbours, inverts an alternating two-colour
    path, then rotates a fan prefix.  The colour map is the only record; a
    vertex's colours are read off it.  Quadratic and simple; hosts are small.
    """
    ncol = max(1, H.max_degree()) + 1
    N = [list(H.neighbours(v)) for v in H.vertices()]
    col: dict[tuple[int, int], int] = {}

    def key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def get(u: int, v: int) -> int | None:
        return col.get(key(u, v))

    def colours(v: int) -> set[int | None]:
        return {get(v, w) for w in N[v]}

    def free(v: int) -> int:
        # at most max_degree coloured edges meet v, so one of ncol is free
        return min(set(range(ncol)) - colours(v))

    for u, v in H.edges():
        # maximal fan at u starting from v: each next edge is coloured and
        # its colour is free at the fan's last vertex
        fan = [v]
        while True:
            taken = colours(fan[-1]) | {None}
            ext = [w for w in N[u] if w not in fan and get(u, w) not in taken]
            if not ext:
                break
            fan.append(ext[0])
        c = free(u)
        d = free(fan[-1])
        # walk the d/c alternating path from u, then flip it; properness
        # makes each step unique, so the walk cannot double back (with
        # c == d the walk is empty, as c is free at u)
        path = []
        at, want = u, d
        while True:
            nxt = next((w for w in N[at] if get(at, w) == want), None)
            if nxt is None:
                break
            path.append(key(at, nxt))
            at, want = nxt, (c if want == d else d)
        for idx, edge in enumerate(path):
            col[edge] = c if idx % 2 == 0 else d
        # rotate at the first vertex where d is free AND the prefix is still
        # a fan; the inversion may have recoloured a fan edge, so fan-ness
        # has to be rechecked, not assumed
        w_idx = None
        for i, fw in enumerate(fan):
            if i > 0 and get(u, fw) in colours(fan[i - 1]):
                break
            if d not in colours(fw):
                w_idx = i
                break
        if w_idx is None:
            raise AssertionError("fan rotation found no slot; colouring bug")
        for j in range(w_idx):
            col[key(u, fan[j])] = get(u, fan[j + 1])
        col[key(u, fan[w_idx])] = d
    matchings = [sorted(e for e, x in col.items() if x == c)
                 for c in sorted(set(col.values()))]
    out = MatchingDecomposition(matchings)
    out.validate(H)
    return out


# ---------------------------------------------------------------------------
# majority colour


def majority_colour(chi: EdgeColouring, A: VertexSet, B: VertexSet) -> int:
    """The colour with the most edges between A and B; ties to the lowest index."""
    counts = [edge_count(g, A.ids, B.ids) for g in chi.classes]
    total = sum(counts)
    if total == 0:
        raise ValueError("empty pair: no edges to take a majority over")
    best = max(range(chi.r), key=lambda c: (counts[c], -c))
    assert counts[best] * chi.r >= total
    return best


# ---------------------------------------------------------------------------
# the chain


class PipelineFailure(Exception):
    """A level could not complete; carries exactly where and why."""

    def __init__(self, stage: str, level: int, edge: tuple[int, int] | None,
                 detail):
        self.stage = stage
        self.level = level
        self.edge = edge
        self.detail = detail
        at = f" at host edge {edge}" if edge else ""
        super().__init__(f"{stage} failed on level {level}{at}")


@dataclass
class EdgeRecord:
    edge: tuple[int, int]
    level: int
    colour: int
    precondition_ok: bool
    verdict: RegVerdict
    find_checks: int

    def to_json(self) -> dict:
        return {
            "edge": list(self.edge),
            "level": self.level,
            "colour": self.colour,
            "precondition_ok": self.precondition_ok,
            "verdict": self.verdict.to_json(),
            "find_checks": self.find_checks,
        }


@dataclass
class AuditRecord:
    level: int
    edge: tuple[int, int]
    eps: Fraction
    verdict: RegVerdict

    def to_json(self) -> dict:
        return {
            "after_level": self.level,
            "edge": list(self.edge),
            "eps": float(self.eps),
            "verdict": self.verdict.to_json(),
        }


@dataclass
class ChainState:
    chains: dict[int, list[VertexSet]]

    def current(self, x: int) -> VertexSet:
        return self.chains[x][-1]

    def assert_cardinalities(self, schedule: EpsSchedule) -> None:
        for x, chain in self.chains.items():
            for j in range(1, len(chain)):
                want = math.ceil(schedule.lam_at(j) * chain[j - 1].size)
                if chain[j].size != want:
                    raise AssertionError(
                        f"chain for host vertex {x} has size {chain[j].size} "
                        f"at level {j}, want {want}"
                    )
                if (chain[j] & chain[j - 1]) != chain[j]:
                    raise AssertionError(f"chain for host vertex {x} is not nested")


@dataclass
class PipelineResult:
    phi: EdgeColouring
    final_sets: dict[int, VertexSet]
    chain: ChainState
    edge_log: list[EdgeRecord]
    audit_log: list[AuditRecord]
    decomposition: MatchingDecomposition

    def to_json(self) -> dict:
        return {
            "phi": [[u, v, c] for (u, v), c in self.phi.items()],
            "final_sets": {
                str(x): U.to_list() for x, U in sorted(self.final_sets.items())
            },
            "edges": [rec.to_json() for rec in self.edge_log],
            "audits": [rec.to_json() for rec in self.audit_log],
            "matchings": [sorted(map(list, m)) for m in
                          self.decomposition.matchings],
        }


def regular_subgraph(
    bg: BlowupGraph,
    chi: EdgeColouring,
    params: RegParams,
    schedule: EpsSchedule,
    seed: int = 0,
    knobs: Knobs = Knobs(),
) -> PipelineResult:
    """Run the full level chain over the host's matching decomposition.

    Raises PipelineFailure the moment a density-increment search or an
    inheritance audit fails; the exception names the level, the edge, and
    the best verdict seen.  The searches and audits read their budget and
    trial counts from `knobs`.  knobs.check_cap is forwarded to every
    regularity check: pairs at or under it are checked exactly, 0 stays
    sampled at every size (bench-scale slicing shrinks pairs into the
    regime where tiny subsets genuinely break lower-regularity, so exact
    checking there condemns every candidate).
    """
    H = bg.host
    chi.validate_total(bg.gamma)
    levels = len(schedule)
    if levels != H.degree_bound() + 1:
        raise ValueError(
            f"schedule has {levels} levels, host degree bound wants "
            f"{H.degree_bound() + 1}"
        )
    decomp = matching_decomposition(H)
    matchings = decomp.matchings + [[]] * (levels - len(decomp.matchings))

    chain = ChainState({x: [bg.part(x)] for x in H.vertices()})
    phi_map: dict[tuple[int, int], int] = {}
    edge_log: list[EdgeRecord] = []
    audit_log: list[AuditRecord] = []
    lam = params.lam

    for level in range(1, levels + 1):
        eps_i = schedule.eps_at(level)
        lam_i = schedule.lam_at(level)
        matched: set[int] = set()
        for x, y in matchings[level - 1]:
            Ux, Uy = chain.current(x), chain.current(y)
            e_here = edge_count(bg.gamma, Ux.ids, Uy.ids)
            mass = len(Ux) * len(Uy) * params.p
            precondition_ok = (1 - lam) * mass <= e_here <= (1 + lam) * mass
            if not e_here:
                raise PipelineFailure("majority-density", level, (x, y),
                                      "pair has no edges to take a majority over")
            c = majority_colour(chi, Ux, Uy)
            if pair_density(chi.classes[c], Ux, Uy) < params.alpha_p:
                raise PipelineFailure(
                    "majority-density", level, (x, y),
                    "pair is too sparse for the density-increment search")
            found = find_lower_regular_pair(
                chi.classes[c], Ux, Uy, eps_i, params.alpha, params.p, lam_i,
                budget=knobs.find_budget,
                seed=seeds.derive(seed, level, x, y),
                check_trials=knobs.check_trials,
                cap=knobs.check_cap,
            )
            if not found.passed:
                raise PipelineFailure("regular-pair-search", level, (x, y),
                                      found)
            U1, U2 = found.pair
            chain.chains[x].append(U1)
            chain.chains[y].append(U2)
            matched.update((x, y))
            phi_map[(x, y)] = c  # matching edges come as (min, max)
            edge_log.append(EdgeRecord((x, y), level, c, precondition_ok,
                                       found.verdict, found.checks_used))
        for x in H.vertices():
            if x not in matched:
                cur = chain.current(x)
                target = math.ceil(lam_i * cur.size)
                chain.chains[x].append(cur.lowest(target))
        chain.assert_cardinalities(schedule)

        # audit every pair settled at an earlier level (and this one) at the
        # regularity the next level will rely on
        audit_eps = schedule.eps_at(min(level + 1, levels))
        for (x, y), c in phi_map.items():
            Ux, Uy = chain.current(x), chain.current(y)
            verdict = check_lower_regular(
                chi.classes[c], Ux, Uy, audit_eps, params.alpha_p, knobs.audit_trials,
                seeds.derive(seed, 91, level, x, y), cap=knobs.check_cap,
            )
            audit_log.append(AuditRecord(level, (x, y), audit_eps, verdict))
            if not verdict.passed:
                raise PipelineFailure("inheritance-audit", level, (x, y),
                                      verdict)

    phi = EdgeColouring.by_edge(H, chi.r, [phi_map[e] for e in H.edges()])
    final = {x: chain.current(x) for x in H.vertices()}
    return PipelineResult(phi, final, chain, edge_log, audit_log, decomp)


# ---------------------------------------------------------------------------
# monochromatic cycles in the host colouring


@dataclass(frozen=True)
class CycleCertificate:
    colour: int
    vertices: list[int]

    def validate(self, H: Graph, phi: EdgeColouring,
                 l_min: int, l_max: int) -> None:
        ell = len(self.vertices)
        if not l_min <= ell <= l_max:
            raise AssertionError(f"cycle length {ell} outside [{l_min}, {l_max}]")
        if len(set(self.vertices)) != ell:
            raise AssertionError("cycle repeats a vertex")
        for i in range(ell):
            u, v = self.vertices[i], self.vertices[(i + 1) % ell]
            if not H.has_edge(u, v):
                raise AssertionError(f"({u}, {v}) is not a host edge")
            if phi.colour(u, v) != self.colour:
                raise AssertionError(f"({u}, {v}) has the wrong colour")

    def to_json(self) -> dict:
        return {"colour": self.colour, "vertices": list(self.vertices)}


def find_mono_cycle(H: Graph, phi: EdgeColouring, l_min: int, l_max: int,
                    budget: int = Knobs.cycle_budget) -> CycleCertificate | None:
    """Longest-first search for a single-colour cycle with length in range.

    One scan of the oracle's search (`oracle.find_cycle`) over the lengths
    from l_max down, each colour class in turn, under one budget.  None if
    the budget runs out or no such cycle exists; hosts carry no guarantee.
    """
    if not 3 <= l_min <= l_max <= H.n:
        raise ValueError("need 3 <= l_min <= l_max <= |V(H)|")
    classes = [colour_subgraph(H, phi, c) for c in range(phi.r)]
    found, _ = find_cycle(classes, range(l_max, l_min - 1, -1), budget)
    if found is None:
        return None
    out = CycleCertificate(*found)
    out.validate(H, phi, l_min, l_max)
    return out
