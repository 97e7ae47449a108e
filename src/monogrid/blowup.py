"""Random blow-ups of host graphs, and a seeded audit of their uniformity.

Each host vertex x becomes an independent set of s fresh vertices occupying
the contiguous block [x*s, (x+1)*s), and each host edge becomes a random
bipartite graph between the two blocks with edge probability p.  The random
bits for a host edge come from a stream keyed by (seed, x, y), so the edge
set is a pure function of the arguments no matter what order the edges are
built in.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from monogrid import seeds
from monogrid.graphs import Graph, VertexSet, _edges_between, _significant_lines
from monogrid.hosts import HostGraph


@dataclass(frozen=True)
class BlowupGraph:
    gamma: Graph
    host: HostGraph
    part_size: int
    p: float
    seed: int
    parts: list[VertexSet] = field(repr=False)

    def part_of(self, v: int) -> int:
        if not 0 <= v < self.gamma.n:
            raise ValueError(f"vertex {v} out of range")
        return v // self.part_size

    def part(self, x: int) -> VertexSet:
        return self.parts[x]

    def validate(self) -> None:
        """Exhaustive partition / independence / locality invariants."""
        n = self.gamma.n
        s = self.part_size
        H = self.host.graph
        if n != H.n * s:
            raise AssertionError("vertex count is not host size times part size")
        union = 0
        for x, part in enumerate(self.parts):
            if part.size != s:
                raise AssertionError(f"part {x} has size {part.size}, want {s}")
            if union & part.bits:
                raise AssertionError("parts overlap")
            union |= part.bits
        if union != (1 << n) - 1:
            raise AssertionError("parts do not cover the vertex set")
        for x in range(H.n):
            allowed = 0
            for y in H.neighbours(x):
                allowed |= self.parts[y].bits
            own = self.parts[x].bits
            for u in self.parts[x]:
                row = self.gamma.row(u)
                if row & own:
                    raise AssertionError(f"part {x} is not independent")
                if row & ~allowed & ((1 << n) - 1):
                    raise AssertionError(f"edge leaves the host edges at part {x}")


def build_blowup(H: HostGraph, s: int, p: float, seed: int) -> BlowupGraph:
    """Blow each host vertex up into s vertices; host edges become random pairs."""
    if s < 1:
        raise ValueError("part size must be at least 1")
    if not 0.0 < p <= 1.0:
        raise ValueError("edge probability must lie in (0, 1]")
    n = H.graph.n * s
    rows = [0] * n
    m = 0
    for x, y in H.graph.edges():
        rng = seeds.rng(seed, x, y)
        mat = rng.random((s, s)) < p
        m += int(mat.sum())
        packed = np.packbits(mat, axis=1, bitorder="little")
        for i in range(s):
            bits = int.from_bytes(packed[i].tobytes(), "little")
            rows[x * s + i] |= bits << (y * s)
        packed_t = np.packbits(mat.T, axis=1, bitorder="little")
        for j in range(s):
            bits = int.from_bytes(packed_t[j].tobytes(), "little")
            rows[y * s + j] |= bits << (x * s)
    gamma = Graph(n, rows, m)
    block = (1 << s) - 1
    parts = [VertexSet(n, block << (x * s)) for x in range(H.graph.n)]
    return BlowupGraph(gamma, H, s, p, seed, parts)


def expected_edges(H: HostGraph, s: int, p: float) -> float:
    """Exact mean edge count of the blow-up: one binomial per host edge."""
    return H.graph.edge_count * s * s * p


def host_hash(H: HostGraph) -> str:
    text = f"n {H.graph.n} d {H.max_degree}\n" + "".join(
        f"{u} {v}\n" for u, v in H.graph.edges()
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# uniformity audit


@dataclass(frozen=True)
class UniformityReport:
    lam: float
    pairs_tested: int
    worst_ratio: float
    violations: list[tuple[VertexSet, VertexSet, float]]
    vacuous: bool
    min_mass: float

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "pairs_tested": self.pairs_tested,
            "worst_ratio": self.worst_ratio,
            "violations": len(self.violations),
            "vacuous": self.vacuous,
            "min_mass": self.min_mass,
        }


def _degree_order(G: Graph, part: VertexSet, towards: VertexSet) -> list[int]:
    bits = towards.bits
    return sorted(part, key=lambda u: ((G.row(u) & bits).bit_count(), u))


def audit_uniformity(
    bg: BlowupGraph,
    xy: tuple[int, int],
    lam: float,
    budget: int,
    seed: int,
    min_mass: float | None = None,
) -> UniformityReport:
    """Falsifier for the two-sided edge-count band over one host edge's pair.

    Samples `budget` subset pairs whose expected edge mass |X||Y|p clears
    `min_mass`, plus the full pair and low/high-degree extremal candidates,
    and reports the worst relative deviation of e(X,Y) from |X||Y|p.  This
    is a sampled search for counterexamples, not a proof of uniformity.

    The default mass threshold 100*s/lam^2 is meaningful only at very large
    part sizes; when nothing can clear it the report comes back vacuous.
    Pass an explicit `min_mass` to audit at desk scale.
    """
    x, y = xy
    if not bg.host.graph.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not a host edge")
    if not 0.0 < lam:
        raise ValueError("lam must be positive")
    s = bg.part_size
    p = bg.p
    if min_mass is None:
        min_mass = 100.0 * s / (lam * lam)
    Vx, Vy = bg.part(x), bg.part(y)
    G = bg.gamma

    if s * s * p < min_mass:
        return UniformityReport(lam, 0, 0.0, [], True, min_mass)

    candidates: list[tuple[VertexSet, VertexSet]] = [(Vx, Vy)]
    by_deg_x = _degree_order(G, Vx, Vy)
    by_deg_y = _degree_order(G, Vy, Vx)
    for frac in (2, 4):
        k = math.ceil(s / frac)
        if k * k * p < min_mass:
            continue
        lo_x = VertexSet.from_ids(G.n, by_deg_x[:k])
        lo_y = VertexSet.from_ids(G.n, by_deg_y[:k])
        hi_x = VertexSet.from_ids(G.n, by_deg_x[-k:])
        hi_y = VertexSet.from_ids(G.n, by_deg_y[-k:])
        candidates.append((lo_x, lo_y))
        candidates.append((hi_x, hi_y))

    rng = seeds.rng(seed, x, y, 7)
    k_floor = max(1, math.ceil(min_mass / (s * p)))
    for _ in range(budget):
        k1 = int(rng.integers(k_floor, s + 1))
        k2_floor = max(1, math.ceil(min_mass / (k1 * p)))
        if k2_floor > s:
            continue
        k2 = int(rng.integers(k2_floor, s + 1))
        candidates.append((Vx.sample(k1, rng), Vy.sample(k2, rng)))

    worst = 0.0
    violations: list[tuple[VertexSet, VertexSet, float]] = []
    for X, Y in candidates:
        mass = len(X) * len(Y) * p
        ratio = abs(_edges_between(G, X, Y) / mass - 1.0)
        if ratio > worst:
            worst = ratio
        if ratio > lam:
            violations.append((X, Y, ratio))
    return UniformityReport(lam, len(candidates), worst, violations, False, min_mass)


# ---------------------------------------------------------------------------
# persistence: graph file plus a text key-value sidecar


def save_blowup(bg: BlowupGraph, basename: str) -> None:
    from monogrid.graphs import write_graph

    write_graph(bg.gamma, basename + ".graph")
    write_graph(bg.host.graph, basename + ".host")
    with open(basename + ".meta", "w") as fh:
        fh.write(f"part_size {bg.part_size}\n")
        fh.write(f"p {bg.p!r}\n")
        fh.write(f"c {bg.p * math.sqrt(bg.part_size)!r}\n")
        fh.write(f"seed {bg.seed}\n")
        fh.write(f"host_max_degree {bg.host.max_degree}\n")
        fh.write(f"host_hash {host_hash(bg.host)}\n")


def load_blowup(basename: str) -> BlowupGraph:
    from monogrid.graphs import read_graph

    gamma = read_graph(basename + ".graph")
    hostg = read_graph(basename + ".host")
    meta: dict[str, str] = {}
    for lineno, parts in _significant_lines(basename + ".meta"):
        if len(parts) != 2:
            raise ValueError(f"{basename}.meta:{lineno}: expected 'key value'")
        meta[parts[0]] = parts[1]
    missing = {"host_max_degree", "host_hash", "part_size", "p", "seed"} - set(meta)
    if missing:
        raise ValueError(f"{basename}.meta: missing key(s) {', '.join(sorted(missing))}")
    host = HostGraph(hostg, int(meta["host_max_degree"]))
    if meta["host_hash"] != host_hash(host):
        raise ValueError(f"{basename}.meta: host hash mismatch")
    s = int(meta["part_size"])
    block = (1 << s) - 1
    parts = [VertexSet(gamma.n, block << (x * s)) for x in range(hostg.n)]
    bg = BlowupGraph(gamma, host, s, float(meta["p"]), int(meta["seed"]), parts)
    bg.validate()
    return bg
