"""Random blow-ups of host graphs, and their persistence as graph plus sidecar.

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
from monogrid.graphs import (
    MAX_VERTICES,
    Graph,
    VertexSet,
    _ClassBuilder,
    _significant_lines,
    degrees_into,
    read_graph,
    write_graph,
)

# rows of a host edge's s x s block drawn per call to the edge's generator
_DRAW_ROWS = 64

# The most host-edge cells |E(H)| * s^2 a blow-up may span.  Its tiles take
# about cells / 4 bytes (a bit per cell, stored from both ends of the edge),
# and each host edge's draw matrix s^2 bytes, so a single-edge host is the
# worst shape: at this bound (s = 23170) `build_blowup` peaks at 742 MB of
# RSS, against 205 MB for `cycle 80` at s = 2400 (4.6e8 cells).
MAX_CELLS = 1 << 29


@dataclass(frozen=True)
class BlowupGraph:
    gamma: Graph
    host: Graph
    part_size: int
    p: float
    seed: int
    parts: list[VertexSet] = field(repr=False)

    def part(self, x: int) -> VertexSet:
        return self.parts[x]

    def validate(self) -> None:
        """Independence of the parts, and no edge outside the host edges."""
        n, H = self.gamma.n, self.host
        if n != H.n * self.part_size:
            raise AssertionError("vertex count is not host size times part size")
        for x, own in enumerate(self.parts):
            outside = VertexSet(n, np.arange(n))
            for y in H.neighbours(x):
                outside = outside - self.parts[y]
            if any(degrees_into(self.gamma, own.ids, own)):
                raise AssertionError(f"part {x} is not independent")
            if any(degrees_into(self.gamma, own.ids, outside)):
                raise AssertionError(f"edge leaves the host edges at part {x}")


def check_size(H: Graph, s: int) -> None:
    """Refuse a blow-up of H with parts of s vertices past MAX_VERTICES
    vertices or MAX_CELLS host-edge cells, before anything is built."""
    if H.n * s > MAX_VERTICES:
        raise ValueError(f"blow-up of {H.n} host vertices at s = {s} has "
                         f"{H.n * s} vertices, more than {MAX_VERTICES}")
    cells = H.edge_count * s * s
    if cells > MAX_CELLS:
        raise ValueError(f"blow-up of {H.edge_count} host edges at s = {s} spans "
                         f"{cells} cells, more than {MAX_CELLS}")


def check_probability(p: float) -> None:
    """Refuse an edge probability outside (0, 1], nan and infinities among them."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"edge probability must lie in (0, 1], got {p}")


def build_blowup(H: Graph, s: int, p: float, seed: int) -> BlowupGraph:
    """Blow each host vertex up into s vertices; host edges become random pairs."""
    if H.n < 2:
        raise ValueError("a host needs at least two vertices")
    if s < 1:
        raise ValueError("part size must be at least 1")
    check_size(H, s)
    check_probability(p)
    n = H.n * s
    acc = _ClassBuilder(n, 1)
    for x, y in H.edges():
        rng = seeds.rng(seed, x, y)
        # a few rows of floats at a time draw the same stream as one (s, s)
        # draw, without holding its s*s float64 matrix
        mat = np.empty((s, s), dtype=bool)
        for i in range(0, s, _DRAW_ROWS):
            np.less(rng.random((min(_DRAW_ROWS, s - i), s)), p,
                    out=mat[i:i + _DRAW_ROWS])
        acc.add_block(x * s, y * s, mat)
    return BlowupGraph(acc.graphs()[0], H, s, p, seed, _parts(H.n, s))


def _parts(h: int, s: int) -> list[VertexSet]:
    """The blocks [x*s, (x+1)*s) of 0..h*s-1, for x < h, as vertex sets."""
    return [VertexSet(h * s, np.arange(x * s, (x + 1) * s)) for x in range(h)]


def expected_edges(H: Graph, s: int, p: float) -> float:
    """Exact mean edge count of the blow-up: one binomial per host edge."""
    return H.edge_count * s * s * p


def host_hash(H: Graph) -> str:
    text = f"n {H.n} d {H.degree_bound()}\n" + "".join(
        f"{u} {v}\n" for u, v in H.edges()
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# persistence: graph file plus a text key-value sidecar


def save_blowup(bg: BlowupGraph, basename: str) -> None:
    write_graph(bg.gamma, basename + ".graph")
    write_graph(bg.host, basename + ".host")
    with open(basename + ".meta", "w") as fh:
        fh.write(f"part_size {bg.part_size}\n")
        fh.write(f"p {bg.p!r}\n")
        fh.write(f"c {bg.p * math.sqrt(bg.part_size)!r}\n")
        fh.write(f"seed {bg.seed}\n")
        fh.write(f"host_max_degree {bg.host.degree_bound()}\n")
        fh.write(f"host_hash {host_hash(bg.host)}\n")


def _meta_number(basename: str, meta: dict[str, str], key: str, kind: type):
    try:
        return kind(meta[key])
    except ValueError:
        raise ValueError(f"{basename}.meta: {key} must be "
                         f"{'an integer' if kind is int else 'a number'}, "
                         f"got {meta[key]!r}") from None


def load_blowup(basename: str) -> BlowupGraph:
    gamma = read_graph(basename + ".graph")
    host = read_graph(basename + ".host")
    meta: dict[str, str] = {}
    for lineno, parts in _significant_lines(basename + ".meta"):
        if len(parts) != 2:
            raise ValueError(f"{basename}.meta:{lineno}: expected 'key value'")
        meta[parts[0]] = parts[1]
    missing = {"host_max_degree", "host_hash", "part_size", "p", "c", "seed"} - set(meta)
    if missing:
        raise ValueError(f"{basename}.meta: missing key(s) {', '.join(sorted(missing))}")
    bound = host.degree_bound()
    if meta["host_max_degree"] != str(bound):
        raise ValueError(f"{basename}.meta: host_max_degree {meta['host_max_degree']} "
                         f"is not the host's degree bound {bound}")
    if meta["host_hash"] != host_hash(host):
        raise ValueError(f"{basename}.meta: host hash mismatch")
    s = _meta_number(basename, meta, "part_size", int)
    if s < 1:
        raise ValueError(f"{basename}.meta: part_size must be at least 1, got {s}")
    if gamma.n != host.n * s:
        raise ValueError(f"{basename}.meta: part_size {s} times the host's {host.n} "
                         f"vertices is not the graph's {gamma.n}")
    p = _meta_number(basename, meta, "p", float)
    seed = _meta_number(basename, meta, "seed", int)
    try:
        check_probability(p)
    except ValueError as e:
        raise ValueError(f"{basename}.meta: p: {e}") from None
    if seed < 0:
        raise ValueError(f"{basename}.meta: seed must be at least 0, got {seed}")
    # save_blowup writes p and c with repr, so a saved c matches exactly
    if _meta_number(basename, meta, "c", float) != p * math.sqrt(s):
        raise ValueError(f"{basename}.meta: c {meta['c']} is not p * sqrt(part_size)")
    bg = BlowupGraph(gamma, host, s, p, seed, _parts(host.n, s))
    try:
        bg.validate()
    except AssertionError as e:
        raise ValueError(f"{basename}.graph: {e}") from None
    return bg
