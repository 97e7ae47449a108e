"""Host graphs: the small graphs whose parts get blown up.

A host carries its graph together with a degree bound.  The bound is part of
the type rather than recomputed on demand because the downstream level
schedules size themselves by it, and a caller may legitimately want a looser
bound than the true maximum degree.
"""

from __future__ import annotations

from monogrid import seeds
from monogrid.graphs import Graph


class HostGraph:
    """A graph on at least two vertices together with a degree bound >= 2."""

    __slots__ = ("graph", "max_degree")

    def __init__(self, graph: Graph, max_degree: int | None = None):
        if graph.n < 2:
            raise ValueError("a host needs at least two vertices")
        true_max = graph.max_degree()
        if max_degree is None:
            max_degree = max(2, true_max)
        if max_degree < 2:
            raise ValueError("the degree bound must be at least 2")
        if true_max > max_degree:
            raise ValueError(
                f"host has a vertex of degree {true_max}, above the bound {max_degree}"
            )
        self.graph = graph
        self.max_degree = max_degree

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HostGraph)
            and self.graph == other.graph
            and self.max_degree == other.max_degree
        )

    def __repr__(self) -> str:
        return f"HostGraph(n={self.graph.n}, m={self.graph.edge_count}, max_degree={self.max_degree})"


def random_regular_host(n: int, d: int, seed: int, max_tries: int = 1000) -> HostGraph:
    """A uniformly random d-regular host via the pairing model.

    Each vertex contributes d points; a uniform perfect matching on the
    points induces the edges, and outcomes with loops or repeated edges are
    rejected and redrawn.  Rejection is cheap at the small degrees used here.
    """
    if n < 2 or d < 1 or d >= n:
        raise ValueError("need 2 <= n and 1 <= d < n")
    if n * d % 2:
        raise ValueError("n*d must be even for a d-regular graph")
    rng = seeds.rng(seed)
    for _ in range(max_tries):
        points = rng.permutation(n * d)
        edges = []
        ok = True
        for i in range(0, n * d, 2):
            u, v = int(points[i]) // d, int(points[i + 1]) // d
            if u == v:
                ok = False
                break
            edges.append((u, v) if u < v else (v, u))
        if not ok or len(set(edges)) != len(edges):
            continue
        return HostGraph(Graph.from_edges(n, edges), max_degree=max(2, d))
    raise ValueError(f"no simple {d}-regular graph found in {max_tries} pairings")
