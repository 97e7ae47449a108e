"""The colouring builder the tests share: a colouring from an {edge: colour}
dict, which may cover only some edges of a graph or name pairs it lacks."""

from monogrid.graphs import EdgeColouring, Graph


def colouring_from(n: int, r: int, mapping: dict[tuple[int, int], int]) -> EdgeColouring:
    """The colouring on 0..n-1 whose class c holds the edges mapped to c."""
    return EdgeColouring([Graph.from_edges(n, [e for e, k in mapping.items() if k == c])
                          for c in range(r)])
