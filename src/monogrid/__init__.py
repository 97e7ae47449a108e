"""monogrid: a laboratory for monochromatic grid subgraphs in random blow-ups.

The package builds sparse random blow-ups of small host graphs, colours
their edges, extracts lower-regular monochromatic structure along a host
cycle, and then embeds a square grid row by row inside that structure.
Exhaustive oracles (subgraph search, arrowing, first-moment counts) keep
the heuristic parts honest.
"""

from monogrid.graphs import (
    EdgeColouring,
    Graph,
    VertexSet,
    colour_subgraph,
    neighbours_in,
    pair_density,
)

__version__ = "0.1.0"

__all__ = [
    "EdgeColouring",
    "Graph",
    "VertexSet",
    "colour_subgraph",
    "neighbours_in",
    "pair_density",
    "__version__",
]
