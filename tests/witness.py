"""The witness reference the regularity tests share: a failed verdict's
witness re-validated exactly, whatever the mode that found it."""

from fractions import Fraction

from monogrid.graphs import Graph, VertexSet, pair_density
from monogrid.regularity import RegVerdict


def recheck_witness(G: Graph, A: VertexSet, B: VertexSet, eps,
                    verdict: RegVerdict) -> bool:
    """Whether a failed verdict's witness is a sub-pair of (A, B) taking at
    least an eps fraction of each side, with density below the threshold."""
    if verdict.passed or verdict.witness is None:
        return False
    U1, U2 = verdict.witness
    eps = Fraction(eps)
    if (U1 & A) != U1 or (U2 & B) != U2:
        return False
    if U1.size < eps * A.size or U2.size < eps * B.size:
        return False
    return pair_density(G, U1, U2) < verdict.threshold
