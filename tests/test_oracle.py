"""Brute-force oracles: grids, subgraph search, arrowing, copy counts."""

import itertools
import json
import math

import numpy as np
import pytest

from monogrid.cli import main
from monogrid.graphs import Graph
from monogrid.oracle import (
    ABSENT,
    ARROWS,
    FOUND,
    NOT_ARROWS,
    UNKNOWN,
    ArrowResult,
    _count_grid_in_adj,
    _ordered_paths,
    arrows,
    contains_subgraph,
    expected_grid_count,
    grid_automorphisms,
    monte_carlo_grid_count,
    validate_not_arrows_witness,
)
from test_oracle_kernels import _matrix, count_labelled_copies

SEEDS = [0, 1, 2, 3, 5, 8, 13, 21]


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# grid construction


def test_grid_degenerate_shapes():
    assert Graph.grid(1, 5) == Graph.path(5)
    assert Graph.grid(4, 1).n == 4 and Graph.grid(4, 1).edge_count == 3
    # 2x2 is a 4-cycle up to relabelling
    square = Graph.grid(2, 2)
    assert square.edge_count == 4
    assert all(square.degree(v) == 2 for v in square.vertices())
    assert contains_subgraph(square, Graph.cycle(4)).status == FOUND
    assert Graph.grid(1, 1).n == 1


def ref_grid(a, b):
    """The a-by-b grid built cell by cell: (i, j) is vertex i*b + j."""
    edges = []
    for i in range(a):
        for j in range(b):
            v = i * b + j
            if j + 1 < b:
                edges.append((v, v + 1))
            if i + 1 < a:
                edges.append((v, v + b))
    return Graph.from_edges(a * b, edges)


@pytest.mark.parametrize("a,b", [(2, 3), (3, 3), (4, 2), (5, 5), (1, 7)])
def test_grid_edge_count(a, b):
    g = Graph.grid(a, b)
    assert g == ref_grid(a, b)
    assert g.n == a * b
    assert g.edge_count == 2 * a * b - a - b
    assert g.max_degree() <= 4


def test_grid_three_by_three_shape():
    g = Graph.grid(3, 3)
    degs = sorted(g.degree(v) for v in g.vertices())
    assert degs == [2, 2, 2, 2, 3, 3, 3, 3, 4]


def test_grid_rejects_zero():
    with pytest.raises(ValueError):
        Graph.grid(0, 3)


def test_grid_automorphism_cases():
    assert grid_automorphisms(3, 3) == 8
    assert grid_automorphisms(2, 5) == 4
    assert grid_automorphisms(1, 4) == 2
    assert grid_automorphisms(1, 1) == 1


# ---------------------------------------------------------------------------
# subgraph search


def check_embedding(G, T, mapping):
    assert len(set(mapping.values())) == T.n
    for u, v in T.edges():
        assert G.has_edge(mapping[u], mapping[v])


def test_contains_self():
    g = random_graph(9, 0.4, 0)
    out = contains_subgraph(g, g)
    assert out.status == FOUND
    check_embedding(g, g, out.mapping)


def test_square_not_in_triangle():
    assert contains_subgraph(Graph.complete(3), Graph.grid(2, 2)).status == ABSENT


def test_small_grid_in_larger_grid():
    out = contains_subgraph(Graph.grid(5, 5), Graph.grid(3, 3))
    assert out.status == FOUND
    check_embedding(Graph.grid(5, 5), Graph.grid(3, 3), out.mapping)


def test_budget_exhaustion_is_unknown():
    out = contains_subgraph(Graph.grid(6, 6), Graph.grid(5, 5), budget=3)
    assert out.status == UNKNOWN
    assert out.mapping is None


def naive_contains(G, T):
    for perm in itertools.permutations(range(G.n), T.n):
        if all(G.has_edge(perm[u], perm[v]) for u, v in T.edges()):
            return True
    return False


@pytest.mark.parametrize("seed", SEEDS)
def test_search_agrees_with_permutation_check(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    G = random_graph(n, 0.5, seed + 100)
    k = int(rng.integers(2, n + 1))
    T = random_graph(k, 0.5, seed + 200)
    out = contains_subgraph(G, T)
    assert out.status in (FOUND, ABSENT)
    assert (out.status == FOUND) == naive_contains(G, T)
    if out.status == FOUND:
        check_embedding(G, T, out.mapping)


# ---------------------------------------------------------------------------
# copy counting


def test_grid_count_in_grid():
    # the 5x5 grid holds exactly the nine axis-aligned 3x3 subgrids
    labelled = count_labelled_copies(Graph.grid(5, 5), Graph.grid(3, 3))
    assert labelled == 72 and labelled // grid_automorphisms(3, 3) == 9
    # the Monte Carlo count's kernel, with a-vertex columns, b of them: in
    # K_9 every injective placement is a copy; a path's one-vertex columns
    # are their own reversal and hold 2(n - b + 1) copies
    A = _matrix(Graph.grid(5, 5))
    assert _count_grid_in_adj(A, _ordered_paths(A, 3), 3) == 72
    A = _matrix(Graph.complete(9))
    for a, b in ((1, 3), (2, 3), (3, 2), (3, 3)):
        assert _count_grid_in_adj(A, _ordered_paths(A, a), b) == math.perm(9, a * b)
    A = _matrix(Graph.path(7))
    for b in (2, 3):
        assert _count_grid_in_adj(A, _ordered_paths(A, 1), b) == 2 * (7 - b + 1)


def test_four_cycles_of_k4():
    labelled = count_labelled_copies(Graph.complete(4), Graph.grid(2, 2))
    assert labelled // grid_automorphisms(2, 2) == 3


@pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (2, 3), (3, 3), (1, 3)])
@pytest.mark.parametrize("seed", SEEDS[:4])
def test_fast_count_matches_backtracking(a, b, seed):
    # the Monte Carlo count's kernel, columns along the longer axis
    G = random_graph(12, 0.45, seed)
    A = _matrix(G)
    fast = _count_grid_in_adj(A, _ordered_paths(A, max(a, b)), min(a, b))
    assert fast == count_labelled_copies(G, Graph.grid(a, b))


# ---------------------------------------------------------------------------
# arrowing


def test_k6_arrows_triangle():
    out = arrows(Graph.complete(6), Graph.complete(3), 2)
    assert out.status == ARROWS


def test_k5_does_not_arrow_triangle():
    out = arrows(Graph.complete(5), Graph.complete(3), 2)
    assert out.status == NOT_ARROWS
    assert validate_not_arrows_witness(Graph.complete(5), Graph.complete(3),
                                       out.witness)


def test_odd_cycle_arrows_cherry():
    # two same-coloured edges must meet somewhere on C_5
    assert arrows(Graph.cycle(5), Graph.path(3), 2).status == ARROWS
    # while an even path can alternate
    assert arrows(Graph.path(4), Graph.path(3), 2).status == NOT_ARROWS


def test_one_colour_is_containment():
    g = random_graph(7, 0.5, 4)
    assert arrows(g, g, 1).status == ARROWS
    assert arrows(Graph.complete(3), Graph.grid(2, 2), 1).status == NOT_ARROWS
    # one colour class is G itself: the answer and the node count are those
    # of one search of G, and no colouring is a witness
    for G, T, budget, status, nodes in [
        (Graph.complete(5), Graph.complete(3), None, ARROWS, 3),
        (Graph.cycle(6), Graph.complete(3), None, NOT_ARROWS, 18),
        (Graph.cycle(12), Graph.cycle(5), None, NOT_ARROWS, 84),
        (Graph.cycle(12), Graph.cycle(5), 10, UNKNOWN, 11),
    ]:
        out = arrows(G, T, 1) if budget is None else arrows(G, T, 1, budget=budget)
        assert (out.status, out.nodes, out.witness) == (status, nodes, None)
        assert out.nodes == contains_subgraph(G, T, budget).nodes


def test_absent_target_never_arrows():
    out = arrows(Graph.complete(4), Graph.complete(5), 2)
    assert out.status == NOT_ARROWS
    assert validate_not_arrows_witness(Graph.complete(4), Graph.complete(5),
                                       out.witness)


def test_arrows_guard_and_budget():
    with pytest.raises(ValueError):
        arrows(Graph.complete(9), Graph.complete(3), 2)  # 36 edges
    out = arrows(Graph.complete(6), Graph.complete(3), 2, budget=10)
    assert out.status == UNKNOWN


def test_arrows_monotone_under_supergraphs():
    # K_6 arrows the triangle, so its supergraph K_7 must as well
    out = arrows(Graph.complete(7), Graph.complete(3), 2, budget=5_000_000)
    assert out.status == ARROWS


def test_long_path_arrows_stays_below_the_recursion_limit(capsys):
    # 1199 edges coloured one depth at a time: the descent keeps its own stack
    assert main(["oracle", "arrows", "--graph", "path 1200", "--target", "path 3",
                 "--r", "2", "--allow-large"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == NOT_ARROWS


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_not_arrows_witnesses_validate(seed):
    G = random_graph(6, 0.6, seed)
    out = arrows(G, Graph.complete(3), 2)
    if out.status == NOT_ARROWS:
        assert validate_not_arrows_witness(G, Graph.complete(3), out.witness)


# ---------------------------------------------------------------------------
# first-moment counts


def test_expected_count_single_vertex():
    assert expected_grid_count(10, 0.3, 1, 1) == 10


def test_expected_count_k4_squares():
    assert expected_grid_count(4, 1.0, 2, 2) == 3


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (1, 3), (2, 3)])
def test_labelled_expectation_in_complete_graph(n, a, b):
    if a * b > n:
        pytest.skip("grid larger than host")
    labelled = expected_grid_count(n, 1.0, a, b) * grid_automorphisms(a, b)
    assert labelled == count_labelled_copies(Graph.complete(n), Graph.grid(a, b))


def test_expectation_vanishes_below_root_n_density():
    # square grids of side ~ sqrt(n)/2 at p = n^(-0.75): the expectation
    # should collapse towards zero as n grows
    values = []
    for n in (64, 144, 256):
        s = round(n ** 0.5 / 2)
        values.append(expected_grid_count(n, n ** -0.75, s, s))
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-30


def test_expected_count_domain_errors():
    with pytest.raises(ValueError):
        expected_grid_count(5, 0.5, 2, 3)


def test_expected_count_refuses_exactly_the_counts_past_the_float_range():
    # 170! is the largest factorial in the float range, and 171! the least past it
    assert expected_grid_count(170, 1.0, 1, 170) == math.factorial(170) / 2
    for n, a, b, p in [(171, 1, 171, 1.0), (1000, 20, 20, 0.0),
                       (10**8, 1000, 1000, 0.5)]:
        with pytest.raises(ValueError, match="exceeds the float range"):
            expected_grid_count(n, p, a, b)
    # a host of 10^17 vertices, where lgamma(n + 1) - lgamma(n - 9) reads 1024
    # against a true log of 391.4
    assert expected_grid_count(10**17, 0.5, 2, 5) == math.perm(10**17, 10) * 0.5**13 / 4


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_deterministic_at_p1():
    rep = monte_carlo_grid_count(6, 1.0, 2, 2, samples=3, seed=0)
    assert rep.mean == rep.expectation == expected_grid_count(6, 1.0, 2, 2)
    assert rep.variance == 0.0
    assert not rep.flagged


def test_monte_carlo_empty_at_p0():
    rep = monte_carlo_grid_count(10, 0.0, 2, 2, samples=5, seed=1)
    assert rep.mean == 0.0
    assert not rep.flagged


def test_monte_carlo_consistency_small():
    rep = monte_carlo_grid_count(14, 0.4, 2, 2, samples=60, seed=11)
    assert rep.samples == 60
    assert not rep.flagged


# the guard admits exactly the grids with at most 3 rows or columns in
# hosts of at most 63 vertices, the reach of the int64 path masks, whose
# count's largest stage is expected to fit its memory bound: K_30 holds
# perm(30, 6), about 4.3e8, labelled 3x2 column pairs
@pytest.mark.parametrize("n,a,b,p", [(70, 5, 5, 0.2), (64, 3, 3, 0.2), (30, 4, 4, 0.2),
                                     (64, 1, 2, 0.2), (30, 3, 3, 1.0)],
                         ids=["70-5-5", "64-3-3", "30-4-4", "64-1-2", "30-3-3-p1"])
def test_monte_carlo_refuses_intractable(n, a, b, p):
    with pytest.raises(ValueError):
        monte_carlo_grid_count(n, p, a, b, samples=1, seed=0)


@pytest.mark.parametrize("n,a,b", [(63, 3, 3), (63, 2, 7), (30, 3, 4), (31, 4, 3)])
def test_monte_carlo_accepts_up_to_its_guard(n, a, b):
    rep = monte_carlo_grid_count(n, 0.0, a, b, samples=1, seed=0)
    assert rep.mean == rep.expectation == 0.0


def test_monte_carlo_is_reproducible():
    a = monte_carlo_grid_count(12, 0.35, 3, 2, samples=10, seed=5)
    b = monte_carlo_grid_count(12, 0.35, 3, 2, samples=10, seed=5)
    assert a == b


def test_report_serialises():
    rep = monte_carlo_grid_count(8, 0.5, 2, 2, samples=4, seed=2)
    js = rep.to_json()
    assert js["n"] == 8 and js["samples"] == 4 and "expectation" in js
