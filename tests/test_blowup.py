"""Blow-up construction, determinism, expected edge counts, persistence."""

import hashlib
import math

import numpy as np
import pytest

from monogrid import seeds
from monogrid.blowup import (
    MAX_CELLS,
    build_blowup,
    check_size,
    expected_edges,
    host_hash,
    load_blowup,
    save_blowup,
)
from monogrid.config import ConfigError, build_host
from monogrid.graphs import MAX_VERTICES, Graph, pair_density

SEEDS = [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# hosts


def test_host_degree_bound():
    assert Graph.cycle(6).degree_bound() == 2
    assert Graph.complete(4).degree_bound() == 3
    # a single edge still gets the minimum legal bound
    assert Graph.path(2).degree_bound() == 2


def test_host_needs_two_vertices():
    with pytest.raises(ValueError, match="at least two vertices"):
        build_blowup(Graph.from_edges(1, []), 3, 0.5, seed=0)
    with pytest.raises(ConfigError, match="at least two vertices"):
        build_host("path 1", 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_regular_host(seed):
    h = Graph.random_regular(12, 3, seed)
    assert all(h.degree(v) == 3 for v in h.vertices())
    assert h.degree_bound() == 3


def test_random_regular_host_rejects_odd_product():
    with pytest.raises(ValueError):
        Graph.random_regular(5, 3, 0)


@pytest.mark.parametrize("seed,digest", [
    (0, "b5de76dd31570728"), (1, "763eaa3d2549be4f"), (2, "8a61169669302fd0"),
])
def test_random_regular_edges_are_pinned(seed, digest):
    # the pairing draws, and so a random-regular host's edges, are fixed
    text = "".join(f"{u} {v}\n" for u, v in Graph.random_regular(20, 3, seed).edges())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# ---------------------------------------------------------------------------
# construction


def test_single_edge_p1_is_complete_bipartite():
    bg = build_blowup(Graph.path(2), 2, 1.0, seed=0)
    bg.validate()
    assert bg.gamma.edge_count == 4
    assert pair_density(bg.gamma, bg.part(0), bg.part(1)) == 1


def test_p_zero_rejected():
    with pytest.raises(ValueError):
        build_blowup(Graph.path(2), 3, 0.0, seed=0)
    with pytest.raises(ValueError):
        build_blowup(Graph.path(2), 3, 1.5, seed=0)


def test_size_bound_admits_the_measured_runs_and_refuses_past_it():
    # desk at s = 4800 and a `cycle 80` host at s = 2400 fit; one more
    # vertex per part past either bound does not
    check_size(Graph.cycle(10), 4800)
    check_size(Graph.cycle(80), 2400)
    side = math.isqrt(MAX_CELLS)
    check_size(Graph.path(2), side)
    with pytest.raises(ValueError, match=f"spans {(side + 1) ** 2} cells"):
        build_blowup(Graph.path(2), side + 1, 0.5, 0)
    check_size(Graph.from_edges(MAX_VERTICES // 1024, [(0, 1)]), 1024)
    with pytest.raises(ValueError, match="vertices, more than"):
        build_blowup(Graph.from_edges(MAX_VERTICES // 1024 + 1, [(0, 1)]), 1024, 0.5, 0)


def test_tiny_p_empty_and_deterministic():
    a = build_blowup(Graph.path(2), 3, 1e-9, seed=99)
    b = build_blowup(Graph.path(2), 3, 1e-9, seed=99)
    assert a.gamma.edge_count == 0
    assert a.gamma == b.gamma


@pytest.mark.parametrize("seed", SEEDS)
def test_rebuild_equality(seed):
    h = Graph.cycle(5)
    a = build_blowup(h, 20, 0.3, seed)
    b = build_blowup(h, 20, 0.3, seed)
    assert a.gamma == b.gamma
    c = build_blowup(h, 20, 0.3, seed + 1000)
    assert a.gamma != c.gamma


def test_blocks_match_one_matrix_draw():
    # 150 rows are two full draws of 64 rows and a partial one of 22
    s, p, seed = 150, 0.3, 5
    bg = build_blowup(Graph.path(3), s, p, seed)
    want = set()
    for x, y in bg.host.edges():
        mat = seeds.rng(seed, x, y).random((s, s)) < p
        want.update((x * s + i, y * s + j) for i, j in zip(*np.nonzero(mat)))
    assert set(bg.gamma.edges()) == want
    assert bg.gamma.edge_count == len(want)


def test_structure_invariants():
    bg = build_blowup(Graph.cycle(6), 15, 0.4, seed=3)
    bg.validate()
    g, H = bg.gamma, bg.host
    assert g.n == 6 * 15
    assert bg.part(0).to_list() == list(range(15))
    assert bg.part(5).to_list() == list(range(75, 90))
    # locality: no edges across non-host pairs, none inside parts
    for x in range(6):
        for y in range(x + 1, 6):
            d = pair_density(g, bg.part(x), bg.part(y))
            if H.has_edge(x, y):
                assert d > 0
            else:
                assert d == 0


def test_mean_edge_count_tracks_expectation():
    h = Graph.cycle(50)
    s, p = 200, 6 / math.sqrt(200)
    want = expected_edges(h, s, p)
    assert want == pytest.approx(848528.1, rel=1e-4)
    counts = [build_blowup(h, s, p, seed).gamma.edge_count for seed in SEEDS]
    assert abs(np.mean(counts) / want - 1) < 0.02
    for c in counts:
        assert abs(c / want - 1) < 0.02


def test_expected_edges_simple():
    assert expected_edges(Graph.path(2), 10, 0.5) == 50


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path):
    bg = build_blowup(Graph.cycle(4), 12, 0.35, seed=11)
    base = str(tmp_path / "blow")
    save_blowup(bg, base)
    back = load_blowup(base)
    assert back.gamma == bg.gamma
    assert back.part_size == bg.part_size
    assert back.p == bg.p
    assert back.seed == bg.seed
    assert back.host == bg.host


def test_load_detects_host_tampering(tmp_path):
    bg = build_blowup(Graph.cycle(4), 5, 0.5, seed=0)
    base = str(tmp_path / "blow")
    save_blowup(bg, base)
    # swap the host file for a different graph of the same size
    from monogrid.graphs import write_graph

    write_graph(Graph.path(4), base + ".host")
    with pytest.raises(ValueError, match="hash"):
        load_blowup(base)


def test_host_hash_distinguishes():
    assert host_hash(Graph.cycle(5)) != host_hash(Graph.path(5))
    assert host_hash(Graph.cycle(5)) == host_hash(Graph.cycle(5))
