"""Tests for the matching decomposition, the level chain, and cycle extraction."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from monogrid.blowup import build_blowup
from monogrid.config import Knobs, parse_graph_spec
from monogrid.graphs import EdgeColouring, Graph, VertexSet, colour_subgraph
from monogrid.oracle import _cycle_plan, _plan, find_cycle
from hypothesis import given, settings
from hypothesis import strategies as st

from monogrid import pipeline
from monogrid.pipeline import (
    CycleCertificate,
    MatchingDecomposition,
    PipelineFailure,
    find_mono_cycle,
    majority_colour,
    matching_decomposition,
    regular_subgraph,
)
from monogrid.regularity import (
    FindResult,
    RegParams,
    check_lower_regular,
    eps_schedule,
)
from witness import recheck_witness

SEEDS = [0, 1, 2, 7, 11, 42, 101, 2024]

F = Fraction


# ---------------------------------------------------------------------------
# matching decomposition


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def proper_edge_colouring_exists(G: Graph, k: int) -> bool:
    # straight backtracking over edges; the oracle for chromatic-index facts
    edges = list(G.edges())
    used = [set() for _ in range(G.n)]

    def go(i: int) -> bool:
        if i == len(edges):
            return True
        u, v = edges[i]
        for c in range(k):
            if c in used[u] or c in used[v]:
                continue
            used[u].add(c)
            used[v].add(c)
            if go(i + 1):
                return True
            used[u].discard(c)
            used[v].discard(c)
        return False

    return go(0)


def test_disjoint_edges_need_one_matching():
    H = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    md = matching_decomposition(H)
    assert len(md.matchings) == 1
    assert sorted(md.matchings[0]) == [(0, 1), (2, 3), (4, 5)]


def test_five_cycle_needs_three_matchings():
    # an odd cycle has no proper 2-edge-colouring; the oracle confirms it
    assert not proper_edge_colouring_exists(Graph.cycle(5), 2)
    md = matching_decomposition(Graph.cycle(5))
    assert len(md.matchings) == 3


def test_petersen_needs_four_matchings():
    G = petersen()
    assert G.edge_count == 15
    assert all(G.degree(v) == 3 for v in G.vertices())
    assert not proper_edge_colouring_exists(G, 3)
    md = matching_decomposition(G)
    assert len(md.matchings) == 4
    md.validate(G)


def test_path_decomposes_into_two():
    md = matching_decomposition(Graph.path(3))
    assert len(md.matchings) == 2


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,p", [(6, 0.3), (9, 0.5), (12, 0.8), (13, 0.95),
                                 (16, 0.6)])
def test_decomposition_on_random_graphs(seed, n, p):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    G = Graph.from_edges(n, edges)
    md = matching_decomposition(G)  # validates internally
    assert len(md.matchings) <= max(2, G.max_degree()) + 1
    assert all(md.matchings)


# sha256 prefixes of repr(matchings), computed with the per-vertex colour
# multiset implementation the colour-map-only one replaced; the counts and
# validity checks above would not notice a changed matching
@pytest.mark.parametrize("spec,seed,digest", [
    ("cycle 10", 0, "a3bc69dd763d55b3"),
    ("complete 10", 0, "41bff2c80ef1a89a"),
    ("complete 11", 0, "37cc562e90e894f2"),
    ("grid 4 5", 0, "63d29fe1e13a6096"),
    ("petersen", 0, "4f7cf0bdfffb3d90"),
    ("random-regular 20 3", 0, "34431aa50b676e8d"),
    ("random-regular 20 3", 1, "d4646692d3573585"),
    ("random-regular 20 3", 2, "ee0d5ae0224cd90c"),
    ("random-regular 30 4", 0, "5dd8898fd686ff6e"),
])
def test_decomposition_is_pinned(spec, seed, digest):
    H = petersen() if spec == "petersen" else parse_graph_spec(spec, seed)
    md = matching_decomposition(H)
    assert hashlib.sha256(repr(md.matchings).encode()).hexdigest()[:16] == digest


def test_validate_rejects_overlapping_matchings():
    H = Graph.path(3)
    bad = MatchingDecomposition([[(0, 1), (1, 2)]])
    with pytest.raises(AssertionError):
        bad.validate(H)


def test_validate_rejects_missing_edges():
    H = Graph.path(3)
    bad = MatchingDecomposition([[(0, 1)]])
    with pytest.raises(AssertionError):
        bad.validate(H)


# ---------------------------------------------------------------------------
# majority colour


def test_majority_seven_against_three():
    bg = build_blowup(Graph.path(2), 5, 1.0, seed=0)
    A = VertexSet(bg.gamma.n, [0, 1])
    B = bg.part(1)
    between = [(u, v) for u in range(2) for v in range(5, 10)]
    mapping = {e: 0 for e in bg.gamma.edges()}
    for e in between[7:]:
        mapping[e] = 1
    chi = EdgeColouring.by_edge(bg.gamma, 2, [mapping[e] for e in bg.gamma.edges()])
    assert majority_colour(chi, A, B) == 0
    for e in between:
        mapping[e] = 1
    for e in between[7:]:
        mapping[e] = 0
    chi = EdgeColouring.by_edge(bg.gamma, 2, [mapping[e] for e in bg.gamma.edges()])
    assert majority_colour(chi, A, B) == 1


def test_majority_tie_takes_lowest_colour():
    bg = build_blowup(Graph.path(2), 2, 1.0, seed=0)
    edges = list(bg.gamma.edges())
    assert len(edges) == 4
    chi = EdgeColouring.by_edge(bg.gamma, 2, [1, 1, 0, 0])
    assert majority_colour(chi, bg.part(0), bg.part(1)) == 0


def test_majority_on_empty_pair_raises():
    bg = build_blowup(Graph.path(2), 3, 1e-9, seed=0)
    assert bg.gamma.edge_count == 0
    chi = EdgeColouring.by_edge(bg.gamma, 2, [])
    with pytest.raises(ValueError):
        majority_colour(chi, bg.part(0), bg.part(1))


@pytest.mark.parametrize("seed", SEEDS)
def test_majority_class_carries_its_share(seed):
    bg = build_blowup(Graph.path(2), 6, 1.0, seed=0)
    rng = np.random.default_rng(seed)
    chi = EdgeColouring.by_edge(bg.gamma, 3,
                                [int(rng.integers(3)) for _ in bg.gamma.edges()])
    c = majority_colour(chi, bg.part(0), bg.part(1))
    counts = [0, 0, 0]
    for e in bg.gamma.edges():
        counts[chi.colour(*e)] += 1
    assert counts[c] * 3 >= sum(counts)
    assert counts[c] == max(counts)


# ---------------------------------------------------------------------------
# the level chain


def mono_params(eps, alpha, lam, p, delta) -> RegParams:
    return RegParams(r=2, max_degree=2, eps=eps, eps_inherit=eps / 4,
                     alpha=alpha, lam=lam, delta=delta, c=6.0, p=p)


def test_chain_completes_on_mono_single_edge():
    bg = build_blowup(Graph.path(2), 12, 0.9, seed=3)
    chi = EdgeColouring.constant(bg.gamma, 2, 0)
    params = mono_params(F(9, 20), F(1, 2), F(1, 2), 0.9, F(1, 10))
    sched = eps_schedule(F(9, 20), 2, F(1))
    res = regular_subgraph(bg, chi, params, sched, seed=0)
    assert res.phi.colour(0, 1) == 0
    assert sorted(res.final_sets) == [0, 1]
    assert all(len(U) == 12 for U in res.final_sets.values())
    assert len(res.edge_log) == 1
    rec = res.edge_log[0]
    assert rec.level == 1 and rec.edge == (0, 1) and rec.colour == 0
    assert rec.precondition_ok
    assert rec.verdict.passed
    # one settled edge, audited after each of the three levels
    assert len(res.audit_log) == 3
    assert all(a.verdict.passed for a in res.audit_log)
    assert all(len(chain) == 4 for chain in res.chain.chains.values())


def test_chain_shrinks_by_lowest_ids_on_complete_blowup():
    # p=1 makes every check pass and every tie-break go to the lowest id,
    # so the whole chain is a hand-computable fixture
    host = Graph.from_edges(3, [(0, 1)])
    bg = build_blowup(host, 12, 1.0, seed=0)
    chi = EdgeColouring.constant(bg.gamma, 2, 0)
    params = mono_params(F(9, 20), F(1, 2), F(1, 2), 1.0, F(1, 10))
    sched = eps_schedule(F(9, 20), 2, F(1, 2))
    res = regular_subgraph(bg, chi, params, sched, seed=0)
    assert [len(c) for c in res.chain.chains[0]] == [12, 6, 3, 2]
    assert res.final_sets[0].to_list() == [0, 1]
    assert res.final_sets[1].to_list() == [12, 13]
    # the isolated host vertex shrinks by lowest ids at every level
    assert res.final_sets[2].to_list() == [24, 25]
    assert len(res.audit_log) == 3


def test_chain_on_path_host_audits_inherited_pairs():
    bg = build_blowup(Graph.path(3), 12, 0.9, seed=5)
    chi = EdgeColouring.constant(bg.gamma, 2, 0)
    params = mono_params(F(9, 20), F(1, 2), F(1, 2), 0.9, F(1, 10))
    sched = eps_schedule(F(9, 20), 2, F(1))
    res = regular_subgraph(bg, chi, params, sched, seed=0)
    md = res.decomposition
    assert len(res.edge_log) == 2
    for rec in res.edge_log:
        assert rec.edge in md.matchings[rec.level - 1]
    # 1 settled edge after level 1, 2 after levels 2 and 3
    assert len(res.audit_log) == 1 + 2 + 2
    assert all(a.verdict.passed for a in res.audit_log)
    # independent recheck of the promised invariant: every host edge's final
    # pair passes at (eps, alpha p) in its assigned colour
    for u, v in bg.host.edges():
        G_c = colour_subgraph(bg.gamma, chi, res.phi.colour(u, v))
        verdict = check_lower_regular(
            G_c, res.final_sets[u], res.final_sets[v], params.eps,
            params.alpha * F(params.p), 32, 99,
        )
        assert verdict.passed


def test_chain_reports_search_failure_with_witness():
    bg = build_blowup(Graph.path(2), 20, 0.3, seed=1)
    rng = np.random.default_rng(7)
    chi = EdgeColouring.by_edge(bg.gamma, 2,
                                [int(rng.integers(2)) for _ in bg.gamma.edges()])
    params = mono_params(F(1, 64), F(1, 4), F(1, 2), 0.3, F(1, 300))
    sched = eps_schedule(F(1, 64), 2, F(1))
    with pytest.raises(PipelineFailure) as info:
        regular_subgraph(bg, chi, params, sched, seed=0,
                         knobs=Knobs(find_budget=40, check_trials=8))
    err = info.value
    assert err.stage == "regular-pair-search"
    assert err.level == 1
    assert err.edge == (0, 1)
    assert isinstance(err.detail, FindResult)
    assert not err.detail.passed
    # the carried witness must survive an exact, independent recheck
    c = majority_colour(chi, bg.part(0), bg.part(1))
    G_c = colour_subgraph(bg.gamma, chi, c)
    U1, U2 = err.detail.pair
    assert recheck_witness(G_c, U1, U2, F(1, 64), err.detail.verdict)


def test_chain_rejects_pair_below_majority_density():
    bg = build_blowup(Graph.path(2), 20, 0.3, seed=1)
    rng = np.random.default_rng(7)
    chi = EdgeColouring.by_edge(bg.gamma, 2,
                                [int(rng.integers(2)) for _ in bg.gamma.edges()])
    params = mono_params(F(1, 64), F(4, 5), F(1, 2), 0.3, F(1, 300))
    sched = eps_schedule(F(1, 64), 2, F(1))
    with pytest.raises(PipelineFailure) as info:
        regular_subgraph(bg, chi, params, sched, seed=0)
    assert info.value.stage == "majority-density"
    assert info.value.level == 1
    assert info.value.detail == "pair is too sparse for the density-increment search"


def test_chain_lets_other_search_errors_through(monkeypatch):
    # only the density precondition is a majority-density failure
    def broken(*args, **kwargs):
        raise ValueError("injected search error")

    monkeypatch.setattr(pipeline, "find_lower_regular_pair", broken)
    bg = build_blowup(Graph.path(2), 12, 0.9, seed=3)
    chi = EdgeColouring.constant(bg.gamma, 2, 0)
    params = mono_params(F(9, 20), F(1, 2), F(1, 2), 0.9, F(1, 10))
    sched = eps_schedule(F(9, 20), 2, F(1))
    with pytest.raises(ValueError, match="injected search error"):
        regular_subgraph(bg, chi, params, sched, seed=0)


def test_chain_rejects_mismatched_schedule():
    bg = build_blowup(Graph.path(2), 6, 0.9, seed=0)
    chi = EdgeColouring.constant(bg.gamma, 2, 0)
    params = mono_params(F(9, 20), F(1, 2), F(1, 2), 0.9, F(1, 10))
    sched = eps_schedule(F(9, 20), 3, F(1))  # 4 levels
    with pytest.raises(ValueError):
        regular_subgraph(bg, chi, params, sched, seed=0)


def test_chain_flags_density_precondition_miss():
    # the blow-up is far denser than the declared p, so the recorded
    # uniformity precondition fails while the run still completes
    bg = build_blowup(Graph.path(2), 12, 0.9, seed=2)
    chi = EdgeColouring.constant(bg.gamma, 2, 0)
    params = mono_params(F(9, 20), F(1, 4), F(1, 4), 0.5, F(1, 20))
    sched = eps_schedule(F(9, 20), 2, F(1))
    res = regular_subgraph(bg, chi, params, sched, seed=0)
    assert not res.edge_log[0].precondition_ok
    assert res.phi.colour(0, 1) == 0


def test_chain_is_deterministic():
    bg = build_blowup(Graph.path(3), 12, 0.9, seed=5)
    chi = EdgeColouring.constant(bg.gamma, 2, 0)
    params = mono_params(F(9, 20), F(1, 2), F(1, 2), 0.9, F(1, 10))
    sched = eps_schedule(F(9, 20), 2, F(1))
    one = regular_subgraph(bg, chi, params, sched, seed=9)
    two = regular_subgraph(bg, chi, params, sched, seed=9)
    assert one.to_json() == two.to_json()


def test_result_json_shape():
    bg = build_blowup(Graph.path(2), 12, 0.9, seed=3)
    chi = EdgeColouring.constant(bg.gamma, 2, 0)
    params = mono_params(F(9, 20), F(1, 2), F(1, 2), 0.9, F(1, 10))
    sched = eps_schedule(F(9, 20), 2, F(1))
    res = regular_subgraph(bg, chi, params, sched, seed=0)
    blob = res.to_json()
    assert blob["phi"] == [[0, 1, 0]]
    assert sorted(blob) == ["audits", "edges", "final_sets", "matchings", "phi"]
    assert blob["final_sets"]["0"] == res.final_sets[0].to_list()


# ---------------------------------------------------------------------------
# monochromatic cycles


def test_mono_cycle_on_constant_colouring_takes_the_longest():
    H = Graph.cycle(10)
    phi = EdgeColouring.constant(H, 2, 0)
    cert = find_mono_cycle(H, phi, 3, 10)
    assert cert is not None
    assert len(cert.vertices) == 10
    cert.validate(H, phi, 3, 10)


def test_mono_cycle_prefers_longer_lengths():
    H = Graph.complete(4)
    phi = EdgeColouring.constant(H, 2, 0)
    cert = find_mono_cycle(H, phi, 3, 4)
    assert cert is not None and len(cert.vertices) == 4


def test_mono_cycle_absent_under_alternating_colouring():
    H = Graph.cycle(10)
    # edge (i, i + 1) in colour i % 2, and (0, 9) in colour 1
    phi = EdgeColouring.by_edge(H, 2, [u % 2 if v == u + 1 else 1 for u, v in H.edges()])
    assert find_mono_cycle(H, phi, 3, 10) is None


def test_mono_cycle_scans_both_colours():
    # a red triangle and a blue square in one host
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]
    H = Graph.from_edges(7, edges)
    phi = EdgeColouring.by_edge(H, 2, [1 if u < 3 else 0 for u, _ in H.edges()])
    four = find_mono_cycle(H, phi, 3, 4)
    assert four is not None and four.colour == 0 and len(four.vertices) == 4
    three = find_mono_cycle(H, phi, 3, 3)
    assert three is not None and three.colour == 1 and len(three.vertices) == 3


def test_every_two_colouring_of_k5_has_a_short_mono_cycle():
    # brute force over all 1024 colourings; each certificate is re-validated
    H = Graph.complete(5)
    for code in range(1 << 10):
        phi = EdgeColouring.by_edge(H, 2, [(code >> i) & 1 for i in range(10)])
        cert = find_mono_cycle(H, phi, 3, 5)
        assert cert is not None, f"no mono cycle under colouring {code}"
        cert.validate(H, phi, 3, 5)


def test_mono_cycle_budget_exhaustion_returns_none():
    H = Graph.complete(5)
    phi = EdgeColouring.constant(H, 2, 0)
    assert find_mono_cycle(H, phi, 3, 5, budget=0) is None


def test_mono_cycle_as_long_as_a_1500_vertex_host():
    H = Graph.cycle(1500)
    phi = EdgeColouring.constant(H, 2, 0)
    cert = find_mono_cycle(H, phi, 1500, 1500)
    assert cert is not None
    assert cert.colour == 0 and cert.vertices == list(range(1500))


def _reference_cycle_of_length(G: Graph, ell: int):
    """Recursive form of the plain cycle search: each start in ascending
    order, a path that pins it as the least vertex, ascending neighbours."""

    def extend(start, path, on_path):
        if len(path) == ell:
            return list(path) if G.has_edge(path[-1], start) else None
        for w in G.neighbours(path[-1]):
            if w <= start or (on_path >> w) & 1:
                continue
            got = extend(start, path + [w], on_path | (1 << w))
            if got is not None:
                return got
        return None

    for start in G.vertices():
        if G.degree(start) < 2:
            continue
        found = extend(start, [start], 1 << start)
        if found is not None:
            return found
    return None


def test_cycle_plan_matches_the_general_plan():
    for ell in range(3, 151):
        assert _cycle_plan(ell) == _plan(Graph.cycle(ell), list(range(ell)))


def _edge_sets(n):
    return st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                   .filter(lambda e: e[0] != e[1]))


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 10).flatmap(lambda n: st.tuples(
    st.just(n), _edge_sets(n), _edge_sets(n),
    st.integers(3, n).flatmap(lambda hi: st.tuples(st.integers(3, hi), st.just(hi))),
)))
def test_cycle_search_matches_recursive_reference(case):
    n, red, blue, (lo, hi) = case
    classes = [Graph.from_edges(n, red), Graph.from_edges(n, blue)]
    lengths = range(hi, lo - 1, -1)
    found, nodes = find_cycle(classes, lengths, None)
    want = next(((c, got) for ell in lengths for c, G in enumerate(classes)
                 if (got := _reference_cycle_of_length(G, ell)) is not None), None)
    assert found == want
    # a budget of `nodes` lets the whole scan through; one less stops it at
    # its last placement, and the count then passes the budget
    assert find_cycle(classes, lengths, nodes) == (found, nodes)
    if nodes:
        assert find_cycle(classes, lengths, nodes - 1) == (None, nodes)


def _colourings(H: Graph):
    """The two constant 2-colourings of H, then ten uniform seeded ones."""
    yield np.zeros(H.edge_count, dtype=int)
    yield np.ones(H.edge_count, dtype=int)
    for seed in range(10):
        yield np.random.default_rng(seed).integers(0, 2, H.edge_count)


# sha256 prefixes of repr([(colour, vertices) or None, ...]) over
# `_colourings`, computed with the cycle search's own depth-first walk that
# the oracle's forward-checking search replaced; the validity checks above
# would not notice another cycle of the same length
@pytest.mark.parametrize("spec,l_min,l_max,digest", [
    ("cycle 10", 3, 10, "db618b2850a221c0"),
    ("cycle 10", 10, 10, "db618b2850a221c0"),
    ("cycle 80", 3, 80, "54aff64cdd13a95a"),
    ("cycle 80", 10, 10, "6a1031603bf8193f"),
    ("complete 10", 3, 10, "347f67c6ff863412"),
    ("complete 10", 10, 10, "8f015f4a57ccd316"),
    ("complete 11", 3, 11, "7903005da2329512"),
    ("complete 11", 10, 10, "55451ce8960df389"),
    ("random-regular 20 3", 3, 20, "4e130e62195b3f7b"),
    ("random-regular 20 3", 10, 10, "29b978971129359c"),
    ("grid 5 6", 3, 30, "0e1c7ce435e762c5"),
    ("grid 5 6", 10, 10, "0aacc758aef1d3e6"),
])
def test_mono_cycles_are_pinned(spec, l_min, l_max, digest):
    H = parse_graph_spec(spec, 0)
    certs = []
    for colours in _colourings(H):
        cert = find_mono_cycle(H, EdgeColouring.by_edge(H, 2, colours), l_min, l_max)
        certs.append(None if cert is None else (cert.colour, cert.vertices))
    assert hashlib.sha256(repr(certs).encode()).hexdigest()[:16] == digest


def test_mono_cycle_budget_covers_the_whole_scan():
    # seed 4's colouring: colour 0 holds no 10-cycle, and the search spends
    # thousands of placements showing it before colour 1's is found
    H = parse_graph_spec("complete 10", 0)
    phi = EdgeColouring.by_edge(H, 2, list(_colourings(H))[6])
    red, blue = (colour_subgraph(H, phi, c) for c in range(2))
    assert find_cycle([red], range(10, 9, -1), None)[0] is None
    assert find_cycle([blue], range(10, 9, -1), None)[0] is not None
    _, total = find_cycle([red, blue], range(10, 9, -1), None)
    cert = find_mono_cycle(H, phi, 10, 10, budget=total)
    assert cert is not None and cert.colour == 1
    assert find_mono_cycle(H, phi, 10, 10, budget=total - 1) is None


def test_mono_cycle_range_validation():
    H = Graph.cycle(5)
    phi = EdgeColouring.constant(H, 2, 0)
    for lo, hi in [(2, 4), (4, 3), (3, 6)]:
        with pytest.raises(ValueError):
            find_mono_cycle(H, phi, lo, hi)


def test_certificate_validation_catches_tampering():
    H = Graph.complete(5)
    phi = EdgeColouring.constant(H, 2, 0)
    good = CycleCertificate(0, [0, 1, 2])
    good.validate(H, phi, 3, 5)
    with pytest.raises(AssertionError):
        CycleCertificate(0, [0, 1, 1]).validate(H, phi, 3, 5)
    with pytest.raises(AssertionError):
        CycleCertificate(0, [0, 1, 2]).validate(H, phi, 4, 5)
    with pytest.raises(AssertionError):
        CycleCertificate(1, [0, 1, 2]).validate(H, phi, 3, 5)
    C5 = Graph.cycle(5)
    phi5 = EdgeColouring.constant(C5, 2, 0)
    with pytest.raises(AssertionError):
        CycleCertificate(0, [0, 1, 3]).validate(C5, phi5, 3, 5)
