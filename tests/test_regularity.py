"""Lower-regularity checks, slicing, density-increment search, schedules, bad sets."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogrid import seeds

from monogrid.blowup import build_blowup
from monogrid.config import load_config
from monogrid.graphs import Graph, VertexSet, pair_density
from monogrid.regularity import (
    BadSetError,
    EXACT,
    EXACT_CAP,
    RegParams,
    RegVerdict,
    SAMPLED,
    check_lower_regular,
    compute_bad_set,
    eps_schedule,
    exact_lower_regular,
    find_lower_regular_pair,
    sampled_lower_regular,
)
from witness import recheck_witness

SEEDS = [0, 1, 2, 3, 4, 5, 6, 7]


def bipartite(na, nb, p, seed):
    """Random bipartite graph on universe na+nb; left 0..na-1, right na..na+nb-1."""
    rng = np.random.default_rng(seed)
    edges = [
        (a, na + b) for a in range(na) for b in range(nb) if rng.random() < p
    ]
    g = Graph.from_edges(na + nb, edges)
    return g, VertexSet(g.n, range(na)), VertexSet(
        g.n, range(na, na + nb)
    )


def complete_pair(na, nb):
    edges = [(a, na + b) for a in range(na) for b in range(nb)]
    g = Graph.from_edges(na + nb, edges)
    return g, VertexSet(g.n, range(na)), VertexSet(
        g.n, range(na, na + nb)
    )


def isolated_vertex_pair(n=8):
    """Complete bipartite n+n except one left vertex has no edges at all."""
    edges = [(a, n + b) for a in range(1, n) for b in range(n)]
    g = Graph.from_edges(2 * n, edges)
    return g, VertexSet(g.n, range(n)), VertexSet(
        g.n, range(n, 2 * n)
    )


def brute_force_lower_regular(G, A, B, eps, p):
    """Reference: every subset pair at >= eps fraction, all sizes, no shortcuts."""
    eps = Fraction(eps)
    threshold = (1 - eps) * Fraction(p)
    a_ids, b_ids = A.to_list(), B.to_list()
    na, nb = len(a_ids), len(b_ids)
    # cross adjacency in local indices
    local = [[1 if G.has_edge(a, b) else 0 for b in b_ids] for a in a_ids]
    rows = [sum(bit << j for j, bit in enumerate(row)) for row in local]
    for mask1 in range(1, 1 << na):
        c1 = mask1.bit_count()
        if c1 < eps * na:
            continue
        members = [i for i in range(na) if mask1 >> i & 1]
        for mask2 in range(1, 1 << nb):
            c2 = mask2.bit_count()
            if c2 < eps * nb:
                continue
            e = sum((rows[i] & mask2).bit_count() for i in members)
            if Fraction(e, c1 * c2) < threshold:
                return False
    return True


# ---------------------------------------------------------------------------
# RegParams


def test_default_parameters_two_colours():
    params = load_config(preset="paper-s3", sets=("host=cycle 10", "s=144")).params
    assert params.alpha == Fraction(1, 4)
    assert params.eps == Fraction(1, 1024)
    assert params.eps_inherit == Fraction(1, 4096)
    assert params.delta == min(Fraction(1, 40), params.eps / 4, Fraction(1, 16))
    assert params.p == pytest.approx(0.5)


def test_params_validation():
    good = load_config(preset="paper-s3",
                       sets=("host=cycle 4", "s=100", "lam=1/2")).params
    with pytest.raises(ValueError):
        RegParams(**{**good.__dict__, "lam": Fraction(3, 2)})
    with pytest.raises(ValueError):
        RegParams(**{**good.__dict__, "eps": Fraction(3, 4)})
    with pytest.raises(ValueError):
        RegParams(**{**good.__dict__, "delta": Fraction(1, 2)})


# ---------------------------------------------------------------------------
# exact check


def test_exact_complete_pair_passes():
    g, A, B = complete_pair(6, 6)
    for eps in (Fraction(1, 4), Fraction(1, 2)):
        v = exact_lower_regular(g, A, B, eps, 1)
        assert v.passed and v.mode == EXACT


def test_exact_edgeless_fails_with_half_witness():
    g = Graph.from_edges(8, [])
    A = VertexSet(8, range(4))
    B = VertexSet(8, range(4, 8))
    v = exact_lower_regular(g, A, B, Fraction(1, 2), Fraction(1, 2))
    assert not v.passed
    U1, U2 = v.witness
    assert U1.size == 2 and U2.size == 2
    assert v.witness_density == 0
    assert recheck_witness(g, A, B, Fraction(1, 2), v)


def test_exact_isolated_vertex_instance():
    g, A, B = isolated_vertex_pair(8)
    v = exact_lower_regular(g, A, B, Fraction(1, 4), 1)
    assert not v.passed
    assert v.witness_density == Fraction(1, 2)
    assert 0 in v.witness[0]  # the isolated vertex is in the witness
    assert recheck_witness(g, A, B, Fraction(1, 4), v)
    # and the dense complement genuinely is regular
    g2, A2, B2 = complete_pair(8, 8)
    assert exact_lower_regular(g2, A2, B2, Fraction(1, 4), 1).passed


def test_exact_cap_refusal():
    g, A, B = complete_pair(17, 5)
    with pytest.raises(ValueError, match="sampled"):
        exact_lower_regular(g, A, B, Fraction(1, 4), 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_size_reduction_soundness(seed):
    # enumerating only exact-size subsets must agree with enumerating all
    # subset pairs at >= eps fraction
    rng = np.random.default_rng(seed)
    na = int(rng.integers(4, 9))
    nb = int(rng.integers(4, 9))
    g, A, B = bipartite(na, nb, float(rng.uniform(0.2, 0.9)), seed + 50)
    for eps, p in ((Fraction(1, 4), Fraction(1, 2)), (Fraction(2, 5), Fraction(3, 4))):
        verdict = exact_lower_regular(g, A, B, eps, p)
        assert verdict.passed == brute_force_lower_regular(g, A, B, eps, p)
        if not verdict.passed:
            assert recheck_witness(g, A, B, eps, verdict)


# ---------------------------------------------------------------------------
# sampled check


def test_sampled_edgeless_fails():
    g = Graph.from_edges(40, [])
    A = VertexSet(40, range(20))
    B = VertexSet(40, range(20, 40))
    v = sampled_lower_regular(g, A, B, Fraction(1, 4), Fraction(1, 2), trials=1,
                              seed=0)
    assert not v.passed and v.mode == SAMPLED
    assert recheck_witness(g, A, B, Fraction(1, 4), v)


def test_sampled_complete_passes():
    g, A, B = complete_pair(20, 20)
    v = sampled_lower_regular(g, A, B, Fraction(1, 4), 1, trials=50, seed=1)
    assert v.passed
    assert v.trials == 50


def test_sampled_zero_trials_rejected():
    g, A, B = complete_pair(4, 4)
    with pytest.raises(ValueError):
        sampled_lower_regular(g, A, B, Fraction(1, 4), 1, trials=0, seed=0)


@pytest.mark.parametrize("seed", range(20))
def test_sampled_peeling_finds_isolated_vertex(seed):
    # the biased half peels low-degree vertices, so the planted isolated
    # vertex surfaces essentially always at 500 trials
    g, A, B = isolated_vertex_pair(8)
    v = sampled_lower_regular(g, A, B, Fraction(1, 4), 1, trials=500, seed=seed)
    assert not v.passed
    assert recheck_witness(g, A, B, Fraction(1, 4), v)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_sampled_witnesses_recheck(seed):
    g, A, B = bipartite(30, 30, 0.15, seed)
    v = sampled_lower_regular(g, A, B, Fraction(1, 3), 0.5, trials=40, seed=seed)
    if not v.passed:
        assert recheck_witness(g, A, B, Fraction(1, 3), v)


def test_check_dispatches_on_size():
    g, A, B = complete_pair(10, 10)
    assert check_lower_regular(g, A, B, Fraction(1, 4), 1, 10, 0).mode == EXACT
    g2, A2, B2 = complete_pair(20, 20)
    assert check_lower_regular(g2, A2, B2, Fraction(1, 4), 1, 10, 0).mode == SAMPLED


# ---------------------------------------------------------------------------
# slicing


def test_slicing_matches_schedule_recurrence():
    sched = eps_schedule(Fraction(1, 5), 3, Fraction(1, 4))
    for i in range(1, len(sched)):
        eps_i, _ = sched.levels[i - 1]
        lam_next = sched.lam_at(i + 1)
        assert eps_i / lam_next == sched.eps_at(i + 1)


def all_subsets_at_fraction(ids, frac):
    import itertools

    k_min = math.ceil(Fraction(frac) * len(ids))
    for k in range(k_min, len(ids) + 1):
        yield from itertools.combinations(ids, k)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_slicing_invariant_exhaustive_small(seed):
    # a pair passing exactly at (eps, p) must have every delta-fraction
    # sub-pair passing at (eps/delta, p); zero counterexamples allowed
    eps, delta = Fraction(1, 4), Fraction(1, 2)
    g, A, B = bipartite(6, 6, 0.85, seed)
    if not exact_lower_regular(g, A, B, eps, Fraction(1, 2)).passed:
        pytest.skip("pair not regular at the base level")
    for sub_a in all_subsets_at_fraction(A.to_list(), delta):
        for sub_b in all_subsets_at_fraction(B.to_list(), delta):
            SA = VertexSet(g.n, sub_a)
            SB = VertexSet(g.n, sub_b)
            v = exact_lower_regular(g, SA, SB, eps / delta,
                                    Fraction(1, 2))
            assert v.passed, (sub_a, sub_b)


@pytest.mark.parametrize("seed", SEEDS)
def test_slicing_invariant_sampled_eight(seed):
    eps, delta = Fraction(1, 2), Fraction(3, 4)
    g, A, B = bipartite(8, 8, 0.9, seed + 30)
    assert exact_lower_regular(g, A, B, eps, Fraction(1, 2)).passed
    rng = np.random.default_rng(seed)
    size_floor = math.ceil(delta * 8)
    for _ in range(200):
        ka = int(rng.integers(size_floor, 9))
        kb = int(rng.integers(size_floor, 9))
        SA = A.sample(ka, rng)
        SB = B.sample(kb, rng)
        v = exact_lower_regular(g, SA, SB, eps / delta,
                                Fraction(1, 2))
        assert v.passed


@pytest.mark.parametrize("seed", SEEDS)
def test_monotonicity_in_eps(seed):
    g, A, B = bipartite(8, 8, 0.8, seed + 300)
    base = Fraction(1, 2)
    assert exact_lower_regular(g, A, B, base, Fraction(1, 2)).passed
    for eps2 in (Fraction(5, 8), Fraction(3, 4), Fraction(1)):
        assert exact_lower_regular(g, A, B, eps2, Fraction(1, 2)).passed


# ---------------------------------------------------------------------------
# density-increment search


def test_find_on_complete_pair():
    g, A, B = complete_pair(12, 12)
    out = find_lower_regular_pair(g, A, B, Fraction(1, 4), Fraction(1, 4), 1,
                                  Fraction(1, 2), budget=200, seed=0,
                                  check_trials=64, cap=EXACT_CAP)
    assert out.passed
    U1, U2 = out.pair
    assert U1.size == U2.size == 6
    assert exact_lower_regular(g, U1, U2, Fraction(1, 4), Fraction(1, 4)).passed


def test_find_lands_in_dense_block():
    # complete between the first halves of each side, empty elsewhere
    n = 8
    edges = [(a, n + b) for a in range(4) for b in range(4)]
    g = Graph.from_edges(2 * n, edges)
    A = VertexSet(g.n, range(n))
    B = VertexSet(g.n, range(n, 2 * n))
    out = find_lower_regular_pair(g, A, B, Fraction(1, 4), Fraction(1, 4), 1,
                                  Fraction(1, 4), budget=200, seed=0,
                                  check_trials=64, cap=EXACT_CAP)
    assert out.passed
    U1, U2 = out.pair
    assert U1.size == U2.size == 2
    block_a = VertexSet(g.n, range(4))
    block_b = VertexSet(g.n, range(n, n + 4))
    assert (U1 & block_a) == U1
    assert (U2 & block_b) == U2
    assert exact_lower_regular(g, U1, U2, Fraction(1, 4), Fraction(1, 4)).passed


@pytest.mark.parametrize("seed", SEEDS)
def test_find_outputs_pass_exact_at_fourteen(seed):
    g, A, B = bipartite(14, 14, 0.5, seed + 7000)
    out = find_lower_regular_pair(g, A, B, Fraction(3, 10), Fraction(1, 4), 0.5,
                                  Fraction(1, 2), budget=200, seed=seed,
                                  check_trials=64, cap=EXACT_CAP)
    assert out.passed, f"seed {seed}: no regular pair found"
    U1, U2 = out.pair
    assert U1.size == U2.size == 7
    assert exact_lower_regular(
        g, U1, U2, Fraction(3, 10), Fraction(1, 4) * Fraction(1, 2)
    ).passed


def test_find_requires_dense_pair():
    g = Graph.from_edges(8, [])
    A = VertexSet(8, range(4))
    B = VertexSet(8, range(4, 8))
    with pytest.raises(ValueError, match="sparse"):
        find_lower_regular_pair(g, A, B, Fraction(1, 4), Fraction(1, 4), 1,
                                Fraction(1, 2), budget=200, seed=0,
                                check_trials=64, cap=EXACT_CAP)


def test_find_rejects_empty_budget():
    g, A, B = bipartite(8, 8, 1.0, 0)
    with pytest.raises(ValueError, match="budget"):
        find_lower_regular_pair(g, A, B, Fraction(1, 4), Fraction(1, 2), 1,
                                Fraction(1, 2), budget=0, seed=0,
                                check_trials=64, cap=EXACT_CAP)


def test_find_failure_carries_best_pair():
    g, A, B = isolated_vertex_pair(8)
    out = find_lower_regular_pair(g, A, B, Fraction(1, 4), Fraction(4, 5), 1,
                                  1, budget=7, seed=0, check_trials=64,
                                  cap=EXACT_CAP)
    assert not out.passed
    assert out.checks_used <= 7
    U1, U2 = out.pair
    assert U1.size == U2.size == 8
    assert out.verdict.witness is not None
    assert recheck_witness(g, U1, U2, Fraction(1, 4), out.verdict)


def test_find_is_deterministic():
    g, A, B = bipartite(14, 14, 0.5, 123)
    a, b = (find_lower_regular_pair(g, A, B, Fraction(3, 10), Fraction(1, 4), 0.5,
                                    Fraction(1, 2), budget=200, seed=9,
                                    check_trials=64, cap=EXACT_CAP)
            for _ in range(2))
    assert a.pair == b.pair and a.checks_used == b.checks_used


# ---------------------------------------------------------------------------
# schedule


def test_schedule_halving_example():
    sched = eps_schedule(Fraction(1, 5), 2, Fraction(1, 2))
    eps_values = [lvl[0] for lvl in sched.levels]
    assert eps_values == [Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)]
    assert [lvl[1] for lvl in sched.levels] == [Fraction(1, 2)] * 3


def test_schedule_identity_rule():
    sched = eps_schedule(Fraction(1, 5), 2, Fraction(1))
    assert all(lvl[0] == Fraction(1, 5) for lvl in sched.levels)


def test_schedule_quarter_rule_deep():
    sched = eps_schedule(Fraction(1, 1024), 4, Fraction(1, 4))
    assert len(sched) == 5
    assert sched.eps_at(5) == Fraction(1, 1024)
    assert sched.eps_at(1) == Fraction(1, 1024) / 256


def test_schedule_rejects_bad_rule():
    with pytest.raises(ValueError):
        eps_schedule(Fraction(1, 5), 2, Fraction(2))
    with pytest.raises(ValueError):
        eps_schedule(Fraction(2, 3), 2, Fraction(1, 4))


# ---------------------------------------------------------------------------
# bad sets


def triangle_blowup(s, p, seed):
    return build_blowup(Graph.cycle(3), s, p, seed)


def test_bad_set_empty_on_complete():
    bg = triangle_blowup(12, 1.0, 0)
    B = compute_bad_set(bg.gamma, bg.gamma, bg.part(0), bg.part(1), bg.part(2),
                        Fraction(1, 4), Fraction(1, 2), 1.0, draws=2, seed=0)
    assert B.size == 0


def test_bad_set_catches_stripped_vertex():
    bg = triangle_blowup(40, 0.6, 1)
    victim = next(iter(bg.part(2)))
    part0 = bg.part(0)
    damaged = Graph.from_edges(bg.gamma.n, [
        (u, v) for u, v in bg.gamma.edges()
        if not (victim in (u, v) and (u in part0 or v in part0))])
    B = compute_bad_set(damaged, damaged, bg.part(0), bg.part(1),
                        bg.part(2), Fraction(9, 20), Fraction(1, 2), 0.6,
                        draws=2, seed=3)
    assert victim in B


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bad_set_small_on_cooperative_run(seed):
    bg = triangle_blowup(40, 0.6, seed)
    B = compute_bad_set(bg.gamma, bg.gamma, bg.part(0), bg.part(1), bg.part(2),
                        Fraction(9, 20), Fraction(1, 2), 0.6, draws=2, seed=seed)
    assert B.size <= 8
    assert (B & bg.part(2)) == B


def test_bad_set_allowance_breach_raises():
    bg = triangle_blowup(40, 0.15, 2)
    with pytest.raises(BadSetError) as err:
        compute_bad_set(bg.gamma, bg.gamma, bg.part(0), bg.part(1), bg.part(2),
                        Fraction(9, 20), Fraction(1, 2), 0.15, draws=2, seed=0)
    assert err.value.bad.size > err.value.limit


def test_bad_set_rejects_zero_draws():
    bg = triangle_blowup(10, 0.5, 0)
    with pytest.raises(ValueError):
        compute_bad_set(bg.gamma, bg.gamma, bg.part(0), bg.part(1), bg.part(2),
                        Fraction(1, 4), Fraction(1, 2), 0.5, draws=0, seed=0)


def test_exact_checks_condemn_drawn_neighbourhoods_at_desk_density():
    # Why the audit samples: at desk density an audit draws 14-vertex
    # neighbourhoods, and minimum subset densities concentrate only for
    # subsets far larger than those, so an exact check of a drawn
    # (N_v, N_w) pair fails, and an exact audit would condemn every vertex.
    s, p, eps, alpha = 300, 0.35, Fraction(1, 4), Fraction(1, 2)
    bg = triangle_blowup(s, p, 0)
    size = math.ceil(alpha * Fraction(p) * s / 4)
    assert size == 14
    rng = seeds.rng(0)
    for _ in range(5):
        v, w = bg.part(2).sample(2, rng).to_list()
        Nv = (bg.gamma.neighbours(v) & bg.part(0)).sample(size, rng)
        Nw = (bg.gamma.neighbours(w) & bg.part(1)).sample(size, rng)
        verdict = exact_lower_regular(bg.gamma, Nv, Nw, eps, alpha * Fraction(p))
        assert verdict.mode == EXACT
        assert recheck_witness(bg.gamma, Nv, Nw, eps, verdict)


# ---------------------------------------------------------------------------
# verdict serialization


def test_verdict_round_trips_to_json():
    g, A, B = isolated_vertex_pair(8)
    v = exact_lower_regular(g, A, B, Fraction(1, 4), 1)
    js = v.to_json()
    assert js["mode"] == "exact" and js["passed"] is False
    assert js["witness"]["density_exact"] == "1/2"
    assert set(js["witness"]["left"]) == set(v.witness[0].to_list())


# ---------------------------------------------------------------------------
# the id-array trial loop against the set-based checks it replaced
#
# The references below are the earlier `sampled_lower_regular` and
# `compute_bad_set`: every subset a VertexSet, every density a Fraction.
# They read `Graph.row` directly, so they share no edge count with the code
# under test.


def _bits(S):
    """The members of S as an int bitmask."""
    return sum(1 << v for v in S)


def _ref_density(G, U1, U2):
    return Fraction(sum((G.row(u) & _bits(U2)).bit_count() for u in U1),
                    len(U1) * len(U2))


def _ref_sample(S, k, rng):
    ids = S.to_list()
    picked = rng.choice(len(ids), size=k, replace=False)
    return VertexSet(S.n, [ids[int(i)] for i in picked])


def _ref_lowest_by_degree(G, pool, into, k):
    mask = _bits(into)
    return [v for _, v in sorted(((G.row(v) & mask).bit_count(), v)
                                 for v in pool)[:k]]


def _ref_sampled(G, A, B, eps, p, trials, seed):
    eps = Fraction(eps)
    threshold = (1 - eps) * Fraction(p)
    k1 = max(1, math.ceil(eps * len(A)))
    k2 = max(1, math.ceil(eps * len(B)))
    a_ids, b_ids = A.to_list(), B.to_list()
    rng = seeds.rng(seed)
    biased = trials // 2
    pool1 = _ref_lowest_by_degree(G, a_ids, B, min(2 * k1, len(a_ids))) if biased else ()
    for t in range(trials):
        if t < biased:
            pick1 = rng.choice(len(pool1), size=k1, replace=False)
            U1 = VertexSet(G.n, [pool1[int(i)] for i in pick1])
            pool2 = _ref_lowest_by_degree(G, b_ids, U1, min(2 * k2, len(b_ids)))
            pick2 = rng.choice(len(pool2), size=k2, replace=False)
            U2 = VertexSet(G.n, [pool2[int(i)] for i in pick2])
        else:
            U1 = _ref_sample(A, k1, rng)
            U2 = _ref_sample(B, k2, rng)
        d = _ref_density(G, U1, U2)
        if d < threshold:
            return RegVerdict(SAMPLED, False, threshold, (U1, U2), d, trials)
    return RegVerdict(SAMPLED, True, threshold, trials=trials)


def _ref_floyd(rng, n, k, rows):
    """Floyd's algorithm for `rows` k-subsets of range(n) (n an int, or an int
    array with one per row), a step at a time over all rows, as the audit
    draws; each row's picks ascending."""
    picked = [[] for _ in range(rows)]
    for step in range(k):
        top = n - k + step
        tops = [top] * rows if isinstance(top, int) else top.tolist()
        for row, t, j in zip(picked, rng.integers(0, top + 1, size=rows).tolist(), tops):
            row.append(j if t in row else t)
    return [sorted(row) for row in picked]


def _ref_bad_set(gamma, G_c, V1, V2, ambient, eps, alpha, p, draws, seed):
    """The audit of `compute_bad_set`: the same stream drawn in the same order,
    with every one-trial sampled check judged by `Graph.row` and `Fraction`
    densities."""
    eps = Fraction(eps)
    effective_p = Fraction(alpha) * Fraction(p)
    threshold = (1 - eps) * effective_p
    size = math.ceil(effective_p * len(V1) / 4)
    k_drawn = max(1, math.ceil(eps * size))
    k_v2 = max(1, math.ceil(eps * len(V2)))
    amb_ids = ambient.to_list()
    hoods1 = {v: (gamma.neighbours(v) & V1).to_list() for v in amb_ids}
    hoods2 = {v: (gamma.neighbours(v) & V2).to_list() for v in amb_ids}
    rows = [(v, d) for v in amb_ids if len(hoods1[v]) >= size for d in range(draws)]
    rng = seeds.rng(seed)
    failed = set()

    def check(pairs, n2, k2):
        """Judge the checks of (N_v, U) for each row r and n2-set U of pairs."""
        picks1 = _ref_floyd(rng, size, k_drawn, len(pairs))
        picks2 = _ref_floyd(rng, n2, k2, len(pairs))
        for (r, U), p1, p2 in zip(pairs, picks1, picks2):
            members1, members2 = Nv[r].to_list(), U.to_list()
            U1 = VertexSet(G_c.n, [members1[i] for i in p1])
            U2 = VertexSet(G_c.n, [members2[i] for i in p2])
            if _ref_density(G_c, U1, U2) < threshold:
                failed.add(r)

    Nv = [VertexSet(G_c.n, [hoods1[v][i] for i in picks]) for (v, _), picks in zip(
        rows, _ref_floyd(rng, np.array([len(hoods1[v]) for v, _ in rows]), size, len(rows)))]
    check([(r, V2) for r in range(len(rows))], len(V2), k_v2)
    partners = [amb_ids[j] for j in rng.integers(len(amb_ids), size=len(rows)).tolist()]
    met = [r for r, w in enumerate(partners) if len(hoods2[w]) >= size]
    Nw = [VertexSet(G_c.n, [hoods2[partners[r]][i] for i in picks]) for r, picks in zip(
        met, _ref_floyd(rng, np.array([len(hoods2[partners[r]]) for r in met]), size, len(met)))]
    check(list(zip(met, Nw)), size, k_drawn)
    bad = VertexSet(gamma.n, [v for v in amb_ids if len(hoods1[v]) < size]
                    + [rows[r][0] for r in failed])
    limit = eps * len(ambient)
    if bad.size > limit:
        raise BadSetError(bad, limit)
    return bad


def _verdict_key(v):
    witness = None if v.witness is None else tuple(U.to_list() for U in v.witness)
    return (v.mode, v.passed, v.threshold, witness, v.witness_density, v.trials)


def _outcome(fn, *args, **kwargs):
    """What a call returned or raised, and the final state of every generator
    it made, in the order it made them."""
    made = []

    def recording_rng(seed, *key):
        made.append(make(seed, *key))
        return made[-1]

    make = seeds.rng
    with mock.patch.object(seeds, "rng", recording_rng):
        try:
            got = fn(*args, **kwargs)
            result = _verdict_key(got) if isinstance(got, RegVerdict) else got.to_list()
        except BadSetError as e:
            result = ("BadSetError", e.bad.to_list(), e.limit)
    return result, [g.bit_generator.state for g in made]


@st.composite
def damaged_triangles(draw, densities=(0.3, 0.5, 0.8, 1.0), victims=24):
    """A triangle blow-up, with the edges between some vertices of part 2
    and part 0 stripped, so that checks fail and witnesses appear."""
    s = draw(st.integers(6, 24))
    p = draw(st.sampled_from(densities))
    bg = triangle_blowup(s, p, draw(st.integers(0, 2**16)))
    part0 = bg.part(0)
    stripped = set(draw(st.lists(st.sampled_from(bg.part(2).to_list()), max_size=victims)))
    return bg, p, Graph.from_edges(bg.gamma.n, [
        (u, v) for u, v in bg.gamma.edges()
        if not ({u, v} & stripped and (u in part0 or v in part0))])


EQUIVALENCE = settings(max_examples=60, deadline=None)
EPS_VALUES = st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(9, 20)])


@EQUIVALENCE
@given(damaged_triangles(), EPS_VALUES, st.integers(1, 4), st.integers(0, 2**20),
       st.data())
def test_sampled_check_matches_the_set_based_reference(case, eps, trials, seed, data):
    bg, p, G = case
    sides = [bg.part(x) for x in range(3)]
    A, B = data.draw(st.permutations(sides))[:2]
    if data.draw(st.booleans()):  # a subset of a side, as the audit draws
        A = A.lowest(data.draw(st.integers(1, len(A))))
    assert (_outcome(sampled_lower_regular, G, A, B, eps, p, trials, seed)
            == _outcome(_ref_sampled, G, A, B, eps, p, trials, seed))


@EQUIVALENCE
@given(damaged_triangles(densities=(0.5, 0.8, 1.0), victims=3), EPS_VALUES,
       st.integers(1, 3), st.integers(0, 2**20))
def test_bad_set_matches_the_set_based_reference(case, eps, draws, seed):
    bg, p, G = case
    args = (G, G, bg.part(0), bg.part(1), bg.part(2), eps, Fraction(1, 2), p)
    kwargs = dict(draws=draws, seed=seed)
    assert (_outcome(compute_bad_set, *args, **kwargs)
            == _outcome(_ref_bad_set, *args, **kwargs))


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 40), st.sampled_from([0.3, 0.5, 0.8]), st.integers(0, 2**16),
       EPS_VALUES, st.integers(1, 3), st.integers(0, 2**20), st.data())
def test_audit_flags_planted_vertices_and_spares_a_complete_blowup(s, p, bseed, eps, draws,
                                                                   seed, data):
    # Outcomes that no draw of the audit's stream can change: a vertex whose
    # neighbours in V1 have no colour edge to V2 fails every (N_v, V2) check,
    # and in a complete blow-up every check passes.
    kwargs = dict(draws=draws, seed=seed)
    bg = triangle_blowup(s, p, bseed)
    V1, V2, ambient = bg.part(0), bg.part(1), bg.part(2)
    victims = data.draw(st.lists(st.sampled_from(ambient.to_list()), min_size=1,
                                 max_size=3, unique=True))
    cut = set().union(*((bg.gamma.neighbours(v) & V1).to_list() for v in victims))
    G_c = Graph.from_edges(bg.gamma.n, [(u, w) for u, w in bg.gamma.edges()
                                        if not ({u, w} & cut and (u in V2 or w in V2))])
    try:
        bad = compute_bad_set(bg.gamma, G_c, V1, V2, ambient, eps, Fraction(1, 2), p, **kwargs)
    except BadSetError as e:
        bad = e.bad
    assert all(v in bad for v in victims)
    full = triangle_blowup(s, 1.0, bseed)
    assert compute_bad_set(full.gamma, full.gamma, full.part(0), full.part(1), full.part(2),
                           eps, Fraction(1, 2), 1.0, **kwargs).size == 0
