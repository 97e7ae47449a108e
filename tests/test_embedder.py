"""Grid embedding: row seeding, the cleaning passes, and the verifier."""

import gc
import hashlib
import json
import weakref
from fractions import Fraction as F

import pytest

from monogrid.blowup import build_blowup
from monogrid.config import Knobs
from monogrid.embedder import (
    EmbedContext,
    EmbedFailure,
    GridEmbedding,
    RowState,
    backward_filter,
    build_context,
    embed_grid,
    embed_row,
    filter_well_connected,
    read_embedding,
    seed_first_row,
    verify_grid_embedding,
    write_embedding,
)
from monogrid.graphs import EdgeColouring, Graph, VertexSet, colour_subgraph
from monogrid.pipeline import CycleCertificate, PipelineResult, regular_subgraph, \
    find_mono_cycle
from monogrid.regularity import RegParams, eps_schedule

SEEDS = [0, 1, 2, 7, 11, 42, 101, 2024]


def mono_colouring(G: Graph) -> EdgeColouring:
    return EdgeColouring.constant(G, 2, 0)


def complete_ring_ctx(m: int = 5, s: int = 10, p: float = 1.0):
    """A blow-up of a host cycle, everything coloured 0, no bad vertices;
    complete between neighbouring parts at the default p = 1."""
    bg = build_blowup(Graph.cycle(m), s, p, 0)
    chi = mono_colouring(bg.gamma)
    params = RegParams(r=2, max_degree=2, eps=F(1, 5), eps_inherit=F(1, 20),
                       alpha=F(1, 2), lam=F(1), delta=F(1, 20), c=6.0, p=p)
    sets = [bg.part(t) for t in range(m)]
    bad = [VertexSet.empty(bg.gamma.n) for _ in range(m)]
    ctx = EmbedContext(sets, bad, 0, bg.gamma, params, s)
    return bg, chi, ctx


def ring_instance(s: int, m: int, p: float, bg_seed: int, pipe_seed: int):
    """Blow up a host cycle, run the chain, and certify the obvious cycle."""
    H = Graph.cycle(m)
    bg = build_blowup(H, s, p, bg_seed)
    chi = mono_colouring(bg.gamma)
    params = RegParams(r=2, max_degree=2, eps=F(1, 4), eps_inherit=F(1, 16),
                       alpha=F(1, 2), lam=F(1), delta=F(m, s),
                       c=p * s ** 0.5, p=p)
    sched = eps_schedule(params.eps, 2, F(1))
    res = regular_subgraph(bg, chi, params, sched, seed=pipe_seed)
    cyc = find_mono_cycle(H, res.phi, m, m)
    assert cyc is not None
    return bg, chi, params, res, cyc


@pytest.fixture(scope="module")
def small_ring():
    return ring_instance(s=64, m=4, p=0.6, bg_seed=11, pipe_seed=5)


# ---------------------------------------------------------------------------
# first row


@pytest.mark.parametrize("seed", SEEDS)
def test_first_row_on_complete_ring(seed):
    bg, chi, ctx = complete_ring_ctx()
    row = seed_first_row(ctx, seed)
    assert row.index == 0
    assert row.images[0] == 0  # lowest qualifying id goes first
    cand = ctx.candidate_size
    for j in range(ctx.m):
        v = row.images[j]
        assert v in ctx.free(j)
        bank = row.family[j]
        assert bank.size == cand
        target = ctx.sets[(j + 1) % ctx.m]
        assert (bank & target) == bank
        for w in bank:
            assert ctx.G.has_edge(v, w)
        if j > 0:
            assert ctx.G.has_edge(row.images[j - 1], v)
        assert row.occupied[j] == ctx.bad[j].add(row.images[j])


def test_first_row_is_deterministic():
    _, _, ctx = complete_ring_ctx()
    one = seed_first_row(ctx, 42)
    two = seed_first_row(ctx, 42)
    assert one.images == two.images
    assert [b.to_list() for b in one.family] == [b.to_list() for b in two.family]


def test_first_row_banks_avoid_bad_vertices():
    bg, chi, ctx = complete_ring_ctx()
    bad = list(ctx.bad)
    bad[1] = ctx.sets[1].lowest(2)  # allowance is eps * s = 2
    marked = EmbedContext(ctx.sets, bad, 0, ctx.G, ctx.params, ctx.s)
    row = seed_first_row(marked, 7)
    assert row.images[1] not in bad[1]
    assert row.family[0].isdisjoint(bad[1])


def test_first_row_fails_on_emptied_target_set():
    _, _, ctx = complete_ring_ctx()
    bad = list(ctx.bad)
    bad[1] = ctx.sets[1]  # nothing left next door
    broken = EmbedContext(ctx.sets, bad, 0, ctx.G, ctx.params, ctx.s)
    with pytest.raises(EmbedFailure) as exc:
        seed_first_row(broken, 0)
    assert exc.value.stage == "first-row"
    assert exc.value.position == 0
    assert "no vertex qualified" in exc.value.detail


def test_first_row_audit_rejects_empty_opening_pair():
    bg = build_blowup(Graph.cycle(5), 10, 1.0, 3)
    crossing = [int({u // bg.part_size, v // bg.part_size} == {0, 1})
                for u, v in bg.gamma.edges()]
    chi = EdgeColouring.by_edge(bg.gamma, 2, crossing)
    G = colour_subgraph(bg.gamma, chi, 0)
    params = RegParams(r=2, max_degree=2, eps=F(1, 5), eps_inherit=F(1, 20),
                       alpha=F(1, 2), lam=F(1), delta=F(1, 20), c=6.0, p=1.0)
    sets = [bg.part(t) for t in range(5)]
    bad = [VertexSet.empty(bg.gamma.n) for _ in range(5)]
    ctx = EmbedContext(sets, bad, 0, G, params, 10)
    with pytest.raises(EmbedFailure) as exc:
        seed_first_row(ctx, 0)
    assert exc.value.stage == "first-row-audit"
    assert exc.value.verdicts and not exc.value.verdicts[0].passed


def test_failure_report_serializes():
    _, _, ctx = complete_ring_ctx()
    bad = list(ctx.bad)
    bad[1] = ctx.sets[1]
    broken = EmbedContext(ctx.sets, bad, 0, ctx.G, ctx.params, ctx.s)
    try:
        seed_first_row(broken, 0)
    except EmbedFailure as e:
        report = e.to_json()
    assert set(report) == {"stage", "row", "position", "detail", "verdicts"}
    assert report["stage"] == "first-row"
    assert report["row"] == 0


# ---------------------------------------------------------------------------
# cleaning passes


def filter_fixture():
    """Tiny handmade graph: vertex 1's forward edges all land in occupied."""
    G = Graph.from_edges(12, [(0, 9), (1, 5), (1, 6), (1, 7), (1, 8), (2, 3)])
    params = RegParams(r=2, max_degree=2, eps=F(1, 4), eps_inherit=F(1, 16),
                       alpha=F(1, 2), lam=F(1), delta=F(1, 16), c=1.0, p=1.0)
    sets = [VertexSet(12, [0, 1, 2, 3]),
            VertexSet(12, range(5, 11))]
    bad = [VertexSet.empty(12), VertexSet.empty(12)]
    ctx = EmbedContext(sets, bad, 0, G, params, 8)
    # candidate size 1, slack 1, padding target 4
    assert (ctx.candidate_size, ctx.filter_slack, ctx.q_target) == (1, 1, 4)
    return ctx


def test_filter_keeps_everyone_at_full_density():
    _, _, ctx = complete_ring_ctx()
    S = ctx.sets[0].lowest(4)
    out = filter_well_connected(S, ctx.sets[1], ctx.bad[1], ctx)
    assert out == S


def test_filter_excludes_vertex_wired_into_occupied():
    ctx = filter_fixture()
    S = VertexSet(12, [0, 1])
    U_next = ctx.sets[1]
    Q_next = VertexSet(12, [5, 6, 7])
    # Q pads to {5, 6, 7, 8}; vertex 1 has no edge to the remainder {9, 10}
    out = filter_well_connected(S, U_next, Q_next, ctx)
    assert out == VertexSet(12, [0])


def test_filter_rejects_excess_drop():
    ctx = filter_fixture()
    S = VertexSet(12, [0, 1, 2])
    Q_next = VertexSet(12, [5, 6, 7])
    with pytest.raises(EmbedFailure) as exc:
        filter_well_connected(S, ctx.sets[1], Q_next, ctx)
    assert exc.value.stage == "well-connected-filter"
    assert "dropped 2 of 3" in exc.value.detail


def test_filter_rejects_oversized_occupied():
    ctx = filter_fixture()
    S = VertexSet(12, [0])
    Q_next = VertexSet(12, [5, 6, 7, 8, 9])
    with pytest.raises(EmbedFailure) as exc:
        filter_well_connected(S, ctx.sets[1], Q_next, ctx)
    assert exc.value.stage == "occupied-overflow"


def test_backward_filter_on_complete_ring():
    _, _, ctx = complete_ring_ctx()
    cut = ctx.candidate_size - ctx.backward_cut
    banks = [ctx.sets[(j + 1) % 5].lowest(ctx.candidate_size) for j in range(5)]
    pruned = backward_filter(banks, ctx)
    # only the final bank is trimmed; at p=1 every earlier vertex has a
    # neighbour in the pruned successor, so the walk keeps whole banks
    assert pruned[-1] == banks[-1].lowest(cut)
    for j in range(4):
        assert pruned[j] == banks[j]


def test_backward_filter_flags_disconnected_banks():
    G = Graph.from_edges(16, [(0, 1)])
    params = RegParams(r=2, max_degree=2, eps=F(1, 4), eps_inherit=F(1, 16),
                       alpha=F(1, 2), lam=F(1), delta=F(1, 16), c=1.0, p=1.0)
    sets = [VertexSet(16, [0, 1, 2, 3]),
            VertexSet(16, [8, 9, 10, 11])]
    bad = [VertexSet.empty(16), VertexSet.empty(16)]
    ctx = EmbedContext(sets, bad, 0, G, params, 32)
    assert ctx.candidate_size - ctx.backward_cut == 2
    with pytest.raises(EmbedFailure) as exc:
        backward_filter([sets[0], sets[1]], ctx)
    assert exc.value.stage == "backward-filter"
    assert exc.value.position == 0
    assert "retained 0" in exc.value.detail
    with pytest.raises(EmbedFailure) as exc:
        backward_filter([sets[0], VertexSet(16, [8])], ctx)
    assert exc.value.position == 1
    assert "final bank" in exc.value.detail


# ---------------------------------------------------------------------------
# rows two and beyond


def test_rows_fill_complete_ring():
    bg, chi, ctx = complete_ring_ctx()
    row = seed_first_row(ctx, 7)
    rows = [row]
    for i in range(1, 5):
        row = embed_row(ctx, row, 100 + i)
        assert row.index == i
        assert row.family[0].size == ctx.candidate_size
        rows.append(row)
    image = {(i, j): v for i, st in enumerate(rows)
             for j, v in enumerate(st.images)}
    emb = GridEmbedding(5, 5, 0, image)
    ok, violations = verify_grid_embedding(bg.gamma, chi, emb)
    assert ok, violations
    for (i, j), v in image.items():
        assert v in ctx.sets[(i + j) % 5]
    # each row adds exactly one vertex to every occupied set
    for i, st in enumerate(rows):
        assert all(st.occupied[t].size == i + 1 for t in range(5))


def test_embed_row_flags_oversized_occupied():
    _, _, ctx = complete_ring_ctx()
    row = seed_first_row(ctx, 7)
    fat = list(row.occupied)
    fat[2] = ctx.sets[2]
    tampered = RowState(row.index, row.images, row.family, fat)
    with pytest.raises(EmbedFailure) as exc:
        embed_row(ctx, tampered, 1)
    assert exc.value.stage == "occupied-overflow"
    assert exc.value.row == 1
    assert exc.value.position == 2


@pytest.mark.parametrize("vertex_budget", [50, 0])
def test_embed_row_frees_its_context_without_the_cycle_collector(vertex_budget):
    # a reference cycle through the row search would keep the context, and
    # its working graph, alive until a collection
    _, _, ctx = complete_ring_ctx()
    row = seed_first_row(ctx, 7)
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        try:
            embed_row(ctx, row, 101, knobs=Knobs(vertex_budget=vertex_budget))
            failed = None
        except EmbedFailure as e:
            failed = e.stage
        assert failed == (None if vertex_budget else "row-path")
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def search_outcome(ctx: EmbedContext, knobs: Knobs) -> list:
    """Each placed row's images, banks and stats, then the failure if any."""
    out = []
    try:
        row = seed_first_row(ctx, 7, knobs=knobs)
        while True:
            out.append([row.images, [b.to_list() for b in row.family], row.stats])
            if row.index + 1 == ctx.m:
                return out
            row = embed_row(ctx, row, 100 + row.index + 1, knobs=knobs)
    except EmbedFailure as e:
        out.append(e.to_json())
    return out


# (s, p, knobs, how the search ends, sha256 of its outcome as sorted JSON)
PINNED_SEARCHES = [
    (10, 1.0, {}, "success",
     "f34cd24b0269fedbb2073e282f95bb4836d8ed5ed02efe39f138657d505a4fa9"),
    (20, 0.9, {"embed_check_trials": 16}, "success",
     "486871467fc19c78b4a35edf5ed39869032ad428a941fd8a64cb91ea586beb63"),
    (10, 1.0, {"vertex_budget": 0}, "first-row",
     "07d3c7e6ae8fff1946fb700e098012c03abecbf8fb46f6cc703d65ea2dc1e141"),
    (10, 1.0, {"subset_tries": 0}, "first-row",
     "d484458f195f28b384027002bcf835dc2698602c482f4b0e134af23e3d9d49f8"),
    (20, 0.5, {"embed_check_trials": 8}, "first-row",
     "e87350ced97de594b86136cc8c6dbb10f1d08c82d3b6d80e0092276a7074a8fc"),
    (20, 0.5, {"embed_check_trials": 8, "vertex_budget": 1}, "first-row",
     "4e92a4b0178612712d4cc220a38c00d1632aa612208f3941d19eb8748d7a5ce3"),
    (20, 0.9, {"embed_check_trials": 16, "subset_tries": 2}, "row-path",
     "076e8d512bb443650a7a1c6ca1c9774f3a3aef2e1592344cef33b62f5ea9cae1"),
    (20, 0.9, {"embed_check_trials": 16, "vertex_budget": 1}, "row-path",
     "2b52b7951acb7a70c586af92f2f50f1075ca557e0f1df223c255faedd11d2880"),
]


@pytest.mark.parametrize("s, p, knobs, ending, digest", PINNED_SEARCHES)
def test_cell_search_is_pinned(s, p, knobs, ending, digest):
    _, _, ctx = complete_ring_ctx(s=s, p=p)
    out = search_outcome(ctx, Knobs(**knobs))
    assert (out[-1]["stage"] if isinstance(out[-1], dict) else "success") == ending
    text = json.dumps(out, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


# ---------------------------------------------------------------------------
# full grids


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grid_end_to_end_on_small_ring(seed):
    bg, chi, params, res, cyc = ring_instance(s=64, m=4, p=0.6,
                                              bg_seed=seed, pipe_seed=seed)
    emb = embed_grid(bg, chi, res, cyc, params, seed=seed)
    assert (emb.a, emb.b) == (4, 4)
    ok, violations = verify_grid_embedding(bg.gamma, chi, emb)
    assert ok, violations
    for (i, j), v in emb.image.items():
        assert v in res.final_sets[cyc.vertices[(i + j) % 4]]


def test_grid_is_deterministic(small_ring):
    bg, chi, params, res, cyc = small_ring
    one = embed_grid(bg, chi, res, cyc, params, seed=3)
    two = embed_grid(bg, chi, res, cyc, params, seed=3)
    assert one.image == two.image
    assert one.colour == two.colour


def test_grid_rejects_mismatched_cycle_length(small_ring):
    bg, chi, params, res, _ = small_ring
    stub = CycleCertificate(0, [0, 1, 2])
    with pytest.raises(ValueError, match="does not match the planned grid side"):
        embed_grid(bg, chi, res, stub, params, seed=0)


def test_grid_rejects_missing_final_set(small_ring):
    bg, chi, params, res, cyc = small_ring
    gutted = PipelineResult(res.phi,
                            {x: U for x, U in res.final_sets.items() if x != 2},
                            res.chain, res.edge_log, res.audit_log,
                            res.decomposition)
    with pytest.raises(ValueError, match="no surviving set for host vertex 2"):
        build_context(bg, chi, gutted, cyc, params)


def test_grid_rejects_miscoloured_cycle(small_ring):
    bg, chi, params, res, cyc = small_ring
    stub = CycleCertificate(1, list(cyc.vertices))
    with pytest.raises(AssertionError):
        build_context(bg, chi, res, stub, params)


def test_smallest_grid_is_a_four_cycle():
    bg = build_blowup(Graph.path(2), 24, 1.0, 2)
    chi = mono_colouring(bg.gamma)
    params = RegParams(r=2, max_degree=2, eps=F(1, 3), eps_inherit=F(1, 12),
                       alpha=F(1, 2), lam=F(1), delta=F(1, 12), c=6.0, p=1.0)
    sched = eps_schedule(params.eps, 2, F(1))
    res = regular_subgraph(bg, chi, params, sched, seed=1)
    cyc = CycleCertificate(0, [0, 1])
    emb = embed_grid(bg, chi, res, cyc, params, seed=9)
    assert (emb.a, emb.b) == (2, 2)
    ok, violations = verify_grid_embedding(bg.gamma, chi, emb)
    assert ok, violations
    assert len({*emb.image.values()}) == 4


def test_desk_scale_calibration():
    """C_10 at s=300, p=0.35: the working point the defaults are tuned for."""
    H = Graph.cycle(10)
    params = RegParams(r=2, max_degree=2, eps=F(1, 4), eps_inherit=F(1, 16),
                       alpha=F(1, 2), lam=F(1), delta=F(1, 30),
                       c=0.35 * 300 ** 0.5, p=0.35)
    sched = eps_schedule(params.eps, 2, F(1))
    first_ok = grid_ok = 0
    for seed in range(10):
        bg = build_blowup(H, 300, 0.35, seed)
        chi = mono_colouring(bg.gamma)
        res = regular_subgraph(bg, chi, params, sched, seed=seed)
        cyc = find_mono_cycle(H, res.phi, 10, 10)
        try:
            ctx = build_context(bg, chi, res, cyc, params, seed)
            row = seed_first_row(ctx, seed)
            first_ok += 1
            rows = [row]
            for i in range(1, 10):
                row = embed_row(ctx, row, 1000 + seed * 10 + i)
                rows.append(row)
        except EmbedFailure:
            continue
        image = {(i, j): v for i, st in enumerate(rows)
                 for j, v in enumerate(st.images)}
        emb = GridEmbedding(10, 10, 0, image)
        ok, _ = verify_grid_embedding(bg.gamma, chi, emb)
        plan = all(v in res.final_sets[cyc.vertices[(i + j) % 10]]
                   for (i, j), v in emb.image.items())
        if ok and plan:
            grid_ok += 1
    assert first_ok >= 9, f"first row succeeded on {first_ok}/10 seeds"
    assert grid_ok >= 8, f"full grid succeeded on {grid_ok}/10 seeds"


# ---------------------------------------------------------------------------
# the independent verifier


def identity_grid(a: int, b: int):
    G = Graph.grid(a, b)
    chi = mono_colouring(G)
    image = {(i, j): i * b + j for i in range(a) for j in range(b)}
    return G, chi, GridEmbedding(a, b, 0, image)


def test_verifier_accepts_identity_grid():
    G, chi, emb = identity_grid(3, 4)
    ok, violations = verify_grid_embedding(G, chi, emb)
    assert ok and violations == []


def test_verifier_walks_every_grid_edge():
    G, chi, emb = identity_grid(3, 4)
    wrong = GridEmbedding(3, 4, 1, emb.image)  # off-colour everywhere
    ok, violations = verify_grid_embedding(G, chi, wrong)
    assert not ok
    assert len(violations) == 17  # 2ab - a - b edges in a 3x4 grid


def test_verifier_flags_single_recoloured_edge():
    G, chi, emb = identity_grid(3, 4)
    colours = [int(e == (0, 1)) for e in G.edges()]  # chi is constant 0
    patched = EdgeColouring.by_edge(G, 2, colours)
    ok, violations = verify_grid_embedding(G, patched, emb)
    assert not ok
    assert len(violations) == 1
    assert "colour 1" in violations[0]


def test_verifier_flags_duplicate_vertex():
    G, chi, emb = identity_grid(3, 4)
    image = dict(emb.image)
    image[(2, 3)] = image[(0, 0)]
    ok, violations = verify_grid_embedding(G, chi,
                                           GridEmbedding(3, 4, 0, image))
    assert not ok
    assert any("share vertex 0" in v for v in violations)


def test_verifier_flags_non_edge():
    G, chi, emb = identity_grid(3, 4)
    image = dict(emb.image)
    image[(0, 0)] = 10  # far corner; breaks both incident grid edges
    ok, violations = verify_grid_embedding(G, chi,
                                           GridEmbedding(3, 4, 0, image))
    assert not ok
    assert any("non-edge" in v for v in violations)


def test_verifier_flags_missing_cell():
    G, chi, emb = identity_grid(3, 4)
    image = dict(emb.image)
    del image[(1, 2)]
    ok, violations = verify_grid_embedding(G, chi,
                                           GridEmbedding(3, 4, 0, image))
    assert not ok
    assert any("cell (1, 2) has no image" in v for v in violations)


def test_verifier_reports_missing_cells_in_one_line():
    G, chi, emb = identity_grid(3, 4)
    image = {c: v for c, v in emb.image.items() if c not in ((0, 1), (2, 0), (2, 3))}
    ok, violations = verify_grid_embedding(G, chi, GridEmbedding(3, 4, 0, image))
    assert not ok
    assert violations == ["cell (0, 1) has no image, nor do 2 more cells"]
    ok, violations = verify_grid_embedding(
        G, chi, GridEmbedding(4096, 4096, 0, {(0, 0): 0, (0, 1): 1}))
    assert violations == ["cell (0, 2) has no image, nor do 16777213 more cells"]


# ---------------------------------------------------------------------------
# files


def test_embedding_file_round_trip(tmp_path):
    _, _, emb = identity_grid(3, 4)
    path = str(tmp_path / "grid.embedding")
    write_embedding(emb, path, comment="round trip")
    back = read_embedding(path)
    assert back == emb


@pytest.mark.parametrize("content, needle", [
    ("grid 3\n", "header"),
    ("0 0 1\n", "header"),
    ("", "missing header"),
    ("grid 2 2 colour 0\n0 0 1\n0 0 2\n", "duplicate cell"),
    ("grid 2 2 colour 0\n5 0 1\n", "outside the grid"),
    ("grid 2 2 colour 0\n0 0\n", "expected 'i j vertex'"),
    ("grid 2 2 colour 0\n0 0 -3\n", "negative"),
    ("grid 100000 100000 colour 0\n0 0 1\n", "cells exceeds 16777216"),
])
def test_embedding_file_rejects_garbage(tmp_path, content, needle):
    path = tmp_path / "broken.embedding"
    path.write_text(content)
    with pytest.raises(ValueError, match=needle):
        read_embedding(str(path))
