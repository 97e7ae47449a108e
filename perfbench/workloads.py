"""The benchmark's workloads: the operations each one runs and their checks.

An operation is one `run_once` together with the read-back of its artifacts,
or one oracle call.  Every operation calls the package through module
attributes (`cli.run_once`, not a name bound at import), so the tracer in
`tracing.py` sees every call once it has patched those attributes.

An operation writes only under `workdir / op.name`.

Importing this module imports monogrid (and numpy); `prepare` resolves every
config and builds every oracle input.  Together they are the set-up that
`setup_s` measures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from monogrid import cli, config, embedder, graphs, oracle

DEFAULT_SEED = 0

# sha256 of each report.json at the default workload seed.  Reports must stay
# byte-identical for the same config and seed; other seeds have no pins.
EXPECTED_REPORTS = {
    "desk-s300-seed0":
        "829665fa3a817ba1797407787203bd35df6eb267e4fac288f048bcd619534da1",
    "desk-s600-seed0":
        "ba00dea75dc968572052344a8cb7359121819533d981cdc9327af1444da7286b",
    "random-seed0":
        "d3ec48304b16624a3a9a7b4858c278b2767b33e20924b2098905d5253488450d",
    "random-seed1":
        "01c81b03585aa0ba7d97c263322c7843451731f4232c60c28354a24fe42ff4c9",
    "random-seed2":
        "52d491206be20855ababe1d7d345cd9014ba78aa7f33049efc67c96933d4ffa7",
    "random-seed3":
        "a48375b047ac09512e2860cc6aa277bd7ee2ac86a1a47880161f2c8cc0288d28",
    "random-seed4":
        "ec0d86d1eab09326c0efba224780a0c2397378f062f3f8d7b16e8be6909c0f70",
    "random-seed5":
        "faca911cad2322cc4c5a3c604d78b79d0982169b69d84841b7f7cd17f4c819bb",
    "random-seed6":
        "11c3adc1359126dd0d99fe31f5980603f6c7855e43101f16fabb37c835267698",
    "random-seed7":
        "e5afc46f162e63bfd805642d8cde9d5cfd4a4c04e382d12030a516106d24ded4",
    "random-seed8":
        "86e66f95bb78865151df9eb7ec8ac4730b62cabc16b92db3a59032c8f7ccf64c",
    "random-seed9":
        "7e8dc0a94fdc0c6bafd3b337b2029d693765e8f5b1c1850dc060d6acb3856aa0",
    "random-seed10":
        "3189685a360ffec4ee4e28c401d0db8f08051c58697019639b5ed1d6b61ca2ca",
    "random-seed11":
        "3f9f81191d364ac38b5fdfce507545824104bf939030a6484e02628addc92571",
}

# Acceptance criterion 9: the sampled mean of 3x3 grid copies in G(25, 0.3)
# over 200 samples drawn from seed 0.
MC_SEED = 0
MC_MEAN = 45451.05

# s = 600 keeps the 10x10 grid: p scales as 0.35 * sqrt(300 / s) and
# delta = 10 / s.
DESK_S600 = ("s=600", "p=0.247487", "delta=1/60")
DESK_RANDOM = ("colouring=uniform-random", "alpha=1/4")
# Twelve runs make one pass about as long as a desk-mono pass; six gave a
# run-to-run spread twice as wide.
RANDOM_RUNS = 12
# The n = 400 4x4 grid searches of criterion 9.  At p = n^-0.7 the expected
# count is ~1e-3 and each search is exhaustive; at n^-0.6 it is ~1343 and a
# grid turns up early.  The oracle inputs are the same at every workload
# seed: one exhaustive search costs 0.4M to 0.75M nodes depending on the
# graph, and the Monte Carlo peak memory moves by 10% with its draw, which
# would swamp the run-to-run spread.
SEARCH_N = 400
SEARCH_BUDGET = 5_000_000
ABSENT_SEEDS = range(900, 905)
FOUND_SEEDS = range(950, 960)


@dataclass
class Outcome:
    """What one operation produced, and every check it missed."""

    status: str = ""
    report_sha256: str | None = None
    timings: dict | None = None
    errors: list[str] = field(default_factory=list)


class RunOp:
    """One `monogrid run` into its own directory, then the verify read path."""

    def __init__(self, name: str, cfg, expect_status: str, pinned: bool):
        self.name = name
        self.cfg = cfg
        self.expect_status = expect_status
        self.pinned = pinned

    def __call__(self, workdir: Path) -> Outcome:
        outdir = workdir / self.name
        report, timings = cli.run_once(self.cfg, outdir)
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        (outdir / "report.json").write_text(text)
        (outdir / "timings.json").write_text(
            json.dumps(timings, indent=2, sort_keys=True) + "\n")
        out = Outcome(report["status"], _sha256(text), timings)
        if report["status"] == "success":
            # the same reads and check as `monogrid verify`
            G = graphs.read_graph(str(outdir / "blowup.graph"))
            chi = graphs.read_colouring(str(outdir / "colouring.txt"), n=G.n)
            emb = embedder.read_embedding(str(outdir / "grid.embedding"))
            ok, violations = embedder.verify_grid_embedding(G, chi, emb)
            side = report["stages"]["embed"]["side"]
            if not ok:
                out.errors.append(f"re-verification failed: {violations[:3]}")
            elif (emb.a, emb.b) != (side, side):
                out.errors.append(f"embedding is {emb.a}x{emb.b}, report says {side}")
        else:
            failure = report.get("failure", {})
            if (not report["status"].startswith("failed-at-")
                    or not failure.get("stage") or not failure.get("message")):
                out.errors.append(f"status {report['status']!r} names no stage "
                                  "and message")
        if self.pinned:
            if out.status != self.expect_status:
                out.errors.append(f"status {out.status}, expected {self.expect_status}")
            want = EXPECTED_REPORTS[self.name]
            if out.report_sha256 != want:
                out.errors.append(f"report sha256 {out.report_sha256}, "
                                  f"expected {want}")
        return out


class MonteCarloOp:
    name = "mc-3x3"

    def __call__(self, workdir: Path) -> Outcome:
        rep = oracle.monte_carlo_grid_count(25, 0.3, 3, 3, 200, seed=MC_SEED)
        out = Outcome(f"mean {rep.mean}")
        if rep.flagged or abs(rep.mean - MC_MEAN) > 1e-6:
            out.errors.append(f"mean {rep.mean} (flagged {rep.flagged}), "
                              f"expected {MC_MEAN}, not flagged")
        return out


class SearchOp:
    """One 4x4 grid search in a prebuilt G(n, p); the found map is re-checked."""

    def __init__(self, name: str, G, expect: str):
        self.name = name
        self.G = G
        self.expect = expect

    def __call__(self, workdir: Path) -> Outcome:
        T = oracle.grid_graph(4, 4)
        res = oracle.contains_subgraph(self.G, T, budget=SEARCH_BUDGET)
        out = Outcome(res.status)
        if res.status != self.expect:
            out.errors.append(f"search {res.status} after {res.nodes} nodes, "
                              f"expected {self.expect}")
        elif res.status == "found":
            image = res.mapping
            if (sorted(image) != list(range(T.n))
                    or len(set(image.values())) != T.n
                    or not all(self.G.has_edge(image[u], image[v])
                               for u, v in T.edges())):
                out.errors.append("found map is not a 4x4 grid in the graph")
        return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _gnp(n: int, p: float, seed: int):
    """G(n, p) drawn exactly as the acceptance tests draw it."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return graphs.Graph.from_edges(
        n, [(int(u), int(v)) for u, v in zip(*np.nonzero(upper))])


def _desk(name: str, sets: tuple, seed: int, expect: str, workload_seed: int):
    cfg = config.load_config(preset="desk", sets=sets, seed=seed, out=name)
    return RunOp(name, cfg, expect, pinned=workload_seed == DEFAULT_SEED)


def prepare(workload: str, seed: int) -> list:
    """Resolve the workload's configs and build its inputs from `seed`."""
    if workload == "desk-mono":
        return [
            _desk(f"desk-s300-seed{seed}", (), seed, "success", seed),
            _desk(f"desk-s600-seed{seed}", DESK_S600, seed, "success", seed),
        ]
    if workload == "desk-random":
        return [
            _desk(f"random-seed{k}", DESK_RANDOM, k, "failed-at-cycle", seed)
            for k in range(RANDOM_RUNS * seed, RANDOM_RUNS * (seed + 1))
        ]
    if workload == "oracles":
        ops: list = [MonteCarloOp()]
        for seeds, exponent, expect in ((ABSENT_SEEDS, -0.7, "absent"),
                                        (FOUND_SEEDS, -0.6, "found")):
            for g_seed in seeds:
                G = _gnp(SEARCH_N, SEARCH_N ** exponent, g_seed)
                ops.append(SearchOp(f"{expect}-gnp{g_seed}", G, expect))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("desk-mono", "desk-random", "oracles")
