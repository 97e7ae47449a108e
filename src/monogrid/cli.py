"""Command-line driver: build hosts, colour blowups, run the full argument.

`run` chains every stage of the construction and writes its artifacts plus a
deterministic report.json; wall-clock numbers go to a timings.json sidecar so
reruns of an identical configuration produce byte-identical reports.  The
smaller commands expose the individual stages and the brute-force oracles.

`main` maps every refused argument to exit 2 and one `error: ...` line: a
`ConfigError`, a library `ValueError` or an `OSError`.  A broken invariant
(an `AssertionError`) still ends in a traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from monogrid import seeds
from monogrid.blowup import build_blowup, expected_edges, load_blowup, save_blowup
from monogrid.config import (
    GRAPH_SPEC,
    ConfigError,
    RunConfig,
    build_host,
    load_config,
    parse_colouring_spec,
    parse_graph_spec,
)
from monogrid.embedder import (
    EmbedFailure,
    embed_grid,
    read_embedding,
    verify_grid_embedding,
    write_embedding,
)
from monogrid.graphs import (
    EdgeColouring,
    pair_density,
    read_colouring,
    read_graph,
    write_colouring,
    write_graph,
)
from monogrid.oracle import (
    SEARCH_BUDGET,
    arrows,
    contains_subgraph,
    expected_grid_count,
    monte_carlo_grid_count,
    validate_not_arrows_witness,
)
from monogrid.pipeline import (
    PipelineFailure,
    find_mono_cycle,
    regular_subgraph,
)


class StageError(Exception):
    """A run stage that ended without its deliverable."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        self.message = message
        super().__init__(f"{stage}: {message}")


# ---------------------------------------------------------------------------
# colouring strategies


def apply_colouring(bg, spec: str, r: int, seed: int) -> EdgeColouring:
    """Colour the blowup's edges by the named strategy, deterministically.

    mono C paints everything colour C.  uniform-random draws each edge's
    colour independently.  host-edge-split gives all edges over one host
    edge a single colour, cycling through the colours in sorted host-edge
    order.  degree-adversary greedily assigns each edge the colour least
    used at its endpoints so far, an adversary that flattens every vertex's
    colour profile.
    """
    tokens = parse_colouring_spec(spec, r)
    gamma = bg.gamma
    if tokens[0] == "mono":
        return EdgeColouring.constant(gamma, r, int(tokens[1]))
    # every other strategy names one colour per edge, in gamma.edges() order
    if tokens[0] == "uniform-random":
        colours = seeds.rng(seed, 23).integers(0, r, size=gamma.edge_count)
    elif tokens[0] == "host-edge-split":
        split = np.zeros((bg.host.n,) * 2, dtype=np.int64)  # host edge -> colour
        for k, (x, y) in enumerate(bg.host.edges()):
            split[x, y] = k % r
        s = bg.part_size
        colours = np.concatenate([split[u // s, v // s] for u, v in gamma.edge_blocks()]
                                 or [[]])
    else:
        used = [[0] * r for _ in range(gamma.n)]  # edges at v in each colour so far
        colours = []
        for u, v in gamma.edges():
            at_uv = [a + b for a, b in zip(used[u], used[v])]
            c = at_uv.index(min(at_uv))  # ties go to the lower colour
            colours.append(c)
            used[u][c] += 1
            used[v][c] += 1
    return EdgeColouring.by_edge(gamma, r, colours)


# ---------------------------------------------------------------------------
# the full run


def run_once(cfg: RunConfig, outdir: Path) -> tuple[dict, dict]:
    """Drive every stage into `outdir`; returns (report, timings).

    The report never contains wall-clock times or absolute paths, so two
    runs of the same configuration and seed emit identical bytes.  Artifacts
    written before a failure are left in place.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    report: dict = {
        "config": cfg.to_json(),
        "stages": {},
        "artifacts": {},
        "status": "",
        "timings_file": "timings.json",
    }
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    @contextmanager
    def stage(name: str):
        """Time one stage into `timings`, also when it fails."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            timings[name] = round(time.perf_counter() - t0, 6)

    try:
        with stage("host"):
            H = build_host(cfg.host_spec, cfg.seed)
            write_graph(H, str(outdir / "host.graph"), comment=cfg.host_spec)
            report["artifacts"]["host"] = "host.graph"
            report["stages"]["host"] = {
                "n": H.n,
                "edges": H.edge_count,
                "max_degree": H.degree_bound(),
            }

        with stage("blowup"):
            bg = build_blowup(H, cfg.s, cfg.params.p, cfg.seed)
            save_blowup(bg, str(outdir / "blowup"))
            report["artifacts"]["blowup"] = "blowup"
            report["stages"]["blowup"] = {
                "n": bg.gamma.n,
                "edges": bg.gamma.edge_count,
                "expected_edges": expected_edges(H, cfg.s, cfg.params.p),
            }

        with stage("colour"):
            chi = apply_colouring(bg, cfg.colouring, cfg.params.r, cfg.seed)
            write_colouring(chi, str(outdir / "colouring.txt"), comment=cfg.colouring)
            report["artifacts"]["colouring"] = "colouring.txt"
            report["stages"]["colour"] = {"r": chi.r, "counts": chi.colour_counts()}

        with stage("pipeline"):
            res = regular_subgraph(bg, chi, cfg.params, cfg.schedule(), seed=cfg.seed,
                                   knobs=cfg.knobs)
            _write_json_lines(outdir / "pipeline.json", res.to_json())
            report["artifacts"]["pipeline"] = "pipeline.json"
            report["stages"]["pipeline"] = {
                "edges_processed": len(res.edge_log),
                "audits": len(res.audit_log),
                "matchings": len(res.decomposition.matchings),
                "final_set_sizes": {str(x): U.size
                                    for x, U in sorted(res.final_sets.items())},
            }

        # The grid plan slices each part to delta*s; that slice is both the
        # grid side and the length of the host cycle it winds around, so it
        # must be a cycle length the host can hold.
        side = cfg.params.delta * cfg.s
        if side.denominator != 1 or not 3 <= side <= H.n:
            raise StageError(
                "embed",
                f"the planned grid side delta*s = {cfg.params.delta} * {cfg.s} "
                f"= {float(side):g} is not an integer from 3 to the host order "
                f"{H.n}, so no square grid fits the plan; adjust delta or s",
            )
        m = int(side)

        with stage("cycle"):
            cert = find_mono_cycle(H, res.phi, m, m, budget=cfg.knobs.cycle_budget)
            if cert is None:
                raise StageError(
                    "cycle",
                    f"no single-colour host cycle of length {m} was found "
                    f"within budget {cfg.knobs.cycle_budget}",
                )
            _write_json(outdir / "cycle.json", cert.to_json())
            report["artifacts"]["cycle"] = "cycle.json"
            report["stages"]["cycle"] = {"colour": cert.colour,
                                         "length": len(cert.vertices)}

        with stage("embed"):
            emb = embed_grid(bg, chi, res, cert, cfg.params, seed=cfg.seed,
                             knobs=cfg.knobs)
            write_embedding(emb, str(outdir / "grid.embedding"),
                            comment=f"{cfg.host_spec}; seed {cfg.seed}")
            report["artifacts"]["embedding"] = "grid.embedding"
            report["stages"]["embed"] = {
                "side": m,
                "colour": emb.colour,
                "cells": len(emb.image),
            }

        with stage("verify"):
            ok, violations = verify_grid_embedding(bg.gamma, chi, emb)
            report["stages"]["verify"] = {
                "edges_checked": 2 * m * m - 2 * m,
                "violations": len(violations),
            }
        if not ok:
            report["stages"]["verify"]["first_violations"] = violations[:5]
            raise StageError("verify", f"{len(violations)} violation(s); "
                             f"first: {violations[0]}")
        report["status"] = "success"
    except StageError as e:
        report["status"] = f"failed-at-{e.stage}"
        report["failure"] = {"stage": e.stage, "message": e.message}
    except PipelineFailure as e:
        report["status"] = "failed-at-pipeline"
        report["failure"] = {
            "stage": "pipeline",
            "message": str(e),
            "pipeline_stage": e.stage,
            "level": e.level,
            "edge": list(e.edge) if e.edge else None,
        }
    except EmbedFailure as e:
        stage = "bad-set" if e.stage == "bad-set" else "embed"
        report["status"] = f"failed-at-{stage}"
        report["failure"] = {"message": str(e), **e.to_json()}

    timings["total"] = round(time.perf_counter() - t_start, 6)
    return report, timings


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json_lines(path: Path, data: dict) -> None:
    """`data` as JSON with one line per top-level key, and per entry of a
    dict under one (a final set); unindented, json runs its C encoder."""
    def line(key: str, value, pad: str) -> str:
        return f"{pad}{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
    fields = []
    for key, value in sorted(data.items()):
        if isinstance(value, dict):
            inner = ",\n".join(line(k, v, "    ") for k, v in sorted(value.items()))
            fields.append(f"  {json.dumps(key)}: {{\n{inner}\n  }}")
        else:
            fields.append(line(key, value, "  "))
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(fields) + "\n}\n")


def _write_report(outdir: Path, report: dict, timings: dict) -> None:
    _write_json(outdir / "report.json", report)
    _write_json(outdir / "timings.json", timings)


# ---------------------------------------------------------------------------
# commands


def _load_from_args(args) -> RunConfig:
    return load_config(path=args.config, preset=args.preset,
                       sets=tuple(args.set or ()), seed=args.seed, out=args.out)


def cmd_run(args) -> int:
    cfg = _load_from_args(args)
    outdir = Path(cfg.out)
    report, timings = run_once(cfg, outdir)
    _write_report(outdir, report, timings)
    print(f"status: {report['status']}")
    print(f"report: {outdir / 'report.json'}")
    return 0 if report["status"] == "success" else 1


def cmd_gen_host(args) -> int:
    H = build_host(args.host, args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "host.graph"
    write_graph(H, str(path), comment=args.host)
    print(f"wrote {path}: n={H.n} edges={H.edge_count} max_degree={H.degree_bound()}")
    return 0


def cmd_blowup(args) -> int:
    H = build_host(args.host, args.seed)
    bg = build_blowup(H, args.s, args.p, args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_blowup(bg, str(outdir / "blowup"))
    print(f"wrote {outdir / 'blowup'}.graph: n={bg.gamma.n} edges={bg.gamma.edge_count} "
          f"expected={expected_edges(H, args.s, args.p):.1f}")
    return 0


def cmd_colour(args) -> int:
    bg = load_blowup(args.blowup)
    chi = apply_colouring(bg, args.colouring, args.r, args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "colouring.txt"
    write_colouring(chi, str(path), comment=args.colouring)
    counts = " ".join(f"{c}:{k}" for c, k in enumerate(chi.colour_counts()))
    print(f"wrote {path}: {len(chi)} edges, counts {counts}")
    return 0


def cmd_verify(args) -> int:
    G = read_graph(args.graph)
    chi = read_colouring(args.colouring, n=G.n)
    emb = read_embedding(args.embedding)
    ok, violations = verify_grid_embedding(G, chi, emb)
    if ok:
        print(f"valid: {emb.a}x{emb.b} grid in colour {emb.colour}, "
              f"{2 * emb.a * emb.b - emb.a - emb.b} edges checked")
        return 0
    print(*violations, f"invalid: {len(violations)} violation(s)", sep="\n")
    return 1


def cmd_oracle(args) -> int:
    if args.kind == "arrows":
        G = parse_graph_spec(args.graph)
        T = parse_graph_spec(args.target)
        res = arrows(G, T, args.r, budget=args.budget, allow_large=args.allow_large)
        out = res.to_json()
        if res.witness is not None and args.out is not None:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            assert validate_not_arrows_witness(G, T, res.witness)
            write_colouring(res.witness, str(outdir / "witness.colouring"),
                            comment=f"avoids {args.target} in {args.graph}")
            out["witness_file"] = "witness.colouring"
        print(json.dumps(out, sort_keys=True))
        return 0
    if args.kind == "grid":
        G = parse_graph_spec(args.graph)
        T = parse_graph_spec(f"grid {args.a} {args.b}")
        res = contains_subgraph(G, T, args.budget)
        print(json.dumps({"status": res.status, "nodes": res.nodes}, sort_keys=True))
        return 0
    rep = monte_carlo_grid_count(args.n, args.p, args.a, args.b, args.samples, args.seed)
    print(json.dumps(rep.to_json(), sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# experiments


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_experiment(args) -> int:
    if args.kind == "first-moment":
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        try:
            p_values = [float(tok) for tok in args.p_values.split(",") if tok]
        except ValueError:
            raise ConfigError(f"--p-values must be comma-separated numbers, "
                              f"got {args.p_values!r}") from None
        for p in p_values:
            if not 0 <= p <= 1:
                raise ConfigError(f"p must lie in [0, 1], got {p}")
        rows = []
        for i, p in enumerate(p_values):
            expectation = expected_grid_count(args.n, p, args.a, args.b)
            try:
                rep = monte_carlo_grid_count(args.n, p, args.a, args.b,
                                             args.samples,
                                             seeds.derive(args.seed, 71, i))
            except ValueError:
                # arguments checked above: the count is intractable at this
                # size, so keep the closed form and mark the rest skipped
                rows.append([p, expectation, "", "", "", "skipped"])
                continue
            rows.append([p, expectation, rep.mean, rep.variance, not rep.flagged, "ok"])
        path = outdir / "first_moment.csv"
        _write_csv(path, ["p", "expectation", "mc_mean", "mc_variance",
                          "consistent", "status"], rows)
        print(f"wrote {path}: {len(rows)} rows")
        return 0

    if args.kind == "uniformity-sweep":
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        try:
            sizes = [int(tok) for tok in args.sizes.split(",") if tok]
        except ValueError:
            raise ConfigError(f"--sizes must be comma-separated integers, "
                              f"got {args.sizes!r}") from None
        H = build_host("single-edge", args.seed)
        bg = build_blowup(H, args.s, args.p, args.seed)
        A, B = bg.part(0), bg.part(1)
        rows = []
        for i, k in enumerate(sizes):
            if not 0 < k <= args.s:
                raise ConfigError(f"subset size {k} outside 1..{args.s}")
            rng = seeds.rng(args.seed, 29, i)
            ratios = [abs(float(pair_density(bg.gamma, A.sample(k, rng), B.sample(k, rng)))
                          / args.p - 1.0) for _ in range(args.trials)]
            rows.append([k, args.trials, max(ratios)])
        path = outdir / "uniformity_sweep.csv"
        _write_csv(path, ["size", "pairs", "worst_ratio"], rows)
        print(f"wrote {path}: {len(rows)} rows")
        return 0

    # pipeline-success-rate: one full run per seed, tallied by status
    base = _load_from_args(args)
    outdir = Path(base.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(args.runs):
        run_seed = base.seed + i
        sub = outdir / f"run-{run_seed:04d}"
        cfg = replace(base, seed=run_seed, out=str(sub))
        report, timings = run_once(cfg, sub)
        _write_report(sub, report, timings)
        rows.append([run_seed, report["status"]])
    path = outdir / "success_rate.csv"
    _write_csv(path, ["seed", "status"], rows)
    tally = Counter(status for _, status in rows)
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(tally.items()))
    print(f"wrote {path}: {args.runs} runs ({summary})")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="flat key-value config file")
    sub.add_argument("--preset", help="named preset (paper-s3, desk)")
    sub.add_argument("--seed", type=seed, help="run seed")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config key (repeatable)")


def _at_least(least: int, text: str) -> int:
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def count(text: str) -> int:
    """An argparse type for sizes, budgets and counts: an int of at least 1."""
    return _at_least(1, text)


def seed(text: str) -> int:
    """An argparse type for seeds: an int of at least 0."""
    return _at_least(0, text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monogrid",
        description="Build sparse blowups, colour them, and chase the "
                    "single-colour grid the construction promises.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gen-host", help="write a host graph file")
    sub.add_argument("--host", required=True, help=f"host graph spec: {GRAPH_SPEC}")
    sub.add_argument("--seed", type=seed, default=0)
    sub.add_argument("--out", default="out")
    sub.set_defaults(func=cmd_gen_host)

    sub = subs.add_parser("blowup", help="sample a sparse blowup of a host")
    sub.add_argument("--host", required=True, help=f"host graph spec: {GRAPH_SPEC}")
    sub.add_argument("--s", type=count, required=True, help="part size")
    sub.add_argument("--p", type=float, required=True, help="edge probability")
    sub.add_argument("--seed", type=seed, default=0)
    sub.add_argument("--out", default="out")
    sub.set_defaults(func=cmd_blowup)

    sub = subs.add_parser("colour", help="colour a saved blowup's edges")
    sub.add_argument("--blowup", required=True,
                     help="basename of a saved blowup (as written by blowup)")
    sub.add_argument("--colouring", required=True,
                     help="'mono C', 'uniform-random', 'host-edge-split' or "
                          "'degree-adversary'")
    sub.add_argument("--r", type=int, default=2, help="number of colours")
    sub.add_argument("--seed", type=seed, default=0)
    sub.add_argument("--out", default="out")
    sub.set_defaults(func=cmd_colour)

    sub = subs.add_parser("run", help="drive every stage and write a report")
    _add_config_flags(sub)
    sub.set_defaults(func=cmd_run)

    sub = subs.add_parser("verify", help="check an embedding file independently")
    sub.add_argument("graph", help="ambient graph file")
    sub.add_argument("colouring", help="edge colouring file")
    sub.add_argument("embedding", help="grid embedding file")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("oracle", help="exhaustive small-case oracles")
    kinds = sub.add_subparsers(dest="kind", required=True)

    k = kinds.add_parser("arrows", help="decide G -> (T)_r by brute force")
    k.add_argument("--graph", required=True, help=f"graph spec: {GRAPH_SPEC}")
    k.add_argument("--target", required=True, help="graph spec, as for --graph")
    k.add_argument("--r", type=int, default=2)
    k.add_argument("--budget", type=count, default=SEARCH_BUDGET)
    k.add_argument("--allow-large", action="store_true",
                   help="waive the edge-count guard on the exhaustive search")
    k.add_argument("--out", help="directory for an avoiding witness, if found")
    k.set_defaults(func=cmd_oracle)

    k = kinds.add_parser("grid", help="search a graph for an a-by-b grid")
    k.add_argument("--graph", required=True, help=f"graph spec: {GRAPH_SPEC}")
    k.add_argument("--a", type=int, required=True)
    k.add_argument("--b", type=int, required=True)
    k.add_argument("--budget", type=count, default=SEARCH_BUDGET)
    k.set_defaults(func=cmd_oracle)

    k = kinds.add_parser("count", help="Monte Carlo grid counts in G(n, p)")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--p", type=float, required=True)
    k.add_argument("--a", type=int, required=True)
    k.add_argument("--b", type=int, required=True)
    k.add_argument("--samples", type=count, default=200)
    k.add_argument("--seed", type=seed, default=0)
    k.set_defaults(func=cmd_oracle)

    sub = subs.add_parser("experiment", help="batch studies written as CSV")
    kinds = sub.add_subparsers(dest="kind", required=True)

    k = kinds.add_parser("first-moment",
                         help="closed-form vs sampled grid counts over p")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--a", type=int, required=True)
    k.add_argument("--b", type=int, required=True)
    k.add_argument("--p-values", required=True,
                   help="comma-separated edge probabilities")
    k.add_argument("--samples", type=count, default=200)
    k.add_argument("--seed", type=seed, default=0)
    k.add_argument("--out", default="out")
    k.set_defaults(func=cmd_experiment)

    k = kinds.add_parser("uniformity-sweep",
                         help="worst pair-density ratio by subset size")
    k.add_argument("--s", type=count, required=True, help="part size")
    k.add_argument("--p", type=float, required=True)
    k.add_argument("--sizes", required=True,
                   help="comma-separated subset sizes")
    k.add_argument("--trials", type=count, default=50,
                   help="sampled pairs per size")
    k.add_argument("--seed", type=seed, default=0)
    k.add_argument("--out", default="out")
    k.set_defaults(func=cmd_experiment)

    k = kinds.add_parser("pipeline-success-rate",
                         help="full runs over a seed batch, tallied by status")
    _add_config_flags(k)
    k.add_argument("--runs", type=count, default=10)
    k.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
