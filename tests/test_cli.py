"""Command-line behaviour: exit codes, artifacts, config errors, colourings."""

import ast
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monogrid
from monogrid.blowup import build_blowup, save_blowup
from monogrid.cli import apply_colouring, build_parser, main, run_once
from monogrid import embedder, pipeline
from monogrid.config import (
    _ALL_KEYS,
    AUDIT_ECHO,
    GRAPH_SPEC,
    ConfigError,
    Knobs,
    RunConfig,
    load_config,
)
from monogrid.graphs import Graph, read_graph, write_colouring
from monogrid.pipeline import regular_subgraph
from monogrid.regularity import EXACT_CAP
from monogrid.regularity import RegParams, eps_schedule


def test_gen_host_writes_cycle(tmp_path):
    assert main(["gen-host", "--host", "cycle 10", "--out", str(tmp_path)]) == 0
    G = read_graph(str(tmp_path / "host.graph"))
    assert G.n == 10 and G.edge_count == 10 and G.max_degree() == 2


def test_gen_host_random_regular(tmp_path):
    assert main(["gen-host", "--host", "random-regular 20 3", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    G = read_graph(str(tmp_path / "host.graph"))
    assert G.n == 20
    assert all(G.degree(v) == 3 for v in G.vertices())


def test_gen_host_rejects_odd_degree_sum(tmp_path, capsys):
    # 5 * 3 is odd, no 3-regular graph on 5 vertices exists
    assert main(["gen-host", "--host", "random-regular 5 3",
                 "--out", str(tmp_path)]) == 2
    assert "even" in capsys.readouterr().err


def test_blowup_then_colour_round_trip(tmp_path):
    assert main(["blowup", "--host", "cycle 4", "--s", "8", "--p", "1.0",
                 "--seed", "0", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "blowup.graph").exists()
    assert main(["colour", "--blowup", str(tmp_path / "blowup"),
                 "--colouring", "host-edge-split", "--r", "2",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "colouring.txt").exists()


def test_colouring_strategies_are_seed_deterministic():
    bg = build_blowup(Graph.cycle(4), 16, 0.5, 0)
    for spec in ("mono 1", "uniform-random", "host-edge-split", "degree-adversary"):
        one = dict(apply_colouring(bg, spec, 2, 7).items())
        two = dict(apply_colouring(bg, spec, 2, 7).items())
        assert one == two, spec
        assert set(one.values()) <= {0, 1}
    u1 = dict(apply_colouring(bg, "uniform-random", 2, 1).items())
    u2 = dict(apply_colouring(bg, "uniform-random", 2, 2).items())
    assert u1 != u2
    assert set(dict(apply_colouring(bg, "mono 1", 2, 0).items()).values()) == {1}


def test_colouring_spec_bounds_checked():
    bg = build_blowup(Graph.cycle(4), 8, 1.0, 0)
    with pytest.raises(ConfigError):
        apply_colouring(bg, "mono 5", 2, 0)


# sha256 of the blow-up graph file and of the colouring file of every strategy.
# s = 70 is no multiple of 64, so the adjacency blocks straddle the parts.
PINNED_GRAPH = "ebb5ce3d9fd9051572300bf3ed6c565e75dc0d79abb61bb1dcd71bd43c11b96a"
PINNED_COLOURINGS = {
    (2, "mono 1"): "81dd059e40342cc1e657e818b1c2605b0444c1d468a3faf2aa96b465ed123507",
    (2, "uniform-random"):
        "1d99afdbeafed99f134f5e5f5ee51db7680f8b63eb15682d9cf7b7db370cc8ed",
    (2, "host-edge-split"):
        "dd8832c8df3b9e77dcbbe5c5540cedf04f66639386b3cbfe2b48796c77a59254",
    (2, "degree-adversary"):
        "a866d204e07d5842e7a61195dc151b1dfc9283a63e92f29f0e130ccf3bc8f265",
    (3, "mono 1"): "83f664e9d1b479666897e3f9c52ff8015fee397c6adba88d0f51cfa85ca23c57",
    (3, "uniform-random"):
        "c912e3813f2387276ea22cf5da5cc0a05688d1f3908b3eadce9ce8caa2c027cf",
    (3, "host-edge-split"):
        "02ff4e7c3eb0719969b730c021735fa96666e37c968dbbef22c095d6202015c2",
    (3, "degree-adversary"):
        "42310a87bec11d940470d67223e50115a2bda48906938374b8f26674660fc674",
}


# sha256 of the colouring file of the benchmark's desk-random run at seed 0
# (desk, uniform-random, alpha = 1/4, s = 300)
PINNED_DESK_RANDOM_COLOURING = \
    "b31c0682d79e7471b14470e8a9ef4af558e95e654c4278600c1f50d1e5fe9464"


def _file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("r,spec", sorted(PINNED_COLOURINGS))
def test_blowup_and_colouring_files_are_pinned(tmp_path, r, spec):
    bg = build_blowup(Graph.cycle(5), 70, 0.3, 7)
    save_blowup(bg, str(tmp_path / "blowup"))
    assert _file_sha256(tmp_path / "blowup.graph") == PINNED_GRAPH
    write_colouring(apply_colouring(bg, spec, r, 7), str(tmp_path / "colouring.txt"),
                    comment=spec)
    assert _file_sha256(tmp_path / "colouring.txt") == PINNED_COLOURINGS[r, spec]


def test_desk_random_colouring_is_pinned_at_full_scale(tmp_path):
    cfg = load_config(preset="desk", sets=("colouring=uniform-random", "alpha=1/4"),
                      seed=0, out="random-seed0")
    report, _ = run_once(cfg, tmp_path)
    assert report["status"] == "failed-at-cycle" and cfg.s == 300
    assert _file_sha256(tmp_path / "colouring.txt") == PINNED_DESK_RANDOM_COLOURING


def test_host_edge_split_colouring_recovered_exactly():
    # each part pair is monochromatic in its host edge's colour, so the
    # majority vote has no freedom: the settled colouring must reproduce
    # the host colouring edge for edge
    H = Graph.cycle(4)
    s, p = 64, 0.6
    bg = build_blowup(H, s, p, 3)
    chi = apply_colouring(bg, "host-edge-split", 2, 3)
    want = {e: k % 2 for k, e in enumerate(sorted(H.edges()))}
    for (u, v), c in chi.items():
        assert c == want[(u // bg.part_size, v // bg.part_size)]
    params = RegParams(r=2, max_degree=2, eps=Fraction(1, 4),
                       eps_inherit=Fraction(1, 16), alpha=Fraction(1, 2),
                       lam=Fraction(1), delta=Fraction(4, 64),
                       c=p * math.sqrt(s), p=p)
    sched = eps_schedule(Fraction(1, 4), 2, Fraction(1))
    res = regular_subgraph(bg, chi, params, sched, seed=3)
    assert {e: res.phi.colour(*e) for e in want} == want


def test_run_desk_preset_succeeds(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--preset", "desk", "--seed", "0", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "success"
    for name in ("host.graph", "blowup.graph", "colouring.txt", "pipeline.json",
                 "cycle.json", "grid.embedding", "timings.json"):
        assert (out / name).exists(), name
    # timing data stays out of the deterministic report
    assert "timings" not in report
    assert set(json.loads((out / "timings.json").read_text())) == {
        "host", "blowup", "colour", "pipeline", "cycle", "embed", "verify", "total"}
    cycle = json.loads((out / "cycle.json").read_text())
    assert (cycle["colour"], len(cycle["vertices"])) == (
        report["stages"]["cycle"]["colour"], report["stages"]["cycle"]["length"])


def test_failed_run_times_the_stage_that_failed(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--preset", "desk", "--set", "cycle_budget=1",
                 "--out", str(out)]) == 1
    assert json.loads((out / "report.json").read_text())["status"] == "failed-at-cycle"
    assert set(json.loads((out / "timings.json").read_text())) == {
        "host", "blowup", "colour", "pipeline", "cycle", "total"}


def test_pipeline_json_reads_back_as_the_result(tmp_path, monkeypatch):
    kept = []

    def keep(*args, **kwargs):
        kept.append(regular_subgraph(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(monogrid.cli, "regular_subgraph", keep)
    out = tmp_path / "run"
    assert main(["run", "--preset", "desk", "--set", "colouring=uniform-random",
                 "--set", "alpha=1/4", "--out", str(out)]) == 1
    with open(out / "pipeline.json") as fh:
        assert json.load(fh) == kept[0].to_json()
    assert len(kept[0].final_sets) > 1


def test_run_rejects_oversized_delta(tmp_path, capsys):
    assert main(["run", "--preset", "desk", "--set", "delta=1/2",
                 "--seed", "0", "--out", str(tmp_path)]) == 2
    assert "delta" in capsys.readouterr().err


def test_alpha_override_gate():
    with pytest.raises(ConfigError, match="allow_alpha_override"):
        load_config(sets=("host=cycle 10", "s=20", "alpha=1/3"))
    cfg = load_config(sets=("host=cycle 10", "s=20", "alpha=1/3",
                            "allow_alpha_override=true"))
    assert cfg.params.alpha == Fraction(1, 3)


def test_run_reports_non_integer_grid_side(tmp_path, capsys):
    # at s = 10 the configured slice gives a fractional side; the run must
    # stop at the planning check with an explanation, not crash later
    out = tmp_path / "run"
    assert main(["run", "--preset", "paper-s3", "--set", "host=cycle 10",
                 "--set", "s=10", "--seed", "0", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "failed-at-embed"
    assert "not an integer" in report["failure"]["message"]


def test_verify_exit_codes(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--preset", "desk", "--seed", "0", "--out", str(out)]) == 0
    graph = str(out / "blowup.graph")
    colouring = str(out / "colouring.txt")
    embedding = str(out / "grid.embedding")
    assert main(["verify", graph, colouring, embedding]) == 0

    # swap cell (0, 0) to the image of (0, 4): a duplicate, and its part is
    # not host-adjacent to the neighbours of (0, 0)
    rows = {}
    header = []
    for line in (out / "grid.embedding").read_text().splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith(("#", "grid")):
            rows[(int(parts[0]), int(parts[1]))] = int(parts[2])
        else:
            header.append(line)
    rows[(0, 0)] = rows[(0, 4)]
    bad = tmp_path / "bad.embedding"
    bad.write_text("\n".join(header
                             + [f"{i} {j} {v}" for (i, j), v in sorted(rows.items())])
                   + "\n")
    assert main(["verify", graph, colouring, str(bad)]) == 1

    assert main(["verify", str(tmp_path / "missing.graph"), colouring,
                 embedding]) == 2


@pytest.mark.parametrize("graph,colouring,message", [
    ("n 1099511627776\n1099511627775 1\n", "r 2\n",
     "g.txt:1: vertex count 1099511627776 exceeds 16777216"),
    ("n 3\n0 1\n", "r 100000000\n0 1 0\n1 2 1\n",
     "c.txt:1: colour count 100000000 exceeds 256"),
], ids=["vertices", "colours"])
def test_verify_refuses_oversized_header_counts(tmp_path, capsys, graph, colouring,
                                                message):
    (tmp_path / "g.txt").write_text(graph)
    (tmp_path / "c.txt").write_text(colouring)
    assert main(["verify", str(tmp_path / "g.txt"), str(tmp_path / "c.txt"),
                 str(tmp_path / "e.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    if colouring == "r 2\n":
        assert main(["oracle", "grid", "--graph", f"file {tmp_path / 'g.txt'}",
                     "--a", "1", "--b", "2"]) == 2
        assert message in capsys.readouterr().err


def test_run_refuses_an_oversized_colour_count(tmp_path, capsys):
    assert main(["run", "--preset", "desk", "--set", "r=100000000000",
                 "--out", str(tmp_path / "run")]) == 2
    assert "need at most 256 colours, got r=100000000000" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_oracle_arrows_writes_witness(tmp_path, capsys):
    assert main(["oracle", "arrows", "--graph", "complete 5",
                 "--target", "complete 3", "--r", "2",
                 "--out", str(tmp_path)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["status"] == "not_arrows" and blob["has_witness"]
    assert (tmp_path / "witness.colouring").exists()


def test_experiment_uniformity_sweep_is_flat_at_full_density(tmp_path):
    assert main(["experiment", "uniformity-sweep", "--s", "40", "--p", "1.0",
                 "--sizes", "4,8", "--trials", "10", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "uniformity_sweep.csv").read_text().splitlines()
    assert lines[0] == "size,pairs,worst_ratio"
    for line in lines[1:]:
        assert line.endswith(",0.0")


def test_experiment_success_rate_tallies_runs(tmp_path):
    assert main(["experiment", "pipeline-success-rate", "--preset", "desk",
                 "--seed", "0", "--out", str(tmp_path), "--runs", "2"]) == 0
    lines = (tmp_path / "success_rate.csv").read_text().splitlines()
    assert lines[0] == "seed,status"
    assert len(lines) == 3
    assert (tmp_path / "run-0000" / "report.json").exists()


def test_config_file_parsing(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text("# bench-ish setup\nhost cycle 10\nlam-rule identity  # kebab ok\ns 40\n")
    cfg = load_config(path=str(good))
    assert cfg.host_spec == "cycle 10"
    assert cfg.lam_rule == "identity"
    assert cfg.s == 40

    dup = tmp_path / "dup.cfg"
    dup.write_text("host cycle 10\nhost path 4\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path=str(dup))

    unk = tmp_path / "unk.cfg"
    unk.write_text("host cycle 10\nwombat 3\n")
    with pytest.raises(ConfigError, match="wombat"):
        load_config(path=str(unk))

    with pytest.raises(ConfigError, match="preset"):
        load_config(preset="nope")


def test_colour_reports_meta_without_host_hash(tmp_path, capsys):
    assert main(["blowup", "--host", "cycle 4", "--s", "6", "--p", "0.5",
                 "--out", str(tmp_path)]) == 0
    meta = tmp_path / "blowup.meta"
    meta.write_text("".join(line for line in meta.read_text().splitlines(True)
                            if not line.startswith("host_hash")))
    assert main(["colour", "--blowup", str(tmp_path / "blowup"),
                 "--colouring", "mono 0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "blowup.meta" in err and "host_hash" in err


def test_colour_refuses_meta_off_the_host_degree_bound(tmp_path, capsys):
    assert main(["blowup", "--host", "cycle 4", "--s", "6", "--p", "0.5",
                 "--out", str(tmp_path)]) == 0
    meta = tmp_path / "blowup.meta"
    meta.write_text(meta.read_text().replace("host_max_degree 2", "host_max_degree 3"))
    assert main(["colour", "--blowup", str(tmp_path / "blowup"),
                 "--colouring", "mono 0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "blowup.meta: host_max_degree 3 is not the host's degree bound 2" in err
    assert not (tmp_path / "colouring.txt").exists()


def test_colour_checks_the_part_size_before_building_parts(tmp_path, capsys):
    assert main(["blowup", "--host", "cycle 4", "--s", "6", "--p", "0.5",
                 "--out", str(tmp_path)]) == 0
    meta = tmp_path / "blowup.meta"
    meta.write_text(meta.read_text().replace("part_size 6", "part_size 100000000000"))
    assert main(["colour", "--blowup", str(tmp_path / "blowup"),
                 "--colouring", "mono 0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert ("blowup.meta: part_size 100000000000 times the host's 4 vertices "
            "is not the graph's 24") in err
    assert not (tmp_path / "colouring.txt").exists()


@pytest.mark.parametrize("line, edited, message", [
    ("p 0.5", "p nan", "blowup.meta: p: edge probability must lie in (0, 1], got nan"),
    ("p 0.5", "p 1.5", "blowup.meta: p: edge probability must lie in (0, 1], got 1.5"),
    ("seed 0", "seed -5", "blowup.meta: seed must be at least 0, got -5"),
    ("c 1.224744871391589", "c 1.2247",
     "blowup.meta: c 1.2247 is not p * sqrt(part_size)"),
    ("part_size 6", "part_size 0", "blowup.meta: part_size must be at least 1, got 0"),
])
def test_colour_refuses_edited_meta_values(tmp_path, capsys, line, edited, message):
    # what build_blowup and --seed refuse, a saved blow-up refuses too
    assert main(["blowup", "--host", "cycle 4", "--s", "6", "--p", "0.5",
                 "--out", str(tmp_path)]) == 0
    meta = tmp_path / "blowup.meta"
    assert line in meta.read_text().splitlines()
    meta.write_text(meta.read_text().replace(line, edited))
    capsys.readouterr()
    assert main(["colour", "--blowup", str(tmp_path / "blowup"),
                 "--colouring", "mono 0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "colouring.txt").exists()


def test_blowup_reports_bad_host_file(tmp_path, capsys):
    host = tmp_path / "bad.host"
    host.write_text("n 3\n0 5\n")
    assert main(["blowup", "--host", f"file {host}", "--s", "4", "--p", "0.5",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.host:2:" in err


@pytest.mark.parametrize("delta,side", [("1/150", 2), ("1/20", 15)])
def test_run_reports_grid_side_outside_host_cycles(tmp_path, delta, side):
    # the desk host has 10 vertices, so its cycles have 3 to 10 vertices
    out = tmp_path / "run"
    assert main(["run", "--preset", "desk", "--set", f"delta={delta}",
                 "--seed", "0", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "failed-at-embed"
    assert f"= {side} is not an integer from 3" in report["failure"]["message"]


@pytest.mark.parametrize("key", ["c", "p"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_float_keys_must_be_finite(tmp_path, capsys, key, value):
    with pytest.raises(ConfigError, match=f"{key} must be a finite number, got '{value}'"):
        load_config(preset="desk", sets=(f"{key}={value}",))
    out = tmp_path / "run"
    assert main(["run", "--preset", "desk", "--set", f"{key}={value}",
                 "--out", str(out)]) == 2
    assert "finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["check_trials", "audit_trials",
                                 "embed_check_trials", "embed_audit_trials",
                                 "badset_draws"])
def test_trial_knobs_must_be_positive(tmp_path, capsys, key):
    with pytest.raises(ConfigError, match=key):
        load_config(preset="desk", sets=(f"{key}=0",))
    assert getattr(load_config(preset="desk", sets=(f"{key}=1",)).knobs, key) == 1
    assert main(["run", "--preset", "desk", "--set", f"{key}=0",
                 "--out", str(tmp_path / "run")]) == 2
    assert "at least 1" in capsys.readouterr().err


KNOBS = dataclasses.fields(Knobs)
# every attribute name the package reads outside config.py
_READ = {node.attr for path in Path(monogrid.__file__).parent.glob("*.py")
         if path.name != "config.py"
         for node in ast.walk(ast.parse(path.read_text()))
         if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("knob", KNOBS, ids=[f.name for f in KNOBS])
def test_knob_table(tmp_path, capsys, knob):
    # the record, the config keys and the report's knobs name the same keys,
    # beside the audit's echoed constants; the package reads every knob; and
    # a knob below its least value or above its greatest is a config error
    key, least, most = knob.name, knob.metadata["least"], knob.metadata["most"]
    cfg = load_config(preset="desk")
    assert {f.name for f in dataclasses.fields(RunConfig)} == {
        "preset", "host_spec", "s", "seed", "colouring", "out", "lam_rule",
        "allow_alpha_override", "params", "knobs"}
    assert len(KNOBS) == 10 and not set(AUDIT_ECHO) & {f.name for f in KNOBS}
    assert cfg.to_json()["knobs"] == {**dataclasses.asdict(cfg.knobs), **AUDIT_ECHO}
    assert getattr(cfg.knobs, key) == cfg.to_json()["knobs"][key] == knob.default
    assert key in _READ
    assert main(["run", "--preset", "desk", "--set", f"{key}={least - 1}",
                 "--out", str(tmp_path / "run")]) == 2
    assert f"{key} must be at least {least}" in capsys.readouterr().err
    assert least <= knob.default <= most < 100000000
    assert main(["run", "--preset", "desk", "--set", f"{key}={most + 1}",
                 "--out", str(tmp_path / "run")]) == 2
    assert f"{key} must be at most {most}, got {most + 1}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["check_cap"])
def test_exact_caps_stop_at_the_exact_cap(tmp_path, capsys, key):
    # an exact check enumerates every k-subset of its pair; at a cap of 300
    # a desk run was still enumerating after a minute
    cap = EXACT_CAP
    assert getattr(load_config(preset="desk", sets=(f"{key}={cap}",)).knobs, key) == cap
    assert main(["run", "--preset", "desk", "--set", f"{key}={cap + 1}",
                 "--out", str(tmp_path / "run")]) == 2
    assert f"{key} must be at most {cap}, got {cap + 1}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("fn", [pipeline.regular_subgraph, embedder.embed_grid,
                                embedder.build_context, embedder.seed_first_row,
                                embedder.embed_row], ids=lambda fn: fn.__name__)
def test_run_path_takes_knobs_as_one_record(fn):
    params = inspect.signature(fn).parameters
    assert not set(params) & {f.name for f in KNOBS}
    assert params["knobs"].default == Knobs()


def test_zero_vertex_budget_fails_in_the_first_row(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--preset", "desk", "--set", "vertex_budget=0",
                 "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "failed-at-embed"
    assert report["failure"]["stage"] == "first-row"


def test_oracle_grid_rejects_empty_grid(capsys):
    assert main(["oracle", "grid", "--graph", "complete 7",
                 "--a", "0", "--b", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least 1" in err


def test_oracle_grid_pattern_obeys_the_spec_bounds(capsys):
    assert main(["oracle", "grid", "--graph", "cycle 10",
                 "--a", "100000", "--b", "100000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: graph spec 'grid 100000 100000': vertex count "
                          "10000000000 exceeds 16777216")


def test_long_path_grid_search_stays_below_the_recursion_limit(capsys):
    # a 1400-vertex pattern: the search keeps its own stack
    assert main(["oracle", "grid", "--graph", "path 1500", "--a", "1",
                 "--b", "1400", "--budget", "100000"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "found"


def test_first_moment_rejects_grid_larger_than_host(tmp_path, capsys):
    assert main(["experiment", "first-moment", "--n", "5", "--a", "3", "--b", "3",
                 "--p-values", "0.1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "more vertices than the host" in err


@pytest.mark.parametrize("n,a,b,p", [("1000", "20", "20", "0.5"),
                                     ("1000", "20", "20", "0"),
                                     ("100000000", "1000", "1000", "0.5")])
def test_first_moment_refuses_counts_past_the_float_range(tmp_path, capsys, n, a, b, p):
    start = time.process_time()
    assert main(["experiment", "first-moment", "--n", n, "--a", a, "--b", b,
                 "--p-values", p, "--out", str(tmp_path)]) == 2
    assert time.process_time() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds the float range" in err
    assert "Traceback" not in err


def test_colour_rejects_fewer_than_two_colours(tmp_path, capsys):
    assert main(["blowup", "--host", "cycle 4", "--s", "4", "--p", "0.5",
                 "--out", str(tmp_path)]) == 0
    assert main(["colour", "--blowup", str(tmp_path / "blowup"),
                 "--colouring", "mono 0", "--r", "0", "--out", str(tmp_path)]) == 2
    assert "need at least 2 colours, got r=0" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["", "random-regular 10", "cycle 10 7",
                                  "single-edge 5"])
def test_gen_host_rejects_malformed_spec(tmp_path, capsys, spec):
    assert main(["gen-host", "--host", spec, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown graph spec" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec,message", [
    ("cycle 100000000000", "vertex count 100000000000 exceeds 16777216"),
    ("complete 100000", "edge count 4999950000 exceeds 65536"),
    ("complete -1", "negative vertex count -1"),
])
def test_oversized_graph_specs_are_refused_before_building(tmp_path, capsys, spec,
                                                           message):
    assert main(["gen-host", "--host", spec, "--out", str(tmp_path / "h")]) == 2
    assert main(["oracle", "grid", "--graph", spec, "--a", "2", "--b", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count(f"error: graph spec {spec!r}: {message}") == 2
    assert "Traceback" not in captured.err and not captured.out
    assert not (tmp_path / "h").exists()


def test_unbuildable_random_regular_host_is_a_config_error(tmp_path, capsys):
    # the only 5-regular graph on 6 vertices is K6, which the pairing model
    # practically never draws
    assert main(["gen-host", "--host", "random-regular 6 5",
                 "--out", str(tmp_path)]) == 2
    assert "no simple 5-regular graph" in capsys.readouterr().err
    assert main(["run", "--preset", "desk", "--set", "host=random-regular 6 5",
                 "--out", str(tmp_path / "run")]) == 2
    assert "no simple 5-regular graph" in capsys.readouterr().err


def test_every_command_speaks_one_grammar(tmp_path, capsys):
    assert main(["oracle", "grid", "--graph", "single-edge",
                 "--a", "1", "--b", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "found"
    # a grid host has degree 3, so the level schedule takes its bound
    out = tmp_path / "run"
    assert main(["run", "--preset", "desk", "--set", "host=grid 2 5",
                 "--out", str(out)]) in (0, 1)
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["host"] == "grid 2 5"
    assert report["config"]["params"]["max_degree"] == 3


def test_run_rejects_max_degree_off_the_host_bound(tmp_path, capsys):
    # the degree bound is always the host's own, so no key sets it
    assert main(["run", "--preset", "desk", "--set", "max_degree=3",
                 "--out", str(tmp_path)]) == 2
    assert "unknown configuration key(s): max_degree" in capsys.readouterr().err


def test_readme_and_help_state_the_one_grammar():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert GRAPH_SPEC in readme.read_text()
    subs = build_parser()._subparsers._group_actions[0].choices
    oracle = subs["oracle"]._subparsers._group_actions[0].choices
    for parser in (subs["gen-host"], subs["blowup"], oracle["arrows"], oracle["grid"]):
        assert any(GRAPH_SPEC in (action.help or "") for action in parser._actions)


def _exit_code(argv: list[str]) -> int:
    """main's return value, or the exit code of an argparse usage error."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


FIRST_MOMENT = ["experiment", "first-moment", "--n", "10", "--a", "2", "--b", "2"]
SWEEP = ["experiment", "uniformity-sweep", "--p", "0.5", "--sizes", "1"]


@pytest.mark.parametrize("argv,message", [
    (["blowup", "--host", "cycle 4", "--s", "0", "--p", "0.5", "--out", "{out}"],
     "argument --s: must be at least 1, got 0"),
    (SWEEP + ["--s", "0", "--out", "{out}"], "argument --s: must be at least 1, got 0"),
    (SWEEP + ["--s", "10", "--trials", "-1", "--out", "{out}"],
     "argument --trials: must be at least 1, got -1"),
    (FIRST_MOMENT + ["--p-values", "2", "--out", "{out}"], "p must lie in [0, 1], got 2.0"),
    (FIRST_MOMENT + ["--p-values", "0.5", "--samples", "0", "--out", "{out}"],
     "argument --samples: must be at least 1, got 0"),
    (["oracle", "grid", "--graph", "complete 5", "--a", "2", "--b", "2",
      "--budget", "-1"], "argument --budget: must be at least 1, got -1"),
    (["oracle", "arrows", "--graph", "complete 5", "--target", "cycle 3",
      "--budget", "-1", "--out", "{out}"], "argument --budget: must be at least 1, got -1"),
    (["experiment", "pipeline-success-rate", "--preset", "desk", "--runs", "-1",
      "--out", "{out}"], "argument --runs: must be at least 1, got -1"),
    (["oracle", "arrows", "--graph", "complete 4", "--target", "complete 3",
      "--r", "100000000", "--out", "{out}"], "need at most 256 colours, got r=100000000"),
    (["blowup", "--host", "cycle 10", "--s", "100000000", "--p", "0.5", "--out", "{out}"],
     "blow-up of 10 host vertices at s = 100000000 has 1000000000 vertices, "
     "more than 16777216"),
    (["blowup", "--host", "cycle 10", "--s", "8000", "--p", "0.5", "--out", "{out}"],
     "blow-up of 10 host edges at s = 8000 spans 640000000 cells, more than 536870912"),
    (["run", "--preset", "desk", "--set", "s=100000000", "--out", "{out}"],
     "has 1000000000 vertices, more than 16777216"),
    (["experiment", "pipeline-success-rate", "--preset", "desk", "--set", "s=100000000",
      "--runs", "1", "--out", "{out}"], "has 1000000000 vertices, more than 16777216"),
    (SWEEP + ["--s", "100000000", "--out", "{out}"],
     "blow-up of 2 host vertices at s = 100000000 has 200000000 vertices"),
    (["blowup", "--host", "cycle 4", "--s", "3", "--p", "2", "--out", "{out}"],
     "edge probability must lie in (0, 1], got 2.0"),
    (["experiment", "uniformity-sweep", "--s", "3", "--p", "0", "--sizes", "1",
      "--out", "{out}"], "edge probability must lie in (0, 1], got 0.0"),
    *[(argv + ["--seed", "-1"], "argument --seed: must be at least 0, got -1") for argv in (
        ["gen-host", "--host", "cycle 10", "--out", "{out}"],
        ["gen-host", "--host", "random-regular 10 3", "--out", "{out}"],
        ["blowup", "--host", "cycle 4", "--s", "3", "--p", "0.5", "--out", "{out}"],
        ["colour", "--blowup", "{out}/blowup", "--colouring", "uniform-random",
         "--out", "{out}"],
        ["colour", "--blowup", "{out}/blowup", "--colouring", "mono 0", "--out", "{out}"],
        ["run", "--preset", "desk", "--out", "{out}"],
        ["oracle", "count", "--n", "6", "--p", "0.5", "--a", "2", "--b", "2"],
        FIRST_MOMENT + ["--p-values", "0.3", "--out", "{out}"],
        SWEEP + ["--s", "10", "--out", "{out}"],
        ["experiment", "pipeline-success-rate", "--preset", "desk", "--runs", "1",
         "--out", "{out}"])],
], ids=["blowup-s", "sweep-s", "sweep-trials", "first-moment-p", "first-moment-samples",
        "grid-budget", "arrows-budget", "success-rate-runs", "arrows-r",
        "blowup-vertices", "blowup-cells", "run-s", "success-rate-s", "sweep-vertices",
        "blowup-p", "sweep-p", "gen-host-seed", "random-regular-seed", "blowup-seed",
        "colour-random-seed", "colour-mono-seed", "run-seed", "count-seed",
        "first-moment-seed", "sweep-seed", "success-rate-seed"])
def test_out_of_range_counts_are_usage_errors(tmp_path, capsys, argv, message):
    # exit 2 with a message, no traceback, and no file claims the bad value
    argv = [a.replace("{out}", str(tmp_path / "out")) for a in argv]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert not captured.out
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


# ---------------------------------------------------------------------------
# determinism pin and exit-code fuzz


@pytest.mark.parametrize("sets,digest", [
    ((), "829665fa3a817ba1797407787203bd35df6eb267e4fac288f048bcd619534da1"),
    (("host=complete 11",),
     "215c6850df243db88fcd8eb76026507e564c86346c4892e1271cb7b11b7851d8"),
], ids=["desk", "complete-11"])
def test_desk_seed0_report_is_pinned(sets, digest):
    # The desk case is built the way the benchmark's desk-mono workload
    # builds it; the same hash is pinned there, so a drift in any RNG stream
    # fails here first.  On `complete 11` the cycle sets miss a host vertex's
    # part, and the bad-set audit runs its (N_v, N_w) checks.
    cfg = load_config(preset="desk", sets=sets, seed=0, out="desk-s300-seed0")
    with tempfile.TemporaryDirectory() as tmp:
        report, _ = run_once(cfg, Path(tmp))
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_edgeless_pair_fails_at_pipeline(tmp_path):
    # at p = 1e-9 the blow-up has no edges, so the first host edge's pair has
    # none to take a majority over
    out = tmp_path / "run"
    code = main(["run", "--preset", "desk", "--set", "p=1e-9", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert code == 1 and report["status"] == "failed-at-pipeline"
    failure = report["failure"]
    assert (failure["pipeline_stage"], failure["level"], failure["edge"]) == \
        ("majority-density", 1, [0, 1])


_ODD_VALUES = ("0", "-1", "1", "2", "3", "7", "100000000", "1/0", "1/3", "1/20", "0.5",
               "nan", "inf", "1e9", "1e-9", "true", "x", "", "cycle 4", "complete 4",
               "path 3", "mono 1", "uniform-random", "quarter", "identity",
               "cycle 100000000000", "complete 100000")
# `out` would move the run out of its temporary directory
_FUZZ_KEYS = sorted(_ALL_KEYS - {"out"})


# Any key may draw 100000000.  The blow-up bound refuses it for s, and every
# trial and budget knob stops below it, so no run at that value outlasts the
# fuzz: desk runs with find_budget (s = 2) or check_trials (s = 60) at
# 100000000 went on past 30 s before the knobs had a greatest value.
@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(2, 60), st.sampled_from([45, 60, 100000000])),
       st.lists(st.tuples(st.sampled_from(_FUZZ_KEYS), st.sampled_from(_ODD_VALUES)),
                min_size=1, max_size=3))
def test_run_exit_codes_stay_honest(s, overrides):
    sets = (f"s={s}", *(f"{key}={value}" for key, value in overrides))
    argv = ["run", "--preset", "desk", *(a for item in sets for a in ("--set", item))]
    try:
        load_config(preset="desk", sets=sets)
        refused = False
    except ConfigError:
        refused = True
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--out", str(out)])
        # main maps a ValueError from any stage to exit 2 as well, so exit 2
        # is honest only where load_config refuses the same overrides
        assert code in (0, 1, 2) and (code == 2) == refused
        if code == 2:
            return
        report = json.loads((out / "report.json").read_text())
    assert (code == 0) == (report["status"] == "success")
    if code == 1:
        assert report["status"].startswith("failed-at-")
        assert isinstance(report["failure"]["stage"], str) and report["failure"]["stage"]
