#!/usr/bin/env python3
"""Run every workload, print every metric, and compare with the baseline.

    python3 perfbench/compare.py                  # seed 0, all workloads
    python3 perfbench/compare.py --seeds 0-9      # ten seeds: medians, quartiles
    python3 perfbench/compare.py --workloads oracles --seeds 3

For each workload and seed it runs `run.py` untraced, then once traced at the
first seed, in fresh processes, one at a time.  It prints each end-to-end
metric (median, quartiles, spread, samples) against `baseline.json` and the
bound in BENCHMARK.json, the wall-clock pass, each per-layer metric, the
tracing overhead (traced minus untraced pass, wall clock), and one summary
row per workload.  A changed work counter or report hash is flagged as a
behaviour change, not as a speed result.  The full record goes to
perfbench/_work/compare.json; --write-baseline stores this run as the new
baseline.

Exit status: 0 when every operation passed and nothing regressed or changed
behaviour, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
BASELINE = HERE / "baseline.json"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def environment(seeds: list[int]) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.strip()
    except OSError:
        rev = ""
    return {"git_rev": rev or "unknown", "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": list(os.getloadavg()), "seeds": seeds}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py process; returns its sidecar record (metrics and operations)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    print(f"$ {' '.join(cmd[1:])}", flush=True)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"run failed ({done.returncode}):\n{done.stderr}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    with open(WORK / f"result-{workload}-seed{seed}-trace{trace}.json") as fh:
        record = json.load(fh)
    assert record["metrics"] == last["metrics"]
    return record


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def worse_share(value: float, base: float, better: str) -> float:
    if not base:
        return 0.0
    change = (value - base) / base
    return change if better == "lower" else -change


def hashes(record: dict) -> dict:
    return {r["op"]: r["sha256"] for r in record["operations"] if r["sha256"]}


def compare_workload(name: str, spec: dict, seeds: list[int],
                     base: dict | None) -> dict:
    runs = [run_one(name, seed, spec["run_seconds"], 0) for seed in seeds]
    traced = run_one(name, seeds[0], spec["run_seconds"], 1)
    flags: list[tuple[str, str]] = []  # (kind, detail)
    failed = sum(r["failed"] for r in runs + [traced])
    attempted = sum(r["attempted"] for r in runs + [traced])
    for r in runs + [traced]:
        for op in r["operations"]:
            if op["errors"]:
                flags.append(("FAILED", f"seed {r['seed']} trace {r['trace']} "
                                        f"{op['op']}: {'; '.join(op['errors'])}"))

    print(f"\n== {name}: {len(runs)} untraced run(s), "
          f"{sum(len(r['passes']) for r in runs)} pass(es), "
          f"{attempted} operation(s), {failed} failed "
          f"(failed_frac {failed / attempted:.4f})")
    print(f"  {'metric':16s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'baseline':>12s} {'change':>8s} {'bound':>6s}  verdict")
    e2e: dict[str, dict] = {}
    for m in spec["end_to_end"]:
        summary = summarise([r["metrics"][m["name"]]["value"] for r in runs])
        e2e[m["name"]] = summary
        verdict, change, base_median = "no baseline", None, None
        if base is not None and m["name"] in base["metrics"]:
            base_median = base["metrics"][m["name"]]["median"]
            change = worse_share(summary["median"], base_median, m["better"])
            if m["name"] != "setup_s" and summary["spread"] > m["bound"]:
                verdict = "unresolved (spread above bound)"
            elif change > m["bound"]:
                verdict = "REGRESSION"
                flags.append(("REGRESSION", f"{m['name']} worse by {change:.1%}"))
            else:
                verdict = "ok"
        print(f"  {m['name']:16s} {m['unit']:6s} {summary['median']:12.4f} "
              f"{summary['q1']:12.4f} {summary['q3']:12.4f} "
              f"{summary['spread']:7.3f} "
              f"{'-' if base_median is None else f'{base_median:.4f}':>12s} "
              f"{'-' if change is None else f'{change:+.1%}':>8s} "
              f"{m['bound']:6.2f}  {verdict}")

    walls = summarise([statistics.median(r["passes"]) for r in runs])
    print(f"  wall-clock pass (unbounded): median {walls['median']:.4f} s, "
          f"spread {walls['spread']:.3f}")
    overhead = (traced["metrics"]["trace.wall_s"]["value"]
                - statistics.median(runs[0]["passes"]))
    print(f"  tracing overhead at seed {seeds[0]}: {overhead:+.3f} s "
          "(traced pass minus untraced pass, wall clock)")
    if hashes(traced) != hashes(runs[0]):
        flags.append(("BEHAVIOUR CHANGE", "report hashes differ under tracing"))

    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    counters = {k: layer[k] for k in layer if tracing.is_counter(k)}
    same_seed = base is not None and base["seed"] == seeds[0]
    print(f"  per-layer, traced seed {seeds[0]}:")
    for metric, unit, _ in tracing.per_layer_spec():
        note = ""
        if same_seed and metric in counters and metric in base["counters"]:
            if base["counters"][metric] != counters[metric]:
                note = f"  BEHAVIOUR CHANGE (baseline {base['counters'][metric]})"
                flags.append(("BEHAVIOUR CHANGE", f"counter {metric}: "
                              f"{base['counters'][metric]} -> {counters[metric]}"))
        elif base is not None and metric in base.get("per_layer", {}):
            note = f"  (baseline {base['per_layer'][metric]:.4f})"
        print(f"    {metric:44s} {unit:6s} {layer[metric]:16.6g}{note}")
    run_hashes = hashes(runs[0])
    if same_seed and base.get("report_sha256") and base["report_sha256"] != run_hashes:
        changed = sorted(k for k in run_hashes
                         if base["report_sha256"].get(k) != run_hashes[k])
        flags.append(("BEHAVIOUR CHANGE", f"report hashes of {', '.join(changed)}"))
    for kind, detail in flags:
        print(f"  ! {kind}: {detail}")
    return {"runs": len(runs), "attempted": attempted, "failed": failed,
            "seed": seeds[0], "metrics": e2e, "wall_s": walls,
            "overhead_s": overhead,
            "counters": counters,
            "per_layer": {k: v for k, v in layer.items() if k not in counters},
            "report_sha256": run_hashes, "flags": flags}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="e.g. 0, 0-9 or 1,4,7")
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["per_layer"]]
    if declared != [name for name, _, _ in tracing.per_layer_spec()]:
        raise SystemExit("BENCHMARK.json per_layer does not match tracing.py")
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    env = environment(seeds)
    print("monogrid benchmark  " + "  ".join(f"{k} {v}" for k, v in env.items()))
    WORK.mkdir(exist_ok=True)

    results = {name: compare_workload(name, bench, seeds,
                                      baseline.get("workloads", {}).get(name))
               for name in names}

    metric_names = [m["name"] for m in bench["end_to_end"]]
    print(f"\n{'workload':12s} {'runs':>4s} {'ops':>5s} {'failed_frac':>11s} "
          + " ".join(f"{n:>14s}" for n in metric_names)
          + f" {'wall_s':>10s} {'overhead_s':>10s}  verdict")
    status = 0
    for name, res in results.items():
        verdict = ", ".join(sorted({kind for kind, _ in res["flags"]})) or "ok"
        if res["flags"]:
            status = 1
        print(f"{name:12s} {res['runs']:4d} {res['attempted']:5d} "
              f"{res['failed'] / res['attempted']:11.4f} "
              + " ".join(f"{res['metrics'][n]['median']:14.4f}" for n in metric_names)
              + f" {res['wall_s']['median']:10.3f} {res['overhead_s']:10.3f}  {verdict}")

    record = {"environment": env, "workloads": results}
    (WORK / "compare.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.write_baseline:
        stored = {"environment": env, "workloads": {
            name: {"seed": res["seed"], "metrics": res["metrics"],
                   "counters": res["counters"], "per_layer": res["per_layer"],
                   "report_sha256": res["report_sha256"]}
            for name, res in results.items()}}
        BASELINE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE}")
    return status


if __name__ == "__main__":
    sys.exit(main())
