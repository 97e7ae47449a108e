#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload desk-mono --seed 0 --seconds 30 --trace 0

With --trace 0 the run measures the end-to-end metrics: set-up time (the
median of several fresh-interpreter set-ups), the time of one pass over the
workload's operations (the median over as many whole passes as fit in
--seconds, at least one), peak resident memory and the share of operations
that completed.  Both times are process CPU seconds: the program is
single-threaded, so on a quiet machine they equal wall time, and unlike wall
time they do not count the time a shared machine's other guests take from
the process.  Wall times go to the record beside the result.

With --trace 1 it makes one traced pass and reports the per-layer metrics
instead.  Every operation's output is checked either way; a failed check or
an exception fails that operation, not the run.

Artifacts, a per-operation record and the spans go to perfbench/_work/.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
SETUP_RUNS = 5

# CPU seconds of one set-up in a fresh interpreter: import monogrid (with
# numpy) and resolve every config and input of the workload.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t0 = time.process_time()\n"
    "import workloads\n"
    "workloads.prepare(sys.argv[3], int(sys.argv[4]))\n"
    "print(time.process_time() - t0)\n"
)


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE),
             workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_pass(ops: list, workdir: Path, tracer=None) -> tuple[float, float, list[dict]]:
    """One pass over the operations: its wall and CPU seconds, one record each."""
    records = []
    total = cpu_total = 0.0
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op(workdir)
            record = {"status": out.status, "sha256": out.report_sha256,
                      "timings": out.timings, "errors": out.errors}
        except Exception as e:  # a crashing operation fails, the pass goes on
            record = {"status": "exception", "sha256": None, "timings": None,
                      "errors": [f"{type(e).__name__}: {e}"]}
        seconds = time.perf_counter() - t0
        cpu = time.process_time() - c0
        shutil.rmtree(workdir / op.name, ignore_errors=True)
        total += seconds
        cpu_total += cpu
        records.append({"op": op.name, "seconds": seconds, "cpu_seconds": cpu,
                        **record})
        mark = "ok" if not record["errors"] else "FAILED " + "; ".join(record["errors"])
        print(f"  {op.name:24s} {seconds:8.3f} s  {record['status']:18s} {mark}",
              flush=True)
    return total, cpu_total, records


def untraced(args, workdir: Path) -> tuple[dict, list[dict], dict]:
    setup = measure_setup(args.workload, args.seed)
    import workloads

    ops = workloads.prepare(args.workload, args.seed)
    passes, cpu_passes, records = [], [], []
    start = time.perf_counter()
    while True:
        seconds, cpu, recs = run_pass(ops, workdir)
        passes.append(seconds)
        cpu_passes.append(cpu)
        records += recs
        # start another pass only if it should end within --seconds
        if time.perf_counter() - start + seconds > args.seconds:
            break
    failed = sum(bool(r["errors"]) for r in records)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(cpu_passes), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "completed_frac": ((len(records) - failed) / len(records), "ratio"),
    }
    extra = {"setup_runs": setup, "passes": passes, "cpu_passes": cpu_passes}
    return metrics, records, extra


def traced(args, workdir: Path) -> tuple[dict, list[dict], dict]:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.op = "prepare"
    ops = workloads.prepare(args.workload, args.seed)
    seconds, _, records = run_pass(ops, workdir, tracer)
    # cross-check: the stage spans under each run_once against its timings
    covered = tracer.stage_sums()
    runs = [r for r in records if r["op"] in covered and r["timings"]]
    for r in runs:
        share = covered[r["op"]] / r["timings"]["total"]
        r["stage_sum_frac"] = share
        if abs(1 - share) > tracing.STAGE_SUM_BOUND:
            r["errors"].append(f"stage spans cover {share:.3f} of the run's "
                               "timings total")
    values = tracer.metrics()
    values["trace.wall_s"] = seconds
    totals = sum(r["timings"]["total"] for r in runs)
    values["trace.stage_sum_frac"] = (
        sum(covered[r["op"]] for r in runs) / totals if totals else 1.0)
    tracer.write(workdir.parent / f"spans-{args.workload}-seed{args.seed}.json")
    units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
    metrics = {name: (values[name], units[name]) for name in units}
    return metrics, records, {"passes": [seconds]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "monogrid" / "__init__.py").is_file():
        print(f"error: no monogrid sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}",
          flush=True)
    measure = traced if args.trace else untraced
    metrics, records, extra = measure(args, workdir)
    failed = sum(bool(r["errors"]) for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(WORK / f"result-{tag}.json", "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "operations": records, **extra},
                  fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
