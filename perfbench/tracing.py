"""Per-layer tracing, installed from outside the package.

`install` replaces public functions of monogrid's modules with wrappers, in
every monogrid module that holds a reference to them (a name imported with
`from x import f` is a separate binding that must be patched too).  Each call
records one span (name, start, end, parent, operation) in memory, and work
counters are read from the values the calls return.  Nothing inside the
package changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _verdict(c: Counter, verdict, args, kwargs) -> None:
    c["regularity.sampled_passed"] += verdict.passed


def _bad_set(c: Counter, bad, args, kwargs) -> None:
    c["regularity.bad_vertices"] += bad.size
    c["regularity.audited_vertices"] += _arg(args, kwargs, 4, "ambient").size


def _find(c: Counter, found, args, kwargs) -> None:
    c["regularity.find_checks"] += found.checks_used
    c["regularity.find_restarts"] += found.restarts


def _row(c: Counter, row, args, kwargs) -> None:
    # embed_grid drops RowState.stats; the rows it returns still carry them
    for key in ("vertices_tried", "subsets_drawn", "checks", "backtracks"):
        c[f"embedder.{key}"] += row.stats.get(key, 0)
    c["embedder.cells_placed"] += len(row.images)


def _written(c: Counter, _, args, kwargs) -> None:
    c["graphs.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _read(c: Counter, _, args, kwargs) -> None:
    c["graphs.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _pipeline(c: Counter, res, args, kwargs) -> None:
    c["pipeline.edges_settled"] += len(res.edge_log)
    c["pipeline.audits"] += len(res.audit_log)


def _blowup(c: Counter, bg, args, kwargs) -> None:
    c["blowup.edges"] += bg.gamma.edge_count


def _search(c: Counter, res, args, kwargs) -> None:
    c["oracle.search_nodes"] += res.nodes


def _grid_count(c: Counter, rep, args, kwargs) -> None:
    c["oracle.grid_samples"] += rep.samples


# module -> traced functions, each with the hook that reads its return value
LAYERS = {
    "config": {"load_config": None},
    "cli": {"run_once": None, "apply_colouring": None},
    "blowup": {"build_blowup": _blowup, "save_blowup": None},
    "graphs": {"colour_subgraph": None, "write_graph": _written,
               "write_colouring": _written, "read_graph": _read,
               "read_colouring": _read},
    "pipeline": {"regular_subgraph": _pipeline, "majority_colour": None,
                 "find_mono_cycle": None},
    "regularity": {"find_lower_regular_pair": _find,
                   "check_lower_regular": None,
                   "sampled_lower_regular": _verdict,
                   "compute_bad_set": _bad_set},
    "embedder": {"embed_grid": None, "build_context": None,
                 "seed_first_row": _row, "embed_row": _row,
                 "verify_grid_embedding": None},
    "oracle": {"monte_carlo_grid_count": _grid_count,
               "contains_subgraph": _search},
}

# Counters reported as they are, and (name, numerator, denominator) ratios.
COUNTERS = (
    "regularity.bad_vertices", "regularity.audited_vertices",
    "regularity.find_checks", "regularity.find_restarts",
    "embedder.vertices_tried", "embedder.subsets_drawn", "embedder.checks",
    "embedder.backtracks", "graphs.bytes_written", "graphs.bytes_read",
    "pipeline.edges_settled", "pipeline.audits", "blowup.edges",
    "oracle.search_nodes", "oracle.grid_samples",
)
RATIOS = (
    ("regularity.sampled_pass_frac", "regularity.sampled_passed",
     "regularity.sampled_lower_regular.calls"),
    ("embedder.accept_frac", "embedder.cells_placed", "embedder.subsets_drawn"),
)

# The stage spans directly under cli.run_once must cover the run's own
# timings.json total to within this share of it.
STAGE_SUM_BOUND = 0.05


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    spec = []
    for module, fns in LAYERS.items():
        for fn in fns:
            spec += [(f"{module}.{fn}.calls", "count", "lower"),
                     (f"{module}.{fn}.total_s", "s", "lower"),
                     (f"{module}.{fn}.self_s", "s", "lower")]
    for name in COUNTERS:
        unit = "bytes" if name.startswith("graphs.bytes") else "count"
        better = "higher" if name == "oracle.grid_samples" else "lower"
        spec.append((name, unit, better))
    spec += [(name, "ratio", "higher") for name, _, _ in RATIOS]
    spec += [("trace.wall_s", "s", "lower"),
             ("trace.stage_sum_frac", "ratio", "higher"),
             ("trace.spans", "count", "lower")]
    return spec


def is_counter(name: str) -> bool:
    """Whether a per-layer metric is deterministic: a count or a ratio of counts."""
    return not name.endswith("_s") and name != "trace.stage_sum_frac"


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.child_s: list[float] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()

    def call(self, name: str, fn, hook, args: tuple, kwargs: dict):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(span)
        self.child_s.append(0.0)
        self.stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            duration = span[2] - span[1]
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - self.child_s[index]
            if parent >= 0:
                self.child_s[parent] += duration
        if hook is not None:
            hook(self.counters, result, args, kwargs)
        return result

    def stage_sums(self) -> dict[str, float]:
        """Seconds covered by the spans directly under each run_once, by op."""
        roots = {i: span[4] for i, span in enumerate(self.spans)
                 if span[0] == "cli.run_once"}
        out = dict.fromkeys(roots.values(), 0.0)
        for name, start, end, parent, op in self.spans:
            if parent in roots:
                out[op] += end - start
        return out

    def metrics(self) -> dict[str, float]:
        values: dict[str, float] = {}
        for module, fns in LAYERS.items():
            for fn in fns:
                name = f"{module}.{fn}"
                values[f"{name}.calls"] = self.calls[name]
                values[f"{name}.total_s"] = self.total_s[name]
                values[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTERS:
            values[name] = self.counters[name]
        for name, num, den in RATIOS:
            values[name] = self.counters[num] / values[den] if values[den] else 0.0
        values["trace.spans"] = len(self.spans)
        return values

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every monogrid module that binds it."""
    for module in LAYERS:
        importlib.import_module(f"monogrid.{module}")
    holders = [mod for name, mod in sys.modules.items()
               if name == "monogrid" or name.startswith("monogrid.")]
    for module, fns in LAYERS.items():
        home = sys.modules[f"monogrid.{module}"]
        for fn_name, hook in fns.items():
            original = getattr(home, fn_name)
            wrapper = _wrap(tracer, f"{module}.{fn_name}", original, hook)
            for mod in holders:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, hook, args, kwargs)
    return traced
