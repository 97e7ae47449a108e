"""Run configuration: presets, flat key-value files, and override resolution.

A run is described by a flat string-to-string mapping.  Values arrive from
four places and later ones win: built-in defaults, a named preset, a config
file, then individual command-line overrides.  `load_config` merges them and
resolves the result into typed form, raising `ConfigError` for anything that
cannot be acted on.  Each trial and budget knob is named once, as a field
of `Knobs` with its default and accepted range; `SHRINK` maps each lam_rule
to the constant factor the level schedule shrinks by.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

from monogrid.blowup import check_size
from monogrid.graphs import MAX_COLOURS, MAX_VERTICES, Graph, read_graph
from monogrid.regularity import EXACT_CAP, EpsSchedule, RegParams, eps_schedule


class ConfigError(Exception):
    """A configuration that cannot be acted on.  The CLI maps this to exit 2."""


def _knob(default: int, least: int, most: int):
    return field(default=default, metadata={"least": least, "most": most})


# The most trials a sampled check or audit may run, and the most checks or
# subset tries a search may spend.  On one core of a 2-CPU Xeon a desk run
# at s = 300 takes 8 s with check_trials at this bound and 15 s with
# audit_trials there; find_budget there takes 3 s at s = 2.
MOST_TRIALS = 10_000


@dataclass(frozen=True)
class Knobs:
    """Every trial and budget knob of a run, each with its default.

    Beside each default sit the least and the greatest accepted value.  A
    sampled check or audit that draws nothing decides nothing, and the
    density-increment search needs one check to report on, so those start
    at 1.  An exact check enumerates every k-subset of its pair, which stops
    being tractable above `EXACT_CAP` vertices, so the cap stops there.  The
    trial counts, the search's checks and the subset tries stop at
    `MOST_TRIALS`.  The bad-set audit makes every one of its draws for each
    ambient vertex, so it stops at 1,000 draws, where a desk run at s = 300
    takes 16 s.  A vertex budget past `MAX_VERTICES` spans any graph, and
    the cycle search stops at 20 times its default budget of nodes.
    """

    find_budget: int = _knob(60, 1, MOST_TRIALS)
    check_trials: int = _knob(24, 1, MOST_TRIALS)
    audit_trials: int = _knob(8, 1, MOST_TRIALS)
    check_cap: int = _knob(EXACT_CAP, 0, EXACT_CAP)
    badset_draws: int = _knob(2, 1, 1_000)
    subset_tries: int = _knob(10, 0, MOST_TRIALS)
    vertex_budget: int = _knob(50, 0, MAX_VERTICES)
    embed_check_trials: int = _knob(1, 1, MOST_TRIALS)
    embed_audit_trials: int = _knob(1, 1, MOST_TRIALS)
    cycle_budget: int = _knob(500000, 0, 10_000_000)


# lam_rule -> the constant factor every level of the schedule shrinks by;
# it is also the default lam
SHRINK = {"quarter": Fraction(1, 4), "identity": Fraction(1)}

# The bad-set audit scores every check with one sampled trial and none
# exactly.  Reports echo those two values under the names of the knobs that
# once set them, so every report keeps its bytes; the next re-pin of the
# report hashes deletes this echo.
AUDIT_ECHO = {"badset_trials": 1, "badset_cap": 0}

# Every legal key, grouped by how its value parses.  Parameter keys absent
# after merging are derived in resolve order: alpha from r, eps from alpha,
# eps_inherit from eps, delta from the host order, p from c and s.  The
# degree bound is always the host's own.
_INT_KEYS = ("r", "s", "seed") + tuple(f.name for f in fields(Knobs))
_FRACTION_KEYS = ("eps", "eps_inherit", "alpha", "lam", "delta")
_FLOAT_KEYS = ("c", "p")
_BOOL_KEYS = ("allow_alpha_override",)
_STR_KEYS = ("host", "colouring", "lam_rule", "out")
_ALL_KEYS = frozenset(_INT_KEYS + _FRACTION_KEYS + _FLOAT_KEYS + _BOOL_KEYS + _STR_KEYS)

_DEFAULTS = {
    "r": "2",
    "seed": "0",
    "colouring": "mono 0",
    "lam_rule": "quarter",
    "out": "out",
    "allow_alpha_override": "false",
    **{name: str(default) for name, default in asdict(Knobs()).items()},
}

# paper-s3 keeps the canonical derivations (alpha = 1/2r, eps = alpha/256,
# delta from the host order); at bench sizes its grid side delta*s collapses
# below 2 and a run reports failed-at-embed, which is the honest outcome.
# desk is the tuned bench configuration that actually embeds.
PRESETS = {
    "paper-s3": {
        "lam": "1/4",
        "lam_rule": "quarter",
        "c": "6.0",
    },
    "desk": {
        "eps": "1/4",
        "eps_inherit": "1/16",
        "alpha": "1/2",
        "allow_alpha_override": "true",
        "lam": "1",
        "lam_rule": "identity",
        "delta": "1/30",
        "p": "0.35",
        "s": "300",
        "host": "cycle 10",
    },
}


def parse_flat(text: str, origin: str = "config") -> dict[str, str]:
    """Parse `key value` lines; `#` starts a comment, blank lines are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ConfigError(f"{origin}:{lineno}: expected 'key value', got {line!r}")
        key = parts[0].replace("-", "_")
        if key in out:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {parts[0]!r}")
        out[key] = parts[1].strip()
    return out


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _parse_fraction(key: str, value: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{key} must be a rational like 1/4 or 0.25, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _parse_bool(key: str, value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be true or false, got {value!r}")


# The graph-spec grammar, shared by hosts, blow-ups and the oracles.
GRAPH_SPEC = ("'cycle N', 'path N', 'complete N', 'single-edge', "
              "'random-regular N D', 'grid A B' or 'file PATH'")

# kind -> argument count; every argument but a file path is an integer
_SPEC_ARITY = {"cycle": 1, "path": 1, "complete": 1, "single-edge": 0,
               "random-regular": 2, "grid": 2, "file": 1}

# kind -> the (vertex, edge) counts of the graph its integer arguments name
_SPEC_SIZE = {"cycle": lambda n: (n, n), "path": lambda n: (n, n - 1),
              "complete": lambda n: (n, n * (n - 1) // 2),
              "single-edge": lambda: (2, 1),
              "random-regular": lambda n, d: (n, n * d // 2),
              "grid": lambda a, b: (a * b, 2 * a * b - a - b)}

# The most edges a spec may name.  The parser refuses a spec past this or
# past MAX_VERTICES before it builds anything.  A random-regular graph gives
# nearly every edge tiles of its own, so at this bound `random-regular 65536 2`
# peaks at 97 MB under tracemalloc, and `cycle`, `path` and `grid` at 20 MB.
MAX_SPEC_EDGES = 1 << 16


def parse_graph_spec(spec: str, seed: int = 0) -> Graph:
    """The graph a spec in `GRAPH_SPEC` names; random graphs draw from `seed`."""
    kind, *args = spec.split() or [""]
    if _SPEC_ARITY.get(kind) != len(args):
        raise ConfigError(f"unknown graph spec {spec!r}; expected {GRAPH_SPEC}")
    try:
        if kind == "file":
            return read_graph(args[0])
        ints = [int(a) for a in args]
        n, m = _SPEC_SIZE[kind](*ints)
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} exceeds {MAX_VERTICES}")
        if m > MAX_SPEC_EDGES:
            raise ValueError(f"edge count {m} exceeds {MAX_SPEC_EDGES}")
        build = {
            "cycle": Graph.cycle, "path": Graph.path, "complete": Graph.complete,
            "single-edge": lambda: Graph.path(2),
            "random-regular": lambda n, d: Graph.random_regular(n, d, seed),
            "grid": Graph.grid,
        }[kind]
        return build(*ints)
    except (ValueError, OSError) as e:
        raise ConfigError(f"graph spec {spec!r}: {e}") from None


def build_host(spec: str, seed: int) -> Graph:
    """The host graph `spec` names, refused if it has fewer than two vertices.

    The run seed doubles as the generation seed for random hosts, so a
    config plus seed pins the host exactly.  Its degree bound, and with it
    the level count, is `Graph.degree_bound`.
    """
    H = parse_graph_spec(spec, seed)
    if H.n < 2:
        raise ConfigError(f"host spec {spec!r}: a host needs at least two vertices")
    return H


def parse_colouring_spec(spec: str, r: int) -> list[str]:
    """Validate a colouring strategy spec for r colours and return its tokens."""
    if r < 2:
        raise ConfigError(f"need at least 2 colours, got r={r}")
    if r > MAX_COLOURS:
        raise ConfigError(f"need at most {MAX_COLOURS} colours, got r={r}")
    tokens = spec.split()
    if tokens and tokens[0] == "mono":
        if len(tokens) != 2:
            raise ConfigError("mono needs a colour index, e.g. 'mono 0'")
        c = _parse_int("mono colour", tokens[1])
        if not 0 <= c < r:
            raise ConfigError(f"mono colour {c} outside 0..{r - 1}")
        return tokens
    if tokens in (["uniform-random"], ["host-edge-split"], ["degree-adversary"]):
        return tokens
    raise ConfigError(
        f"unknown colouring {spec!r}; expected 'mono C', 'uniform-random', "
        "'host-edge-split' or 'degree-adversary'"
    )


@dataclass
class RunConfig:
    """A fully resolved run description.

    Carries the typed parameter bundle and the trial and budget knobs, so
    a report can echo the complete effective configuration.
    """

    preset: str | None
    host_spec: str
    s: int
    seed: int
    colouring: str
    out: str
    lam_rule: str
    allow_alpha_override: bool
    params: RegParams
    knobs: Knobs

    def schedule(self) -> EpsSchedule:
        return eps_schedule(self.params.eps, self.params.max_degree,
                            SHRINK[self.lam_rule])

    def grid_side(self) -> Fraction:
        return self.params.delta * self.s

    def to_json(self) -> dict:
        p = self.params
        return {
            "preset": self.preset,
            "host": self.host_spec,
            "s": self.s,
            "seed": self.seed,
            "colouring": self.colouring,
            "lam_rule": self.lam_rule,
            "allow_alpha_override": self.allow_alpha_override,
            "params": {
                "r": p.r, "max_degree": p.max_degree,
                "eps": str(p.eps), "eps_inherit": str(p.eps_inherit),
                "alpha": str(p.alpha), "lam": str(p.lam),
                "delta": str(p.delta), "c": p.c, "p": p.p,
            },
            "knobs": {**asdict(self.knobs), **AUDIT_ECHO},
        }


def _resolve(merged: dict[str, str], preset: str | None) -> RunConfig:
    unknown = set(merged) - _ALL_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {', '.join(sorted(unknown))}")
    for key in ("host", "s"):
        if key not in merged:
            raise ConfigError(f"{key} must be specified (by preset, config file or --set)")

    r = _parse_int("r", merged["r"])
    s = _parse_int("s", merged["s"])
    if s < 2:
        raise ConfigError(f"s must be at least 2, got {s}")
    seed = _parse_int("seed", merged["seed"])
    if seed < 0:
        raise ConfigError("seed must be non-negative")

    lam_rule = merged["lam_rule"]
    if lam_rule not in SHRINK:
        raise ConfigError(f"lam_rule must be {' or '.join(map(repr, SHRINK))}, "
                          f"got {lam_rule!r}")
    lam = _parse_fraction("lam", merged["lam"]) if "lam" in merged else SHRINK[lam_rule]

    colouring = merged["colouring"]
    parse_colouring_spec(colouring, r)
    allow_alpha = _parse_bool("allow_alpha_override", merged["allow_alpha_override"])
    if "alpha" in merged:
        alpha = _parse_fraction("alpha", merged["alpha"])
        if alpha != Fraction(1, 2 * r) and not allow_alpha:
            raise ConfigError(
                f"alpha={alpha} departs from the 1/(2r)={Fraction(1, 2 * r)} rule; "
                "set allow_alpha_override true to insist"
            )
    else:
        alpha = Fraction(1, 2 * r)

    eps = _parse_fraction("eps", merged["eps"]) if "eps" in merged else alpha / 256
    if "eps_inherit" in merged:
        eps_inherit = _parse_fraction("eps_inherit", merged["eps_inherit"])
    else:
        eps_inherit = eps / 4

    host_spec = merged["host"]
    host = build_host(host_spec, seed)
    try:
        check_size(host, s)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if "delta" in merged:
        delta = _parse_fraction("delta", merged["delta"])
    else:
        delta = min(Fraction(1, 4 * host.n), eps / 4, lam / 4)
    if "p" in merged:
        p = _parse_float("p", merged["p"])
        c = _parse_float("c", merged["c"]) if "c" in merged else p * math.sqrt(s)
    else:
        c = _parse_float("c", merged["c"]) if "c" in merged else 6.0
        p = min(1.0, c / math.sqrt(s))

    try:
        # the level schedule has one level per matching of the host's bound
        params = RegParams(r=r, max_degree=host.degree_bound(),
                           eps=eps, eps_inherit=eps_inherit, alpha=alpha, lam=lam,
                           delta=delta, c=c, p=p)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    knobs = {}
    for f in fields(Knobs):
        value = knobs[f.name] = _parse_int(f.name, merged[f.name])
        least, most = f.metadata["least"], f.metadata["most"]
        if value < least:
            raise ConfigError(f"{f.name} must be at least {least}, got {value}")
        if value > most:
            raise ConfigError(f"{f.name} must be at most {most}, got {value}")

    return RunConfig(
        preset=preset,
        host_spec=host_spec,
        s=s,
        seed=seed,
        colouring=colouring,
        out=merged["out"],
        lam_rule=lam_rule,
        allow_alpha_override=allow_alpha,
        params=params,
        knobs=Knobs(**knobs),
    )


def load_config(
    path: str | None = None,
    preset: str | None = None,
    sets: tuple[str, ...] = (),
    seed: int | None = None,
    out: str | None = None,
) -> RunConfig:
    """Merge defaults, preset, config file and overrides into a RunConfig.

    `sets` holds `key=value` strings from the command line; explicit `seed`
    and `out` arguments outrank everything.
    """
    merged = dict(_DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        merged.update(PRESETS[preset])
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from None
        merged.update(parse_flat(text, origin=path))
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        merged[key.strip().replace("-", "_")] = value.strip()
    if seed is not None:
        merged["seed"] = str(seed)
    if out is not None:
        merged["out"] = out
    return _resolve(merged, preset)
