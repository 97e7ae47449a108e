"""Lower-regularity machinery for sparse bipartite pairs.

A pair (A, B) is lower-regular at (eps, p) when every pair of subsets taking
at least an eps fraction of each side still has density at least (1-eps)p.
Everything here revolves around that predicate: an exact checker for tiny
sides, a sampled falsifier for real ones, a density-increment search that
digs a regular pair out of any dense enough pair, the level schedule that
strings searches along a host path (each step is the slicing arithmetic: a
lam-fraction sub-pair of an eps-regular pair is eps/lam-regular), and the
empirical bad-set audit used by the embedder.

A sampled check with k1 x k2 subsets and threshold num/den fails a trial
when its edge count e has e * den < num * k1 * k2, an exact integer
cross-multiplication, so a verdict never depends on float rounding.  A
sampled check runs its trials over int64 position arrays; `VertexSet`s and
`Fraction` densities are built only for a witness.  Every check counts on a
pair matrix (`PairMatrix`); the audit draws its one-trial checks in bulk
from its own stream and scores them in one popcount pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from monogrid import seeds
from monogrid.graphs import (
    Graph,
    PairMatrix,
    VertexSet,
    degrees_into,
    pair_density,
    subsets,
)

EXACT_CAP = 16

EXACT = "exact"
SAMPLED = "sampled"


@dataclass(frozen=True)
class RegParams:
    """Parameter bundle tying the whole construction together.

    alpha is the guaranteed colour-density fraction, eps the target
    regularity, eps_inherit the looser level the pipeline hands to
    inheritance audits, lam the uniformity slack and shrink factor, delta
    the slice fraction used by the grid plan, c the density constant with
    p = c / sqrt(part size).  `config.load_config` derives the paper's
    choices for whatever a run leaves unset.
    """

    r: int
    max_degree: int
    eps: Fraction
    eps_inherit: Fraction
    alpha: Fraction
    lam: Fraction
    delta: Fraction
    c: float
    p: float

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("need at least 2 colours")
        if self.max_degree < 2:
            raise ValueError("degree bound must be at least 2")
        if not 0 < self.eps < Fraction(1, 2):
            raise ValueError("eps must lie in (0, 1/2)")
        if not 0 < self.lam <= 1:
            raise ValueError("lam must lie in (0, 1]")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        # Q stays under 2 eps s only while a full row costs at most eps s.
        if self.delta > min(self.eps / 4, self.lam / 4):
            raise ValueError("delta must not exceed min(eps/4, lam/4)")
        if not 0 < self.p <= 1:
            raise ValueError("p must lie in (0, 1]")

    @property
    def alpha_p(self) -> Fraction:
        """The colour density alpha * p every settled pair is held to."""
        return colour_density(self.alpha, self.p)


def colour_density(alpha, p) -> Fraction:
    """alpha * p as an exact Fraction, from a rational alpha and a float p."""
    return Fraction(alpha) * Fraction(p)


def bank_size(alpha_p: Fraction, size: int, k: int) -> int:
    """ceil(alpha p size / k): the sizes of banked and audited subsets."""
    return math.ceil(alpha_p * size / k)


@dataclass(frozen=True)
class RegVerdict:
    mode: str  # exact | sampled
    passed: bool
    threshold: Fraction
    witness: tuple[VertexSet, VertexSet] | None = None
    witness_density: Fraction | None = None
    trials: int | None = None

    def to_json(self) -> dict:
        out: dict = {
            "mode": self.mode,
            "passed": self.passed,
            "threshold": float(self.threshold),
        }
        if self.trials is not None:
            out["trials"] = self.trials
        if self.witness is not None:
            U1, U2 = self.witness
            out["witness"] = {
                "left": U1.to_list(),
                "right": U2.to_list(),
                "density": float(self.witness_density),
                "density_exact": str(self.witness_density),
            }
        return out


def _subset_sizes(eps: Fraction, na: int, nb: int) -> tuple[int, int]:
    return max(1, math.ceil(eps * na)), max(1, math.ceil(eps * nb))


def exact_lower_regular(G: Graph, A: VertexSet, B: VertexSet, eps, p,
                        cap: int = EXACT_CAP) -> RegVerdict:
    """Exhaustive lower-regularity check over exact-size subset pairs.

    Only subsets of size exactly ceil(eps|A|) x ceil(eps|B|) are enumerated:
    a uniformly random exact-size sub-pair of any larger violating pair has
    expected density equal to the violating density, so some exact-size pair
    violates too, and the reduction loses nothing.  For each left subset the
    adversarial right subset is just the ceil(eps|B|) vertices of smallest
    degree into it, which kills the inner enumeration.
    """
    if not A or not B or not A.isdisjoint(B):
        raise ValueError("need disjoint non-empty sides")
    if len(A) > cap or len(B) > cap:
        raise ValueError(
            f"sides of size {len(A)}x{len(B)} exceed the exact cap {cap}; "
            "use the sampled check"
        )
    eps = Fraction(eps)
    threshold = (1 - eps) * Fraction(p)
    k1, k2 = _subset_sizes(eps, len(A), len(B))
    M, all_b = PairMatrix(G, A.ids, B.ids), np.arange(len(B))
    den, bound = threshold.denominator, threshold.numerator * k1 * k2
    for combo in combinations(range(len(A)), k1):
        degrees = M.count(list(combo), all_b, 0)
        worst = _lowest(all_b, degrees, k2)
        edge_sum = int(degrees[worst].sum())
        if edge_sum * den < bound:
            return RegVerdict(EXACT, False, threshold,
                              (VertexSet(G.n, A.ids[list(combo)]),
                               VertexSet(G.n, B.ids[worst])),
                              Fraction(edge_sum, k1 * k2))
    return RegVerdict(EXACT, True, threshold)


def _lowest(ids: np.ndarray, degrees: np.ndarray, k: int) -> np.ndarray:
    """The k entries of `ids` with the lowest `degrees`, ties by position."""
    return ids[np.argsort(degrees, kind="stable")[:k]]


def sampled_lower_regular(G: Graph, A: VertexSet, B: VertexSet, eps, p,
                          trials: int, seed: int) -> RegVerdict:
    """Randomized falsifier: samples exact-size subset pairs, half biased low.

    Each trial draws a ceil(eps|A|) x ceil(eps|B|) sub-pair with the
    generator of `seed` and fails when its density falls below (1-eps)p.
    The biased first half of the trials peels from the low-degree end (the
    left subset among the 2k1 lowest-degree-into-B vertices, then the right
    subset among the 2k2 lowest-degree vertices into the chosen left
    subset); the rest are uniform.  Trials draw positions in A and B, which
    keep the id order, so they pick what they would over ids.  A pass is
    one-sided; a fail carries the first failing sub-pair as an exactly
    checkable witness.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not A or not B or not A.isdisjoint(B):
        raise ValueError("need disjoint non-empty sides")
    eps = Fraction(eps)
    threshold = (1 - eps) * Fraction(p)
    k1, k2 = _subset_sizes(eps, len(A), len(B))
    M, a, b = PairMatrix(G, A.ids, B.ids), np.arange(len(A)), np.arange(len(B))
    rng = seeds.rng(seed)
    biased = trials // 2
    # e / (k1 k2) < num / den, in integers
    den, bound = threshold.denominator, threshold.numerator * k1 * k2
    # the biased trials' left pool: nothing the trials draw changes it
    if biased:
        pool1 = _lowest(a, M.count(a, b, 1), min(2 * k1, len(a)))
    for t in range(trials):
        if t < biased:
            u1 = pool1[rng.choice(len(pool1), size=k1, replace=False)]
            pool2 = _lowest(b, M.count(u1, b, 0), min(2 * k2, len(b)))
            u2 = pool2[rng.choice(len(pool2), size=k2, replace=False)]
        else:
            u1 = a[rng.choice(len(a), size=k1, replace=False)]
            u2 = b[rng.choice(len(b), size=k2, replace=False)]
        e = int(M.count(u1, u2))
        if e * den < bound:
            return RegVerdict(SAMPLED, False, threshold,
                              (VertexSet(G.n, A.ids[u1]), VertexSet(G.n, B.ids[u2])),
                              Fraction(e, k1 * k2), trials)
    return RegVerdict(SAMPLED, True, threshold, trials=trials)


def check_lower_regular(G: Graph, A: VertexSet, B: VertexSet, eps, p,
                        trials: int, seed: int,
                        cap: int = EXACT_CAP) -> RegVerdict:
    """Exact when both sides fit under the cap, sampled otherwise."""
    if len(A) <= cap and len(B) <= cap:
        return exact_lower_regular(G, A, B, eps, p, cap)
    return sampled_lower_regular(G, A, B, eps, p, trials, seed)


# ---------------------------------------------------------------------------
# density-increment search


@dataclass(frozen=True)
class FindResult:
    passed: bool
    pair: tuple[VertexSet, VertexSet]
    verdict: RegVerdict
    checks_used: int
    restarts: int


def _keep_best(G: Graph, part: VertexSet, partner: VertexSet, k: int,
               banned: VertexSet) -> VertexSet:
    """The k members with highest degree into partner, ties by id; banned
    members are kept only when the others run out."""
    key = -degrees_into(G, part.ids, partner)
    # a banned member's key rises above every unbanned one's
    key[np.searchsorted(part.ids, (part & banned).ids)] += len(partner) + 1
    return VertexSet(part.n, _lowest(part.ids, key, k))


def find_lower_regular_pair(
    G_c: Graph,
    V1: VertexSet,
    V2: VertexSet,
    eps,
    alpha,
    p,
    lam_target,
    *,
    budget: int,
    seed: int,
    check_trials: int,
    cap: int,
) -> FindResult:
    """Density-increment search for a lower-regular pair at (eps, alpha*p).

    Starting from the full pair, repeatedly test the current pair trimmed to
    the target size; on failure, move within the current pair to the densest
    of the three complements of the returned witness, re-trimmed to equal
    sizes.  When the walk bottoms out below the target size, restart from
    the top with every witness vertex seen so far pushed to the back of the
    trim order.  All tie-breaks are by vertex id, so runs are reproducible.
    """
    if len(V1) != len(V2):
        raise ValueError("sides must have equal size")
    if budget < 1:
        raise ValueError(f"need a budget of at least one check, got {budget}")
    eps = Fraction(eps)
    effective_p = colour_density(alpha, p)
    if pair_density(G_c, V1, V2) < effective_p:
        raise ValueError("pair is too sparse for the density-increment search")
    target = math.ceil(Fraction(lam_target) * len(V1))
    if target < 1:
        raise ValueError("lam_target too small: empty target")

    checks = 0
    restarts = 0
    banned = VertexSet.empty(G_c.n)
    best: tuple[Fraction, FindResult] | None = None
    cur1, cur2 = V1, V2

    while checks < budget:
        U1 = _keep_best(G_c, cur1, cur2, target, banned)
        U2 = _keep_best(G_c, cur2, U1, target, banned)
        verdict = check_lower_regular(G_c, U1, U2, eps, effective_p,
                                      check_trials, seed + checks, cap)
        checks += 1
        if verdict.passed:
            return FindResult(True, (U1, U2), verdict, checks, restarts)
        W1, W2 = verdict.witness
        score = verdict.witness_density
        if best is None or score > best[0]:
            best = (score, FindResult(False, (U1, U2), verdict, checks, restarts))
        banned = banned | W1 | W2

        options = []
        for cand1, cand2 in ((W1, cur2 - W2), (cur1 - W1, W2),
                             (cur1 - W1, cur2 - W2)):
            size = min(len(cand1), len(cand2))
            if size < target or not cand1 or not cand2:
                continue
            options.append((pair_density(G_c, cand1, cand2), cand1, cand2))
        if options:
            _, nxt1, nxt2 = max(options, key=lambda o: (o[0], -len(o[1])))
            size = min(len(nxt1), len(nxt2))
            cur1 = _keep_best(G_c, nxt1, nxt2, size, banned)
            cur2 = _keep_best(G_c, nxt2, cur1, size, banned)
        else:
            # walked below the target size: restart from the top, with the
            # witnesses seen so far pushed out of the trims first
            restarts += 1
            cur1, cur2 = V1, V2

    assert best is not None
    return best[1]


# ---------------------------------------------------------------------------
# level schedule


@dataclass(frozen=True)
class EpsSchedule:
    """Per-level (eps_i, lam_i), level 1 first; level count is max_degree + 1."""

    levels: list[tuple[Fraction, Fraction]]

    def eps_at(self, i: int) -> Fraction:
        return self.levels[i - 1][0]

    def lam_at(self, i: int) -> Fraction:
        return self.levels[i - 1][1]

    def __len__(self) -> int:
        return len(self.levels)


def eps_schedule(eps, max_degree: int, shrink) -> EpsSchedule:
    """Build the level ladder downward from the target regularity.

    Every level shrinks its parts by the same constant factor `shrink` in
    (0, 1].  The top level carries the target eps; each step down
    multiplies it by `shrink`, so that slicing a level-i pair by lam_{i+1}
    recovers exactly the level-(i+1) regularity.
    """
    if max_degree < 2:
        raise ValueError("degree bound must be at least 2")
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("eps must lie in (0, 1/2)")
    lam = Fraction(shrink)
    if not 0 < lam <= 1:
        raise ValueError(f"shrink factor {lam} lies outside (0, 1]")
    return EpsSchedule([(eps * lam ** (max_degree - i), lam)
                        for i in range(max_degree + 1)])


# ---------------------------------------------------------------------------
# bad-set audit


class BadSetError(Exception):
    """The audited bad set exceeded its allowance."""

    def __init__(self, bad: VertexSet, limit: Fraction):
        self.bad = bad
        self.limit = limit
        super().__init__(
            f"inheritance audit failed: |B| = {bad.size} exceeds the "
            f"allowance {float(limit):.1f}"
        )


def compute_bad_set(
    gamma: Graph,
    G_c: Graph,
    V1: VertexSet,
    V2: VertexSet,
    ambient: VertexSet,
    eps,
    alpha,
    p,
    *,
    draws: int,
    seed: int,
) -> VertexSet:
    """Audit which ambient vertices inherit regularity into (V1, V2).

    Each ambient vertex v draws `draws` rounds.  A round draws N_v, a subset
    of v's neighbourhood in the blow-up `gamma` within V1 of size
    ceil(alpha |V1| p / 4), and checks (N_v, V2); then it draws a partner w
    among the ambient vertices and, when w has enough neighbours in V2 to
    fill a subset N_w of the same size, checks (N_v, N_w).  Every check is
    one sampled trial at (eps, alpha p) in the colour graph: one sub-pair of
    ceil(eps |side|) members a side, failing below (1 - eps) alpha p.  A
    vertex is bad when it has too few neighbours in V1 to fill N_v, or when
    any of its checks fails.  Raises when the bad set outgrows
    eps * |ambient|.

    No draw depends on a check's outcome, so the audit draws from its one
    stream, `seeds.rng(seed)`, in bulk: every draw below is made for all the
    rows at once, a row being a round (v, d) of a vertex v that fills N_v,
    in ambient order, and each subset by `graphs.floyd`.  In order:

    1. N_v, for every row;
    2. the (N_v, V2) check's ceil(eps |N_v|) members of N_v, then its
       ceil(eps |V2|) members of V2, for every row;
    3. the partner w, for every row;
    4. N_w, for every row whose w fills it;
    5. the (N_v, N_w) check's members of N_v, then of N_w, ceil(eps |N_v|)
       of each, for those rows.

    Each kind of check is then scored in one popcount pass.
    """
    if draws < 1:
        raise ValueError("need at least one draw per vertex")
    if not V1 or not V2 or not V1.isdisjoint(V2):
        raise ValueError("need disjoint non-empty sides")
    eps = Fraction(eps)
    effective_p = colour_density(alpha, p)
    threshold = (1 - eps) * effective_p
    size = bank_size(effective_p, len(V1), 4)
    k_drawn, k_v2 = _subset_sizes(eps, size, len(V2))
    # Members of V1 and V2 go by their positions, which keep the id order.
    # `block` is G_c on (V1, V2), and `hood1` and `hood2` hold each ambient
    # vertex's neighbours in V1 and V2.
    block = PairMatrix(G_c, V1.ids, V2.ids)
    hood1, hood2 = (PairMatrix(gamma, ambient.ids, V.ids) for V in (V1, V2))
    everyone, all_v2 = np.arange(len(ambient)), np.arange(len(V2))
    deg1 = hood1.count(everyone, np.arange(len(V1)), 1)
    deg2 = hood2.count(everyone, all_v2, 1)
    fat = np.flatnonzero(deg1 >= size)
    v = np.repeat(fat, draws)  # the ambient position of each row
    rng = seeds.rng(seed)

    def fails(a: np.ndarray, b: np.ndarray, k2: int) -> np.ndarray:
        """Whether the check of (a[r], b) fails, for each row r of the
        (rows, size) V1 positions a, against the V2 positions b: all of V2,
        or one row of V2 positions per row of a."""
        rows = np.take_along_axis(a, subsets(rng, size, k_drawn, len(a)), 1)
        masks = block.draw(rng, len(a), b, k2)
        # e fails when e * den < num * k1 * k2, that is when e < need
        need = -(-threshold.numerator * k_drawn * k2 // threshold.denominator)
        return block.score(rows, masks) < need

    # N_v: ranks among v's neighbours in V1, looked up a vertex's rounds at once
    Nv = hood1.select(fat, subsets(rng, deg1[v], size, len(v)).reshape(
        len(fat), draws * size)).reshape(-1, size)
    failed = fails(Nv, all_v2, k_v2)
    w = rng.integers(len(ambient), size=len(v))
    met = np.flatnonzero(deg2[w] >= size)  # the rows whose partner fills N_w
    Nw = hood2.select(w[met], subsets(rng, deg2[w[met]], size, len(met)))
    failed[met] |= fails(Nv[met], Nw, k_drawn)
    is_bad = deg1 < size
    is_bad[v[failed]] = True
    bad = VertexSet(gamma.n, ambient.ids[is_bad])
    limit = eps * len(ambient)
    if bad.size > limit:
        raise BadSetError(bad, limit)
    return bad
