"""Seeded random streams, the one place the package makes a generator.

A stream is named by the run seed plus a key path of small integers (numpy's
`SeedSequence` spawn key), so every stage, host edge, grid cell and trial
draws from its own stream, and a result never depends on the order in which
the stages consume randomness.  The empty key is the seed's own stream:
`rng(seed)` gives the same draws as `numpy.random.default_rng(seed)`.

`choice_sets` draws for a whole array of seeds at once what a generator per
seed would: the sets `rng(s).choice(n, k, replace=False)` draws for each
shape (n, k) in turn.  It follows numpy's own code bit for bit, as of numpy
2.4 (tests/test_seeds.py checks it against the installed numpy), through
three layers:

- `SeedSequence` hashes each seed into a pool of four 32-bit words and
  expands it into four 64-bit words, here in uint32 array arithmetic;
- `PCG64` seeds its 128-bit LCG from those words, here in Python ints, and
  the raw 64-bit outputs come from one reused `PCG64` through its `state`
  setter and `random_raw`;
- `Generator.choice` runs Floyd's algorithm, one Lemire bounded draw per
  step from the 32-bit halves of the raw words, low half first, and then
  shuffles the k picks.  The shuffle's draws only move the stream on: a set
  does not depend on its order, so the last shape needs no shuffle at all.

Two kinds of row go to `rng(s)` itself: a row where a Lemire draw would be
rejected (numpy then draws again, which moves every later draw; a draw below
b is rejected with probability under b / 2^32, so fewer than one in a million
are below 4000), and every row when a population exceeds `FLOYD_MAX`, past
which numpy may shuffle a tail of the population instead.
"""

from __future__ import annotations

import numpy as np

# SeedSequence's hash constants, and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# the largest population `Generator.choice` always draws by Floyd's algorithm
FLOYD_MAX = 10_000


def rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of stream `key` under `seed`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def derive(seed: int, *key: int) -> int:
    """A 32-bit integer seed for stream `key` under `seed`, for int-seeded callees."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(ss.generate_state(1)[0])


def _seed_words(seeds: np.ndarray) -> list[list[int]]:
    """`SeedSequence(s).generate_state(4, np.uint64)` for each uint64 seed s."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    low, high = (seeds & 0xFFFFFFFF).astype(np.uint32), (seeds >> 32).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & 0xFFFFFFFF
        value = value * const
        words.append(value ^ value >> 16)
    return np.stack(words, axis=1).astype("<u4").view("<u8").tolist()


def _raw_words(seeds: np.ndarray, count: int) -> np.ndarray:
    """The first `count` raw outputs of `rng(s)`'s PCG64 for each uint64 seed s,
    one row per seed, as little-endian uint64."""
    raw = np.empty((len(seeds), count), dtype="<u8")
    pcg, lcg = np.random.PCG64(0), {}
    state = {"bit_generator": "PCG64", "state": lcg, "has_uint32": 0, "uinteger": 0}
    for row, (s0, s1, i0, i1) in zip(raw, _seed_words(seeds)):
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        lcg["state"] = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
        lcg["inc"] = inc
        pcg.state = state
        row[:] = pcg.random_raw(count)
    return raw


def _floyd(seeds: np.ndarray, shapes: list[tuple[int, int]],
           grids: list[np.ndarray]) -> np.ndarray:
    """Mark in grids[t][x, r] whether seed r's draw for shapes[t] picks x, and
    return which rows a Lemire rejection leaves wrong."""
    rows = len(seeds)
    # each row's 32-bit draws without a rejection, by their inclusive bounds:
    # Floyd's j = n-k .. n-1, where j = 0 picks 0 without a draw, then for
    # every shape but the last the shuffle's k-1 .. 1
    last = len(shapes) - 1
    bounds = [(np.arange(max(n - k, 1), n), np.arange(k - 1 if t < last else 0, 0, -1))
              for t, (n, k) in enumerate(shapes)]
    count = sum(len(floyd) + len(shuffle) for floyd, shuffle in bounds)
    halves = _raw_words(seeds, -(-count // 2)).view("<u4")
    redo = np.zeros(rows, dtype=bool)
    line, at = np.arange(rows, dtype=np.uint64), 0
    for grid, (n, k), (floyd, shuffle) in zip(grids, shapes, bounds):
        excl = np.concatenate([floyd, shuffle]).astype(np.uint64)[:, None] + np.uint64(1)
        # Lemire: a draw below excl is m >> 32 with m = u * excl, rejected
        # when the low half of m is below 2^32 mod excl
        m = halves[:, at:at + len(excl)].T.astype("<u8", order="C")  # a row per draw
        at += len(excl)
        m *= excl
        redo |= (m.view("<u4")[:, ::2] < np.uint64(1 << 32) % excl).any(axis=0)
        # each Floyd draw as a flat index of `grid`: value * rows + row
        picks = m[:len(floyd)]
        picks >>= np.uint64(32)
        picks *= np.uint64(rows)
        picks += line
        taken = grid.reshape(-1)
        if n == k > 0:
            grid[0] = True
        for j, flat in zip(floyd.tolist(), picks.view("<i8")):
            # Floyd: keep the drawn value if it is new, else j, never drawn yet
            hit = taken[flat]
            taken[flat] = True
            grid[j] |= hit
    return redo


def choice_sets(seeds, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """The sets `rng(s).choice(n, k, replace=False)` draws for each shape
    (n, k) in turn, for every seed s of an array of seeds in [0, 2^64).

    Returns one (len(seeds), n) bool array per shape; row r marks the members
    of seed r's draw.  Each shape needs 0 <= k <= n.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if not all(0 <= k <= n for n, k in shapes):
        raise ValueError(f"every shape (n, k) needs 0 <= k <= n, got {shapes}")
    grids = [np.zeros((n, len(seeds)), dtype=bool) for n, _ in shapes]
    if shapes and max(n for n, _ in shapes) > FLOYD_MAX:
        redo = np.ones(len(seeds), dtype=bool)
    else:
        redo = _floyd(seeds, shapes, grids)
    for r in np.flatnonzero(redo).tolist():
        gen = rng(int(seeds[r]))
        for grid, (n, k) in zip(grids, shapes):
            grid[:, r] = False
            grid[gen.choice(n, size=k, replace=False), r] = True
    return [grid.T for grid in grids]
