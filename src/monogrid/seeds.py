"""Seeded random streams, the one place the package makes a generator.

A stream is named by the run seed plus a key path of small integers (numpy's
`SeedSequence` spawn key), so every stage, host edge, grid cell and trial
draws from its own stream, and a result never depends on the order in which
the stages consume randomness.  The empty key is the seed's own stream:
`rng(seed)` gives the same draws as `numpy.random.default_rng(seed)`.

A stream's draws are the `Generator` calls made on it, in order; nothing
here rebuilds numpy's seeding or sampling.  A consumer that draws for many
rows at once, as the bad-set audit does through `graphs.floyd`, documents
the order of its calls.
"""

from __future__ import annotations

import numpy as np


def rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of stream `key` under `seed`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def derive(seed: int, *key: int) -> int:
    """A 32-bit integer seed for stream `key` under `seed`, for int-seeded callees."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(ss.generate_state(1)[0])
