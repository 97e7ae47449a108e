"""Seeded streams: one helper, the same draws as before, and no other home."""

from pathlib import Path

import numpy as np
import pytest

from monogrid.seeds import derive, rng

SRC = Path(__file__).resolve().parent.parent / "src" / "monogrid"


@pytest.mark.parametrize("seed", [0, 1, 17, 2**40])
def test_empty_key_is_the_seeds_own_stream(seed):
    want = np.random.default_rng(seed).integers(0, 2**31, 16)
    assert rng(seed).integers(0, 2**31, 16).tolist() == want.tolist()


@pytest.mark.parametrize("key", [(), (3,), (40, 0), (4, 2, 1, 7, 0)])
def test_streams_match_spawn_keys(key):
    ss = np.random.SeedSequence(entropy=5, spawn_key=key)
    want = np.random.default_rng(ss).random(8)
    assert rng(5, *key).random(8).tolist() == want.tolist()
    assert derive(5, *key) == int(ss.generate_state(1)[0])


def test_streams_have_one_home():
    sources = sorted(SRC.glob("*.py"))
    assert any(p.name == "seeds.py" for p in sources)
    for path in sources:
        text = path.read_text()
        # nothing reaches under a generator for its raw words
        for name in ("PCG64", "random_raw"):
            assert name not in text, f"{path.name} reads a bit generator"
        if path.name == "seeds.py":
            continue
        for name in ("SeedSequence", "default_rng"):
            assert name not in text, f"{path.name} builds a stream outside seeds.py"
