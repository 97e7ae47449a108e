"""Seeded streams: one helper, the same draws as before, and no other home."""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogrid import seeds
from monogrid.seeds import FLOYD_MAX, choice_sets, derive, rng

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
        if path.name == "seeds.py":
            continue
        text = path.read_text()
        for name in ("SeedSequence", "default_rng", "PCG64", "random_raw"):
            assert name not in text, f"{path.name} builds a stream outside seeds.py"


# ---------------------------------------------------------------------------
# choice_sets against a generator per seed


def _numpy_sets(seed, shapes):
    """The sorted sets rng(seed).choice draws for each shape in turn."""
    gen = rng(seed)
    return [np.sort(gen.choice(n, size=k, replace=False)).tolist() for n, k in shapes]


def _kernel_sets(seed_list, shapes):
    sets = choice_sets(np.array(seed_list, dtype=np.uint64), shapes)
    return [[np.flatnonzero(S[r]).tolist() for S in sets] for r in range(len(seed_list))]


SEED = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                 st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]))


@st.composite
def shapes(draw):
    """(n, k) shapes with 0 < k <= n, among them n == k, k == 1 and n = FLOYD_MAX."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.one_of(st.integers(1, 40), st.integers(41, 700),
                           st.just(FLOYD_MAX)))
        k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, min(n, 200))))
        out.append((n, k))
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(SEED, min_size=1, max_size=6), shapes())
def test_choice_sets_draw_what_a_generator_per_seed_draws(seed_list, shape_list):
    got = _kernel_sets(seed_list, shape_list)
    assert got == [_numpy_sets(s, shape_list) for s in seed_list]


def _rows_redrawn(seed_list, shapes):
    """choice_sets's sets, and the seeds it handed to a generator of their own."""
    made = []

    def recording_rng(seed, *key):
        made.append(seed)
        return make(seed, *key)

    make = seeds.rng
    with mock.patch.object(seeds, "rng", recording_rng):
        got = _kernel_sets(seed_list, shapes)
    return got, made


def test_a_rejected_lemire_draw_sends_its_row_to_numpy():
    # Seed 265's draws for (10000, 3000) include a Lemire rejection, after
    # which every later draw of the row moves; found by search over 0..264.
    shape_list = [(10000, 3000), (50, 10)]
    got, made = _rows_redrawn([264, 265, 266], shape_list)
    assert made == [265]
    assert got == [_numpy_sets(s, shape_list) for s in (264, 265, 266)]


def test_a_population_past_floyds_cutoff_sends_every_row_to_numpy():
    # numpy shuffles a tail of arange(n) when n > 10000 and k > n // 50
    shape_list = [(5, 2), (FLOYD_MAX + 1, 400)]
    got, made = _rows_redrawn([3, 2**40], shape_list)
    assert made == [3, 2**40]
    assert got == [_numpy_sets(s, shape_list) for s in (3, 2**40)]


def test_choice_sets_need_k_within_n():
    with pytest.raises(ValueError, match="0 <= k <= n"):
        choice_sets(np.array([1], dtype=np.uint64), [(3, 4)])
