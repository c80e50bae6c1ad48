"""Tests for repro.utils.rng."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.utils.rng as rng_mod
from repro.utils import as_rng, spawn_rngs
from repro.utils.rng import child_rngs, child_seed_states


def test_as_rng_none_returns_generator():
    rng = as_rng(None)
    assert isinstance(rng, np.random.Generator)


def test_as_rng_int_is_reproducible():
    a = as_rng(42).random(5)
    b = as_rng(42).random(5)
    assert np.array_equal(a, b)


def test_as_rng_passthrough_identity():
    rng = np.random.default_rng(7)
    assert as_rng(rng) is rng


def test_as_rng_different_seeds_differ():
    assert not np.array_equal(as_rng(1).random(5), as_rng(2).random(5))


def test_spawn_rngs_count_and_independence():
    rngs = spawn_rngs(3, 4)
    assert len(rngs) == 4
    draws = [r.random(8) for r in rngs]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(draws[i], draws[j])


def test_spawn_rngs_reproducible_from_int():
    a = [r.random(3) for r in spawn_rngs(11, 2)]
    b = [r.random(3) for r in spawn_rngs(11, 2)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_spawn_rngs_from_generator():
    rngs = spawn_rngs(np.random.default_rng(5), 3)
    assert len(rngs) == 3
    assert all(isinstance(r, np.random.Generator) for r in rngs)


def test_spawn_rngs_zero():
    assert spawn_rngs(1, 0) == []


def test_spawn_rngs_negative_raises():
    with pytest.raises(ValueError):
        spawn_rngs(1, -1)


# ----------------------------------------------------------------------
# child_seed_states: numpy's SeedSequence spawn, derived in one pass
# ----------------------------------------------------------------------
ENTROPY = st.one_of(
    st.just(0),
    st.integers(min_value=2**127, max_value=2**128 - 1),
    st.lists(st.integers(min_value=0, max_value=2**40), min_size=1,
             max_size=6),
    st.builds(lambda: np.random.SeedSequence(None).entropy),
)
SPAWN_KEY = st.lists(
    st.one_of(st.integers(min_value=0, max_value=2**32 - 1),
              st.integers(min_value=2**32, max_value=2**64)),
    max_size=3,
).map(tuple)
# Child numbers near 2**32 cross from one uint32 word to two.
FIRST = st.one_of(st.integers(min_value=0, max_value=1000),
                  st.integers(min_value=2**32 - 20, max_value=2**32 + 5))


def _numpy_children(entropy, spawn_key, first, n, pool_size):
    return [np.random.SeedSequence(entropy, spawn_key=(*spawn_key, first + i),
                                   pool_size=pool_size)
            for i in range(n)]


@given(ENTROPY, SPAWN_KEY, FIRST, st.integers(min_value=1, max_value=30),
       st.sampled_from([4, 8]))
@example(2**127 + 3, (5, 2**33), 2**32 - 4, 9, 8)
@example([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], (), 0, 3, 4)
@settings(max_examples=60, deadline=None)
def test_child_states_and_draws_match_seedsequence(entropy, spawn_key, first,
                                                   n, pool_size):
    states = child_seed_states(entropy, spawn_key, first, n, pool_size)
    children = _numpy_children(entropy, spawn_key, first, n, pool_size)
    want = np.array([c.generate_state(4, np.uint64) for c in children])
    assert states.dtype == np.uint64 and states.shape == (n, 4)
    assert np.array_equal(states, want)
    # The preset-state Generators draw what default_rng would.
    got_rngs = child_rngs(entropy, spawn_key, first, n, pool_size)
    for got, child in zip(got_rngs, children):
        ref = np.random.default_rng(child)
        assert got.random() == ref.random()
        assert got.standard_exponential() == ref.standard_exponential()


def test_child_states_window_offset_matches_spawn():
    """Rows [lo, hi) of the children numbered from ``first`` are the
    children ``spawn`` hands out after ``first + lo`` earlier ones."""
    seq = np.random.SeedSequence(2024, pool_size=8)
    seq.spawn(7)
    children = seq.spawn(12)
    states = child_seed_states(seq.entropy, seq.spawn_key, 7 + 4, 8,
                               seq.pool_size)
    assert np.array_equal(states, [c.generate_state(4, np.uint64)
                                   for c in children[4:]])


def test_child_states_empty():
    assert child_seed_states(1, (), 0, 0).shape == (0, 4)


def test_child_states_mismatch_raises(monkeypatch):
    """A numpy whose SeedSequence no longer matches fails loudly."""
    real = rng_mod._mixed_states
    monkeypatch.setattr(rng_mod, "_mixed_states",
                        lambda *args: real(*args) ^ np.uint64(1))
    with pytest.raises(RuntimeError, match="SeedSequence"):
        child_seed_states(3, (), 0, 4)


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint64),
                                            (2, np.uint64)])
def test_preset_seed_rejects_other_requests(n_words, dtype):
    """A PCG64 that asked for anything but (4, uint64) would get a state
    that no longer matches ``default_rng(child)``: refuse it."""
    row = child_seed_states(3, (), 0, 1)[0]
    shim = rng_mod._PresetSeed(row)
    assert shim.generate_state(4, np.uint64) is row
    with pytest.raises(RuntimeError, match="PCG64"):
        shim.generate_state(n_words, dtype)
