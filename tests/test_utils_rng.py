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


# ----------------------------------------------------------------------
# child_streams: O(1) spawn-counter advance
# ----------------------------------------------------------------------
def _next_child_state(seq):
    return seq.spawn(1)[0].generate_state(4, np.uint64)


@given(st.integers(min_value=0, max_value=2**64), SPAWN_KEY,
       st.integers(min_value=0, max_value=50),
       st.integers(min_value=0, max_value=10_000), st.sampled_from([4, 8]))
@example(7, (2**32, 2**40 + 1), 3, 0, 8)
@example(0, (), 0, 0, 4)
@settings(max_examples=60, deadline=None)
def test_child_streams_advance_matches_spawn(entropy, spawn_key, before, n,
                                             pool_size):
    """After reserving ``n`` children, the parent's counter and its next
    ``spawn(1)`` child are those ``seq.spawn(n)`` leaves behind."""
    def fresh():
        seq = np.random.SeedSequence(entropy, spawn_key=spawn_key,
                                     pool_size=pool_size)
        seq.spawn(before)
        return seq

    fast, ref = fresh(), fresh()
    info = rng_mod.child_streams(fast, n)
    ref.spawn(n)
    assert info == (entropy, spawn_key, before, pool_size)
    assert fast.n_children_spawned == ref.n_children_spawned == before + n
    assert np.array_equal(_next_child_state(fast), _next_child_state(ref))


@pytest.mark.parametrize("make", [
    lambda: np.random.default_rng(12),
    lambda: np.random.SeedSequence(12, pool_size=8),
    lambda: 12,
])
def test_spawn_streams_match_spawn_rngs(make):
    fast, ref = make(), make()
    for n in (3, 0, 5):  # successive calls hand out disjoint children
        got, want = rng_mod.spawn_streams(fast, n), spawn_rngs(ref, n)
        assert len(got) == len(want) == n
        assert all(a.random() == b.random() for a, b in zip(got, want))


def test_child_streams_other_bit_generator_declines():
    """Children of a non-PCG64 Generator are not PCG64 streams: decline
    (and advance nothing), so callers fall back to ``spawn``."""
    gen = np.random.Generator(np.random.Philox(3))
    assert rng_mod.child_streams(gen, 4) is None
    assert gen.bit_generator.seed_seq.n_children_spawned == 0
    got = rng_mod.spawn_streams(gen, 2)
    want = spawn_rngs(np.random.Generator(np.random.Philox(3)), 2)
    assert all(a.random() == b.random() for a, b in zip(got, want))


def test_child_streams_negative_raises():
    with pytest.raises(ValueError):
        rng_mod.child_streams(1, -1)


@pytest.mark.parametrize("field, before", [(0, 0), (3, 4)])
def test_counter_advance_layout_mismatch_raises(monkeypatch, field, before):
    """A pickle layout that moved the counter fails loudly: the counter
    check (``field`` 0 is the entropy) or, where the value happens to
    match (``pool_size`` 4 after 4 children), the ``spawn(1)`` probe."""
    monkeypatch.setattr(rng_mod, "_COUNTER_FIELD", field)
    seq = np.random.SeedSequence(5)
    seq.spawn(before)
    with pytest.raises(RuntimeError, match="pickle layout"):
        rng_mod.child_streams(seq, 3)
    assert seq.n_children_spawned == before


def test_successive_superpose_calls_draw_disjoint_children():
    """Two kernel calls on one SeedSequence draw disjoint children and
    each still matches the frozen loop on the same SeedSequence."""
    from repro.arrivals.onoff import OnOffSource
    from repro.kernels import superpose_onoff
    from repro.kernels.reference import multiplex_onoff_loop

    src = OnOffSource.pareto(on_location=0.2, off_location=0.2)
    seq_fast, seq_ref = np.random.SeedSequence(21), np.random.SeedSequence(21)
    outs = []
    for n in (6, 9):
        got = superpose_onoff(n, 16, 1.0, source=src, seed=seq_fast,
                              chunk=n)
        want = multiplex_onoff_loop(n, 16, 1.0, src, seed=seq_ref)
        assert np.array_equal(got, want)
        outs.append(got)
    assert seq_fast.n_children_spawned == seq_ref.n_children_spawned == 15
    # The second call's sources are children 6..14, not 0..8 again.
    again = superpose_onoff(9, 16, 1.0, source=src, seed=21, chunk=9)
    assert not np.array_equal(outs[1], again)
