"""Batched superposition kernels, shared-memory pool, and satellites.

The load-bearing claims:

* the batched ON/OFF kernel consumes the exact RNG streams of the frozen
  per-source loop and reproduces it bit for bit (every distribution
  pairing, every seed kind, any ``jobs``);
* the grouped entry reduces one sweep into rows bit-identical to
  standalone calls on the same child-stream ranges;
* the renewal kernel is exact for any chunking;
* ``pool_map_shared`` is shard-order deterministic and surfaces worker
  failures with the failing task index;
* ``OnOffSource.counts`` places edge-landing intervals per the binning
  convention and clamps the final bin;
* the fgn/farima embedding-eigenvalue caches change nothing numerically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.onoff import OnOffSource, multiplex_onoff
from repro.distributions.exponential import Exponential
from repro.distributions.pareto import Pareto
from repro.kernels import superpose_onoff, superpose_onoff_groups, superpose_renewal
from repro.kernels.reference import multiplex_onoff_loop, superpose_renewal_loop
from repro.selfsim.farima import _farima_embedding_eig, farima_sample
from repro.selfsim.fgn import _fgn_embedding_eig, fgn_sample
from repro.utils.pool import PoolTaskError, pool_map, pool_map_shared


class Constant:
    """Deterministic stand-in distribution (exercises the fallback path)."""

    def __init__(self, value):
        self.value = float(value)

    def sample(self, size, seed=None):
        # Consume the stream like a real sampler so the RNG protocol holds.
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        rng.random(size)
        return np.full(size, self.value)


PAIRINGS = {
    "pareto/pareto": OnOffSource.pareto(on_location=0.2, off_location=0.3),
    "exp/exp": OnOffSource(Exponential(0.4), Exponential(0.7)),
    "pareto/exp": OnOffSource(Pareto(0.2, 1.4), Exponential(0.5)),
    "exp/pareto": OnOffSource(Exponential(0.5), Pareto(0.3, 1.2)),
    "pareto/pareto-mixed": OnOffSource(Pareto(0.2, 1.2), Pareto(0.5, 1.8)),
    "constant/constant": OnOffSource(Constant(0.35), Constant(0.55)),
}


class TestOnOffLoopIdentity:
    @pytest.mark.parametrize("name", sorted(PAIRINGS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_to_frozen_loop(self, name, seed):
        src = PAIRINGS[name]
        for n_bins, w in [(64, 1.0), (40, 2.5)]:
            loop = multiplex_onoff_loop(60, n_bins, w, src, seed=seed)
            batched = superpose_onoff(60, n_bins, w, source=src, seed=seed,
                                      chunk=60)
            assert np.array_equal(batched, loop), (name, n_bins, w)

    def test_matches_multiplex_onoff(self):
        src = OnOffSource.pareto(on_location=0.1, off_location=0.1)
        assert np.array_equal(
            superpose_onoff(50, 32, 1.0, source=src, seed=5, chunk=50),
            multiplex_onoff(50, 32, 1.0, source=src, seed=5),
        )

    def test_generator_seed(self):
        src = PAIRINGS["pareto/pareto"]
        loop = multiplex_onoff_loop(
            25, 32, 1.0, src, seed=np.random.default_rng(9))
        batched = superpose_onoff(
            25, 32, 1.0, source=src, seed=np.random.default_rng(9), chunk=25)
        assert np.array_equal(batched, loop)

    def test_seedsequence_spawn_counter_parity(self):
        """A pre-advanced SeedSequence spawns the same children both ways."""
        src = PAIRINGS["exp/exp"]
        seq_a = np.random.SeedSequence(7)
        seq_a.spawn(5)  # advance the counter before handing it over
        seq_b = np.random.SeedSequence(7)
        seq_b.spawn(5)
        loop = multiplex_onoff_loop(20, 16, 1.0, src, seed=seq_a)
        batched = superpose_onoff(20, 16, 1.0, source=src, seed=seq_b,
                                  chunk=20)
        assert np.array_equal(batched, loop)

    def test_jobs_bit_identical_to_serial(self):
        src = PAIRINGS["pareto/exp"]
        serial = superpose_onoff(40, 32, 1.0, source=src, seed=2, chunk=8,
                                 jobs=1)
        fanned = superpose_onoff(40, 32, 1.0, source=src, seed=2, chunk=8,
                                 jobs=3)
        assert np.array_equal(serial, fanned)

    def test_chunking_reassociates_only(self):
        src = PAIRINGS["pareto/pareto"]
        a = superpose_onoff(64, 32, 1.0, source=src, seed=3, chunk=64)
        b = superpose_onoff(64, 32, 1.0, source=src, seed=3, chunk=17)
        assert np.allclose(a, b, rtol=1e-12)

    def test_generator_seed_rejected_with_jobs(self):
        with pytest.raises(ValueError, match="jobs > 1"):
            superpose_onoff(10, 8, 1.0, seed=np.random.default_rng(0),
                            jobs=2)

    @pytest.mark.parametrize("bad_bins", [-1, 2.5])
    def test_bad_bin_count(self, bad_bins):
        with pytest.raises((ValueError, TypeError)):
            superpose_onoff(10, bad_bins, 1.0, seed=0)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            superpose_onoff(0, 8, 1.0, seed=0)
        with pytest.raises(ValueError):
            superpose_onoff(10, 8, 1.0, seed=0, chunk=0)
        with pytest.raises(ValueError):
            superpose_onoff(10, 8, -1.0, seed=0)

    def test_zero_bins(self):
        assert superpose_onoff(5, 0, 1.0, seed=0).shape == (0,)

    def test_meta_counts_all_sources(self):
        meta: list = []
        superpose_onoff(30, 16, 1.0, seed=0, chunk=7, meta=meta)
        assert sum(m["sources"] for m in meta) == 30
        assert all(m["rounds"] >= 1 for m in meta)


class TestSeedSequenceChildren:
    """The kernels rebuild child ``i`` from the parent's picklable seed
    info; it must be the child ``spawn_rngs`` hands the frozen loops."""

    def test_pool_size_carried_to_children(self):
        src = PAIRINGS["pareto/exp"]
        loop = multiplex_onoff_loop(
            12, 16, 1.0, src, seed=np.random.SeedSequence(7, pool_size=8))
        batched = superpose_onoff(
            12, 16, 1.0, source=src,
            seed=np.random.SeedSequence(7, pool_size=8), chunk=12)
        assert np.array_equal(batched, loop)
        ren_loop = superpose_renewal_loop(
            12, 16, 1.0, Pareto(1.0, 1.2),
            seed=np.random.SeedSequence(7, pool_size=8), gap_block=32)
        ren = superpose_renewal(
            12, 16, 1.0, gap_dist=Pareto(1.0, 1.2),
            seed=np.random.SeedSequence(7, pool_size=8), gap_block=32)
        assert np.array_equal(ren, ren_loop)

    @staticmethod
    def _advanced(spawned=9):
        seq = np.random.SeedSequence(31, spawn_key=(2, 2**33))
        seq.spawn(spawned)
        return seq

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_onoff_from_advanced_counter(self, jobs):
        src = PAIRINGS["pareto/pareto"]
        seq = self._advanced()
        out = superpose_onoff(20, 16, 1.0, source=src, seed=seq, chunk=20,
                              jobs=jobs)
        assert seq.n_children_spawned == 9 + 20
        loop = multiplex_onoff_loop(20, 16, 1.0, src, seed=self._advanced())
        assert np.array_equal(out, loop)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_groups_from_advanced_counter(self, jobs):
        src = PAIRINGS["exp/pareto"]
        seq = self._advanced()
        rows = superpose_onoff_groups(3, 5, 8, 2.0, source=src, seed=seq,
                                      chunk=5, jobs=jobs)
        assert seq.n_children_spawned == 9 + 15
        base = self._advanced()
        for g in range(3):
            standalone = superpose_onoff(5, 8, 2.0, source=src, seed=base,
                                         chunk=5)
            assert np.array_equal(rows[g], standalone), g

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_renewal_from_advanced_counter(self, jobs):
        seq = self._advanced()
        out = superpose_renewal(20, 16, 1.0, seed=seq, chunk=7, jobs=jobs,
                                gap_block=32)
        assert seq.n_children_spawned == 9 + 20
        loop = superpose_renewal_loop(20, 16, 1.0, Pareto(1.0, 1.2),
                                      seed=self._advanced(), gap_block=32)
        assert np.array_equal(out, loop)


class TestGroupedKernel:
    def test_rows_bit_identical_to_standalone(self):
        src = OnOffSource.pareto(on_location=0.1, off_location=0.1)
        n_groups, group_size = 6, 11
        rows = superpose_onoff_groups(n_groups, group_size, 24, 2.0,
                                      source=src, seed=4, chunk=30)
        for g in range(n_groups):
            seq = np.random.SeedSequence(4)
            if g:
                seq.spawn(g * group_size)  # advance to the group's children
            standalone = superpose_onoff(group_size, 24, 2.0, source=src,
                                         seed=seq, chunk=group_size)
            assert np.array_equal(rows[g], standalone), g

    def test_chunk_and_jobs_invariance(self):
        src = OnOffSource.pareto(on_location=0.2, off_location=0.2)
        base = superpose_onoff_groups(5, 8, 16, 1.0, source=src, seed=1,
                                      chunk=1000)
        for chunk, jobs in [(3, 1), (16, 1), (16, 3), (8, 2)]:
            other = superpose_onoff_groups(5, 8, 16, 1.0, source=src,
                                           seed=1, chunk=chunk, jobs=jobs)
            assert np.array_equal(base, other), (chunk, jobs)

    def test_validation(self):
        with pytest.raises(ValueError):
            superpose_onoff_groups(0, 4, 8, 1.0, seed=0)
        with pytest.raises(ValueError):
            superpose_onoff_groups(4, 0, 8, 1.0, seed=0)
        assert superpose_onoff_groups(3, 2, 0, 1.0, seed=0).shape == (3, 0)


class TestRenewalIdentity:
    @pytest.mark.parametrize("dist", [Pareto(1.0, 1.2), Exponential(0.8),
                                      Constant(0.9)])
    @pytest.mark.parametrize("chunk,jobs", [(13, 1), (1000, 1), (25, 3)])
    def test_exact_for_any_chunking(self, dist, chunk, jobs):
        loop = superpose_renewal_loop(50, 40, 2.0, dist, seed=6,
                                      gap_block=64)
        batched = superpose_renewal(50, 40, 2.0, gap_dist=dist, seed=6,
                                    chunk=chunk, jobs=jobs, gap_block=64)
        assert np.array_equal(batched, loop)

    def test_validation(self):
        with pytest.raises(ValueError):
            superpose_renewal(10, 8, 1.0, seed=0, gap_block=0)
        with pytest.raises(ValueError):
            superpose_renewal(10, -1, 1.0, seed=0)


class TestConservation:
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(sorted(PAIRINGS)))
    @settings(max_examples=25, deadline=None)
    def test_total_work_equals_clipped_on_time(self, n_sources, seed, name):
        """The aggregate conserves emitted work: sum over bins equals
        rate x total ON time clipped to the horizon, summed over the same
        child streams."""
        src = PAIRINGS[name]
        n_bins, w = 24, 1.5
        agg = superpose_onoff(n_sources, n_bins, w, source=src, seed=seed,
                              chunk=n_sources)
        duration = n_bins * w
        seq = np.random.SeedSequence(seed)
        total_on = 0.0
        for child in seq.spawn(n_sources):
            rng = np.random.default_rng(child)
            for start, end in src.intervals(duration, seed=rng):
                total_on += min(end, duration) - start
        assert np.isclose(agg.sum(), src.rate * total_on,
                          rtol=1e-9, atol=1e-9)


def _fill_slot(out, value, scale):
    out[:] = value * scale
    return {"value": value}


def _exploding_slot(out, index):
    if index == 2:
        raise RuntimeError("shard blew up")
    out[:] = index
    return {"index": index}


class TestPoolShared:
    def test_shard_order_is_task_order(self):
        tasks = [(v, 2.0) for v in range(6)]
        buf1, metas1 = pool_map_shared(_fill_slot, tasks, 1, shape=(4,))
        buf3, metas3 = pool_map_shared(_fill_slot, tasks, 3, shape=(4,))
        assert np.array_equal(buf1, buf3)
        assert metas1 == metas3 == [{"value": v} for v in range(6)]
        assert np.array_equal(buf1[:, 0], 2.0 * np.arange(6))

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_failure_carries_task_index(self, jobs):
        tasks = [(i,) for i in range(4)]
        with pytest.raises(PoolTaskError) as err:
            pool_map_shared(_exploding_slot, tasks, jobs, shape=(2,))
        assert err.value.index == 2
        assert "shard blew up" in str(err.value)

    def test_pool_map_strict_raises_with_index(self):
        def boom(i):
            if i == 1:
                raise ValueError("nope")
            return i

        outcomes = pool_map(boom, [(0,), (1,)], 1)
        assert outcomes[0] == 0 and isinstance(outcomes[1], ValueError)
        with pytest.raises(PoolTaskError) as err:
            pool_map(boom, [(0,), (1,)], 1, strict=True)
        assert err.value.index == 1


class TestCountsBinning:
    def _phase_seed(self, want_on):
        """A seed whose phase coin (first uniform draw) picks ``want_on``."""
        for seed in range(64):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed).spawn(1)[0])
            if (rng.random() < 0.5) == want_on:
                return np.random.default_rng(
                    np.random.SeedSequence(seed).spawn(1)[0])
        raise AssertionError("no seed found")

    def test_edge_landing_interval_belongs_to_right_bin(self):
        """Periods of exactly one bin width: every boundary lands on an
        edge, and each ON period must fill exactly its own bin."""
        src = OnOffSource(Constant(0.25), Constant(0.25))
        work = src.counts(8, 0.25, seed=self._phase_seed(want_on=True))
        assert np.allclose(work, [0.25, 0, 0.25, 0, 0.25, 0, 0.25, 0])
        work = src.counts(8, 0.25, seed=self._phase_seed(want_on=False))
        assert np.allclose(work, [0, 0.25, 0, 0.25, 0, 0.25, 0, 0.25])

    def test_final_bin_clamp_on_rounding_start(self):
        """``start / bin_width`` can round up to ``n_bins`` for a start
        strictly inside the horizon; the clamp must land it in the last
        bin instead of overflowing."""
        n_bins, w = 34, 0.14338001753420282
        start = 4.874920596162895  # nextafter(n_bins * w, 0)
        assert start < n_bins * w  # inside the horizon...
        assert int(start / w) == n_bins  # ...but the quotient rounds up
        src = OnOffSource(Constant(start), Constant(start))
        # OFF phase first: the single ON interval is [start, duration).
        work = src.counts(n_bins, w, seed=self._phase_seed(want_on=False))
        assert work[:-1].sum() == 0.0
        assert work[-1] == pytest.approx(n_bins * w - start, abs=1e-12)
        # Batched kernel agrees bit for bit on the same construction.
        loop = multiplex_onoff_loop(4, n_bins, w, src, seed=11)
        batched = superpose_onoff(4, n_bins, w, source=src, seed=11, chunk=4)
        assert np.array_equal(batched, loop)


class TestEmbeddingCaches:
    def test_fgn_cache_bit_identical_and_hit(self):
        _fgn_embedding_eig.cache_clear()
        a = fgn_sample(256, 0.8, seed=0)
        info = _fgn_embedding_eig.cache_info()
        assert info.misses == 1 and info.hits == 0
        b = fgn_sample(256, 0.8, seed=0)
        assert _fgn_embedding_eig.cache_info().hits == 1
        assert np.array_equal(a, b)
        assert not _fgn_embedding_eig(256, 0.8, 1.0).flags.writeable

    def test_farima_cache_bit_identical_and_hit(self):
        _farima_embedding_eig.cache_clear()
        a = farima_sample(256, 0.3, seed=1)
        assert _farima_embedding_eig.cache_info().misses == 1
        b = farima_sample(256, 0.3, seed=1)
        assert _farima_embedding_eig.cache_info().hits == 1
        assert np.array_equal(a, b)
        assert not _farima_embedding_eig(256, 0.3, 1.0).flags.writeable

    def test_cache_key_distinguishes_parameters(self):
        x = fgn_sample(128, 0.7, seed=3)
        y = fgn_sample(128, 0.75, seed=3)
        assert not np.array_equal(x, y)
        z = fgn_sample(128, 0.7, sigma2=2.0, seed=3)
        assert not np.array_equal(x, z)
