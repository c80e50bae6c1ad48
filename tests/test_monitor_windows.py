"""Property tests for the windowed/decaying monitor sketches.

The load-bearing contracts (see ``repro.monitor.windows``):

* **twin reduction** — every windowed sketch at ``window=inf`` /
  ``decay=0`` is *bit-identical* to its unbounded ``repro.stream``
  twin under any partition of the input;
* **shard-merge order invariance** — merging per-shard sketches in any
  order yields the identical state (decay weights are pure functions of
  the item and the merged clock, never of the path the item took to get
  there); for the count/order-statistic sketches and at ``decay=0`` the
  merge also reproduces the single-writer state exactly;
* **O(window) memory** — a finite-window ladder's buffer is bounded by
  the window, independent of stream length.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import (
    DecayedMoments,
    DecayedTopK,
    SlidingCountLadder,
    WindowedQuantileSketch,
)
from repro.stream import CountLadder, QuantileSketch, StreamingMoments, TopK


def _split(arr, cuts):
    idx = sorted(set(int(c) % (arr.size + 1) for c in cuts))
    return np.split(arr, idx)


def _times(n=2000, span=100.0, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(0.0, span, n))


# ----------------------------------------------------------------------
# Twin reduction: window=inf / decay=0 is bit-identical to the twin
# ----------------------------------------------------------------------
class TestTwinReduction:
    @given(
        st.lists(st.integers(0, 1999), min_size=0, max_size=5),
        st.floats(0.05, 2.0),
        st.integers(0, 2 ** 31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_ladder_inf_window_matches_count_ladder(self, cuts, bin_width,
                                                    seed):
        times = _times(seed=seed)
        twin = CountLadder(bin_width)
        windowed = SlidingCountLadder(bin_width, window=math.inf)
        for piece in _split(times, cuts):
            twin.update(piece)
            windowed.update(piece)
        assert np.array_equal(windowed.finalize(), twin.finalize())
        assert np.array_equal(windowed.window_counts(), twin.finalize())
        assert windowed.n_events == twin.n_events
        assert windowed.evicted_events == 0

    @given(st.lists(st.integers(0, 1999), min_size=0, max_size=5),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_moments_zero_decay_matches_streaming_moments(self, cuts, seed):
        rng = np.random.default_rng(seed)
        x = rng.pareto(1.3, 2000) + 0.1
        times = _times(seed=seed)
        twin = StreamingMoments()
        decayed = DecayedMoments(decay=0.0)
        for piece, t in zip(_split(x, cuts), _split(times, cuts)):
            twin.update(piece)
            decayed.update(piece, now=float(t[-1]) if t.size else None)
        assert decayed.n == twin.n
        assert decayed.mean == twin.mean
        assert decayed.m2 == twin.m2
        assert decayed.total == twin.total
        assert decayed.min == twin.min and decayed.max == twin.max

    @given(st.lists(st.integers(0, 1999), min_size=0, max_size=5),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_topk_zero_decay_matches_topk(self, cuts, seed):
        rng = np.random.default_rng(seed)
        x = rng.pareto(1.1, 2000) + 0.05
        times = _times(seed=seed)
        twin = TopK(128)
        decayed = DecayedTopK(128, decay=0.0)
        for piece, t in zip(_split(x, cuts), _split(times, cuts)):
            twin.update(piece)
            decayed.update(piece, t)
        assert np.array_equal(decayed.values, twin.values)
        assert decayed.n_seen == twin.n_seen
        assert decayed.n_eff == twin.n_seen
        assert decayed.tail_fit(0.05) == twin.tail_fit(0.05)
        assert decayed.max_tail_fraction() == twin.max_tail_fraction()

    @given(st.lists(st.integers(0, 1999), min_size=0, max_size=5),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_quantiles_inf_window_match_quantile_sketch(self, cuts, seed):
        rng = np.random.default_rng(seed)
        x = rng.lognormal(6.0, 2.0, 2000)
        times = _times(seed=seed)
        twin = QuantileSketch(64)
        windowed = WindowedQuantileSketch(64, window=math.inf)
        for piece, t in zip(_split(x, cuts), _split(times, cuts)):
            twin.update(piece)
            windowed.update(piece, t)
        assert windowed.n == twin.n
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert windowed.quantile(q) == twin.quantile(q)
        assert windowed.max_rank_error() == twin.max_rank_error()


# ----------------------------------------------------------------------
# Shard-merge order invariance
# ----------------------------------------------------------------------
class TestMergeOrderInvariance:
    @given(st.permutations(range(4)), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_windowed_ladder_shards_any_order(self, order, seed):
        """Per-shard windowed ladders merged in any order equal the
        single-writer ladder over the concatenated stream."""
        times = _times(n=4000, span=200.0, seed=seed)
        pieces = _split(times, [1000, 2000, 3000])
        single = SlidingCountLadder(0.1, window=30.0)
        for piece in pieces:
            single.update(piece)
        shards = []
        for piece in pieces:
            shard = SlidingCountLadder(0.1, window=30.0)
            shard.update(piece)
            shards.append(shard)
        merged = SlidingCountLadder(0.1, window=30.0)
        for i in order:
            merged.merge(shards[i])
        assert np.array_equal(merged.window_counts(), single.window_counts())
        assert merged.window_bounds() == single.window_bounds()
        assert merged.n_events == single.n_events
        assert merged.max_time == single.max_time

    @given(st.permutations(range(4)), st.floats(0.0, 0.5),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_decayed_topk_shards_any_order(self, order, decay, seed):
        """Decay weights are pure functions of (value time, merged clock),
        so every merge *order* yields the same state bit-for-bit.  At
        ``decay=0`` the merged shards also equal the single writer (pure
        top-k selection is a semilattice); with ``decay > 0`` that
        stronger identity is not promised — capacity truncation at a
        shard's intermediate clock does not commute with age eviction."""
        rng = np.random.default_rng(seed)
        x = rng.pareto(1.2, 2000) + 0.1
        times = _times(seed=seed)
        pieces = list(zip(_split(x, [500, 1000, 1500]),
                          _split(times, [500, 1000, 1500])))
        shards = []
        for vals, t in pieces:
            shard = DecayedTopK(64, decay=decay)
            shard.update(vals, t)
            shards.append(shard)
        merged = DecayedTopK(64, decay=decay)
        for i in order:
            merged.merge(shards[i])
        ordered = DecayedTopK(64, decay=decay)
        for shard in shards:
            ordered.merge(shard)
        assert np.array_equal(merged.values, ordered.values)
        assert np.array_equal(merged.times, ordered.times)
        assert merged.t_ref == ordered.t_ref
        assert merged.n_seen == ordered.n_seen
        assert merged.n_eff == pytest.approx(ordered.n_eff, rel=1e-12)
        assert np.array_equal(merged.weights(), ordered.weights())
        if decay == 0.0:
            single = DecayedTopK(64, decay=0.0)
            for vals, t in pieces:
                single.update(vals, t)
            assert np.array_equal(merged.values, single.values)
            assert merged.n_eff == single.n_eff

    def test_decayed_moments_merge_commutes(self):
        rng = np.random.default_rng(9)
        a = DecayedMoments(decay=0.1)
        a.update(rng.pareto(1.5, 500) + 0.1, now=10.0)
        b = DecayedMoments(decay=0.1)
        b.update(rng.pareto(1.5, 500) + 0.1, now=25.0)
        ab = DecayedMoments(decay=0.1)
        ab.merge(a)
        ab.merge(b)
        ba = DecayedMoments(decay=0.1)
        ba.merge(b)
        ba.merge(a)
        assert ab.n == pytest.approx(ba.n, rel=1e-12)
        assert ab.mean == pytest.approx(ba.mean, rel=1e-12)
        assert ab.m2 == pytest.approx(ba.m2, rel=1e-12)
        assert ab.t_ref == ba.t_ref

    def test_layout_mismatch_raises(self):
        with pytest.raises(ValueError, match="layouts"):
            SlidingCountLadder(0.1, window=10.0).merge(
                SlidingCountLadder(0.1, window=20.0))
        with pytest.raises(ValueError, match="parameters"):
            DecayedTopK(8, decay=0.1).merge(DecayedTopK(8, decay=0.2))
        with pytest.raises(ValueError, match="decay"):
            DecayedMoments(0.1).merge(DecayedMoments(0.2))
        with pytest.raises(ValueError, match="layouts"):
            WindowedQuantileSketch(8, window=10.0).merge(
                WindowedQuantileSketch(8, window=20.0))


# ----------------------------------------------------------------------
# Windowing behaviour
# ----------------------------------------------------------------------
class TestWindowing:
    def test_ladder_memory_independent_of_stream_length(self):
        ladder = SlidingCountLadder(0.1, window=10.0)
        for k in range(50):
            ladder.update(np.linspace(k * 100.0, k * 100.0 + 99.0, 1000))
        assert ladder.total_events == 50_000
        assert ladder.window_counts().size <= ladder.window_bins
        # Buffer stays near the window size, not the 5000s stream span.
        assert ladder.counts.size <= 4 * ladder.window_bins
        assert ladder.nbytes < 16_000

    def test_ladder_evicts_and_counts(self):
        ladder = SlidingCountLadder(1.0, window=5.0)
        ladder.update([0.5, 1.5, 2.5])
        ladder.update([20.5])
        assert ladder.evicted_events == 3
        assert ladder.n_events == 1
        assert ladder.total_events == 4

    def test_ladder_straggler_behind_window_is_late(self):
        ladder = SlidingCountLadder(1.0, window=5.0)
        ladder.update([100.0])
        ladder.update([1.0])  # far behind the retained window
        assert ladder.late_events == 1
        assert ladder.n_events == 1

    def test_decayed_topk_ages_out_old_outlier(self):
        topk = DecayedTopK(32, decay=1.0, weight_floor=1e-6)
        topk.update([1e9], [0.0])  # ancient giant
        topk.update(np.full(16, 10.0), np.full(16, 100.0))
        # exp(-100) is far below the weight floor: the giant is gone.
        assert 1e9 not in topk.values
        assert topk.values.size == 16

    def test_quantile_panes_drop_old_data(self):
        sketch = WindowedQuantileSketch(128, window=10.0, n_panes=5)
        sketch.update(np.full(100, 1.0), np.full(100, 0.5))
        sketch.update(np.full(100, 9.0), np.full(100, 50.0))
        # The early pane of 1.0s fell out of the window.
        assert sketch.quantile(0.01) == 9.0
        assert sketch.n == 100

    def test_finite_window_requires_times(self):
        sketch = WindowedQuantileSketch(16, window=10.0)
        with pytest.raises(ValueError, match="times"):
            sketch.update([1.0, 2.0])


# ----------------------------------------------------------------------
# Pane runs: per-pane slices equal the per-pane masks they replaced
# ----------------------------------------------------------------------
class FrozenWindowedQuantileSketch(WindowedQuantileSketch):
    """The ``np.unique`` + per-pane mask update, verbatim."""

    def update(self, values, times=None):
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        if math.isinf(self.window):
            self._panes[0].update(arr)
            return
        if times is None:
            raise ValueError("a finite-window sketch requires event times")
        t = np.broadcast_to(np.asarray(times, dtype=float), arr.shape)
        idx = np.floor((t - self.start) / self.pane_width).astype(np.int64)
        self._pane_max = max(self._pane_max, int(idx.max()))
        cutoff = self._pane_max - self.n_panes + 1
        live = idx >= cutoff
        arr, idx = arr[live], idx[live]
        for pane in np.unique(idx):
            sk = self._panes.get(int(pane))
            if sk is None:
                sk = self._panes[int(pane)] = self._sketch_cls(self.capacity)
            sk.update(arr[idx == pane])
        self._evict()


class TestPaneRuns:
    @given(st.lists(st.integers(0, 1999), min_size=0, max_size=8),
           st.integers(0, 2 ** 31 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_masked_update(self, cuts, seed, shuffle):
        rng = np.random.default_rng(seed)
        x = rng.lognormal(6.0, 2.0, 2000)
        times = _times(seed=seed)
        if shuffle:  # out-of-order times take the stable-sort path
            times = times + rng.uniform(-15.0, 15.0, times.size)
        fast = WindowedQuantileSketch(32, window=40.0, n_panes=4)
        frozen = FrozenWindowedQuantileSketch(32, window=40.0, n_panes=4)
        for piece, t in zip(_split(x, cuts), _split(times, cuts)):
            fast.update(piece, t)
            frozen.update(piece, t)
            assert sorted(fast._panes) == sorted(frozen._panes)
            for pane, sk in fast._panes.items():
                twin = frozen._panes[pane]
                assert sk.n == twin.n
                assert [lv.tolist() for lv in map(np.concatenate,
                        filter(None, sk._levels))] == [
                    lv.tolist() for lv in map(np.concatenate,
                        filter(None, twin._levels))]
            assert fast.nbytes == frozen.nbytes
            if fast.n:
                qs = [0.0, 0.1, 0.5, 0.9, 1.0]
                assert (fast.quantiles(qs).tolist()
                        == frozen.quantiles(qs).tolist())
