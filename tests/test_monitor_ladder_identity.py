"""Identity contract of the window-local ``SlidingCountLadder`` update.

``SlidingCountLadder.update`` bins each batch against only the edges its
own span covers, and eviction advances a view into the buffer instead of
copying the window every time.  These tests pin that path to

* ``CountLadder`` on times at and beside every bin edge
  (``np.nextafter`` neighbours), where the ``start + w * j`` products and
  the divided estimate of a time's bin disagree;
* the whole-buffer update it replaced, frozen below, over random batch
  sequences with stragglers, wide jumps, weights and merges: the same
  counts, edge hits, offsets, event tallies and reported ``nbytes``.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import SlidingCountLadder
from repro.stream import CountLadder


class FrozenSlidingCountLadder(SlidingCountLadder):
    """``SlidingCountLadder`` with the whole-buffer update, copying
    eviction and merge, verbatim."""

    counts = _edge_hits = None  # plain arrays here, not buffer views

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        dtype = float if self.weighted else np.int64
        self.counts = np.zeros(64, dtype=dtype)
        self._edge_hits = np.zeros(64, dtype=dtype)

    def _local_edges(self, n_local):
        idx = np.arange(self.offset, self.offset + n_local + 1, dtype=np.int64)
        return self.start + self.bin_width * idx

    def _grow_to(self, n_local):
        if n_local <= self.counts.size:
            return
        grown = 1 << (n_local - 1).bit_length()
        for attr in ("counts", "_edge_hits"):
            new = np.zeros(grown, dtype=self.counts.dtype)
            old = getattr(self, attr)
            new[: old.size] = old
            setattr(self, attr, new)

    def _evict(self):
        if self.window_bins is None:
            return
        cutoff = self._idx_max - self.window_bins + 1
        if cutoff <= self.offset:
            return
        drop = cutoff - self.offset
        gone = self.counts[:drop].sum()
        self.evicted_events += int(gone) if not self.weighted else float(gone)
        self.n_events -= int(gone) if not self.weighted else float(gone)
        live = self._idx_max - cutoff + 2
        cap = max(64, 1 << (live - 1).bit_length())
        self.counts = self.counts[drop:drop + cap].copy()
        self._edge_hits = self._edge_hits[drop:drop + cap].copy()
        self.offset = cutoff

    def update(self, times, weights=None):
        arr = np.asarray(times, dtype=float)
        if arr.size == 0:
            return
        if self.weighted:
            if weights is None:
                raise ValueError("weighted ladder requires weights")
            w = np.asarray(weights, dtype=float)
        else:
            if weights is not None:
                raise ValueError("unweighted ladder got weights")
            w = None
        hi = float(arr.max())
        if hi > self.max_time:
            self.max_time = hi
        needed = int(np.floor((hi - self.start) / self.bin_width)) + 2
        n_local = needed - self.offset
        if n_local > 0:
            self._grow_to(n_local)
        edges = self._local_edges(self.counts.size - 1)
        idx = np.searchsorted(edges, arr, side="right") - 1
        valid = idx >= 0
        if not np.all(valid):
            behind = arr[~valid] >= self.start
            self.late_events += int(np.count_nonzero(behind))
        idx = idx[valid]
        vals = arr[valid]
        wv = None if w is None else w[valid]
        if idx.size:
            self._idx_max = max(self._idx_max, self.offset + int(idx.max()))
        on_edge = vals == edges[idx]
        if self.weighted:
            self.n_events += float(wv.sum())
            self.counts += np.bincount(idx, weights=wv,
                                       minlength=self.counts.size)
            if np.any(on_edge):
                self._edge_hits += np.bincount(
                    idx[on_edge], weights=wv[on_edge],
                    minlength=self.counts.size,
                )
        else:
            self.n_events += int(idx.size)
            self.counts += np.bincount(idx, minlength=self.counts.size)
            if np.any(on_edge):
                self._edge_hits += np.bincount(
                    idx[on_edge], minlength=self.counts.size
                )
        self._evict()

    def merge(self, other):
        lo = min(self.offset, other.offset)
        hi = max(self.offset + self.counts.size,
                 other.offset + other.counts.size)
        dtype = self.counts.dtype
        counts = np.zeros(hi - lo, dtype=dtype)
        edge_hits = np.zeros(hi - lo, dtype=dtype)
        for part in (self, other):
            sl = slice(part.offset - lo, part.offset - lo + part.counts.size)
            counts[sl] += part.counts
            edge_hits[sl] += part._edge_hits
        self.offset = lo
        self.counts = counts
        self._edge_hits = edge_hits
        self.n_events += other.n_events
        self.evicted_events += other.evicted_events
        self.late_events += other.late_events
        self.max_time = max(self.max_time, other.max_time)
        self._idx_max = max(self._idx_max, other._idx_max)
        self._evict()


def edge_neighbours(start, bin_width, ks):
    """Each edge ``start + w * k`` and its two float neighbours each side."""
    points = []
    for k in ks:
        edge = start + bin_width * k
        below, above = np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)
        points += [np.nextafter(below, -np.inf), below, edge, above,
                   np.nextafter(above, np.inf)]
    return np.sort(np.asarray(points, dtype=float))


def assert_same_ladder(fast, frozen):
    assert fast.counts.tobytes() == frozen.counts.tobytes()
    assert fast._edge_hits.tobytes() == frozen._edge_hits.tobytes()
    assert fast.offset == frozen.offset
    assert repr(fast.n_events) == repr(frozen.n_events)
    assert repr(fast.evicted_events) == repr(frozen.evicted_events)
    assert fast.late_events == frozen.late_events
    assert fast.max_time == frozen.max_time
    assert fast._idx_max == frozen._idx_max
    assert fast.nbytes == frozen.nbytes
    assert fast.finalize().tobytes() == frozen.finalize().tobytes()
    if fast.n_events:
        assert fast.window_bounds() == frozen.window_bounds()


WIDTHS = [0.1, 0.3, 1.0 / 3.0, 0.7, 1e-3, 15.036443894814957]


class TestEdgeNeighbours:
    """Times at, just below and just above every edge, in batches that
    start and end anywhere, bin exactly as ``CountLadder`` bins them."""

    @pytest.mark.parametrize("bin_width", WIDTHS)
    @pytest.mark.parametrize("start", [0.0, 2.5, -7.3])
    def test_every_edge_neighbour_matches_count_ladder(self, bin_width,
                                                       start):
        times = edge_neighbours(start, bin_width, range(0, 400))
        times = times[times >= start]
        twin = CountLadder(bin_width, start=start)
        twin.update(times)
        expected = twin.finalize()
        for window in (math.inf, 40.5 * bin_width):
            ladder = SlidingCountLadder(bin_width, start=start,
                                        window=window)
            for batch in np.array_split(times, 97):
                ladder.update(batch)
            got = ladder.window_counts()
            assert got.tobytes() == expected[expected.size - got.size:].tobytes()
            if math.isinf(window):
                assert got.size == expected.size

    def test_coarse_floats_where_the_estimate_is_bins_off(self):
        # At 1e17 the float spacing is 16 s, so with 1 s bins whole runs
        # of ``start + w * j`` products round to one value and the
        # divided estimate of a time's bin is several bins off.
        start, bin_width = 1e17, 1.0
        assert math.floor((start + 32.0 - start) / bin_width) == 32
        assert np.searchsorted(start + bin_width * np.arange(64),
                               start + 32.0, side="right") - 1 != 32
        times = start + 16.0 * np.repeat(np.arange(40), 3)
        twin = CountLadder(bin_width, start=start)
        twin.update(times)
        for window in (100.0, math.inf):
            ladder = SlidingCountLadder(bin_width, start=start, window=window)
            frozen = FrozenSlidingCountLadder(bin_width, start=start,
                                              window=window)
            for batch in np.array_split(times, 23):
                ladder.update(batch)
                frozen.update(batch)
                assert_same_ladder(ladder, frozen)
        # Only the unbounded ladder is CountLadder's twin here: with
        # products this coarse, the trailing window's edges were never a
        # suffix of the full edge array, before or after this change.
        assert ladder.finalize().tobytes() == twin.finalize().tobytes()

    @pytest.mark.parametrize("skew", [-9, -2, 2, 9])
    def test_span_search_corrects_any_bin_estimate(self, skew):
        # The divided estimate is at most a bin off at sane magnitudes;
        # the span search must still be exact if it is further off.
        class Skewed(SlidingCountLadder):
            def _bin_of(self, t):
                return super()._bin_of(t) + skew

        ladder = Skewed(0.1, window=math.inf)
        ladder._grow_to(512)
        full = ladder._edges(0, ladder.counts.size - 1)
        rng = np.random.default_rng(skew + 100)
        for _ in range(200):
            lo, hi = np.sort(rng.uniform(-1.0, 52.0, 2))
            x = np.concatenate([[lo, hi], rng.uniform(lo, hi, 8)])
            a, edges = ladder._span_edges(lo, hi)
            assert np.array_equal(
                a + np.searchsorted(edges, x, side="right"),
                np.searchsorted(full, x, side="right"))

    def test_known_disagreements(self):
        # 1.7 < 17 * 0.1 == 1.7000000000000002, yet (1.7 - 0) / 0.1 == 17.0:
        # the divided estimate puts 1.7 one bin right of its product edge.
        assert 1.7 < 17 * 0.1 and math.floor(1.7 / 0.1) == 17
        times = np.array([0.05, 1.7, 1.7, np.nextafter(17 * 0.1, 0.0),
                          17 * 0.1, 4.3, 4.3, 43 * 0.1, 5.0])
        twin = CountLadder(0.1)
        twin.update(times)
        for cut in range(1, times.size):
            ladder = SlidingCountLadder(0.1, window=math.inf)
            ladder.update(times[:cut])
            ladder.update(times[cut:])
            assert ladder.finalize().tobytes() == twin.finalize().tobytes()


@st.composite
def ladder_plans(draw):
    bin_width = draw(st.sampled_from(WIDTHS[:5]))
    start = draw(st.sampled_from([0.0, 1.25]))
    steps = []
    t = start
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["batch", "batch", "batch", "straggler",
                                     "jump", "merge"]))
        n = draw(st.integers(1, 30))
        if kind == "jump":
            t += bin_width * draw(st.integers(50, 3000))
        back = bin_width * draw(st.integers(0, 200)) if kind == "straggler" else 0.0
        ks = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
        offsets = draw(st.lists(st.sampled_from([-1, 0, 1, 0.5]),
                                min_size=n, max_size=n))
        raw = []
        for k, off in zip(ks, offsets):
            edge = t - back + bin_width * k
            raw.append(np.nextafter(edge, np.inf * off) if off in (-1, 1)
                       else edge + bin_width * off)
        batch = np.sort(np.asarray(raw, dtype=float))
        weights = np.asarray(draw(st.lists(
            st.floats(0.0, 1500.0, allow_nan=False), min_size=n,
            max_size=n)))
        steps.append((kind, batch, weights))
        if kind != "straggler":
            t = max(t, float(batch[-1]))
    return bin_width, start, steps


class TestFrozenOracle:
    @given(ladder_plans(), st.sampled_from([math.inf, 0.35, 3.0, 25.0]),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_update_and_merge_match_whole_buffer(self, plan, window,
                                                 weighted):
        bin_width, start, steps = plan
        fast = SlidingCountLadder(bin_width, start=start, window=window,
                                  weighted=weighted)
        frozen = FrozenSlidingCountLadder(bin_width, start=start,
                                          window=window, weighted=weighted)
        for kind, batch, weights in steps:
            w = weights if weighted else None
            if kind == "merge":
                other_fast = SlidingCountLadder(
                    bin_width, start=start, window=window, weighted=weighted)
                other_frozen = FrozenSlidingCountLadder(
                    bin_width, start=start, window=window, weighted=weighted)
                other_fast.update(batch, w)
                other_frozen.update(batch, w)
                fast.merge(other_fast)
                frozen.merge(other_frozen)
            else:
                fast.update(batch, w)
                frozen.update(batch, w)
            assert_same_ladder(fast, frozen)

    def test_sliding_window_does_not_copy_every_batch(self):
        ladder = SlidingCountLadder(0.1, window=30.0)
        relocations, buf = 0, ladder._buf
        for second in range(600):
            ladder.update(second + np.linspace(0.0, 0.99, 50))
            relocations += ladder._buf is not buf
            buf = ladder._buf
        # The window is 300 bins in a 512-slot buffer: the live bins move
        # once per ~200 slid bins (20 batches), not once per batch.
        assert relocations <= 600 // 15
        # A batch that spans far more than the window grows the buffer;
        # the next eviction gives that memory back.
        ladder.update(np.linspace(600.0, 2600.0, 50))
        ladder.update([2600.5])
        assert ladder._buf.shape[1] <= 2 * 512
        assert ladder.counts.size <= 512

    def test_pickled_ladder_keeps_sliding(self):
        # The bins live in one buffer the views are cut from, so a copy
        # made mid-stream carries on exactly like the original.
        ladder = SlidingCountLadder(0.1, window=30.0)
        for second in range(100):
            ladder.update(second + np.linspace(0.0, 0.99, 50))
        copy = pickle.loads(pickle.dumps(ladder))
        for second in range(100, 400):
            batch = second + np.linspace(0.0, 0.99, 50)
            ladder.update(batch)
            copy.update(batch)
        assert copy.finalize().tobytes() == ladder.finalize().tobytes()
        assert copy.evicted_events == ladder.evicted_events
