"""Windowed and exponentially-decayed variants of the ``stream.sketches``.

The batch sketches accumulate *forever*: a :class:`~repro.stream.sketches.
CountLadder` holds every bin since the stream began, a ``TopK`` never
forgets a large value.  An always-on monitor instead wants the *recent*
stream — the last ``W`` seconds, or an exponentially-decayed view — while
keeping the two contracts that make the batch family composable:

* **Twin reduction.**  Every windowed sketch with ``window=inf`` (or
  ``decay=0``) is *bit-identical* to its unbounded ``stream.sketches``
  twin: same counts, same order statistics, same estimator outputs.  The
  windowed family is a strict generalization, not a parallel code path
  with its own rounding.
* **Exact-merge algebra.**  ``merge`` stays associative and (for the
  integer/order-statistic sketches) order-invariant, so sharded
  collectors — N replay receivers each running a monitor — combine into
  the same windowed state as one receiver seeing the whole stream.
  Windowing commutes with merging because eviction depends only on the
  *merged* maximum event time, which is itself order-invariant, and each
  shard's own evictions are always a subset of the merged eviction.

Decay semantics: a decayed sketch stores raw ``(value, event-time)``
pairs and derives weights ``exp(-decay * (now - t))`` *lazily* at query
time, with the effective sample count ``n_eff`` carried as a
``(mass, reference-time)`` pair.  Storing times instead of pre-decayed
weights is what makes the merge order-invariant: the union of two shards'
pairs is a set, and every weight is a pure function of the pair and the
merged clock.
"""

from __future__ import annotations

import math

import numpy as np

from repro.selfsim.counts import CountProcess
from repro.utils.binning import bin_edges
from repro.utils.validation import require_positive

__all__ = [
    "DecayedMoments",
    "DecayedTopK",
    "SlidingCountLadder",
    "WindowedQuantileSketch",
]


# ----------------------------------------------------------------------
# sliding count ladder
# ----------------------------------------------------------------------
class SlidingCountLadder:
    """Ring-buffered :class:`~repro.stream.sketches.CountLadder` over the
    last ``window`` seconds.

    Bins are indexed *absolutely* (bin ``j`` covers ``[start + j*w,
    start + (j+1)*w)``) and the buffer retains the trailing
    ``ceil(window / bin_width)`` bins ending at the bin holding the
    largest event time seen.  Bins that slide out of the window are
    *evicted* — their events move from :attr:`n_events` to
    :attr:`evicted_events` — so memory is ``O(window / bin_width)``,
    independent of stream length.  ``window=inf`` never evicts and is
    bit-identical to the open-mode ``CountLadder`` (same edge arithmetic,
    same closed-right final bin, same trailing-partial-bin drop).

    Events older than the retained window (stragglers from a slow shard)
    are dropped and counted in :attr:`late_events` rather than silently
    mis-binned.
    """

    def __init__(
        self,
        bin_width: float,
        *,
        start: float = 0.0,
        window: float = math.inf,
        weighted: bool = False,
    ):
        require_positive(bin_width, "bin_width")
        require_positive(window, "window")
        self.bin_width = float(bin_width)
        self.start = float(start)
        self.window = float(window)
        self.weighted = bool(weighted)
        #: Retained trailing bins; ``None`` means never evict.
        self.window_bins = (
            None if math.isinf(self.window)
            else max(int(math.ceil(self.window / self.bin_width)), 1)
        )
        dtype = float if weighted else np.int64
        self.offset = 0  # absolute index of counts[0]
        # ``counts`` and ``_edge_hits`` are the ``_buf`` rows' slots
        # ``[_head, _head + _size)``.  Eviction only advances ``_head``;
        # the live bins move to the front of a fresh buffer when growth
        # runs out of room behind them, so copies are amortized over
        # every bin the window slides past.
        self._buf = np.zeros((2, 64), dtype=dtype)
        self._head = 0
        self._size = 64
        self.n_events = 0        # events (or weight) in retained bins
        self.evicted_events = 0  # slid out of the window
        self.late_events = 0     # arrived behind the retained window
        self.max_time = -np.inf
        self._idx_max = -1       # absolute bin index holding max_time

    # -- geometry ------------------------------------------------------
    def _edges(self, lo: int, hi: int) -> np.ndarray:
        """Edges of retained slots ``lo .. hi`` (inclusive).

        Element ``j`` is ``start + bin_width * (offset + lo + j)`` — the
        same float product ``CountLadder._make_edges`` produces for the
        absolute index, so binning is bit-identical at any offset.
        """
        idx = np.arange(self.offset + lo, self.offset + hi + 1,
                        dtype=np.int64)
        return self.start + self.bin_width * idx

    def _bin_of(self, t: float) -> int:
        return int(np.floor((t - self.start) / self.bin_width))

    def _span_edges(self, lo: float, hi: float) -> tuple[int, np.ndarray]:
        """``(a, edges)``: the retained edges from slot ``a`` on that a
        search over *all* retained edges would use for times in
        ``[lo, hi]``.

        Searching ``edges`` gives the full search's position minus
        ``a`` as long as every edge left of ``a`` is ``<= lo`` and every
        edge right of the span is ``> hi``.  The divided estimate is one
        slot off at most, so the span starts one slot wider and is
        widened further only if the products say otherwise.
        """
        last = self._size - 1
        a = min(max(self._bin_of(lo) - self.offset - 1, 0), last)
        c = min(max(self._bin_of(hi) - self.offset + 2, a), last)
        step = 1
        while True:
            edges = self._edges(a, c)
            low_ok = a == 0 or edges[0] <= lo
            high_ok = c == last or edges[-1] > hi
            if low_ok and high_ok:
                return a, edges
            if not low_ok:
                a = max(a - step, 0)
            if not high_ok:
                c = min(c + step, last)
            step *= 2

    @property
    def counts(self) -> np.ndarray:
        """Per-slot counts of the retained bins (a view)."""
        return self._buf[0, self._head:self._head + self._size]

    @property
    def _edge_hits(self) -> np.ndarray:
        # Events sitting exactly on their slot's left edge (see
        # CountLadder: needed to fold the closed-right final edge).
        return self._buf[1, self._head:self._head + self._size]

    def _relocate(self, size: int, capacity: int) -> None:
        """Move the live bins to the front of a zeroed ``capacity``-slot
        buffer and view its first ``size`` slots."""
        buf = np.zeros((2, capacity), dtype=self._buf.dtype)
        live = min(self._size, size)
        buf[:, :live] = self._buf[:, self._head:self._head + live]
        self._buf, self._head, self._size = buf, 0, size

    def _grow_to(self, n_local: int) -> None:
        if n_local <= self._size:
            return
        grown = 1 << (n_local - 1).bit_length()
        if self._head + grown > self._buf.shape[1]:
            self._relocate(grown, grown)
        else:
            # Slots past the view are empty: eviction only trims slots
            # past ``_idx_max``, where no event has landed.
            self._size = grown

    def _evict(self) -> None:
        if self.window_bins is None:
            return
        cutoff = self._idx_max - self.window_bins + 1
        if cutoff <= self.offset:
            return
        drop = cutoff - self.offset
        gone = self.counts[:drop].sum()
        self.evicted_events += int(gone) if not self.weighted else float(gone)
        self.n_events -= int(gone) if not self.weighted else float(gone)
        # Trim trailing growth slack too: a single wide batch can have
        # grown the buffer far past the window, and retaining that tail
        # would leak O(batch span) instead of O(window).  Live local
        # indices run up to ``_idx_max - cutoff`` plus one final-edge
        # slot read by ``finalize``.
        live = self._idx_max - cutoff + 2
        cap = max(64, 1 << (live - 1).bit_length())
        self._head += drop
        self.offset = cutoff
        self._size = min(cap, self._size - drop)
        if self._buf.shape[1] > 2 * cap:
            self._relocate(self._size, cap)

    # -- updates -------------------------------------------------------
    def update(self, times, weights=None) -> None:
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
        lo, hi = float(arr.min()), float(arr.max())
        if hi > self.max_time:
            self.max_time = hi
        needed = self._bin_of(hi) + 2
        n_local = needed - self.offset
        if n_local > 0:
            self._grow_to(n_local)
        # Bin against the batch's own span of edges: the buffer holds
        # the whole window, a batch touches a few slots of it.
        a, edges = self._span_edges(lo, hi)
        idx = np.searchsorted(edges, arr, side="right") - 1
        valid = idx >= 0  # before ``start``, or behind the retained window
        if not valid.all():
            behind = arr[~valid] >= self.start
            self.late_events += int(np.count_nonzero(behind))
        idx = idx[valid]
        vals = arr[valid]
        wv = None if w is None else w[valid]
        if idx.size:
            self._idx_max = max(self._idx_max,
                                self.offset + a + int(idx.max()))
        on_edge = vals == edges[idx]
        counts = self.counts[a:a + edges.size]
        edge_hits = self._edge_hits[a:a + edges.size]
        if self.weighted:
            self.n_events += float(wv.sum())
            counts += np.bincount(idx, weights=wv, minlength=edges.size)
            if on_edge.any():
                edge_hits += np.bincount(idx[on_edge], weights=wv[on_edge],
                                         minlength=edges.size)
        else:
            self.n_events += int(idx.size)
            counts += np.bincount(idx, minlength=edges.size)
            if on_edge.any():
                edge_hits += np.bincount(idx[on_edge], minlength=edges.size)
        self._evict()

    # -- merge ---------------------------------------------------------
    def merge(self, other: "SlidingCountLadder") -> None:
        if (other.bin_width != self.bin_width or other.start != self.start
                or other.window != self.window
                or other.weighted != self.weighted):
            raise ValueError("cannot merge ladders with different layouts")
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
        self._buf = np.stack([counts, edge_hits])
        self._head, self._size = 0, hi - lo
        self.n_events += other.n_events
        self.evicted_events += other.evicted_events
        self.late_events += other.late_events
        self.max_time = max(self.max_time, other.max_time)
        self._idx_max = max(self._idx_max, other._idx_max)
        self._evict()

    # -- results -------------------------------------------------------
    def finalize(self) -> np.ndarray:
        """Per-bin counts over the retained whole-bin window.

        Batch semantics, exactly as ``CountLadder.finalize``: the window
        ends at the largest event time, the trailing partial bin is
        dropped, and events sitting exactly on the final edge fold into
        the last (closed-right) bin.
        """
        if self.n_events == 0 or self.max_time < self.start:
            return self.counts[:0].copy()
        edges = bin_edges(self.start, self.max_time, self.bin_width)
        n_abs = len(edges) - 1
        if n_abs < 1:
            # Zero-span window: every event sits exactly at ``start``.
            return self.counts[:1].copy()
        n_local = n_abs - self.offset
        out = self.counts[:n_local].copy()
        if 0 < n_local < self.counts.size:
            out[-1] += self._edge_hits[n_local]
        return out

    def window_counts(self) -> np.ndarray:
        """The last ``<= window_bins`` whole bins (all bins at inf)."""
        full = self.finalize()
        if self.window_bins is None or full.size <= self.window_bins:
            return full
        return full[-self.window_bins:]

    def window_process(self) -> CountProcess:
        return CountProcess(self.window_counts(), self.bin_width)

    def window_bounds(self) -> tuple[float, float]:
        """``[t_lo, t_hi)`` edges of :meth:`window_counts`'s bins, so a
        batch path can rebuild the identical window from raw times."""
        full = self.finalize()
        n = full.size
        if self.window_bins is not None:
            n = min(n, self.window_bins)
        first = self.offset + (full.size - n)
        lo = self.start + self.bin_width * first
        hi = self.start + self.bin_width * (first + n)
        return float(lo), float(hi)

    def as_count_process(self) -> CountProcess:
        return CountProcess(self.finalize(), self.bin_width)

    @property
    def total_events(self):
        """All in-range events ever accumulated (retained + evicted)."""
        return self.n_events + self.evicted_events

    @property
    def nbytes(self) -> int:
        return (int(self.counts.nbytes) + int(self._edge_hits.nbytes) + 64)


# ----------------------------------------------------------------------
# exponentially-decayed moments
# ----------------------------------------------------------------------
class DecayedMoments:
    """Time-decayed Welford-Chan moments.

    Existing mass is scaled by ``exp(-decay * dt)`` whenever the clock
    advances, then the new batch (treated as a point mass at its own
    ``now``) folds in through the same weighted Chan combination the
    unbounded :class:`~repro.stream.sketches.StreamingMoments` uses —
    with ``decay=0`` every scale factor is exactly ``1.0`` and the
    arithmetic is bit-identical to the twin.  ``min``/``max`` are
    all-time extremes (extremes cannot be decayed without a window).
    """

    __slots__ = ("decay", "n", "mean", "m2", "min", "max", "total", "t_ref")

    def __init__(self, decay: float = 0.0):
        if decay < 0:
            raise ValueError(f"decay must be >= 0, got {decay}")
        self.decay = float(decay)
        self.n = 0.0          # effective (decayed) count
        self.mean = 0.0
        self.m2 = 0.0
        self.min = np.inf
        self.max = -np.inf
        self.total = 0.0      # decayed sum
        self.t_ref = -np.inf  # clock the decayed mass is referenced to

    def _advance(self, now: float) -> None:
        if now <= self.t_ref:
            return
        if self.n:
            scale = math.exp(-self.decay * (now - self.t_ref))
            self.n *= scale
            self.m2 *= scale
            self.total *= scale
        self.t_ref = now

    def update(self, values, now: float | None = None) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        self._advance(self.t_ref if now is None else float(now))
        self._combine(float(arr.size), float(arr.mean()),
                      float(((arr - arr.mean()) ** 2).sum()),
                      float(arr.min()), float(arr.max()), float(arr.sum()))

    def merge(self, other: "DecayedMoments") -> None:
        if other.decay != self.decay:
            raise ValueError("cannot merge moments with different decay")
        now = max(self.t_ref, other.t_ref)
        self._advance(now)
        if other.n == 0:
            return
        scale = (math.exp(-self.decay * (now - other.t_ref))
                 if now > other.t_ref else 1.0)
        self._combine(other.n * scale, other.mean, other.m2 * scale,
                      other.min, other.max, other.total * scale)

    def _combine(self, n, mean, m2, lo, hi, total) -> None:
        if n == 0:
            return
        if self.n == 0:
            self.n, self.mean, self.m2 = n, mean, m2
            self.min, self.max, self.total = lo, hi, total
            return
        delta = mean - self.mean
        combined = self.n + n
        self.m2 = self.m2 + m2 + delta * delta * (self.n * n / combined)
        self.mean = self.mean + delta * (n / combined)
        self.n = combined
        self.min = min(self.min, lo)
        self.max = max(self.max, hi)
        self.total += total

    @property
    def variance(self) -> float:
        return self.m2 / self.n if self.n else 0.0

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def nbytes(self) -> int:
        return 8 * 8

    def __repr__(self):
        return (f"DecayedMoments(decay={self.decay:g}, n_eff={self.n:.6g}, "
                f"mean={self.mean:.6g})")


# ----------------------------------------------------------------------
# exponentially-decayed top-k tail reservoir
# ----------------------------------------------------------------------
def _pair_keys(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``values + 1j * times`` without the product: numpy orders complex
    numbers by real part, then imaginary part, as ``lexsort`` orders
    ``(value, time)`` pairs."""
    keys = np.empty(values.size, dtype=complex)
    keys.real, keys.imag = values, times
    return keys


class DecayedTopK:
    """Top-``k`` reservoir whose items age out exponentially.

    Stores ``(value, event-time)`` pairs for the ``capacity`` largest
    values still young enough to matter; each item's weight
    ``exp(-decay * (now - t))`` is derived lazily against the reservoir
    clock (the largest event time seen), and the effective sample count
    :attr:`n_eff` decays the same way.  On the ``update`` path, items
    whose weight falls below ``weight_floor`` are evicted, so with
    ``decay > 0`` an ancient outlier cannot dominate the current tail
    fit forever.  ``merge`` is a pure top-k union (no age eviction), so
    merging shards in any order yields the identical reservoir.

    ``decay=0`` keeps every weight at exactly ``1.0`` and ``n_eff ==
    n_seen``; values, Hill estimates, and :meth:`tail_fit` are then
    bit-identical to :class:`~repro.stream.sketches.TopK`.  Merging takes
    the union of the pairs (then re-selects the top ``capacity``), which
    is order-invariant: weights are pure functions of the pair and the
    merged clock.
    """

    __slots__ = ("capacity", "decay", "weight_floor", "values", "times",
                 "n_seen", "n_eff", "t_ref")

    def __init__(self, capacity: int, decay: float = 0.0,
                 weight_floor: float = 1e-9):
        require_positive(capacity, "capacity")
        if decay < 0:
            raise ValueError(f"decay must be >= 0, got {decay}")
        if not 0.0 < weight_floor < 1.0:
            raise ValueError(
                f"weight_floor must be in (0, 1), got {weight_floor}"
            )
        self.capacity = int(capacity)
        self.decay = float(decay)
        self.weight_floor = float(weight_floor)
        self.values = np.empty(0, dtype=float)  # sorted ascending
        self.times = np.empty(0, dtype=float)   # aligned event times
        self.n_seen = 0
        self.n_eff = 0.0
        self.t_ref = -np.inf

    # -- internals -----------------------------------------------------
    @property
    def _max_age(self) -> float:
        if self.decay == 0.0:
            return math.inf
        return -math.log(self.weight_floor) / self.decay

    def _merge_sorted(self, values: np.ndarray, times: np.ndarray) -> None:
        """Fold candidate pairs into the stored arrays and keep the
        ``capacity`` largest by value, ties broken by time so the kept
        multiset is deterministic under any merge order.

        The result is exactly a stable ``lexsort`` of the stored pairs
        followed by the candidates, truncated to ``capacity``.  Only the
        ``m`` candidates that can make the cut are sorted; each lands by
        binary search after any stored pair it ties with: O(m log m +
        m log n), plus one O(n) copy when any survive.  Times must be
        finite, as the tie-break key is complex.
        """
        sv, st = self.values, self.times
        if sv.size >= self.capacity:
            # Full: a candidate strictly below the minimum pair would be
            # truncated again.  Ties stay, since they sort after it.
            v0, t0 = sv[0], st[0]
            keep = ~((values < v0) | ((values == v0) & (times < t0)))
            if not keep.all():
                values, times = values[keep], times[keep]
        if values.size == 0:
            return
        order = np.lexsort((times, values))
        values, times = values[order], times[order]
        pos = np.searchsorted(sv, values, side="right")
        if sv.size:
            # A value already stored goes among its equals by time: they
            # are one run, sorted by time, ending at ``pos``.  (Written
            # as "not below" so that NaN, which sorts last, ties NaN.)
            tied = (pos > 0) & ~(sv[pos - 1] < values)
            if tied.any():
                a = int(np.searchsorted(sv, values[tied], side="left").min())
                b = int(pos[tied].max())
                pos[tied] = a + np.searchsorted(
                    _pair_keys(sv[a:b], st[a:b]),
                    _pair_keys(values[tied], times[tied]), side="right")
        n = sv.size + values.size
        dest = pos + np.arange(values.size)
        stored = np.ones(n, dtype=bool)
        stored[dest] = False
        out_v, out_t = np.empty(n), np.empty(n)
        out_v[dest], out_t[dest] = values, times
        out_v[stored], out_t[stored] = sv, st
        cut = max(n - self.capacity, 0)
        self.values, self.times = out_v[cut:], out_t[cut:]

    def _advance(self, now: float) -> None:
        if now <= self.t_ref:
            return
        if self.n_eff:
            self.n_eff *= math.exp(-self.decay * (now - self.t_ref))
        self.t_ref = now

    # -- updates -------------------------------------------------------
    def update(self, values, times=None) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        if times is None:
            t = np.full(arr.size, self.t_ref if self.t_ref > -np.inf else 0.0)
        else:
            t = np.asarray(times, dtype=float)
            if t.shape != arr.shape:
                t = np.broadcast_to(t, arr.shape)
        self.n_seen += int(arr.size)
        now = max(self.t_ref, float(t.max()))
        self._advance(now)
        if self.decay:
            self.n_eff += float(np.exp(-self.decay * (now - t)).sum())
            max_age = self._max_age
            if self.times.size and now - self.times.min() > max_age:
                young = (now - self.times) <= max_age
                self.values, self.times = self.values[young], self.times[young]
            young = (now - t) <= max_age
            if not young.all():
                arr, t = arr[young], t[young]
        else:
            self.n_eff += float(arr.size)
        self._merge_sorted(arr, t)

    def merge(self, other: "DecayedTopK") -> None:
        if (other.capacity != self.capacity or other.decay != self.decay
                or other.weight_floor != self.weight_floor):
            raise ValueError(
                "cannot merge DecayedTopK with different parameters"
            )
        now = max(self.t_ref, other.t_ref)
        self._advance(now)
        boost = (math.exp(-self.decay * (now - other.t_ref))
                 if now > other.t_ref and other.n_eff else 1.0)
        self.n_eff += other.n_eff * boost
        self.n_seen += other.n_seen
        # A pure top-k union, with no age eviction: dropping by age
        # against an *intermediate* merge clock frees capacity slots in
        # one merge order but not another, and top-k truncation is
        # irreversible.  Items a merge retains past their floor age just
        # carry a negligible weight at query time.
        self._merge_sorted(other.values, other.times)

    # -- queries -------------------------------------------------------
    def weights(self) -> np.ndarray:
        """Current item weights, aligned with :attr:`values`."""
        if self.decay == 0.0:
            return np.ones(self.values.size)
        return np.exp(-self.decay * (self.t_ref - self.times))

    def max_tail_fraction(self) -> float:
        """Largest tail fraction :meth:`tail_fit` can serve exactly."""
        if self.n_eff <= 0 or self.values.size < 2:
            return 0.0
        w = self.weights()
        return float(w[1:].sum() / self.n_eff)

    def tail_fit(self, tail_fraction: float = 0.05) -> tuple[float, float, int]:
        """Decay-weighted Pareto ``(location, shape, k)`` of the upper tail.

        The tail holds the smallest set of largest stored values whose
        cumulative weight reaches ``n_eff * tail_fraction`` (at least
        weight 2); the weighted Hill estimate is
        ``W / sum(w_i * ln(v_i / threshold))``.  With ``decay=0`` this is
        the exact batch ``TopK.tail_fit``.  When the reservoir cannot
        cover the requested fraction the error reports the largest
        feasible one (:meth:`max_tail_fraction`) so streaming callers can
        degrade instead of guessing.
        """
        target = max(2.0, math.floor(self.n_eff * tail_fraction))
        if target >= self.n_eff:
            raise ValueError(
                "tail fraction leaves no body below the threshold"
            )
        w = self.weights()
        cum = np.cumsum(w[::-1])  # cumulative weight from the largest down
        k = int(np.searchsorted(cum, target, side="left")) + 1
        if k + 1 > self.values.size:
            raise ValueError(
                f"reservoir holds {self.values.size} of "
                f"{self.n_seen} seen: cannot cover tail fraction "
                f"{tail_fraction:g}; largest feasible fraction is "
                f"{self.max_tail_fraction():.6g}"
            )
        threshold = float(self.values[self.values.size - k - 1])
        if threshold <= 0:
            raise ValueError("Hill estimator requires a positive tail threshold")
        tail = self.values[self.values.size - k:]
        wt = w[w.size - k:]
        logs = wt * np.log(tail / threshold)
        total = float(np.sum(logs))
        if total <= 0:
            raise ValueError("degenerate upper tail")
        mass = float(cum[k - 1])
        return threshold, mass / total, k

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes) + int(self.times.nbytes) + 48

    def __repr__(self):
        return (f"DecayedTopK(capacity={self.capacity}, decay={self.decay:g}, "
                f"n_seen={self.n_seen}, n_eff={self.n_eff:.6g})")


# ----------------------------------------------------------------------
# windowed quantile sketch
# ----------------------------------------------------------------------
class WindowedQuantileSketch:
    """Quantile sketch over the last ``window`` seconds, via time panes.

    The window is split into ``n_panes`` panes of ``window / n_panes``
    seconds; each live pane owns one
    :class:`~repro.stream.sketches.QuantileSketch` and panes older than
    the window behind the newest event are dropped whole.  Queries merge
    the live panes (ascending pane order, so results are deterministic),
    which means the effective horizon ranges between
    ``window * (1 - 1/n_panes)`` and ``window`` — the standard
    pane-granularity tradeoff.  Memory is ``O(n_panes * capacity)``.

    ``window=inf`` keeps a single unbounded pane and delegates verbatim:
    updates, merges, and queries are bit-identical to the twin sketch.
    """

    def __init__(self, capacity: int = 1024, *, window: float = math.inf,
                 n_panes: int = 8, start: float = 0.0):
        require_positive(window, "window")
        if n_panes < 2:
            raise ValueError(f"n_panes must be >= 2, got {n_panes}")
        from repro.stream.sketches import QuantileSketch

        self._sketch_cls = QuantileSketch
        self.capacity = int(capacity)
        self.window = float(window)
        self.start = float(start)
        self.n_panes = int(n_panes)
        self.pane_width = (
            math.inf if math.isinf(self.window) else self.window / n_panes
        )
        self._panes: dict[int, "QuantileSketch"] = {}
        self._pane_max = -1
        if math.isinf(self.window):
            self._panes[0] = QuantileSketch(self.capacity)
            self._pane_max = 0

    # -- updates -------------------------------------------------------
    def update(self, values, times=None) -> None:
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        if math.isinf(self.window):
            self._panes[0].update(arr)
            return
        if times is None:
            raise ValueError("a finite-window sketch requires event times")
        t = np.asarray(times, dtype=float)
        if t.shape != arr.shape:
            t = np.broadcast_to(t, arr.shape)
        idx = np.floor((t - self.start) / self.pane_width).astype(np.int64)
        self._pane_max = max(self._pane_max, int(idx.max()))
        cutoff = self._pane_max - self.n_panes + 1
        live = idx >= cutoff
        arr, idx = arr[live], idx[live]
        if idx.size > 1 and (idx[1:] < idx[:-1]).any():
            # Stable, so each pane still sees its items in arrival order.
            order = np.argsort(idx, kind="stable")
            arr, idx = arr[order], idx[order]
        # One slice per run of equal panes, in ascending pane order.
        cuts = (np.flatnonzero(idx[1:] != idx[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, idx.size] if idx.size else []):
            pane = int(idx[lo])
            sk = self._panes.get(pane)
            if sk is None:
                sk = self._panes[pane] = self._sketch_cls(self.capacity)
            sk.update(arr[lo:hi])
        self._evict()

    def _evict(self) -> None:
        cutoff = self._pane_max - self.n_panes + 1
        for pane in [p for p in self._panes if p < cutoff]:
            del self._panes[pane]

    # -- merge ---------------------------------------------------------
    def merge(self, other: "WindowedQuantileSketch") -> None:
        if (other.capacity != self.capacity or other.window != self.window
                or other.n_panes != self.n_panes
                or other.start != self.start):
            raise ValueError(
                "cannot merge windowed sketches with different layouts"
            )
        for pane in sorted(other._panes):
            sk = self._panes.get(pane)
            if sk is None:
                sk = self._panes[pane] = self._sketch_cls(self.capacity)
            sk.merge(other._panes[pane])
        self._pane_max = max(self._pane_max, other._pane_max)
        self._evict()

    # -- queries -------------------------------------------------------
    def merged(self):
        """One :class:`QuantileSketch` over the live panes (a copy)."""
        out = self._sketch_cls(self.capacity)
        for pane in sorted(self._panes):
            out.merge(self._panes[pane])
        return out

    @property
    def n(self) -> int:
        """Items currently inside live panes (all items at ``inf``)."""
        return int(sum(sk.n for sk in self._panes.values()))

    def quantile(self, q: float) -> float:
        return self.merged().quantile(q)

    def quantiles(self, qs) -> np.ndarray:
        sk = self.merged()
        return np.array([sk.quantile(float(q)) for q in np.asarray(qs)])

    def cdf(self, x: float) -> float:
        return self.merged().cdf(x)

    def max_rank_error(self) -> int:
        return self.merged().max_rank_error()

    @property
    def nbytes(self) -> int:
        return int(sum(sk.nbytes for sk in self._panes.values())
                   + 16 * max(len(self._panes), 1))

    def __repr__(self):
        return (f"WindowedQuantileSketch(capacity={self.capacity}, "
                f"window={self.window:g}, panes={len(self._panes)}, "
                f"n={self.n})")
