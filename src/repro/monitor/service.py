"""The always-on monitor service.

:class:`MonitorService` consumes arrival batches — from the ``stream``
chunk reader (file mode), a ``replay.Collector`` observer tap (live
mode), or any caller with sorted timestamp arrays — and maintains the
windowed sketch battery:

* a :class:`~repro.monitor.windows.SlidingCountLadder` over the last
  ``window`` seconds (rate + variance-time Hurst),
* a :class:`~repro.monitor.windows.DecayedTopK` over inter-arrival gaps
  (Pareto tail β — the Appendix C diagnostic: renewal gaps with β < 2
  make counts pseudo-self-similar),
* a :class:`~repro.monitor.windows.WindowedQuantileSketch` over packet
  sizes (gaps when no sizes are supplied),
* an :class:`~repro.monitor.estimators.OnlinePoissonCheck` over recent
  arrivals,
* CUSUM + Page–Hinkley on the per-tick rate series and CUSUM on the
  per-snapshot Hurst series.

Every ``snapshot_every`` seconds of *stream time* the service emits a
:class:`MonitorSnapshot` carrying the live estimates, any new alarms,
and a verdict in {``warming-up``, ``nonstationary``, ``self-similar``,
``poisson-like``, ``indeterminate``}.  ``nonstationary`` wins over
``self-similar`` — the Clegg et al. rule: an elevated H is only
reported as self-similarity when block-mean detrending does not explain
it and the rate detectors are quiet.

Snapshots tick at batch granularity: a batch that jumps several
boundaries emits one snapshot (the live state), not one per missed
tick.  All state is O(window): the ladder retains ``window/bin_width``
bins, reservoirs and panes are capacity-bounded, and nothing grows with
total stream length except the snapshot/alarm history the caller keeps.
"""

from __future__ import annotations

import math
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.stats.anderson_darling import AndersonDarlingResult
from repro.utils.validation import require_positive

from .changepoint import CusumDetector, PageHinkleyDetector, RegimeShiftAlarm
from .estimators import (
    DriftReport,
    HurstEstimate,
    OnlineHurst,
    OnlinePoissonCheck,
    OnlineTail,
    TailEstimate,
    assess_drift,
)
from .windows import DecayedTopK, SlidingCountLadder, WindowedQuantileSketch

if TYPE_CHECKING:  # pragma: no cover
    from repro.replay.collector import Collector

__all__ = ["MonitorConfig", "MonitorReport", "MonitorService",
           "MonitorSnapshot"]

VERDICTS = ("warming-up", "nonstationary", "self-similar", "poisson-like",
            "indeterminate")


@dataclass(frozen=True)
class MonitorConfig:
    """Tuning for one :class:`MonitorService`.

    The defaults suit a ~50 events/s stream watched over five minutes;
    tests and short scenarios shrink ``window`` / ``snapshot_every`` /
    warmups together.  ``decay=None`` derives a half-life of half the
    window for the decayed sketches (0 when the window is infinite).
    """

    window: float = 300.0        # sliding-window span, seconds
    bin_width: float = 0.1       # ladder bin width, seconds
    snapshot_every: float = 15.0  # stream seconds between snapshots
    rate_tick: float = 1.0       # rate-series sample spacing, seconds
    start: float = 0.0           # stream epoch
    decay: float | None = None   # decayed-sketch rate; None = derived
    tail_fraction: float = 0.05
    tail_capacity: int = 4096
    quantile_capacity: int = 512
    n_panes: int = 8
    min_level: int = 10          # variance-time fit floor
    min_bins: int | None = None  # ladder bins before H is attempted
    n_blocks: int = 8            # detrending blocks for drift assessment
    hurst_gap: float = 0.15      # raw-minus-detrended H that implies drift
    hurst_high: float = 0.65     # H at/above which we may call LRD
    poisson_band: float = 0.15   # |H - 0.5| band for "poisson-like"
    rate_cusum_threshold: float = 10.0
    rate_cusum_drift: float = 1.0
    rate_ph_delta: float = 0.5
    rate_ph_threshold: float = 20.0
    rate_warmup: int = 30        # rate-tick samples per reference estimate
    hurst_cusum_threshold: float = 5.0
    hurst_cusum_drift: float = 0.5
    hurst_warmup: int = 10       # snapshots per Hurst reference estimate
    alarm_limit: int = 2         # PH rate alarms in window that imply drift
    idle_limit: float = 0.35     # empty-tick excess that implies on/off
    verdict_smoothing: int = 5   # snapshots in the verdict's H median
    ad_significance: float = 0.05
    ad_max_samples: int = 2048
    ad_min_samples: int = 30

    def effective_decay(self) -> float:
        if self.decay is not None:
            return self.decay
        if math.isinf(self.window):
            return 0.0
        return math.log(2.0) / (self.window / 2.0)

    def payload(self) -> dict:
        return {
            "window": self.window,
            "bin_width": self.bin_width,
            "snapshot_every": self.snapshot_every,
            "rate_tick": self.rate_tick,
            "decay": self.effective_decay(),
            "tail_fraction": self.tail_fraction,
            "hurst_high": self.hurst_high,
            "hurst_gap": self.hurst_gap,
            "alarm_limit": self.alarm_limit,
            "idle_limit": self.idle_limit,
        }


@dataclass(frozen=True)
class MonitorSnapshot:
    """One periodic reading of the live estimator battery."""

    time: float               # stream time of the snapshot
    n_events: int             # in-range events seen so far (all time)
    window_start: float
    window_end: float
    window_events: int        # events inside the current window
    rate: float               # events/s over the current window
    hurst: HurstEstimate | None
    tail: TailEstimate | None
    poisson: AndersonDarlingResult | None
    drift: DriftReport | None
    alarms: tuple[RegimeShiftAlarm, ...]  # new since the last snapshot
    verdict: str
    memory_bytes: int

    def payload(self) -> dict:
        return {
            "time": self.time,
            "n_events": self.n_events,
            "window": [self.window_start, self.window_end],
            "window_events": self.window_events,
            "rate": self.rate,
            "hurst": None if self.hurst is None else self.hurst.payload(),
            "tail": None if self.tail is None else self.tail.payload(),
            "poisson": None if self.poisson is None else {
                "statistic": self.poisson.statistic,
                "n": self.poisson.n,
                "passed": self.poisson.passed,
            },
            "drift": None if self.drift is None else self.drift.payload(),
            "alarms": [a.payload() for a in self.alarms],
            "verdict": self.verdict,
            "memory_bytes": self.memory_bytes,
        }


@dataclass(frozen=True)
class MonitorReport:
    """Everything a finished (or checkpointed) monitor run produced."""

    config: MonitorConfig
    snapshots: tuple[MonitorSnapshot, ...]
    alarms: tuple[RegimeShiftAlarm, ...]
    n_events: int
    n_batches: int
    duration: float           # stream seconds covered
    wall_time_s: float        # process time spent inside observe()
    memory_bytes: int
    final_verdict: str = field(default="warming-up")

    @property
    def events_per_s(self) -> float:
        return self.n_events / self.wall_time_s if self.wall_time_s else 0.0

    def verdict_counts(self) -> dict[str, int]:
        out = {v: 0 for v in VERDICTS}
        for snap in self.snapshots:
            out[snap.verdict] += 1
        return out

    def modal_verdict(self, after: float = 0.0) -> str:
        """Most common settled verdict among snapshots at/after ``after``.

        ``final_verdict`` votes over the trailing quarter, which suits a
        live dashboard but lets one late excursion (a single giant
        heavy-tail lull, say) recolor a long stable run.  The mode over
        the whole post-warmup history is the robust offline summary;
        ties break toward the most recent verdict.
        """
        tail = [s.verdict for s in self.snapshots
                if s.time >= after and s.verdict != "warming-up"]
        if not tail:
            return "warming-up"
        counts = Counter(tail)
        top = max(counts.values())
        return next(v for v in reversed(tail) if counts[v] == top)

    def payload(self) -> dict:
        return {
            "config": self.config.payload(),
            "n_events": self.n_events,
            "n_batches": self.n_batches,
            "n_snapshots": len(self.snapshots),
            "n_alarms": len(self.alarms),
            "duration": self.duration,
            "wall_time_s": self.wall_time_s,
            "events_per_s": self.events_per_s,
            "memory_bytes": self.memory_bytes,
            "final_verdict": self.final_verdict,
            "verdict_counts": self.verdict_counts(),
            "alarms": [a.payload() for a in self.alarms],
            "snapshots": [s.payload() for s in self.snapshots],
        }

    def bench_payload(self) -> dict:
        return {
            "n_events": self.n_events,
            "n_batches": self.n_batches,
            "n_snapshots": len(self.snapshots),
            "n_alarms": len(self.alarms),
            "duration": self.duration,
            "wall_time_s": self.wall_time_s,
            "events_per_s": self.events_per_s,
            "memory_bytes": self.memory_bytes,
            "final_verdict": self.final_verdict,
        }

    def render(self) -> str:
        from repro.experiments.report import format_table

        rows = []
        step = max(len(self.snapshots) // 24, 1)  # thin long runs
        shown = self.snapshots[::step]
        if shown and shown[-1] is not self.snapshots[-1]:
            shown = list(shown) + [self.snapshots[-1]]
        for snap in shown:
            rows.append({
                "t_s": f"{snap.time:.1f}",
                "rate_s": f"{snap.rate:.1f}",
                "H": "-" if snap.hurst is None
                     else f"{snap.hurst.hurst:.3f}",
                "beta": "-" if snap.tail is None
                        else f"{snap.tail.shape:.2f}",
                "alarms": len(snap.alarms),
                "verdict": snap.verdict,
            })
        table = format_table(rows, title="monitor snapshots")
        lines = [
            "monitor report",
            f"  events {self.n_events}  batches {self.n_batches}  "
            f"stream {self.duration:.1f}s  wall {self.wall_time_s:.3f}s  "
            f"({self.events_per_s:,.0f} ev/s)  "
            f"memory {self.memory_bytes / 1024:.1f} KiB",
            f"  final verdict: {self.final_verdict}  "
            f"alarms: {len(self.alarms)}",
            table,
        ]
        for alarm in self.alarms:
            lines.append("  " + alarm.describe())
        return "\n".join(lines)


class MonitorService:
    """Always-on estimation over a live or replayed packet stream.

    Feed sorted timestamp batches through :meth:`observe` (optionally
    with per-packet sizes); each call returns the snapshots whose
    boundaries the batch crossed.  :meth:`attach` taps a
    ``replay.Collector``; :meth:`run_file` drives a trace file through
    the same path.
    """

    def __init__(self, config: MonitorConfig | None = None):
        self.config = cfg = config or MonitorConfig()
        require_positive(cfg.snapshot_every, "snapshot_every")
        require_positive(cfg.rate_tick, "rate_tick")
        decay = cfg.effective_decay()
        self.ladder = SlidingCountLadder(
            cfg.bin_width, start=cfg.start, window=cfg.window
        )
        self.gap_tail = DecayedTopK(cfg.tail_capacity, decay=decay)
        self.size_quantiles = WindowedQuantileSketch(
            cfg.quantile_capacity, window=cfg.window,
            n_panes=cfg.n_panes, start=cfg.start,
        )
        self.poisson_check = OnlinePoissonCheck(
            window=min(cfg.window, 1e12),
            max_samples=cfg.ad_max_samples,
            min_samples=cfg.ad_min_samples,
            significance=cfg.ad_significance,
        )
        self._hurst = OnlineHurst(self.ladder, min_level=cfg.min_level,
                                  min_bins=cfg.min_bins)
        self._tail = OnlineTail(self.gap_tail,
                                tail_fraction=cfg.tail_fraction)
        self.rate_cusum = CusumDetector(
            cfg.rate_cusum_threshold, cfg.rate_cusum_drift,
            warmup=cfg.rate_warmup, series="rate",
        )
        self.rate_ph = PageHinkleyDetector(
            cfg.rate_ph_delta, cfg.rate_ph_threshold,
            warmup=cfg.rate_warmup, series="rate",
        )
        self.hurst_cusum = CusumDetector(
            cfg.hurst_cusum_threshold, cfg.hurst_cusum_drift,
            warmup=cfg.hurst_warmup, series="hurst",
        )
        self.snapshots: list[MonitorSnapshot] = []
        self.alarms: list[RegimeShiftAlarm] = []
        self._pending_alarms: list[RegimeShiftAlarm] = []
        self._rate_alarm_times: deque[float] = deque()
        self._recent_h: deque[float] = deque(maxlen=max(cfg.verdict_smoothing, 1))
        self.n_events = 0
        self.n_batches = 0
        self.wall_time_s = 0.0
        self._last_time = -np.inf
        self._first_time: float | None = None
        self._next_snapshot: float | None = None
        self._tick_index: int | None = None  # open rate-tick bucket
        self._tick_count = 0
        # Closed-tick counts covering roughly one window, for the
        # idle-excess (on/off modulation) symptom; bounded even when the
        # window is infinite so memory stays O(window or constant).
        n_ticks = (int(math.ceil(cfg.window / cfg.rate_tick))
                   if math.isfinite(cfg.window) else 4096)
        self._tick_history: deque[int] = deque(maxlen=max(n_ticks, 1))

    # -- ingestion -----------------------------------------------------
    def observe(self, times, sizes=None) -> list[MonitorSnapshot]:
        """Absorb one batch of sorted arrival times; return new snapshots.

        Every time must be finite and the batch must not go back in time
        (equal times are fine); otherwise ``ValueError`` names the batch,
        counted from 0 over the non-empty batches accepted so far, and
        the position in it, and the service is left unchanged.  A batch
        may start before the previous one ended: such stragglers, as a
        live feed merging several sources delivers, are absorbed.
        """
        t0 = time.perf_counter()
        arr = np.asarray(times, dtype=float)
        out: list[MonitorSnapshot] = []
        if arr.size == 0:
            self.wall_time_s += time.perf_counter() - t0
            return out
        self._check_batch(arr)
        self.n_batches += 1
        self.n_events += int(arr.size)
        cfg = self.config

        self.ladder.update(arr)
        # Inter-arrival gaps, chained across batches; each gap is stamped
        # with the arrival that closed it so decay ages it correctly.
        if math.isfinite(self._last_time):
            gaps = np.empty_like(arr)
            gaps[0] = arr[0] - self._last_time
            np.subtract(arr[1:], arr[:-1], out=gaps[1:])
            stamps = arr
        else:
            gaps = arr[1:] - arr[:-1]
            stamps = arr[1:]
        if gaps.size:
            pos = gaps > 0
            if pos.any():
                self.gap_tail.update(gaps[pos], stamps[pos])
        if sizes is not None:
            sz = np.asarray(sizes, dtype=float)
            self.size_quantiles.update(sz, arr)
        elif gaps.size:
            self.size_quantiles.update(gaps, stamps)
        self.poisson_check.update(arr)
        self._update_rate_series(arr)

        last = float(arr[-1])
        if self._first_time is None:
            self._first_time = float(arr[0])
            self._next_snapshot = self._first_time + cfg.snapshot_every
        self._last_time = max(self._last_time, last)
        if last >= self._next_snapshot:
            out.append(self._emit_snapshot(last))
            self._next_snapshot = last + cfg.snapshot_every
        self.wall_time_s += time.perf_counter() - t0
        return out

    def _check_batch(self, arr: np.ndarray) -> None:
        """Raise unless ``arr`` is finite and non-decreasing.

        A non-decreasing array is finite when its ends are, and NaN
        fails the order test, so the common case costs one comparison.
        """
        if (arr.ndim == 1 and math.isfinite(arr[0]) and math.isfinite(arr[-1])
                and (arr[1:] >= arr[:-1]).all()):
            return
        where = f"observe: batch {self.n_batches}"
        if arr.ndim != 1:
            raise ValueError(f"{where}: times must be one-dimensional, "
                             f"got shape {arr.shape}")
        bad = ~np.isfinite(arr)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{where}: time at position {i} is "
                             f"{float(arr[i])}; times must be finite")
        i = int(np.argmax(arr[1:] < arr[:-1])) + 1
        raise ValueError(f"{where}: time at position {i} ({float(arr[i])!r}) "
                         f"is before the one at position {i - 1} "
                         f"({float(arr[i - 1])!r}); times must be sorted")

    def _update_rate_series(self, arr: np.ndarray) -> None:
        """Fold a batch into fixed rate-tick buckets; every *closed*
        bucket (including empty ones the stream skipped) becomes one
        rate sample for the change-point detectors."""
        cfg = self.config
        idx = np.floor((arr - cfg.start) / cfg.rate_tick).astype(np.int64)
        if self._tick_index is None:
            self._tick_index = int(idx[0])
        # ``arr`` is sorted, so each bucket is one run of ``idx``.
        cuts = (np.flatnonzero(idx[1:] != idx[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, idx.size]):
            bucket = int(idx[lo])
            if bucket < self._tick_index:
                continue  # straggler behind the open tick: fold forward
            while bucket > self._tick_index:
                self._close_tick()
            self._tick_count += hi - lo

    def _close_tick(self) -> None:
        cfg = self.config
        tick_end = cfg.start + (self._tick_index + 1) * cfg.rate_tick
        rate = self._tick_count / cfg.rate_tick
        for detector in (self.rate_cusum, self.rate_ph):
            alarm = detector.update(rate, time=tick_end)
            if alarm is not None:
                self._record_alarm(alarm)
        self._tick_history.append(self._tick_count)
        self._tick_index += 1
        self._tick_count = 0

    def idle_excess(self) -> float:
        """Empty-tick fraction beyond the Poisson expectation.

        A Poisson stream at the window's mean per-tick rate μ leaves a
        tick empty with probability ``exp(-μ)``; ON/OFF rate modulation
        leaves far more.  The excess is the on/off signature the drift
        assessor thresholds against ``idle_limit``.
        """
        ticks = self._tick_history
        if not ticks:
            return 0.0
        mean = sum(ticks) / len(ticks)
        idle = sum(1 for c in ticks if c == 0) / len(ticks)
        return max(0.0, idle - math.exp(-mean))

    def _record_alarm(self, alarm: RegimeShiftAlarm) -> None:
        self.alarms.append(alarm)
        self._pending_alarms.append(alarm)
        # Only Page–Hinkley rate alarms count as drift evidence: CUSUM is
        # the fast alert channel and fires occasionally on bursty but
        # stationary heavy-tailed streams, while PH with a wide allowance
        # stays quiet unless the mean level genuinely moves.
        if alarm.series == "rate" and alarm.detector == "page-hinkley":
            self._rate_alarm_times.append(alarm.time)

    def _rate_alarms_in_window(self, now: float) -> int:
        horizon = now - self.config.window
        while self._rate_alarm_times and self._rate_alarm_times[0] < horizon:
            self._rate_alarm_times.popleft()
        return len(self._rate_alarm_times)

    # -- snapshotting --------------------------------------------------
    def _emit_snapshot(self, now: float) -> MonitorSnapshot:
        cfg = self.config
        hurst = self._hurst.estimate()
        tail = self._tail.estimate()
        poisson = self.poisson_check.check()
        drift: DriftReport | None = None
        rate_alarms = self._rate_alarms_in_window(now)
        idle = self.idle_excess()
        if hurst is not None:
            self._recent_h.append(hurst.hurst)
            alarm = self.hurst_cusum.update(hurst.hurst, time=now)
            if alarm is not None:
                self._record_alarm(alarm)
            drift = assess_drift(
                self.ladder.window_process(), hurst.hurst, rate_alarms,
                n_blocks=cfg.n_blocks, min_level=cfg.min_level,
                hurst_gap=cfg.hurst_gap, hurst_high=cfg.hurst_high,
                alarm_limit=cfg.alarm_limit,
                idle_excess=idle, idle_limit=cfg.idle_limit,
            )
        lo, hi = self.ladder.window_bounds()
        window_events = int(self.ladder.window_counts().sum())
        span = hi - lo
        verdict = self._verdict(poisson, drift, rate_alarms, idle)
        snap = MonitorSnapshot(
            time=float(now),
            n_events=self.n_events,
            window_start=lo,
            window_end=hi,
            window_events=window_events,
            rate=window_events / span if span > 0 else 0.0,
            hurst=hurst,
            tail=tail,
            poisson=poisson,
            drift=drift,
            alarms=tuple(self._pending_alarms),
            verdict=verdict,
            memory_bytes=self.memory_bytes,
        )
        self._pending_alarms = []
        self.snapshots.append(snap)
        return snap

    def _verdict(self, poisson, drift, rate_alarms: int,
                 idle_excess: float = 0.0) -> str:
        """Classify the current window.

        Uses the *median* of the last ``verdict_smoothing`` Hurst
        estimates — a single noisy fit must not flip the verdict — and
        gives drift right of way: an elevated H only earns
        ``self-similar`` when detrending cannot explain it and the rate
        detectors are quiet (the Clegg et al. rule).
        """
        cfg = self.config
        # ``ever_warmed`` rather than ``warmed_up``: a detector that has
        # alarmed and is re-estimating its reference has certainly seen
        # enough stream to classify — only the initial warmup blocks.
        warmed = self.rate_cusum.ever_warmed or self.rate_ph.ever_warmed
        if not warmed or not self._recent_h:
            return "warming-up"
        if drift is not None and drift.drifting:
            return "nonstationary"
        if rate_alarms >= cfg.alarm_limit:
            return "nonstationary"  # H unavailable but the rate is moving
        if idle_excess >= cfg.idle_limit:
            return "nonstationary"  # on/off modulation, H or not
        h = float(np.median(self._recent_h))
        if h >= cfg.hurst_high:
            return "self-similar"
        if abs(h - 0.5) <= cfg.poisson_band and (poisson is None
                                                 or poisson.passed):
            return "poisson-like"
        return "indeterminate"

    # -- wiring --------------------------------------------------------
    def tap(self, batch) -> None:
        """Observer-callback adapter for ``replay.Collector``."""
        self._observe_records(batch.timestamps, getattr(batch, "sizes", None))

    def attach(self, collector: "Collector") -> None:
        """Register this monitor as the collector's batch observer."""
        collector.set_observer(self.tap)

    def run_file(self, path, kind: str | None = None) -> "MonitorReport":
        """Drive a trace file through the monitor in arrival order."""
        from repro.stream import iter_trace_batches

        for batch in iter_trace_batches(path, kind=kind):
            times = getattr(batch, "timestamps", None)
            if times is None:  # connection batches carry start_times
                self._observe_records(batch.start_times)
            else:
                self._observe_records(times, batch.sizes)
        return self.finalize()

    def _observe_records(self, times, sizes=None) -> None:
        """:meth:`observe` a batch of records in time order.

        Trace files and replayed blocks carry records in file order,
        which a trace need not keep; they are sorted here, stably, as
        the trace constructors sort them.  Disorder *across* batches
        stays, and :meth:`observe` absorbs it as stragglers.
        """
        from repro.traces.columns import stable_time_order

        order = stable_time_order(times)
        if order is not None:
            times = np.asarray(times)[order]
            if sizes is not None:
                sizes = np.asarray(sizes)[order]
        self.observe(times, sizes)

    # -- results -------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        return int(self.ladder.nbytes + self.gap_tail.nbytes
                   + self.size_quantiles.nbytes + self.poisson_check.nbytes)

    def finalize(self, *, flush: bool = True) -> MonitorReport:
        """Build the report; ``flush`` emits a last snapshot if any
        events arrived after the most recent one."""
        if (flush and self._first_time is not None
                and math.isfinite(self._last_time)
                and (not self.snapshots
                     or self._last_time > self.snapshots[-1].time)):
            self._emit_snapshot(self._last_time)
        duration = (0.0 if self._first_time is None
                    else self._last_time - self._first_time)
        # Majority vote over the trailing quarter of the run, most recent
        # verdict breaking ties: one flappy snapshot at the very end must
        # not overturn a stable classification.
        final = "warming-up"
        if self.snapshots:
            k = max(3, len(self.snapshots) // 4)
            tail = [s.verdict for s in self.snapshots[-k:]]
            counts = Counter(tail)
            top = max(counts.values())
            final = next(v for v in reversed(tail) if counts[v] == top)
        return MonitorReport(
            config=self.config,
            snapshots=tuple(self.snapshots),
            alarms=tuple(self.alarms),
            n_events=self.n_events,
            n_batches=self.n_batches,
            duration=float(duration),
            wall_time_s=self.wall_time_s,
            memory_bytes=self.memory_bytes,
            final_verdict=final,
        )
