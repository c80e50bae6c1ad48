"""Tests for the always-on monitor (repro.monitor).

Covers the four layers plus the closed loop:

* change-point detectors — CUSUM catches mean steps, Page–Hinkley
  catches ramps, both re-arm after alarms and report typed
  :class:`RegimeShiftAlarm`s with sane latencies;
* online estimators — the windowed Hurst matches the batch
  variance-time fit on the identical window of raw times, the tail fit
  degrades instead of erroring, and detrending separates drift from
  genuine LRD;
* scenario streams — rates, validation, and the batch iterator;
* the service — snapshot cadence, verdict lifecycle, O(window) memory,
  observer/tap wiring, file mode, and the LRD-vs-drift discrimination
  demo: a Hurst step 0.5→0.85 alarms and converges to the batch H while
  the Markov-modulated fake classifies as nonstationary.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.monitor import (
    CusumDetector,
    MonitorConfig,
    MonitorService,
    OnlineHurst,
    OnlinePoissonCheck,
    OnlineTail,
    PageHinkleyDetector,
    SlidingCountLadder,
    assess_drift,
    detrended_hurst,
    diurnal_ramp_stream,
    hurst_step_stream,
    iter_batches,
    markov_onoff_stream,
    pareto_stream,
    poisson_stream,
)
from repro.monitor.windows import DecayedTopK
from repro.selfsim.counts import CountProcess
from repro.selfsim.variance_time import hurst_from_variance_time
from repro.stream.sketches import TopK
from repro.traces.io import write_packet_trace
from repro.traces.trace import PacketTrace


def _test_config(window: float = 60.0, **overrides) -> MonitorConfig:
    base = dict(window=window, bin_width=0.05, snapshot_every=2.0,
                rate_tick=0.5, rate_warmup=30, hurst_warmup=8)
    base.update(overrides)
    return MonitorConfig(**base)


def _drive(times, config, batch_seconds: float = 1.0):
    service = MonitorService(config)
    for batch in iter_batches(times, batch_seconds):
        service.observe(batch)
    return service, service.finalize()


# ----------------------------------------------------------------------
# change-point detectors
# ----------------------------------------------------------------------
class TestCusum:
    def test_detects_upward_mean_step(self):
        rng = np.random.default_rng(1)
        det = CusumDetector(threshold=8.0, drift=0.5, warmup=20,
                            series="rate")
        alarms = []
        for i in range(60):
            x = 10.0 + rng.normal(0, 1.0)
            a = det.update(x, time=float(i))
            assert a is None, "no alarm expected on the reference regime"
        for i in range(60, 120):
            x = 14.0 + rng.normal(0, 1.0)
            a = det.update(x, time=float(i))
            if a is not None:
                alarms.append(a)
                break
        assert alarms, "a 4-sigma step must alarm"
        alarm = alarms[0]
        assert alarm.detector == "cusum"
        assert alarm.series == "rate"
        assert alarm.direction == "up"
        assert alarm.statistic > alarm.threshold == 8.0
        assert alarm.reference_mean == pytest.approx(10.0, abs=1.0)
        assert 1 <= alarm.detection_latency <= alarm.index + 1
        assert alarm.time >= 60.0

    def test_detects_downward_step(self):
        rng = np.random.default_rng(6)
        det = CusumDetector(threshold=5.0, drift=0.5, warmup=20)
        alarm = None
        for i in range(50):
            det.update(10.0 + rng.normal(0, 1.0), time=float(i))
        for i in range(50, 100):
            alarm = det.update(5.0 + rng.normal(0, 1.0), time=float(i))
            if alarm is not None:
                break
        assert alarm is not None and alarm.direction == "down"

    def test_stationary_series_stays_quiet(self):
        rng = np.random.default_rng(2)
        det = CusumDetector(threshold=6.0, drift=0.5, warmup=20)
        for i in range(300):
            assert det.update(rng.normal(0, 1.0), time=float(i)) is None

    def test_rearms_and_catches_second_step(self):
        rng = np.random.default_rng(3)
        det = CusumDetector(threshold=5.0, drift=0.5, warmup=15)
        levels = [0.0] * 40 + [5.0] * 60 + [12.0] * 60
        alarms = [a for i, mu in enumerate(levels)
                  if (a := det.update(mu + rng.normal(0, 1.0),
                                      time=float(i))) is not None]
        assert len(alarms) >= 2
        assert det.n_alarms == len(alarms)
        # Re-estimating its reference after an alarm, but it has warmed.
        assert det.ever_warmed
        # Right after an alarm the detector is re-warming.
        step_alarm = alarms[0]
        assert step_alarm.index < 100

    def test_constant_warmup_does_not_divide_by_zero(self):
        det = CusumDetector(threshold=5.0, warmup=5)
        for i in range(5):
            det.update(3.0, time=float(i))
        assert det.warmed_up
        assert det.ref_std > 0.0
        # A clear jump off the flat reference still alarms eventually.
        alarm = None
        for i in range(5, 10):
            alarm = alarm or det.update(4.0, time=float(i))
        assert alarm is not None

    def test_validation(self):
        with pytest.raises(ValueError, match="warmup"):
            CusumDetector(warmup=1)
        with pytest.raises(ValueError):
            CusumDetector(threshold=0.0)
        with pytest.raises(ValueError, match="drift"):
            CusumDetector(drift=-0.1)


class TestPageHinkley:
    def test_detects_slow_ramp(self):
        rng = np.random.default_rng(4)
        det = PageHinkleyDetector(delta=0.25, threshold=8.0, warmup=20,
                                  series="rate")
        alarm = None
        for i in range(40):
            det.update(10.0 + rng.normal(0, 1.0), time=float(i))
        for i in range(200):
            # +0.05 sigma per step: far too slow for a step detector's
            # single-sample statistic, exactly PH's target regime.
            alarm = det.update(10.0 + 0.05 * i + rng.normal(0, 1.0),
                               time=float(40 + i))
            if alarm is not None:
                break
        assert alarm is not None
        assert alarm.detector == "page-hinkley"
        assert alarm.direction == "up"
        assert alarm.detection_latency >= 1

    def test_stationary_series_stays_quiet(self):
        rng = np.random.default_rng(5)
        det = PageHinkleyDetector(delta=0.5, threshold=20.0, warmup=20)
        for i in range(400):
            assert det.update(rng.normal(0, 1.0), time=float(i)) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="delta"):
            PageHinkleyDetector(delta=-0.1)
        with pytest.raises(ValueError):
            PageHinkleyDetector(threshold=0.0)


# ----------------------------------------------------------------------
# online estimators
# ----------------------------------------------------------------------
class TestOnlineHurst:
    def test_returns_none_until_enough_bins_and_events(self):
        ladder = SlidingCountLadder(0.1, window=math.inf)
        est = OnlineHurst(ladder, min_level=10)
        assert est.estimate() is None
        ladder.update(np.linspace(0.0, 5.0, 50))
        assert est.estimate() is None  # 50 bins < 500

    def test_matches_batch_variance_time_on_same_window(self):
        times = poisson_stream(120.0, 60.0, seed=7)
        ladder = SlidingCountLadder(0.05, window=80.0)
        for batch in iter_batches(times, 1.0):
            ladder.update(batch)
        est = OnlineHurst(ladder, min_level=10).estimate()
        assert est is not None
        lo, hi = est.window_start, est.window_end
        window_times = times[(times >= lo) & (times < hi)]
        batch_h = hurst_from_variance_time(
            CountProcess.from_times(window_times, 0.05, start=lo),
            min_level=10,
        )
        assert est.hurst == pytest.approx(batch_h, abs=1e-9)
        assert est.hurst == pytest.approx(0.5, abs=0.15)
        assert est.n_bins <= ladder.window_bins


class TestOnlineTail:
    def test_matches_batch_topk_at_zero_decay(self):
        rng = np.random.default_rng(8)
        gaps = rng.pareto(1.3, 5000) + 0.01
        decayed = DecayedTopK(4096, decay=0.0)
        decayed.update(gaps, np.arange(gaps.size, dtype=float))
        batch = TopK(4096)
        batch.update(gaps)
        est = OnlineTail(decayed, tail_fraction=0.05).estimate()
        assert est is not None and not est.degraded
        assert (est.location, est.shape, est.k) == batch.tail_fit(0.05)
        assert est.shape == pytest.approx(1.3, abs=0.3)

    def test_degrades_when_reservoir_too_small(self):
        rng = np.random.default_rng(9)
        decayed = DecayedTopK(32, decay=0.0)
        decayed.update(rng.pareto(1.3, 5000) + 0.01,
                       np.arange(5000, dtype=float))
        est = OnlineTail(decayed, tail_fraction=0.25).estimate()
        assert est is not None
        assert est.degraded
        assert est.fraction < est.requested_fraction == 0.25
        assert est.k <= 32

    def test_none_before_min_samples(self):
        decayed = DecayedTopK(64)
        decayed.update([1.0, 2.0], [0.0, 1.0])
        assert OnlineTail(decayed, min_samples=100).estimate() is None


class TestOnlinePoissonCheck:
    def test_exponential_gaps_pass(self):
        times = poisson_stream(60.0, 40.0, seed=10)
        check = OnlinePoissonCheck(window=60.0)
        check.update(times)
        result = check.check()
        assert result is not None and result.passed

    def test_none_until_min_samples(self):
        check = OnlinePoissonCheck(min_samples=30)
        check.update(np.linspace(0, 1, 10))
        assert check.check() is None

    def test_memory_bounded(self):
        check = OnlinePoissonCheck(max_samples=256)
        for k in range(20):
            check.update(np.linspace(k * 10.0, k * 10.0 + 9.0, 1000))
        assert len(check._times) <= 256
        assert check.nbytes == 8 * 256


class TestDriftDiscrimination:
    def test_detrending_collapses_ramp_but_not_pareto(self):
        # A diurnal load ramp: raw VT slope says "LRD", detrending the
        # block means says "nothing here".
        ramp_times = diurnal_ramp_stream(400.0, 50.0, seed=30)
        ramp = CountProcess.from_times(ramp_times, 0.05)
        raw_ramp = hurst_from_variance_time(ramp, min_level=10)
        det_ramp = detrended_hurst(ramp, n_blocks=8, min_level=10)
        assert det_ramp is not None
        assert raw_ramp > 0.65
        assert raw_ramp - det_ramp > 0.15
        # Genuine pseudo-self-similar counts survive detrending.
        times = pareto_stream(400.0, 50.0, seed=11)
        proc = CountProcess.from_times(times, 0.05)
        raw_p = hurst_from_variance_time(proc, min_level=10)
        det_p = detrended_hurst(proc, n_blocks=8, min_level=10)
        assert det_p is not None
        assert raw_p > 0.7
        assert raw_p - det_p < 0.15

    def test_assess_drift_reasons(self):
        times = pareto_stream(400.0, 50.0, seed=12)
        proc = CountProcess.from_times(times, 0.05)
        raw = hurst_from_variance_time(proc, min_level=10)
        quiet = assess_drift(proc, raw, rate_alarms_in_window=0)
        assert not quiet.drifting
        assert "stationary" in quiet.reason
        alarmed = assess_drift(proc, raw, rate_alarms_in_window=3,
                               alarm_limit=2)
        assert alarmed.drifting
        assert "rate alarms" in alarmed.reason
        idle = assess_drift(proc, raw, rate_alarms_in_window=0,
                            idle_excess=0.5, idle_limit=0.35)
        assert idle.drifting
        assert "on/off" in idle.reason

    def test_detrended_hurst_needs_enough_bins(self):
        assert detrended_hurst(CountProcess(np.ones(50), 0.1)) is None


# ----------------------------------------------------------------------
# scenario streams
# ----------------------------------------------------------------------
class TestScenarios:
    def test_pareto_stream_hits_mean_rate(self):
        times = pareto_stream(500.0, 20.0, seed=13)
        assert times.size == pytest.approx(10_000, rel=0.25)
        assert np.all(np.diff(times) > 0)
        assert times[0] >= 0.0 and times[-1] < 500.0

    def test_pareto_stream_validation(self):
        with pytest.raises(ValueError, match="shape"):
            pareto_stream(10.0, 5.0, shape=1.0)

    def test_hurst_step_validation(self):
        with pytest.raises(ValueError, match="t_step"):
            hurst_step_stream(10.0, 5.0, t_step=10.0)

    def test_markov_onoff_has_silent_stretches(self):
        times = markov_onoff_stream(300.0, 100.0, mean_on=5.0,
                                    mean_off=15.0, seed=14)
        counts = CountProcess.from_times(times, 1.0).counts
        idle = np.mean(counts == 0)
        # OFF ~75% of the time: far more empty seconds than Poisson at
        # the same mean rate (~25 events/s -> essentially never empty).
        assert idle > 0.3

    def test_iter_batches_partitions_in_order(self):
        times = poisson_stream(30.0, 20.0, seed=15)
        batches = list(iter_batches(times, 1.0))
        assert all(b.size for b in batches)
        assert np.array_equal(np.concatenate(batches), times)


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class TestMonitorService:
    def test_snapshot_cadence_and_warmup(self):
        times = poisson_stream(60.0, 50.0, seed=16)
        service, report = _drive(times, _test_config(30.0))
        assert report.n_events == times.size
        # ~2s cadence over 60s of stream.
        assert 20 <= len(report.snapshots) <= 35
        assert report.snapshots[0].verdict == "warming-up"
        assert report.duration == pytest.approx(times[-1] - times[0])
        for a, b in zip(report.snapshots, report.snapshots[1:]):
            assert b.time > a.time

    def test_empty_and_unstarted_service(self):
        service = MonitorService(_test_config())
        assert service.observe(np.empty(0)) == []
        report = service.finalize()
        assert report.n_events == 0
        assert report.snapshots == ()
        assert report.final_verdict == "warming-up"
        assert report.events_per_s == 0.0

    def test_memory_stays_o_window(self):
        config = _test_config(20.0)
        service = MonitorService(config)
        times = poisson_stream(400.0, 50.0, seed=17)
        checkpoints = []
        for batch in iter_batches(times, 1.0):
            service.observe(batch)
            checkpoints.append(service.memory_bytes)
        # After the window and the capacity-bounded reservoirs fill
        # (well before half the stream) memory must plateau: the final
        # reading is no larger than the halfway high-water mark, though
        # twice the events flowed through.
        settle = max(checkpoints[: len(checkpoints) // 2])
        assert checkpoints[-1] <= settle
        assert checkpoints[-1] < 2_000_000

    def test_pareto_stream_classifies_self_similar(self):
        times = pareto_stream(300.0, 50.0, seed=18)
        _, report = _drive(times, _test_config(60.0))
        assert report.modal_verdict() == "self-similar"
        hs = [s.hurst.hurst for s in report.snapshots if s.hurst]
        assert np.median(hs[-5:]) > 0.65

    def test_markov_onoff_classifies_nonstationary(self):
        times = markov_onoff_stream(300.0, 200.0, mean_on=5.0,
                                    mean_off=15.0, seed=19)
        _, report = _drive(times, _test_config(60.0))
        assert report.modal_verdict() == "nonstationary"
        counts = report.verdict_counts()
        assert counts["self-similar"] <= counts["nonstationary"]

    def test_hurst_step_alarm_and_online_matches_batch(self):
        """The acceptance demo: a 0.5→0.85 dependence step (no rate
        change) must raise a hurst-series alarm, and the online H must
        land within ±0.05 of the batch variance-time fit computed on the
        identical window of raw times."""
        step_time = 240.0
        times = hurst_step_stream(480.0, 50.0, step_time, seed=20)
        service, report = _drive(times, _test_config(60.0))
        step_alarms = [a for a in report.alarms
                       if a.series == "hurst" and a.time >= step_time]
        assert step_alarms, "the dependence step must alarm"
        assert step_alarms[0].detector == "cusum"
        last = next(s for s in reversed(report.snapshots)
                    if s.hurst is not None)
        lo, hi = last.hurst.window_start, last.hurst.window_end
        window_times = times[(times >= lo) & (times < hi)]
        batch_h = hurst_from_variance_time(
            CountProcess.from_times(window_times, 0.05, start=lo),
            min_level=10,
        )
        assert last.hurst.hurst == pytest.approx(batch_h, abs=0.05)
        assert last.hurst.hurst > 0.65
        # Post-step regime settles on self-similar.
        assert report.modal_verdict(after=step_time + 60.0) == "self-similar"

    def test_tap_reads_batch_attributes(self):
        service = MonitorService(_test_config())
        times = np.sort(np.random.default_rng(21).uniform(0, 5, 200))
        service.tap(SimpleNamespace(timestamps=times,
                                    sizes=np.full(200, 512.0)))
        assert service.n_events == 200
        service.tap(SimpleNamespace(timestamps=times + 5.0, sizes=None))
        assert service.n_events == 400

    def test_attach_registers_observer(self):
        calls = []
        collector = SimpleNamespace(set_observer=calls.append)
        service = MonitorService(_test_config())
        service.attach(collector)
        assert calls == [service.tap]

    def test_run_file_consumes_packet_trace(self, tmp_path):
        times = poisson_stream(30.0, 40.0, seed=22)
        trace = PacketTrace.from_arrays("mon", timestamps=times)
        path = tmp_path / "mon.pkt"
        write_packet_trace(trace, path)
        service = MonitorService(_test_config(20.0))
        report = service.run_file(path)
        assert report.n_events == times.size
        assert report.snapshots

    def test_run_file_sorts_records_within_a_batch(self, tmp_path):
        times = poisson_stream(30.0, 40.0, seed=22)
        trace = PacketTrace.from_arrays("mon", timestamps=times)
        path = tmp_path / "mon.pkt"
        write_packet_trace(trace, path)
        header, *rows = path.read_text().splitlines(keepends=True)
        for i in (5, 300, 301, 900):  # swap a few neighbouring records
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
        shuffled = tmp_path / "shuffled.pkt"
        shuffled.write_text(header + "".join(rows))
        want = MonitorService(_test_config(20.0)).run_file(path)
        got = MonitorService(_test_config(20.0)).run_file(shuffled)
        assert ([s.payload() for s in got.snapshots]
                == [s.payload() for s in want.snapshots])

    def test_tap_sorts_a_replayed_block(self):
        rng = np.random.default_rng(25)
        times = np.sort(rng.uniform(0.0, 5.0, 300))
        sizes = rng.uniform(40.0, 1500.0, 300)
        order = rng.permutation(300)
        want = MonitorService(_test_config())
        want.observe(times, sizes)
        got = MonitorService(_test_config())
        got.tap(SimpleNamespace(timestamps=times[order], sizes=sizes[order]))
        assert (got.size_quantiles.quantiles([0.1, 0.5, 0.9]).tolist()
                == want.size_quantiles.quantiles([0.1, 0.5, 0.9]).tolist())
        assert ([s.payload() for s in got.finalize().snapshots]
                == [s.payload() for s in want.finalize().snapshots])

    def test_finalize_flushes_tail_snapshot(self):
        config = _test_config(30.0)
        service = MonitorService(config)
        times = poisson_stream(5.0, 50.0, seed=23)
        # First batch crosses the 2s boundary and snapshots at its last
        # event; the straggler batch stays inside the next interval.
        service.observe(times)
        straggler = times[-1] + np.array([0.3, 0.6])
        service.observe(straggler)
        n_before = len(service.snapshots)
        assert service.snapshots[-1].time < straggler[-1]
        report = service.finalize()
        assert len(report.snapshots) == n_before + 1
        assert report.snapshots[-1].time == pytest.approx(straggler[-1])

    def test_report_payload_and_render(self):
        times = pareto_stream(120.0, 50.0, seed=24)
        _, report = _drive(times, _test_config(40.0))
        payload = report.payload()
        assert payload["n_events"] == report.n_events
        assert payload["final_verdict"] == report.final_verdict
        assert len(payload["snapshots"]) == len(report.snapshots)
        assert set(payload["verdict_counts"]) == {
            "warming-up", "nonstationary", "self-similar", "poisson-like",
            "indeterminate",
        }
        text = report.render()
        assert "monitor report" in text
        assert "final verdict" in text
        bench = report.bench_payload()
        assert bench["events_per_s"] > 0
        assert "snapshots" not in bench

    def test_snapshot_payload_roundtrips_fields(self):
        times = pareto_stream(120.0, 50.0, seed=25)
        _, report = _drive(times, _test_config(40.0))
        snap = report.snapshots[-1]
        payload = snap.payload()
        assert payload["time"] == snap.time
        assert payload["verdict"] == snap.verdict
        assert payload["window"] == [snap.window_start, snap.window_end]
        if snap.hurst is not None:
            assert payload["hurst"]["hurst"] == snap.hurst.hurst

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MonitorService(MonitorConfig(snapshot_every=0.0))
        with pytest.raises(ValueError):
            MonitorService(MonitorConfig(rate_tick=-1.0))

    def test_effective_decay_derivation(self):
        assert MonitorConfig(window=100.0).effective_decay() == (
            pytest.approx(math.log(2.0) / 50.0))
        assert MonitorConfig(window=math.inf).effective_decay() == 0.0
        assert MonitorConfig(decay=0.3).effective_decay() == 0.3


# ----------------------------------------------------------------------
# batch boundary checks
# ----------------------------------------------------------------------
class TestBatchBoundary:
    """``observe`` rejects batches that break its contract, naming the
    batch and the position, before any sketch sees them."""

    def _snapshots(self, service):
        return [s.payload() for s in service.finalize().snapshots]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_names_batch_and_position(self, bad):
        times = poisson_stream(12.0, 40.0, seed=26)
        batches = list(iter_batches(times, 1.0))
        service = MonitorService(_test_config())
        clean = MonitorService(_test_config())
        for batch in batches[:3]:
            service.observe(batch)
            clean.observe(batch)
        broken = batches[3].copy()
        broken[4] = bad
        with pytest.raises(ValueError, match=r"batch 3: time at position 4 "
                                             r"is -?(nan|inf); times must "
                                             r"be finite"):
            service.observe(broken)
        # Rejected whole: the service carries on as if never offered it.
        for batch in batches[4:]:
            service.observe(batch)
            clean.observe(batch)
        assert service.n_batches == clean.n_batches
        assert self._snapshots(service) == self._snapshots(clean)

    def test_decreasing_times_name_the_position(self):
        service = MonitorService(_test_config())
        with pytest.raises(ValueError,
                           match=r"batch 0: time at position 1 \(1\.0\) is "
                                 r"before the one at position 0 \(5\.0\); "
                                 "times must be sorted"):
            service.observe([5.0, 1.0, 3.0, 2.0])
        assert service.n_events == 0 and service.n_batches == 0
        assert service.ladder.n_events == 0 and service.gap_tail.n_seen == 0

    def test_single_bad_time_and_shape(self):
        service = MonitorService(_test_config())
        with pytest.raises(ValueError, match="position 0 is nan"):
            service.observe([math.nan])
        with pytest.raises(ValueError, match="one-dimensional"):
            service.observe([[1.0, 2.0], [3.0, 4.0]])

    def test_ties_and_stragglers_across_batches_are_accepted(self):
        service = MonitorService(_test_config())
        service.observe([10.0, 10.0, 11.0, 11.0])
        service.observe([4.0, 5.0, 5.0])  # behind the last batch
        service.observe([12.0])
        assert service.n_events == 8 and service.n_batches == 3
