"""Online monitor: LRD-vs-drift discrimination over live streams.

The paper's estimators run post-hoc over finished traces; the monitor
runs them *on the wire*.  This experiment drives the full Clegg stress
battery through one :class:`~repro.monitor.MonitorService` per stream —
Poisson null, true Pareto-renewal LRD, a Hurst step 0.5→0.85,
a Markov-modulated on/off source that fakes LRD, and a compressed
diurnal ramp — and reports each stream's final verdict, the step's
detection, and the online-vs-batch Hurst agreement on the same window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.report import format_table
from repro.monitor import (
    MonitorConfig,
    MonitorReport,
    MonitorService,
    diurnal_ramp_stream,
    hurst_step_stream,
    iter_batches,
    markov_onoff_stream,
    pareto_stream,
    poisson_stream,
)
from repro.scenario import execute
from repro.selfsim.counts import CountProcess
from repro.selfsim.variance_time import hurst_from_variance_time
from repro.utils.rng import SeedLike, spawn_rngs


#: Expected final verdict per scenario — the discrimination contract.
EXPECTED = {
    "poisson": ("poisson-like", "indeterminate"),
    "pareto": ("self-similar",),
    "hurst-step": ("self-similar",),
    "markov-onoff": ("nonstationary",),
    "diurnal-ramp": ("nonstationary",),
}


def _test_config(window: float = 60.0) -> MonitorConfig:
    return MonitorConfig(
        window=window, bin_width=0.05, snapshot_every=2.0,
        rate_tick=0.5, rate_warmup=30, hurst_warmup=8,
    )


def _drive(times: np.ndarray, config: MonitorConfig,
           batch_seconds: float = 1.0) -> MonitorReport:
    service = MonitorService(config)
    for batch in iter_batches(times, batch_seconds):
        service.observe(batch)
    return service.finalize()


@dataclass(frozen=True)
class MonitorBatteryResult:
    reports: dict[str, MonitorReport]
    online_hurst: float       # monitor's H at the last hurst-step snapshot
    batch_hurst: float        # batch variance-time H on the same window
    step_alarm_time: float | None  # first hurst alarm after the step
    step_time: float

    def verdict_for(self, name: str) -> str:
        """Battery verdict: the modal settled verdict of the stream.

        The step stream is classified from its post-step history (one
        window past the step, so the sliding window has fully turned
        over into the new regime); the others from their whole run.
        """
        report = self.reports[name]
        if name == "hurst-step":
            return report.modal_verdict(
                after=self.step_time + report.config.window)
        return report.modal_verdict()

    def rows(self) -> list[dict]:
        rows = []
        for name, report in self.reports.items():
            counts = report.verdict_counts()
            hs = [s.hurst.hurst for s in report.snapshots if s.hurst]
            verdict = self.verdict_for(name)
            rows.append({
                "stream": name,
                "events": report.n_events,
                "snapshots": len(report.snapshots),
                "alarms": len(report.alarms),
                "H_final": round(float(np.median(hs[-5:])), 3) if hs
                           else float("nan"),
                "verdict": verdict,
                "expected": "|".join(EXPECTED[name]),
                "ok": verdict in EXPECTED[name],
                "nonstationary_snaps": counts["nonstationary"],
            })
        return rows

    @property
    def discrimination_ok(self) -> bool:
        """Every stream landed on its expected final verdict."""
        return all(row["ok"] for row in self.rows())

    @property
    def step_detected(self) -> bool:
        """A hurst-series alarm fired after the dependence step."""
        return (self.step_alarm_time is not None
                and self.step_alarm_time >= self.step_time)

    @property
    def online_matches_batch(self) -> bool:
        """Online H within ±0.05 of the batch fit on the same window."""
        return abs(self.online_hurst - self.batch_hurst) <= 0.05

    def render(self) -> str:
        table = format_table(
            self.rows(),
            title="Online monitor: LRD-vs-drift discrimination battery",
        )
        step = ("not detected" if self.step_alarm_time is None else
                f"alarm at t={self.step_alarm_time:.1f}s "
                f"(step at t={self.step_time:.0f}s)")
        lines = [
            table,
            "",
            f"Hurst step 0.5->0.85: {step}",
            f"online H {self.online_hurst:.3f} vs batch H "
            f"{self.batch_hurst:.3f} on the same window "
            f"(|diff| {abs(self.online_hurst - self.batch_hurst):.3f})",
        ]
        return "\n".join(lines)


def run_config(cfg: dict, seed: SeedLike = 0,
               jobs: int = 1) -> MonitorBatteryResult:
    """The monitor family runner: one resolved ``[monitor]`` section.

    ``jobs`` is accepted for runner-signature uniformity; the battery is
    a closed loop over one service per stream and runs serially.
    """
    duration, rate, window = cfg["duration"], cfg["rate"], cfg["window"]
    rngs = spawn_rngs(seed, 5)
    config = _test_config(window)
    step_duration = max(duration * 1.5, duration + 4 * window)
    step_time = step_duration / 2.0
    streams = {
        "poisson": poisson_stream(duration, rate, seed=rngs[0]),
        "pareto": pareto_stream(duration, rate, seed=rngs[1]),
        "hurst-step": hurst_step_stream(step_duration, rate, step_time,
                                        seed=rngs[2]),
        "markov-onoff": markov_onoff_stream(
            duration, rate * 4.0, mean_on=5.0, mean_off=15.0, seed=rngs[3]
        ),
        "diurnal-ramp": diurnal_ramp_stream(duration, rate, seed=rngs[4]),
    }
    reports = {name: _drive(times, config)
               for name, times in streams.items()}

    # Closed loop on the step stream: the monitor's final H against the
    # batch variance-time fit over the *identical* window of raw times.
    step_report = reports["hurst-step"]
    last = next(s for s in reversed(step_report.snapshots)
                if s.hurst is not None)
    lo, hi = last.hurst.window_start, last.hurst.window_end
    window_times = streams["hurst-step"]
    window_times = window_times[(window_times >= lo) & (window_times < hi)]
    batch = hurst_from_variance_time(
        CountProcess.from_times(window_times, config.bin_width, start=lo),
        min_level=config.min_level,
    )
    step_alarms = [a.time for a in step_report.alarms
                   if a.series == "hurst" and a.time >= step_time]
    return MonitorBatteryResult(
        reports=reports,
        online_hurst=float(last.hurst.hurst),
        batch_hurst=float(batch),
        step_alarm_time=min(step_alarms) if step_alarms else None,
        step_time=float(step_time),
    )


def monitor(
    seed: SeedLike = 0,
    duration: float = 400.0,
    rate: float = 50.0,
    window: float = 60.0,
) -> MonitorBatteryResult:
    """Run the five-stream discrimination battery through live monitors."""
    return execute("monitor", {
        "duration": duration, "rate": rate, "window": window,
    }, seed=seed)
