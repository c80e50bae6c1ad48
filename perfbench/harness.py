"""Operation ledger, fingerprints and the metric catalogue.

Every workload is a closed loop: the benchmark makes one call into the
program, waits for it to return, then makes the next.  The :class:`Ledger`
times each call, counts it as attempted, and counts it as failed when it
raises or when an output check on it does not hold.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"

#: The seed whose outputs ``fingerprints.json`` records.  Runs at this
#: seed compare every output to its fingerprint; runs at any other seed
#: check invariants only.
RECORDED_SEED = 0

#: The experiments the paper-breadth workload times one by one.  They are
#: the costliest of its 32 experiments; the rest are summed as ``rest``.
TOP_EXPERIMENTS = ("table1", "fig02", "fig09", "monitor", "shaping", "mgk",
                   "flowsim", "fig01", "fig08", "table2")

#: End-to-end metrics: name -> (unit, better).  Every workload reports all
#: of them when tracing is off.
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "items_per_s": ("1/s", "higher"),
    "batch_p50_ms": ("ms", "lower"),
    "batch_p99_ms": ("ms", "lower"),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    from tracing import LAYERS

    s, n = ("s", "lower"), ("count", "higher")
    table = {
        "arrivals.counts_s": s,
        "arrivals.count": n,
        "distributions.pareto_sample_s": s,
        "arrivals.burst_lull_s": s,
        "kernels.groups_s": s,
        "kernels.onoff_s": s,
        "kernels.sources": n,
        "kernels.us_per_source": ("us", "lower"),
        "stats.normality_s": s,
        "selfsim.vt_s": s,
    }
    for name in TOP_EXPERIMENTS + ("rest",):
        table[f"experiments.{name}.compute_s"] = s
    table.update({
        "experiments.render_s": s,
        "engine.overhead_s": s,
        "engine.failures": ("count", "lower"),
        "replay.synthesize_s": s,
        "shaping.apply_s": s,
        "shaping.accept_ratio": ("ratio", "higher"),
        "scenario.summary_s": s,
        "scenario.battery_s": s,
        "monitor.ingest_s": s,
        "monitor.ingest_calls": n,
        "monitor.snapshot_s": s,
        "monitor.snapshot_calls": n,
        "monitor.windows_s": s,
        "monitor.poisson_check_s": s,
        "monitor.finalize_s": s,
        "monitor.snapshots": n,
        "monitor.alarms": n,
        "monitor.memory_bytes": ("bytes", "lower"),
    })
    for layer in LAYERS:
        table[f"{layer}.self_s"] = s
    table.update({
        "trace.overhead_ratio": ("ratio", "lower"),
        "trace.uncovered_ratio": ("ratio", "lower"),
        "trace.spans": ("count", "lower"),
    })
    return table


#: Per-layer metrics: name -> (unit, better).  Every workload reports all
#: of them when tracing is on; a layer a workload never calls reads 0.
PER_LAYER = _per_layer()

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Ledger:
    """Calls attempted and failed, and the start and latency of every
    call, timed by ``clock``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.problems: list[str] = []

    def call(self, what: str, fn, *args, **kwargs):
        """Time ``fn(*args, **kwargs)``; on an exception count a failure
        and return ``None``."""
        t0 = self.clock()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is data, not a crash
            out, ok, detail = None, False, f"{type(exc).__name__}: {exc}"
        else:
            ok, detail = True, ""
        self.starts.append(t0)
        self.latencies.append(self.clock() - t0)
        self._count(what, ok, detail)
        return out

    def check(self, what: str, ok: bool) -> None:
        """Count one output check."""
        self._count(what, bool(ok), "check failed")

    def _count(self, what: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{what}: {detail}")


def digest(value) -> str:
    """Short sha256 of an array's bytes, a string, or JSON-able data."""
    if isinstance(value, np.ndarray):
        data = value.dtype.str.encode() + value.tobytes()
    elif isinstance(value, str):
        data = value.encode()
    else:
        data = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def load_fingerprints(workload: str) -> dict[str, str]:
    return json.loads(FINGERPRINTS.read_text())[workload]


def check_identity(ledger: Ledger, actual: dict[str, str],
                   recorded: dict[str, str]) -> None:
    """One check per recorded fingerprint; a missing output fails too."""
    for key, want in recorded.items():
        ledger.check(f"identity {key}", actual.get(key) == want)


def percentile_ms(latencies, q: float) -> float:
    return float(np.percentile(np.asarray(latencies) * 1e3, q))
