"""Tests of the benchmark's own machinery (not of the program).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import harness  # noqa: E402
import pace  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, busy_by_name, covered, self_by_layer, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# root [0, 10] holds a [1, 4] (which holds a' [2, 3]) and b [5, 7]; c
# [11, 12] is a second top-level span.
SPANS = [
    ["engine.run", 0.0, 10.0, -1],
    ["arrivals.counts", 1.0, 4.0, 0],
    ["distributions.sample", 2.0, 3.0, 1],
    ["arrivals.counts", 5.0, 7.0, 0],
    ["monitor.ingest", 11.0, 12.0, -1],
]


class TestSpanArithmetic:
    def test_self_time_subtracts_direct_children_only(self):
        assert self_times(SPANS) == [5.0, 2.0, 1.0, 2.0, 1.0]

    def test_self_times_add_up_to_covered_time(self):
        assert sum(self_times(SPANS)) == covered(SPANS) == 11.0

    def test_self_by_layer(self):
        layers = self_by_layer(SPANS)
        assert set(tracing.LAYERS) <= set(layers)
        assert layers["engine"] == 5.0
        assert layers["arrivals"] == 4.0
        assert layers["distributions"] == 1.0
        assert layers["monitor"] == 1.0
        assert layers["kernels"] == 0.0

    def test_busy_counts_nested_repeats_once(self):
        spans = SPANS + [["arrivals.counts", 1.5, 1.8, 1]]
        assert busy_by_name(spans)["arrivals.counts"] == 5.0

    def test_busy_within(self):
        busy = busy_by_name(SPANS, within="arrivals.counts")
        assert busy == {"distributions.sample": 1.0}


class TestTracer:
    def test_wrap_records_parent_links(self):
        tracer = Tracer("t")
        inner = tracer.wrap(lambda x: x + 1, "stats.inner")
        outer = tracer.wrap(lambda x: inner(x) * 2, "stats.outer")
        assert outer(1) == 4
        names = [s[0] for s in tracer.spans]
        parents = [s[3] for s in tracer.spans]
        assert names == ["stats.outer", "stats.inner"]
        assert parents == [-1, 0]
        assert all(s[2] >= s[1] for s in tracer.spans)

    def test_span_closed_when_call_raises(self):
        tracer = Tracer("t")

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.wrap(boom, "stats.boom")()
        assert tracer.spans[0][2] >= tracer.spans[0][1] > 0
        assert tracer._stack == []

    def test_patch_method_restores_inherited_method(self):
        class Base:
            def update(self):
                return "base"

        class Child(Base):
            pass

        original = Base.update
        tracer = Tracer("t")
        tracer.patch_method(Child, "update", "monitor.windows")
        assert Child().update() == "base"
        assert Base.update.__wrapped__ is original
        assert "update" not in vars(Child)
        tracer.restore()
        assert tracer.spans[0][0] == "monitor.windows"
        assert Base.update is original
        assert "update" not in vars(Child)

    def test_install_wraps_and_restores_every_target(self):
        import repro.arrivals as arrivals
        import repro.arrivals.pareto_renewal as renewal
        from repro.experiments import REGISTRY

        before_fn = renewal.pareto_renewal_counts
        before_registry = dict(REGISTRY)
        tracer = Tracer("t")
        tracer.install()
        try:
            assert arrivals.pareto_renewal_counts is not before_fn
            assert renewal.pareto_renewal_counts.__wrapped__ is before_fn
            counts = arrivals.pareto_renewal_counts(8, 10.0, 1.0, seed=1)
            assert tracer.counters["arrivals.count"] == counts.sum()
        finally:
            tracer.restore()
        assert arrivals.pareto_renewal_counts is before_fn
        assert renewal.pareto_renewal_counts is before_fn
        assert REGISTRY == before_registry
        names = {s[0] for s in tracer.spans}
        assert {"arrivals.counts", "distributions.pareto_sample"} <= names


class TestIdentityChecks:
    def panel(self, counts):
        from repro.arrivals import burst_lull_summary

        return counts, burst_lull_summary(counts)

    def outputs(self):
        from workloads import AppcCounts

        wl = AppcCounts()
        wl.n_bins = 3  # ~2e6 arrivals per panel at b = 1e7
        streams = np.random.SeedSequence(5).spawn(4)
        return wl, {w: wl._panels(w, streams) for w in wl.widths}

    def test_unperturbed_outputs_pass(self):
        wl, out = self.outputs()
        ledger = harness.Ledger()
        wl.invariants({}, out, ledger)
        harness.check_identity(ledger, wl.fingerprints(out),
                               wl.fingerprints(out))
        assert ledger.failed == 0 and ledger.attempted > 2

    def test_single_perturbed_count_fails_identity(self):
        wl, out = self.outputs()
        recorded = wl.fingerprints(out)
        counts = out[1e7][3][0].copy()
        counts[int(np.argmax(counts))] += 1
        out[1e7][3] = self.panel(counts)
        ledger = harness.Ledger()
        harness.check_identity(ledger, wl.fingerprints(out), recorded)
        assert ledger.failed == 1
        assert ledger.problems == ["identity b=1e+07: check failed"]

    def test_missing_output_fails_identity(self):
        ledger = harness.Ledger()
        harness.check_identity(ledger, {}, {"cells": "abc"})
        assert (ledger.attempted, ledger.failed) == (1, 1)

    def test_invariant_catches_window_not_nested(self):
        wl, out = self.outputs()
        small = out[1e3][2][0].copy()
        small[0] += out[1e7][2][0][0] + 1
        out[1e3][2] = self.panel(small)
        ledger = harness.Ledger()
        wl.invariants({}, out, ledger)
        assert ledger.problems == [
            "panel 2 b=1e3 window nested in b=1e7 bin 0: check failed"]

    def test_ledger_counts_exceptions_as_failures(self):
        ledger = harness.Ledger()
        assert ledger.call("ok", lambda: 3) == 3
        assert ledger.call("bad", lambda: 1 / 0) is None
        assert (ledger.attempted, ledger.failed) == (2, 1)
        assert len(ledger.latencies) == 2
        assert ledger.problems[0].startswith("bad: ZeroDivisionError")


class TestSpeedProbe:
    def test_factor_scales_by_trimmed_mean_in_window(self):
        probe = pace.SpeedProbe()
        nominal = pace.NOMINAL_S
        # 19 samples at twice nominal and one preempted outlier, all in
        # [0, 1]; one more sample outside the window.
        probe.starts = [i / 20 for i in range(20)] + [5.0]
        probe.times = [2 * nominal] * 19 + [100 * nominal, nominal]
        assert probe.factor(0.0, 1.0) == pytest.approx(0.5)
        assert probe.factor(4.0, 6.0) == pytest.approx(1.0)
        assert probe.factor(2.0, 3.0) == 1.0

    def test_clock_leaves_out_the_probe_time(self):
        probe = pace.SpeedProbe()
        probe.spent = 2.5
        assert probe.clock() == pytest.approx(time.perf_counter() - 2.5,
                                              abs=1e-3)

    def test_samples_while_running_and_restores_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        probe = pace.SpeedProbe(interval=0.002)
        probe.start()
        try:
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                pace.reference()
        finally:
            probe.stop()
        assert probe.times and probe.starts == sorted(probe.starts)
        assert probe.spent == pytest.approx(sum(probe.times))
        assert signal.getsignal(signal.SIGALRM) == before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestCatalogue:
    def test_every_metric_name_and_unit_is_valid(self):
        for table in (harness.END_TO_END, harness.PER_LAYER):
            for name, (unit, better) in table.items():
                assert harness.NAME_RE.match(name), name
                assert harness.UNIT_RE.match(unit), (name, unit)
                assert better in ("higher", "lower")
        assert not set(harness.END_TO_END) & set(harness.PER_LAYER)
        assert len(harness.PER_LAYER) <= 128

    def test_benchmark_json_matches_the_code(self):
        from workloads import WORKLOADS

        assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
        for key, table in (("end_to_end", harness.END_TO_END),
                           ("per_layer", harness.PER_LAYER)):
            declared = {m["name"]: (m["unit"], m["better"])
                        for m in BENCHMARK[key]}
            assert declared == table
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())

    def test_recorded_fingerprints_cover_every_workload(self):
        from workloads import WORKLOADS

        recorded = json.loads(harness.FINGERPRINTS.read_text())
        assert set(recorded) == set(WORKLOADS)
        assert len(recorded["paper-breadth"]) == 32 + 2


def test_run_fails_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monitor-live",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
