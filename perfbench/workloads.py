"""The four benchmark workloads.

Each workload has three parts:

* ``setup(seed)`` builds the inputs from the seed and warms the code
  paths up; it is timed as set-up, never as run time;
* ``run_pass(inputs, ledger)`` is one complete pass, every call into the
  program made through the ledger in a closed loop at ``jobs=1``;
* ``check(inputs, out, ledger)`` verifies the pass's outputs: invariants
  on any seed, plus fingerprints at :data:`harness.RECORDED_SEED`.
"""

from __future__ import annotations

import math

import numpy as np

# The calls a pass makes into the program go through module attributes,
# so the traced run's wrappers on those attributes see them.
import repro.arrivals as arrivals
import repro.engine.runner as runner
import repro.experiments.superpose_exp as superpose_exp
import repro.scenario.pipeline as pipeline
from repro.arrivals.onoff import OnOffSource
from repro.experiments import REGISTRY
from repro.experiments.superpose_exp import CELLS
from repro.kernels import superpose_onoff, superpose_onoff_groups
from repro.monitor import MonitorConfig, MonitorService
from repro.monitor.scenarios import hurst_step_stream, iter_batches
from repro.scenario.spec import load_spec, resolve
from repro.selfsim.counts import CountProcess
from repro.selfsim.variance_time import variance_time_curve
from repro.stats import anderson_darling_normal

from harness import (
    RECORDED_SEED,
    ROOT,
    Ledger,
    check_identity,
    digest,
    load_fingerprints,
)

VERDICTS = ("warming-up", "self-similar", "nonstationary", "poisson-like",
            "indeterminate")


class Workload:
    """Base of the workloads.  A subclass defines ``setup``, ``run_pass``,
    ``items`` (the work items in one pass, which ``items_per_s`` counts),
    ``fingerprints`` (output name -> digest) and ``invariants``."""

    name = ""

    def check(self, inputs, out, ledger: Ledger) -> None:
        self.invariants(inputs, out, ledger)
        if inputs["seed"] == RECORDED_SEED:
            check_identity(ledger, self.fingerprints(out),
                           load_fingerprints(self.name))

    def layer_metrics(self, out) -> dict[str, float]:
        """Per-layer numbers the program reports itself (not from spans)."""
        return {}


class AppcCounts(Workload):
    """Appendix C renewal counts at b = 10^7 (Fig. 15) and b = 10^3.
    Items are arrivals."""

    name = "appc-counts"
    # Many short panels rather than one long one: the arrivals in a panel
    # swing by ~30% (IQR) from seed to seed — its lulls are heavy-tailed
    # at every scale — and the swing of a pass's work falls with the
    # number of independent panels (16 x 25 bins: ~7%, 64 x 6: ~4%).
    panels = 64
    n_bins = 6
    widths = (1e7, 1e3)
    shape = 1.0

    def setup(self, seed):
        # Panels 0-63 of fig14/fig15 at this seed, 6 bins long.  Both
        # widths of a panel draw the same child stream, so the b = 10^3
        # window is a prefix of the b = 10^7 one.
        streams = np.random.SeedSequence(seed).spawn(self.panels)
        warm = arrivals.pareto_renewal_counts(
            16, 1e3, self.shape, seed=np.random.default_rng(streams[0]))
        arrivals.burst_lull_summary(warm)
        return {"seed": seed, "streams": streams}

    def _panels(self, width, streams):
        out = []
        for stream in streams:
            counts = arrivals.pareto_renewal_counts(
                self.n_bins, width, self.shape,
                seed=np.random.default_rng(stream))
            out.append((counts, arrivals.burst_lull_summary(counts)))
        return out

    def run_pass(self, inputs, ledger):
        return {w: ledger.call(f"b={w:g}", self._panels, w, inputs["streams"])
                for w in self.widths}

    def items(self, inputs, out):
        return sum(int(c.sum()) for panels in out.values() if panels
                   for c, _ in panels)

    def fingerprints(self, out):
        return {f"b={w:g}": digest(np.stack([c for c, _ in panels]))
                for w, panels in out.items() if panels}

    def invariants(self, inputs, out, ledger):
        for w, panels in out.items():
            for i, (counts, summary) in enumerate(panels or ()):
                runs = summary.burst_lengths.sum() + summary.lull_lengths.sum()
                what = f"panel {i} b={w:g}"
                ledger.check(f"{what} shape", counts.shape == (self.n_bins,)
                             and counts.dtype.kind == "i" and counts.min() >= 0)
                ledger.check(f"{what} runs partition bins",
                             runs == self.n_bins)
                ledger.check(f"{what} bursts cover occupied bins",
                             summary.burst_lengths.sum()
                             == np.count_nonzero(counts))
        if out[1e3] and out[1e7]:
            for i, (small, large) in enumerate(zip(out[1e3], out[1e7])):
                # The b = 10^3 window [0, n_bins * 10^3) lies in bin 0 at
                # b = 10^7.
                ledger.check(f"panel {i} b=1e3 window nested in b=1e7 bin 0",
                             small[0].sum() <= large[0][0])


class SuperposePhase(Workload):
    """The superpose phase cells and Hurst battery at reduced size.  Items
    are ON/OFF sources."""

    name = "superpose-phase"
    config = {"replications": 16, "battery_sources": 4096}

    def setup(self, seed):
        src = OnOffSource.pareto(on_shape=1.2, off_shape=1.2,
                                 on_location=0.1, off_location=0.1)
        totals = superpose_onoff_groups(8, 4, 1, 8.0, source=src, seed=seed)
        anderson_darling_normal(totals[:, 0])
        agg = superpose_onoff(64, 64, 1.0, source=src, seed=seed)
        variance_time_curve(CountProcess(agg, 1.0))
        return {"seed": seed}

    def run_pass(self, inputs, ledger):
        return ledger.call("superpose run_config", superpose_exp.run_config,
                           dict(self.config), seed=inputs["seed"])

    def items(self, inputs, out):
        c = self.config
        return (c["replications"] * sum(n for _, n, _ in CELLS)
                + 2 * c["battery_sources"])

    def fingerprints(self, out):
        if out is None:
            return {}
        return {"cells": digest(repr(out.cells)),
                "aggregates": digest(repr((out.battery_hurst,
                                           out.control_hurst,
                                           out.expected_h)))}

    def invariants(self, inputs, out, ledger):
        if out is None:
            return
        grid = [(c.regime, c.n_sources, c.horizon) for c in out.cells]
        ledger.check("cell grid", grid == list(CELLS))
        ledger.check("A2 finite", all(math.isfinite(c.a2_statistic)
                                      and c.a2_statistic >= 0
                                      for c in out.cells))
        ledger.check("battery H finite", math.isfinite(out.battery_hurst)
                     and math.isfinite(out.control_hurst))
        ledger.check("rows render", len(out.rows()) == len(CELLS)
                     and bool(out.render()))


class PaperBreadth(Workload):
    """The other 32 registry experiments, then the committed synth spec.
    Items are operations: the experiments and the spec."""

    name = "paper-breadth"
    skipped = ("fig15", "scale_comparison", "superpose")
    spec = ROOT / "examples" / "specs" / "synth_policed.toml"

    def setup(self, seed):
        doc = load_spec(self.spec)
        resolve(doc)
        names = [n for n in REGISTRY if n not in self.skipped]
        return {"seed": seed, "names": names, "doc": doc}

    def run_pass(self, inputs, ledger):
        report = ledger.call(
            "run_experiments", runner.run_experiments, inputs["names"],
            master_seed=inputs["seed"], jobs=1, use_cache=False,
            derive_seeds=False)
        if report is not None:
            # One call, but each experiment is also an operation of its own.
            for run in report.runs:
                ledger.check(f"experiment {run.name}: {run.metrics.error}",
                             run.ok)
        spec = ledger.call("synth spec", pipeline.run_spec, inputs["doc"],
                           jobs=1, seed=inputs["seed"])
        return {"report": report, "spec": spec}

    def items(self, inputs, out):
        return len(inputs["names"]) + 1

    def fingerprints(self, out):
        prints = {}
        if out["report"] is not None:
            prints.update((name, digest(text))
                          for name, text in out["report"].outputs().items())
        if out["spec"] is not None:
            prints["synth spec"] = digest(out["spec"].rendered)
            prints["synth sketch_fingerprint"] = (
                out["spec"].result.sketch_fingerprint())
        return prints

    def invariants(self, inputs, out, ledger):
        report, spec = out["report"], out["spec"]
        if report is not None:
            ledger.check("every experiment rendered",
                         [r.name for r in report.runs] == inputs["names"]
                         and all(r.rendered for r in report.runs if r.ok))
        if spec is not None:
            fp = spec.result.sketch_fingerprint()
            ledger.check("synth sketch fingerprint",
                         len(fp) == 16 and bool(spec.rendered))

    def layer_metrics(self, out):
        report = out["report"]
        if report is None:
            return {}
        walls = [r.metrics.wall_time_s for r in report.runs]
        computes = [r.metrics.compute_time_s for r in report.runs]
        return {
            "experiments.render_s": sum(walls) - sum(computes),
            "engine.overhead_s": report.total_wall_s - sum(walls),
            "engine.failures": report.failures,
        }


class MonitorLive(Workload):
    """A ~10^6-event Hurst-step stream fed to one service in 1 s batches.
    Items are events."""

    name = "monitor-live"
    duration, rate, t_step = 5000.0, 200.0, 2500.0

    def setup(self, seed):
        times = hurst_step_stream(self.duration, self.rate, self.t_step,
                                  seed=seed)
        batches = list(iter_batches(times, 1.0))
        warm = MonitorService(MonitorConfig())
        for batch in batches[:200]:
            warm.observe(batch)
        warm.finalize()
        return {"seed": seed, "n_events": times.size, "batches": batches}

    def run_pass(self, inputs, ledger):
        service = MonitorService(MonitorConfig())
        emitted = 0
        for batch in inputs["batches"]:
            snaps = ledger.call("observe", service.observe, batch)
            emitted += len(snaps) if snaps else 0
        report = ledger.call("finalize", service.finalize)
        return {"report": report, "emitted": emitted}

    def items(self, inputs, out):
        return inputs["n_events"]

    def fingerprints(self, out):
        report = out["report"]
        if report is None:
            return {}
        return {
            "snapshots": digest([s.payload() for s in report.snapshots]),
            "alarms": digest([a.payload() for a in report.alarms]),
            "final verdict": report.final_verdict,
        }

    def invariants(self, inputs, out, ledger):
        report = out["report"]
        if report is None:
            return
        ledger.check("n_events == input size",
                     report.n_events == inputs["n_events"])
        ledger.check("n_batches == batches fed",
                     report.n_batches == len(inputs["batches"]))
        # finalize() may flush one last snapshot past the last boundary.
        ledger.check("snapshots returned", 0 <= len(report.snapshots)
                     - out["emitted"] <= 1)
        ledger.check("verdicts known",
                     all(s.verdict in VERDICTS for s in report.snapshots)
                     and report.final_verdict in VERDICTS)


WORKLOADS = {w.name: w for w in (AppcCounts(), SuperposePhase(),
                                 PaperBreadth(), MonitorLive())}
