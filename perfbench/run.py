"""Run one benchmark workload and print its metrics as one JSON line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload monitor-live --seed 3 --seconds 20 --trace 0

With ``--trace 0`` the workload repeats complete passes until the next
one would overrun ``--seconds`` (at least one pass) and reports the
end-to-end metrics; every timing in them is scaled to the host's
nominal speed by :mod:`pace`.  With ``--trace 1`` it makes one plain
pass, then one pass with every layer's public functions wrapped in
spans, and reports the per-layer metrics; the spans are written to
``perfbench/out/``.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: A call's latency is scaled by the host's speed from this many seconds
#: before it to this many after: over a whole pass, the calls that met a
#: slow spell would set the tail percentiles.
CALL_WINDOW_S = 0.5


def one_pass(workload, inputs, ledger):
    """One complete, checked pass; returns (outputs, seconds)."""
    t0 = ledger.clock()
    out = workload.run_pass(inputs, ledger)
    workload.check(inputs, out, ledger)
    return out, ledger.clock() - t0


def paced(probe, fn, *args):
    """``fn(*args)`` and its seconds on ``probe``'s clock, scaled to the
    host's nominal speed over the call."""
    t0 = probe.clock()
    out = fn(*args)
    t1 = probe.clock()
    return out, (t1 - t0) * probe.factor(t0, t1)


def end_to_end(workload, inputs, ledger, probe, seconds, setup_s):
    from harness import percentile_ms

    passes, rates, p50s, p99s = [], [], [], []
    start = time.perf_counter()
    while True:
        first = len(ledger.latencies)
        t0 = probe.clock()
        out, dt = one_pass(workload, inputs, ledger)
        calls = [t * probe.factor(s - CALL_WINDOW_S, s + t + CALL_WINDOW_S)
                 for s, t in zip(ledger.starts[first:],
                                 ledger.latencies[first:])]
        passes.append(dt * probe.factor(t0, t0 + dt))
        rates.append(workload.items(inputs, out) / passes[-1])
        p50s.append(percentile_ms(calls, 50))
        p99s.append(percentile_ms(calls, 99))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    return {
        "run_s": statistics.median(passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items_per_s": statistics.median(rates),
        "batch_p50_ms": statistics.median(p50s),
        "batch_p99_ms": statistics.median(p99s),
    }


def per_layer(workload, inputs, ledger, seed):
    from harness import TOP_EXPERIMENTS
    from tracing import Tracer, busy_by_name, covered, self_by_layer

    _, plain_s = one_pass(workload, inputs, ledger)
    tracer = Tracer(run_id=f"{workload.name}-seed{seed}")
    tracer.install()
    try:
        out, traced_s = one_pass(workload, inputs, ledger)
    finally:
        tracer.restore()
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{tracer.run_id}.spans.json")

    spans, count = tracer.spans, tracer.counters
    busy = busy_by_name(spans)
    spec = busy_by_name(spans, within="scenario.run_spec")
    compute = {name.split(".")[1]: s for name, s in busy.items()
               if name.startswith("experiments.") and name.endswith(".compute")}
    kernel_s = busy.get("kernels.groups", 0.0) + busy.get("kernels.onoff", 0.0)
    sources = count["kernels.sources"]
    values = {
        "arrivals.counts_s": busy.get("arrivals.counts", 0.0),
        "arrivals.count": count["arrivals.count"],
        "distributions.pareto_sample_s":
            busy.get("distributions.pareto_sample", 0.0),
        "arrivals.burst_lull_s": busy.get("arrivals.burst_lull", 0.0),
        "kernels.groups_s": busy.get("kernels.groups", 0.0),
        "kernels.onoff_s": busy.get("kernels.onoff", 0.0),
        "kernels.sources": sources,
        "kernels.us_per_source": kernel_s / sources * 1e6 if sources else 0.0,
        "stats.normality_s": busy.get("stats.normality", 0.0),
        "selfsim.vt_s": busy.get("selfsim.vt", 0.0),
        "experiments.rest.compute_s": sum(
            s for name, s in compute.items() if name not in TOP_EXPERIMENTS),
        "experiments.render_s": 0.0,
        "engine.overhead_s": 0.0,
        "engine.failures": 0,
        "replay.synthesize_s": spec.get("replay.synthesize", 0.0),
        "shaping.apply_s": spec.get("shaping.apply", 0.0),
        "shaping.accept_ratio": (count["shaping.accepted"]
                                 / count["shaping.offered"]
                                 if count["shaping.offered"] else 0.0),
        "scenario.summary_s": spec.get("scenario.summary", 0.0),
        "scenario.battery_s": spec.get("scenario.battery", 0.0),
        "monitor.ingest_s": busy.get("monitor.ingest", 0.0),
        "monitor.ingest_calls": count["monitor.ingest_calls"],
        "monitor.snapshot_s": busy.get("monitor.snapshot", 0.0),
        "monitor.snapshot_calls": count["monitor.snapshot_calls"],
        "monitor.windows_s": busy.get("monitor.windows", 0.0),
        "monitor.poisson_check_s": busy.get("monitor.poisson_check", 0.0),
        "monitor.finalize_s": busy.get("monitor.finalize", 0.0),
        "monitor.snapshots": count["monitor.snapshots"],
        "monitor.alarms": count["monitor.alarms"],
        "monitor.memory_bytes": count["monitor.memory_bytes"],
        "trace.overhead_ratio": traced_s / plain_s - 1.0,
        "trace.uncovered_ratio": 1.0 - covered(spans) / traced_s,
        "trace.spans": len(spans),
    }
    for name in TOP_EXPERIMENTS:
        values[f"experiments.{name}.compute_s"] = compute.get(name, 0.0)
    for layer, s in self_by_layer(spans).items():
        values[f"{layer}.self_s"] = s
    values.update(workload.layer_metrics(out))
    return values


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from pace import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    try:
        return measure(probe, argv)
    finally:
        probe.stop()


def load():
    import harness
    from workloads import WORKLOADS

    return harness, WORKLOADS


def measure(probe, argv) -> int:
    (harness, WORKLOADS), import_s = paced(probe, load)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, dt = paced(probe, workload.setup, args.seed)
        setups.append(dt)
    setup_s = import_s + statistics.median(setups)

    if args.trace:
        # Spans time the calls themselves; the probe would only add to them.
        probe.stop()
        ledger = harness.Ledger()
        values = per_layer(workload, inputs, ledger, args.seed)
        catalogue = harness.PER_LAYER
    else:
        ledger = harness.Ledger(clock=probe.clock)
        values = end_to_end(workload, inputs, ledger, probe, args.seconds,
                            setup_s)
        catalogue = harness.END_TO_END
    for problem in ledger.problems[:50]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, (unit, _) in catalogue.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
