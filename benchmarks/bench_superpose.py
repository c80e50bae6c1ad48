"""Benchmarks of the batched superposition kernels.

Two faces, mirroring ``bench_monitor.py`` / ``bench_kernels.py``:

* **pytest-benchmark micro-tests** (run with
  ``pytest benchmarks/bench_superpose.py --benchmark-only``) timing the
  batched ON/OFF and renewal kernels on their own;
* **a CLI** (``PYTHONPATH=src python benchmarks/bench_superpose.py``) that
  times each kernel against the frozen per-source loops from
  :mod:`repro.kernels.reference`, re-verifies the bit-identity contracts,
  and records the baseline in ``BENCH_superpose.json``.  Each case's
  ``ratio`` is batched-time-per-source over loop-time-per-source (the
  loop is timed on a fixed-size subsample — it is per-source linear, so
  the per-source normalization is honest and keeps full-scale runs
  affordable), which makes the recorded numbers machine-independent;
  ``--check BASELINE`` fails when any case's normalized ratio regressed
  past 1.5x.  The ``rng_setup`` case times the kernels' per-source child
  Generator set-up (one-pass seed-state derivation plus construction)
  against ``spawn_rngs``, whose streams it must reproduce exactly; its
  ``loop_*`` fields describe the ``spawn_rngs`` side.

The acceptance target: the batched ON/OFF kernel is >= 20x faster than
the frozen loop at 10^5 sources (``speedup_x`` of the ``onoff_pareto``
case at ``--scale full``), and the shared-memory fan-out moves only
metadata across the process boundary (``meta_bytes`` vs
``buffer_bytes`` of the ``shared_pool`` case) while staying bit-identical
to the serial path.
"""

import argparse
import json
import pickle
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.arrivals.onoff import OnOffSource
from repro.distributions.pareto import Pareto
from repro.kernels import (
    superpose_onoff,
    superpose_onoff_groups,
    superpose_renewal,
)
from repro.kernels.reference import multiplex_onoff_loop, superpose_renewal_loop
from repro.utils.rng import child_rngs, spawn_rngs

#: The phase-diagram working point: short heavy-tailed periods, so each
#: source cycles many times per horizon — the regime the batching exists
#: for.
SOURCE = OnOffSource.pareto(on_location=0.1, off_location=0.1)
GAP_DIST = Pareto(1.0, 1.2)
N_BINS = 100
BIN_WIDTH = 10.0
CHUNK = 4096
#: Sources the frozen loops are timed on (they are per-source linear, so
#: per-source time from a subsample extrapolates honestly).
LOOP_SAMPLE = 300
#: Replications the frozen loop is timed on in the ``grouped_onoff`` case.
LOOP_REPS = 2
#: Children ``spawn_rngs`` is timed on in the ``rng_setup`` case.
SPAWN_SAMPLE = 5_000


# ----------------------------------------------------------------------
# pytest-benchmark micro-tests
# ----------------------------------------------------------------------
def test_onoff_batched_20k(benchmark):
    out = benchmark(
        superpose_onoff, 20_000, N_BINS, BIN_WIDTH,
        source=SOURCE, seed=0, chunk=CHUNK,
    )
    assert out.shape == (N_BINS,) and out.sum() > 0


def test_onoff_grouped_128x8(benchmark):
    out = benchmark(
        superpose_onoff_groups, 128, 8, 1, 16_384.0,
        source=SOURCE, seed=0, chunk=CHUNK,
    )
    assert out.shape == (128, 1) and (out > 0).all()


def test_renewal_batched_20k(benchmark):
    out = benchmark(
        superpose_renewal, 20_000, N_BINS, BIN_WIDTH,
        gap_dist=GAP_DIST, seed=0, chunk=CHUNK,
    )
    assert out.sum() > 0


# ----------------------------------------------------------------------
# CLI: normalized timings for BENCH_superpose.json
# ----------------------------------------------------------------------
def _time(fn, repeats):
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _per_source_row(n_sources, batched_s, loop_sample, loop_s):
    batched_per = batched_s / n_sources
    loop_per = loop_s / loop_sample
    return {
        "case_s": round(batched_s, 6),
        "n_sources": int(n_sources),
        "loop_sample": int(loop_sample),
        "loop_sample_s": round(loop_s, 6),
        "batched_us_per_source": round(batched_per * 1e6, 3),
        "loop_us_per_source": round(loop_per * 1e6, 3),
        "ratio": round(batched_per / loop_per, 5),
        "speedup_x": round(loop_per / batched_per, 2),
    }


def run_suite(scale, repeats):
    full = scale == "full"
    n = 100_000 if full else 20_000
    results = {}

    # -- batched ON/OFF vs frozen loop (the >= 20x acceptance case) -----
    batched_s, batched = _time(
        lambda: superpose_onoff(n, N_BINS, BIN_WIDTH, source=SOURCE,
                                seed=0, chunk=CHUNK),
        repeats,
    )
    loop_s, loop_sub = _time(
        lambda: multiplex_onoff_loop(LOOP_SAMPLE, N_BINS, BIN_WIDTH,
                                     SOURCE, seed=0),
        repeats,
    )
    # Identity on the subsample: same seed, chunk >= n -> same float tree.
    exact = superpose_onoff(LOOP_SAMPLE, N_BINS, BIN_WIDTH, source=SOURCE,
                            seed=0, chunk=LOOP_SAMPLE)
    assert np.array_equal(exact, loop_sub), "batched != loop on same seed"
    results["onoff_pareto"] = _per_source_row(
        n, batched_s, LOOP_SAMPLE, loop_s)
    results["onoff_pareto"]["identity"] = "exact"

    # -- grouped replication sweep vs the frozen loop per replication ----
    # The reference is the frozen per-source loop, which does not move
    # when the kernels get faster.  Successive loop calls on one
    # SeedSequence draw the children of successive groups, so the loop's
    # replications are the grouped rows 0..LOOP_REPS-1, bit for bit.
    reps, group = (128, 8) if full else (32, 8)
    grouped_s, grouped = _time(
        lambda: superpose_onoff_groups(reps, group, 1, 16_384.0,
                                       source=SOURCE, seed=0, chunk=CHUNK),
        repeats,
    )

    def loop_reps():
        seq = np.random.SeedSequence(0)
        return [multiplex_onoff_loop(group, 1, 16_384.0, SOURCE, seed=seq)
                for _ in range(LOOP_REPS)]

    loop_s, loop_rows = _time(loop_reps, repeats)
    assert np.array_equal(np.vstack(loop_rows), grouped[:LOOP_REPS]), \
        "grouped rows != loop per replication"
    results["grouped_onoff"] = {
        "case_s": round(grouped_s, 6),
        "replications": reps,
        "group_size": group,
        "grouped_s_per_rep": round(grouped_s / reps, 6),
        "loop_reps": LOOP_REPS,
        "loop_s_per_rep": round(loop_s / LOOP_REPS, 6),
        "ratio": round((grouped_s / reps) / (loop_s / LOOP_REPS), 5),
        "speedup_x": round((loop_s / LOOP_REPS) / (grouped_s / reps), 2),
        "identity": "exact",
    }

    # -- batched renewal vs frozen loop ---------------------------------
    ren_s, ren = _time(
        lambda: superpose_renewal(n, N_BINS, BIN_WIDTH, gap_dist=GAP_DIST,
                                  seed=0, chunk=CHUNK),
        repeats,
    )
    ren_loop_s, ren_sub = _time(
        lambda: superpose_renewal_loop(LOOP_SAMPLE, N_BINS, BIN_WIDTH,
                                       GAP_DIST, seed=0),
        repeats,
    )
    ren_exact = superpose_renewal(LOOP_SAMPLE, N_BINS, BIN_WIDTH,
                                  gap_dist=GAP_DIST, seed=0, chunk=CHUNK)
    assert np.array_equal(ren_exact, ren_sub), "renewal batched != loop"
    results["renewal_pareto"] = _per_source_row(
        n, ren_s, LOOP_SAMPLE, ren_loop_s)
    results["renewal_pareto"]["identity"] = "exact"

    # -- per-source RNG set-up: one-pass derivation vs spawn_rngs -------
    seq = np.random.SeedSequence(0)
    setup_s, rngs = _time(
        lambda: child_rngs(seq.entropy, seq.spawn_key, 0, n, seq.pool_size),
        repeats)
    spawn_s, spawned = _time(
        lambda: spawn_rngs(np.random.SeedSequence(0), SPAWN_SAMPLE), repeats)
    assert all(a.random() == b.random()
               for a, b in zip(rngs, spawned)), "derived != spawned streams"
    results["rng_setup"] = _per_source_row(n, setup_s, SPAWN_SAMPLE,
                                           spawn_s)
    results["rng_setup"]["identity"] = "exact"

    # -- shared-memory fan-out: metadata-only transfer, bit-identical ---
    # Wide aggregate (20k bins -> 160 KB partial per chunk task): with
    # pickle-everything fan-out each task's partial would ride back through
    # the executor; here only the metadata dicts do.
    n_shared, shared_bins, shared_w = 2_048, 20_000, 0.05
    shared_chunk = 256
    n_tasks = -(-n_shared // shared_chunk)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    meta_serial: list = []
    serial = superpose_onoff(n_shared, shared_bins, shared_w, source=SOURCE,
                             seed=3, chunk=shared_chunk, jobs=1,
                             meta=meta_serial)
    meta_jobs: list = []
    shared_s, fanned = _time(
        lambda: superpose_onoff(n_shared, shared_bins, shared_w,
                                source=SOURCE, seed=3, chunk=shared_chunk,
                                jobs=2, meta=meta_jobs),
        1,
    )
    assert np.array_equal(serial, fanned), "jobs=2 != serial"
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    meta_bytes = len(pickle.dumps(meta_jobs[-n_tasks:]))
    buffer_bytes = n_tasks * shared_bins * 8
    results["shared_pool"] = {
        "case_s": round(shared_s, 6),
        "n_sources": n_shared,
        "n_bins": shared_bins,
        "jobs": 2,
        "meta_bytes": meta_bytes,
        "buffer_bytes": buffer_bytes,
        # bytes through pickle per byte of partial aggregate: the
        # no-array-pickling contract, checked as a structural ratio.
        "ratio": round(meta_bytes / buffer_bytes, 8),
        "parent_rss_peak_kb": int(rss_after),
        "parent_rss_delta_kb": int(rss_after - rss_before),
        "identity": "exact",
    }

    for name, row in results.items():
        extra = (f"speedup {row['speedup_x']:8.2f}x"
                 if "speedup_x" in row else
                 f"meta/buffer {row['ratio']:.2e}")
        print(f"{name:16s} {row['case_s']:9.4f}s  ratio {row['ratio']:10.5f}"
              f"  {extra}")
    return results


def check_against(baseline_path, scale, results, factor=1.5):
    """Fail when any case's normalized ratio regressed past ``factor`` x
    the recorded one (machine speed cancels)."""
    payload = json.loads(Path(baseline_path).read_text())
    base = payload.get("scales", {}).get(scale)
    if base is None:
        raise SystemExit(f"baseline {baseline_path} has no '{scale}' scale")
    failures = []
    for name, now in results.items():
        then = base.get(name)
        if then is None:
            continue  # new case: no baseline yet
        if now["case_s"] < 0.005 and now["ratio"] <= then["ratio"]:
            continue  # timer-resolution noise, and not slower anyway
        if now["ratio"] > factor * then["ratio"]:
            failures.append(
                f"{name}: normalized ratio {now['ratio']:.5f} exceeds "
                f"{factor}x baseline {then['ratio']:.5f}"
            )
    if failures:
        raise SystemExit("superpose benchmark regressions:\n  "
                         + "\n  ".join(failures))
    print(f"check passed: no case slower than {factor}x its recorded ratio")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("small", "full"), default="small")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(Path(__file__).parent
                                             / "BENCH_superpose.json"))
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a recorded baseline and fail "
                             "on >1.5x normalized regressions")
    args = parser.parse_args(argv)

    results = run_suite(args.scale, args.repeats)
    if args.check:
        check_against(args.check, args.scale, results)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = (json.loads(out.read_text())
               if out.exists()
               else {"script": "benchmarks/bench_superpose.py"})
    payload.setdefault("scales", {})[args.scale] = results
    payload["repeats"] = args.repeats
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
