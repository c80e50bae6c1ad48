"""Run every workload plain and traced; print every metric with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [WORKLOAD ...]

Run it from the root of a source checkout.  For each workload it runs
``run.py --trace 0`` (end-to-end metrics) and ``run.py --trace 1``
(per-layer metrics) in fresh processes, prints each metric by name with
its unit, the operations attempted and failed, and the per-layer table:
each layer's self time and its share of the plain run's ``run_s``.  The
exit code is 1 if any run's outputs failed their checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    names = [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from tracing import LAYERS

    all_correct = True
    for workload in args.workloads:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        print(f"== {workload} (seed {args.seed})")
        for label, result in (("end to end", plain), ("per layer", traced)):
            all_correct &= result["correct"]
            print(f"-- {label}: correct {result['correct']}, attempted "
                  f"{result['attempted']}, failed {result['failed']}, "
                  f"fail_ratio {result['failed'] / result['attempted']:g}")
            for name, m in result["metrics"].items():
                print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
        run_s = plain["metrics"]["run_s"]["value"]
        print(f"-- layer self time as a share of run_s = {run_s:.3f} s")
        for layer in LAYERS:
            own = traced["metrics"][f"{layer}.self_s"]["value"]
            print(f"{layer:34s} {own:>10.4f} s {own / run_s:>8.1%}")
        print()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
