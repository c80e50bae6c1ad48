"""Record output fingerprints at the recorded seed into fingerprints.json.

    python3 perfbench/record.py [WORKLOAD ...]

Run it from the root of a source checkout, only when a change to the
program is meant to change its outputs; the diff of ``fingerprints.json``
then shows which outputs moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    from harness import FINGERPRINTS, RECORDED_SEED, Ledger
    from workloads import WORKLOADS

    data = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    for name in argv or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        inputs = workload.setup(RECORDED_SEED)
        ledger = Ledger()
        out = workload.run_pass(inputs, ledger)
        workload.invariants(inputs, out, ledger)
        if ledger.failed:
            print(f"{name}: not recorded: {ledger.problems}", file=sys.stderr)
            return 1
        data[name] = workload.fingerprints(out)
        print(f"{name}: {len(data[name])} fingerprints")
    FINGERPRINTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
