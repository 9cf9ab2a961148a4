"""Regenerate ``fingerprints.json`` from the current program.

Run from the root of a checkout::

    python3 perfbench/pin.py

Runs every operation of every workload once, untraced, and writes
each one's fingerprint.  Pin only from a commit whose simulated
results are known good: the benchmark's correctness check is equality
with these values.  Nothing is written if any other check fails (a
scale cell with an idle rank).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402


def main() -> int:
    sim = bench._Sim()
    pins = {}
    for workload in bench.WORKLOADS.values():
        for op in workload.ops:
            machine = None
            if isinstance(op, bench.Cell):
                res, machine = sim.run_cell(op)
            else:
                res = sim.run_exploration(op)
            # every check but the fingerprint itself
            bench.check(res, op, {res.key: res.fingerprint}, machine)
            if not res.ok:
                print(f"{op.key}: {res.error}; nothing pinned", file=sys.stderr)
                return 1
            pins[res.key] = res.fingerprint
            print(f"{res.key}: {res.fingerprint}", flush=True)
    with open(bench.FINGERPRINTS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
