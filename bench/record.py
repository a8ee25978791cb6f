"""Record the expected output digest of every catalogue operation.

    python3 bench/record.py [WORKLOAD ...]

Runs each operation of the named workloads (default: all) once against this
checkout's ``src/``, requires its output to pass the structural checks, and
writes the SHA-256 of its output to ``bench/expected.json``.  Run it only
when the program's output is meant to change, and say so in the change.
It also prints the wall time of each stratum, for sizing the catalogue.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import checks
import workloads
from run import ROOT, cli_argv, spawn


def main(names) -> int:
    expected = checks.load_expected() if checks.EXPECTED_PATH.exists() else {}
    bad = 0
    for workload in names or sorted(workloads.WORKLOADS):
        for stratum, ops in workloads.catalogue(workload).items():
            workloads.write_files(ops)
            walls = []
            for op in ops:
                r = spawn(cli_argv(op))
                reason = checks.check_output(op, r["code"], r["out"])
                if reason:
                    bad += 1
                    print(f"FAIL {op.key}: {reason}", file=sys.stderr)
                    continue
                expected[op.key] = checks.digest(r["out"])
                walls.append(r["wall_s"])
            if walls:
                print(f"{workload:14s} {stratum:18s} n={len(walls):3d} "
                      f"min={min(walls):.2f} med={statistics.median(walls):.2f} max={max(walls):.2f} s")
    checks.EXPECTED_PATH.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main(sys.argv[1:]))
