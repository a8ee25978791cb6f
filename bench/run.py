"""Benchmark of the ``yamabe`` command line.

    python3 bench/run.py --workload scan-cert --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The package is not installed: every
operation runs against this checkout's ``src/``.

``--trace 0`` measures end to end.  Each operation is one fresh
``python -m yamabe_bifurcation.cli ...`` process, timed from spawn until it
has exited and all its output has been read; CPU time and max RSS come from
``os.wait4``.  Operations run one at a time from this process (a closed loop
with one client) until ``--seconds`` have passed.  Times are reported at
reference speed (see ``REFERENCE``).  The end-to-end metrics:

- ``op_p50_s``, ``op_tail_s``: median and 70th percentile of the operation
  wall times (``TAIL_PERCENTILE`` is fixed, so that commits compare the same
  percentile; the count of operations beyond it is printed beside it);
- ``ops_per_s``: operations per second of operation wall time;
- ``cpu_per_op_s``: median user+sys CPU time per operation;
- ``setup_s``: median time of a fresh interpreter that only imports
  ``yamabe_bifurcation.cli``, over ``SETUP_REPEATS`` runs;
- ``peak_rss_mb``: the largest max-RSS of any operation process.

Failed operations count in ``attempted`` and ``failed``; the printed
``op_fail_ratio`` is their ratio.

``--trace 1`` runs the first rounds of the same operation sequence in this
process through ``cli.main(argv)``, with spans recorded around each layer's
functions, and reports the per-layer metrics (see ``tracing.py``).

Every output is checked (see ``checks.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics named for the mode in ``BENCHMARK.json``.  The lines before it print
each metric with its unit, and the run's inputs, per-operation results and
spans are written to ``bench/runs/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
ROUNDS = 40          # pool length in rounds; more than any run gets through
TAIL_PERCENTILE = 70  # fixed so that commits compare the same percentile
SETUP_REPEATS = 5
SETUP = [sys.executable, "-c", "import yamabe_bifurcation.cli"]
# A fixed process that shares no code with the program: interpreter start,
# the numpy import and some Fraction arithmetic, the same kinds of work an
# operation does.  The machine's speed drifts by tens of percent within
# seconds, so every timed process runs right after one run of the reference
# and its times are reported at reference speed, that is, scaled so that
# the reference takes REFERENCE_WALL_S and REFERENCE_CPU_S (its medians on
# a 2-core x86-64 container with Python 3.11 and numpy).  The raw times
# are kept in results.json.
REFERENCE = [sys.executable, "-I", "-c",
             "import numpy\nfrom fractions import Fraction as F\n"
             "for i in range(1, 8000): F(i, 7) * F(3, i + 1) < F(1, 2)"]
REFERENCE_WALL_S = 0.15
REFERENCE_CPU_S = 0.15


def program_env() -> dict:
    """The caller's environment with this checkout's ``src/`` on the path and
    bytecode caching on, as after a normal install.  BLAS runs on one thread:
    the engine is single-threaded and the oracles' matrices are small, but
    the numpy import starts a BLAS worker per core, which made every
    process's time depend on whether another tenant held the second core."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: List[str]) -> dict:
    """Run one process to completion: wall seconds from spawn until exit with
    all output read, user+sys CPU seconds, max RSS in MB, exit code, stdout."""
    with open(os.devnull, "wb") as devnull:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=devnull,
                                env=program_env(), cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
        "out": out,
    }


def spawn_paired(argv: List[str]) -> dict:
    """``spawn(argv)`` right after one run of the reference process, with the
    wall and CPU times also given at reference speed (``*_ref_s``)."""
    ref = spawn(REFERENCE)
    if ref["code"] != 0:
        raise SystemExit("the reference process failed; is numpy installed?")
    result = spawn(argv)
    result["wall_ref_s"] = result["wall_s"] * REFERENCE_WALL_S / ref["wall_s"]
    result["cpu_ref_s"] = result["cpu_s"] * REFERENCE_CPU_S / ref["cpu_s"]
    return result


def cli_argv(op: workloads.Op) -> List[str]:
    return [sys.executable, "-m", "yamabe_bifurcation.cli", *op.argv]


def percentile(values: List[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: str, seed: int, seconds: float, run_dir: Path):
    ops = workloads.pool(workload, seed, ROUNDS)
    workloads.write_files(ops)
    expected = checks.load_expected()
    spawn(cli_argv(ops[0]))  # untimed warm-up: bytecode caches exist afterwards
    setup = [spawn_paired(SETUP) for _ in range(SETUP_REPEATS)]
    if any(r["code"] != 0 for r in setup):
        raise SystemExit("the CLI module does not import")

    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = ops[len(records) % len(ops)]
        records.append((op, spawn_paired(cli_argv(op))))

    results = []
    for index, (op, r) in enumerate(records):
        reason = checks.check_output(op, r["code"], r["out"]) or checks.check_digest(op, r["out"], expected)
        results.append({"index": index, "stratum": op.stratum, "argv": list(op.argv), "code": r["code"],
                        "bytes": len(r["out"]), "error": reason,
                        **{k: r[k] for k in ("wall_s", "cpu_s", "wall_ref_s", "cpu_ref_s", "rss_mb")}})
    walls = [r["wall_ref_s"] for r in results]
    failed = sum(1 for r in results if r["error"])
    metrics = {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": percentile(walls, TAIL_PERCENTILE),
        "ops_per_s": len(walls) / sum(walls),
        "cpu_per_op_s": statistics.median(r["cpu_ref_s"] for r in results),
        "setup_s": statistics.median(r["wall_ref_s"] for r in setup),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }
    raw = [r["wall_s"] for r in results]
    notes = {
        "operations": len(results),
        "op_tail_percentile": TAIL_PERCENTILE,
        "operations_beyond_tail": sum(1 for w in walls if w > metrics["op_tail_s"]),
        "op_fail_ratio": failed / len(results),
        "raw_op_p50_s": statistics.median(raw),
        "raw_op_tail_s": percentile(raw, TAIL_PERCENTILE),
        "raw_setup_s": statistics.median(r["wall_s"] for r in setup),
    }
    write_run(run_dir, ops, {"metrics": metrics, "notes": notes, "operations": results})
    return len(results), failed, metrics, notes


def write_run(run_dir: Path, ops: List[workloads.Op], results: dict) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = {
        "replay": "PYTHONPATH=src python3 -m yamabe_bifurcation.cli <argv>, from the checkout root",
        "spectra_dir": workloads.SPECTRA_DIR.as_posix(),
        "argv": [list(op.argv) for op in ops],
    }
    (run_dir / "inputs.json").write_text(json.dumps(inputs, indent=1) + "\n")
    (run_dir / "results.json").write_text(json.dumps(results, indent=1) + "\n")


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "yamabe_bifurcation" / "cli.py").is_file():
        print(f"no program source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    units = declared_metrics(bool(args.trace))
    run_dir = ROOT / "bench" / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import tracing
        attempted, failed, metrics, notes = tracing.traced_run(args.workload, args.seed, run_dir)
    else:
        attempted, failed, metrics, notes = end_to_end(args.workload, args.seed, args.seconds, run_dir)

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics declared in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in notes.items():
        print(f"  ({name} = {value})")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
