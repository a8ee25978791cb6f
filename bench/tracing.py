"""Traced run: per-layer metrics from spans recorded around each layer.

The first ``TRACE_ROUNDS`` rounds of the workload's operation sequence run
in this process through ``cli.main(argv)``.  Each operation runs twice, once
with the wrappers off and once with them on, so that ``trace.overhead_ratio``
compares the same work.  The wrappers replace the public functions of the
``bifurcation`` and ``oracle`` modules and ``cli.main`` by their module
attribute, so the engine's internal calls go through them too, and the
``FactorSpectrum`` methods ``eigenvalues_leq``, ``eigenvalues_below`` and
``level``.  Each call is kept in memory as a span
``[name, start, end, parent, op, size, error]`` (``size`` is the length of a
returned list or tuple, ``error`` whether it raised) and the spans are
written out at the end.  A span's self time is its duration minus the time
its child spans cover.

Two further passes give the set-up and cost-unit metrics: ``python -X
importtime`` for the import time of numpy, scipy and the package, and a
``cProfile`` pass over the same operations that counts the Python-level calls
into the ``fractions`` module, which repeats exactly.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import io
import json
import os
import pstats
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Dict, List

import checks
import workloads
from run import SRC, program_env, write_run

TRACE_ROUNDS = 3
IMPORTTIME_REPEATS = 3
SPECTRUM_METHODS = ("eigenvalues_leq", "eigenvalues_below", "level")

sys.path.insert(0, str(SRC))
os.environ.update(program_env())  # one BLAS thread, as in the timed processes
from yamabe_bifurcation import bifurcation, cli, oracle, spectra  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op, -1, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if isinstance(result, (list, tuple)):
                span[5] = len(result)
            return result
        return traced


def _targets():
    """(owner, attribute, span name) for every wrapped callable."""
    out = []
    for module in (bifurcation, oracle):
        layer = module.__name__.rsplit(".", 1)[1]
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                out.append((module, name, f"{layer}.{name}"))
    out.append((cli, "main", "cli.main"))
    out += [(spectra.FactorSpectrum, name, f"spectra.{name}") for name in SPECTRUM_METHODS]
    return out


def _install(tracer: Tracer):
    originals = []
    for owner, attr, span_name in _targets():
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(span_name, fn))
    return originals


def _restore(originals) -> None:
    for owner, attr, fn in originals:
        setattr(owner, attr, fn)


def run_inprocess(op: workloads.Op):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            print(f"{op.key}: {exc!r}", file=sys.__stderr__)
            code = -1
    return code, out.getvalue().encode()


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    errors: Dict[str, int] = {}
    size: Dict[str, int] = {}
    instants = 0
    for index, (name, start, end, parent, _op, n, error) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[index])
        errors[name] = errors.get(name, 0) + error
        size[name] = size.get(name, 0) + max(n, 0)
        # instants found, as opposed to the re-enumerations index_jump makes
        if name == "bifurcation.degeneracy_instants" and (parent < 0 or spans[parent][0] != "bifurcation.index_jump"):
            instants += max(n, 0)
    recounts = calls.get("bifurcation.degeneracy_instants", 0) + calls.get("bifurcation.morse_index", 0)
    metrics = {
        "spectra.eigenvalues_leq.calls": calls.get("spectra.eigenvalues_leq", 0),
        "spectra.eigenvalues_leq.self_s": self_s.get("spectra.eigenvalues_leq", 0.0),
        "spectra.level.calls": calls.get("spectra.level", 0),
        "spectra.level.self_s": self_s.get("spectra.level", 0.0),
        "spectra.levels_returned": size.get("spectra.eigenvalues_leq", 0),
        "bifurcation.classify_family.self_s": self_s.get("bifurcation.classify_family", 0.0),
        "bifurcation.morse_index.errors": errors.get("bifurcation.morse_index", 0),
        "bifurcation.instants": instants,
        "bifurcation.recounts_per_instant": recounts / instants if instants else 0.0,
        "oracle.kernel_rank.self_s": self_s.get("oracle.harmonic_dimension", 0.0)
        + self_s.get("oracle.even_harmonic_dimension", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }
    for name in ("bifurcation.index_jump", "bifurcation.degeneracy_instants", "bifurcation.morse_index",
                 "oracle.brute_force_index"):
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("oracle.dense_scan_degeneracy", "oracle.fd_interval_spectrum"):
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    return metrics


def import_metrics() -> Dict[str, float]:
    """Median over fresh interpreters of the summed self import time of each
    package's own modules, from ``python -X importtime``."""
    samples: Dict[str, List[float]] = {"numpy": [], "scipy": [], "yamabe_bifurcation": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import yamabe_bifurcation.cli"],
                              capture_output=True, text=True, env=program_env(), check=True)
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _cumulative, module = line[len("import time:"):].split("|")
            top = module.strip().split(".", 1)[0]
            if top in totals and self_us.strip().isdigit():
                totals[top] += int(self_us) / 1e6
        for name, value in totals.items():
            samples[name].append(value)
    return {f"import.{name}_s": statistics.median(values) for name, values in samples.items()}


def fraction_calls(ops: List[workloads.Op]) -> int:
    profiler = cProfile.Profile()
    profiler.enable()
    for op in ops:
        run_inprocess(op)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    return sum(nc for (filename, _, _), (_, nc, *_rest) in stats.items() if filename.endswith("fractions.py"))


def traced_run(workload: str, seed: int, run_dir: Path):
    ops = workloads.pool(workload, seed, TRACE_ROUNDS)
    workloads.write_files(ops)
    expected = checks.load_expected()

    for op in ops:  # untimed warm-up: the first numpy/LAPACK calls pay one-off costs
        run_inprocess(op)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    results = []
    for index, op in enumerate(ops):
        start = time.perf_counter()
        run_inprocess(op)
        plain_s += time.perf_counter() - start
        tracer.op = index
        originals = _install(tracer)
        try:
            start = time.perf_counter()
            code, out = run_inprocess(op)
            traced_s += time.perf_counter() - start
        finally:
            _restore(originals)
        reason = checks.check_output(op, code, out) or checks.check_digest(op, out, expected)
        results.append({"index": index, "stratum": op.stratum, "argv": list(op.argv), "code": code,
                        "bytes": len(out), "error": reason})

    metrics = layer_metrics(tracer.spans)
    metrics["cli.output_bytes"] = sum(r["bytes"] for r in results)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    metrics.update(import_metrics())
    metrics["fractions.calls"] = fraction_calls(ops)
    failed = sum(1 for r in results if r["error"])
    notes = {"operations": len(ops), "spans": len(tracer.spans), "untraced_s": plain_s, "traced_s": traced_s}
    write_run(run_dir, ops, {"metrics": metrics, "notes": notes, "operations": results})
    (run_dir / "spans.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "op", "size", "error"], "spans": tracer.spans}))
    return len(ops), failed, metrics, notes
