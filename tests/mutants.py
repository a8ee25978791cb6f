"""Mutation check: every committed mutant of ``src/`` must fail a test.

    python tests/mutants.py

Run from anywhere, with pytest installed.  For each mutant of ``MUTANTS``,
in order, the script copies ``src/`` to a temporary
directory, replaces the mutant's text in its file there (the text must
occur exactly once), and runs the mutant's test files from this checkout
against the copy with ``pytest -x``.  A mutant is killed when pytest reports
a failed test (exit code 1).  The script exits 1 if any mutant survives,
breaks the run in another way (a collection error, or a run past
``TIMEOUT_S``, say), or names text that is missing or not unique.  Run it after the Tier-1 tests pass: a test that
fails on the unmutated source would kill every mutant that runs it.  pytest
does not collect this file, since its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "yamabe_bifurcation"
TIMEOUT_S = 120  # a mutant's tests take about 10 s; an endless loop is not a kill


class Mutant(NamedTuple):
    name: str
    file: str  # under src/yamabe_bifurcation/
    old: str  # must occur exactly once
    new: str
    tests: Tuple[str, ...]  # under tests/; run together, they must fail


MUTANTS = (
    Mutant("torus kmax one short at perfect squares", "spectra.py",
           "kmax = math.isqrt(cap.numerator // cap.denominator)",
           "kmax = math.isqrt(cap.numerator // cap.denominator - 1)",
           ("test_spectra.py",)),
    Mutant("a custom factor of dimension below 1 is accepted", "spectra.py",
           "if dim < 1:",
           "if False:",
           ("test_spectra.py",)),
    Mutant("a custom factor of non-integer dimension is truncated", "spectra.py",
           "if dim != int(dim):",
           "if False:",
           ("test_spectra.py",)),
    Mutant("the shared round constructor gives the interval the sphere's harmonic multiplicities", "spectra.py",
           "multiplicity = even_harmonic_multiplicity if half else harmonic_multiplicity",
           'multiplicity = even_harmonic_multiplicity if half and kind != "interval" else harmonic_multiplicity',
           ("test_spectra.py",)),
    Mutant("a repeated header key keeps its last value", "spectra.py",
           "            if key in header:\n",
           "            if False:\n",
           ("test_cli.py",)),
    Mutant("an infinite tolerance is accepted", "spectra.py",
           "if tol == math.inf:",
           "if False:",
           ("test_cli.py",)),
    Mutant("the line reader numbers lines from 0", "spectra.py",
           "for num, raw in enumerate(lines, start=1):",
           "for num, raw in enumerate(lines):",
           ("test_cli.py",)),
    Mutant("round-level isqrt argument one short", "spectra.py",
           "top = (math.isqrt((n - 1) ** 2 + 4 * cap) - (n - 1)) // 2",
           "top = (math.isqrt((n - 1) ** 2 + 4 * cap - 1) - (n - 1)) // 2",
           ("test_spectra.py",)),
    Mutant("boundary factor read to half its bound", "bifurcation.py",
           "t2 + (t1 * (s_max if sign1 > 0 else s_min) if sign1 else 0)",
           "(t2 + (t1 * (s_max if sign1 > 0 else s_min) if sign1 else 0)) / 2",
           ("test_bifurcation.py",)),
    Mutant("enumeration_bounds clamps a threshold with max(T, 0)", "bifurcation.py",
           "return (t1 + (t2 / (s_min if sign2 > 0 else s_max) if sign2 else 0),\n"
           "            t2 + (t1 * (s_max if sign1 > 0 else s_min) if sign1 else 0))",
           "return t1 + max(t2, 0) / s_min, t2 + s_max * max(t1, 0)",
           ("test_bifurcation.py",)),
    Mutant("enumeration_bounds adds a T2 within the tolerance of 0", "bifurcation.py",
           "t1 + (t2 / (s_min if sign2 > 0 else s_max) if sign2 else 0),",
           "t1 + t2 / (s_min if t2 > 0 else s_max),",
           ("test_cli.py",)),
    Mutant("index_jump one too high before the instant", "bifurcation.py",
           "return below + increasing, below + decreasing, increasing != decreasing",
           "return below + increasing + 1, below + decreasing, increasing != decreasing",
           ("test_bifurcation.py",)),
    Mutant("the search starts the index one too high", "bifurcation.py",
           "return instants, below + increasing",
           "return instants, below + increasing + 1",
           ("test_bifurcation.py",)),
    Mutant("the walk counts a vanishing branch as below", "bifurcation.py",
           "            if sign < 0:\n                below += m1 * m2\n",
           "            if sign <= 0:\n                below += m1 * m2\n",
           ("test_bifurcation.py",)),
    Mutant("critical indices judge a level by the relative close rule", "bifurcation.py",
           "signs = [sign for _, sign, _ in _column(",
           "signs = [0 if scalars.close(c + threshold, threshold, tol) else sign for c, sign, _ in _column(",
           ("test_cli.py",)),
    Mutant("as_scalar accepts a value with no finite float", "scalars.py",
           "if not math.isfinite(number):",
           "if False:",
           ("test_cli.py",)),
    Mutant("brute force reads the boundary factor to lam1 * s", "oracle.py",
           "levels2 = fam.factor2.eigenvalues_leq(max(lam2 for _, _, lam2 in points))",
           "levels2 = fam.factor2.eigenvalues_leq(max(lam1 * s for s, lam1, _ in points))",
           ("test_cli.py",)),
    Mutant("brute-force key > instead of >=", "oracle.py",
           "key=lambda b: a + b / s >= 0)",
           "key=lambda b: a + b / s > 0)",
           ("test_oracle.py",)),
    Mutant("brute force walking the boundary factor bisects the closed factor one level short", "oracle.py",
           "bisect_left(a_values, True, 0, n1, ",
           "bisect_left(a_values, True, 0, n1 - 1, ",
           ("test_oracle.py",)),
    Mutant("the oracles read raw float signs", "oracle.py",
           "return values if tol is None else [",
           "return values if True else [",
           ("test_cli.py",)),
    Mutant("the echelon count never raises", "oracle.py",
           'raise ArithmeticError(f"two columns have their lowest entry in row {lead}")',
           "pass",
           ("test_oracle.py",)),
    Mutant("exact rank stops one pivot short", "oracle.py",
           "if len(leads) == rows:",
           "if len(leads) == rows - 1:",
           ("test_oracle.py",)),
    Mutant("FD split takes floor for the even block and ceil for the odd", "oracle.py",
           "evens, odds = (count + 1) // 2, count // 2",
           "evens, odds = count // 2, (count + 1) // 2",
           ("test_oracle.py",)),
    Mutant("FD recursion gives the even half floor(count/2)", "oracle.py",
           "even = _mirror_eigenvalues(even_diag, half_off, evens)",
           "even = _mirror_eigenvalues(even_diag, half_off, count // 2)",
           ("test_oracle.py",)),
    Mutant("FD mirror split of an odd stencil", "oracle.py",
           "if rows < 4 or rows % 2:",
           "if rows < 4:",
           ("test_oracle.py",)),
    Mutant("dense scan without the window-end rule", "oracle.py",
           "    ends = [end for end in (0, last) for inv in (1.0 / point(end),)\n"
           "            if abs(a + b * inv) <= 1e-12 * (abs(a) + abs(b) * inv)]\n",
           "    ends = []\n",
           ("test_oracle.py",)),
    Mutant("no exact last grid point", "oracle.py",
           "return s_hi if i == samples - 1 else min(",
           "return min(",
           ("test_oracle.py",)),
    Mutant("no first count at the Gershgorin lower end", "oracle.py",
           "x = lowest + 0.5 * width if k == 0 else _midpoint(lo[k], hi[k])",
           "x = _midpoint(lo[k], hi[k])",
           ("test_oracle.py",)),
    Mutant("bisection without geometric midpoints", "oracle.py",
           "if 0 < 4 * lo < hi else",
           "if False else",
           ("test_oracle.py",)),
    Mutant("the count-only loop counts q <= 0", "oracle.py",
           "q = a - x - b2 / q\n        if q < pivmin:",
           "q = a - x - b2 / q\n        if q <= 0:",
           ("test_oracle.py",)),
    Mutant("a hemisphere's kernel count multiplies by C(n + 1, weight)", "oracle.py",
           "math.comb(free, weight)",
           "math.comb(n + 1, weight)",
           ("test_oracle.py",)),
    Mutant("dense scan without the all-zero run", "oracle.py",
           "run = range(0) if first else grid",
           "run = range(0)",
           ("test_oracle.py",)),
    Mutant("no guard count after the FD mirror split", "oracle.py",
           'raise ArithmeticError("the mirror blocks missed an eigenvalue of the stencil")',
           "pass",
           ("test_oracle.py",)),
    Mutant("verify checks no round factor past n = 4", "cli.py",
           "top = oracle.kernel_rank_degree_limit(spec.dim, top)",
           "top = top if spec.dim <= 4 else -1",
           ("test_cli.py",)),
    Mutant("the window's order is checked before converting", "cli.py",
           "if not (0 < window[0] < window[1]):",
           "if not (0 < scalars.as_exact(lo) < scalars.as_exact(hi)):",
           ("test_cli.py",)),
    Mutant("a repeated config key keeps its last value", "cli.py",
           "            if key in values:\n",
           "            if False:\n",
           ("test_cli.py",)),
    Mutant("no factor-count check", "cli.py",
           "if len(factors) != 2:",
           "if False:",
           ("test_cli.py",)),
    Mutant("the heap is frozen on every call of main", "cli.py",
           "if own_process:\n        # the collections during the run skip the import-time heap\n",
           "if True:\n",
           ("test_cli.py",)),
    Mutant("the heap is never frozen", "cli.py",
           "        gc.freeze()\n",
           "        pass\n",
           ("test_cli.py",)),
    Mutant("the own-process path skips the stdout flush", "cli.py",
           "sys.stdout.flush()  # os._exit flushes nothing",
           "pass",
           ("test_cli.py",)),
    Mutant("main ends the process when given a list", "cli.py",
           "    if not own_process:\n        return code\n",
           "",
           ("test_cli.py",)),
    Mutant("a failed stdout write is a traceback", "cli.py",
           "except (ConfigError, SpectrumFormatError, OSError) as exc:",
           "except (ConfigError, SpectrumFormatError) as exc:",
           ("test_cli.py",)),
    Mutant("no --format choice check", "cli.py",
           'if name == "format" and value not in (choices := flags[name][0][1:-1].split(",")):',
           "if False:",
           ("test_cli.py",)),
    Mutant("a flag of another command is accepted", "cli.py",
           'if not token.startswith("--") or name not in flags:',
           'if not token.startswith("--") or all(name not in table for _, table in _COMMANDS.values()):',
           ("test_cli.py",)),
)


def _pytest(copy: Path, tests) -> subprocess.CompletedProcess:
    """pytest on ``tests`` with the package imported from ``copy/src``; the
    working directory is ``copy``, so no cache or example database lands in
    the checkout."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            *(str(ROOT / "tests" / name) for name in tests)]
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def run_mutant(mutant: Mutant) -> str:
    """'killed', 'SURVIVED', or what else went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "src" / PACKAGE / mutant.file
        text = path.read_text()
        found = text.count(mutant.old)
        if found != 1:
            return f"BROKEN: the text occurs {found} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        where = subprocess.run([sys.executable, "-c", f"import {PACKAGE}; print({PACKAGE}.__file__)"],
                               cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                               capture_output=True, text=True)
        if not where.stdout.startswith(str(copy)):
            return f"BROKEN: the package is not imported from the copy: {where.stdout or where.stderr}"
        try:
            proc = _pytest(copy, mutant.tests)
        except subprocess.TimeoutExpired:
            return f"BROKEN: pytest ran past {TIMEOUT_S} s"
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"BROKEN: pytest exit code {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        verdict = run_mutant(mutant)
        bad += verdict != "killed"
        print(f"{verdict.split(':')[0]:9s} {mutant.name} ({mutant.file}; {', '.join(mutant.tests)})")
        if verdict not in ("killed", "SURVIVED"):
            print(verdict, file=sys.stderr)
    print(f"{bad} mutant(s) not killed" if bad else "every mutant killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
