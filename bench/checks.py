"""Output checks: a faster wrong answer counts as a failed operation.

Every operation must exit 0 and print parseable output whose structure
holds (``check_output``), and its bytes must hash to the digest recorded for
it in ``expected.json`` (``check_digest``).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional

from workloads import Op

EXPECTED_PATH = Path(__file__).with_name("expected.json")

_CASE_BY_SIGNS = {
    (True, True): "BothPositive",
    (False, False): "RigidNonPositive",
    (False, True): "DecreasingToZero",
    (True, False): "IncreasingUnbounded",
}


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def load_expected() -> Dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


def _check_scan(op: Op, payload) -> Optional[str]:
    r1, r2 = op.curvature_signs
    want = _CASE_BY_SIGNS[(r1 > 0, r2 > 0)]
    if payload["classification"] != want:
        return f"classification {payload['classification']}, sign rule gives {want}"
    lo, hi = op.window
    slack = Fraction(0) if op.tolerance is None else Fraction(op.tolerance)
    lo, hi = lo * (1 - slack), hi * (1 + slack)
    instants = payload["instants"]
    values = [Fraction(inst["s"]) for inst in instants]
    if any(not lo <= s <= hi for s in values):
        return "instant outside the window"
    if any(a >= b for a, b in zip(values, values[1:])):
        return "instants not strictly ascending"
    for inst in instants:
        if inst["certified"] != (inst["n_minus"] != inst["n_plus"]):
            return f"certified flag wrong at s = {inst['s']}"
    for left, right in zip(instants, instants[1:]):
        if left["n_plus"] != right["n_minus"]:
            return f"n_plus at s = {left['s']} differs from n_minus at s = {right['s']}"
    return None


def _check_spectrum(payload) -> Optional[str]:
    rows = payload["eigenvalues"]
    if not rows or Fraction(rows[0]["value"]) != 0 or rows[0]["multiplicity"] != 1:
        return "spectrum does not start with eigenvalue 0 of multiplicity 1"
    values = [Fraction(row["value"]) for row in rows]
    if any(a >= b for a, b in zip(values, values[1:])):
        return "levels not strictly ascending"
    return None


def check_output(op: Op, code: int, out: bytes) -> Optional[str]:
    """The reason the output is wrong, or None when every check holds."""
    if code != 0:
        return f"exit code {code}"
    command = op.argv[0]
    if command == "verify":
        lines = out.decode().splitlines()
        return None if lines and lines[-1] == "all checks passed" else "verify did not pass"
    try:
        payload = json.loads(out)
        return _check_scan(op, payload) if command == "scan" else _check_spectrum(payload)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc!r}"


def check_digest(op: Op, out: bytes, expected: Dict[str, str]) -> Optional[str]:
    want = expected.get(op.key)
    if want is None:
        return "no recorded digest for this operation"
    if digest(out) != want:
        return "output differs from the recorded digest"
    return None
