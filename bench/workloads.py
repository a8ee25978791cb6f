"""The benchmark's three workloads, generated from a seed.

Each workload is a fixed catalogue of operations grouped into strata of
similar cost.  The catalogue does not depend on the seed, so the output of
every operation in it has a recorded digest (``expected.json``).  The seed
orders the variants of each stratum; each round runs one variant of every
stratum, so every prefix of a run holds the same mix of operation kinds and
the per-run medians do not depend on how many operations fit in the time.

An operation is the argv of one ``yamabe`` invocation plus what its output
checks need to know: the window and the signs of the two scalar curvatures.
Custom spectrum files are content-addressed under ``SPECTRA_DIR`` so that
their paths, which the CLI prints as labels, are the same in every run.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SPECTRA_DIR = Path("bench") / "runs" / "spectra"
VARIANTS = 24  # catalogue entries per stratum


@dataclass(frozen=True)
class Op:
    stratum: str
    argv: Tuple[str, ...]
    window: Optional[Tuple[Fraction, Fraction]] = None
    curvature_signs: Optional[Tuple[int, int]] = None  # signs of R1, R2
    tolerance: Optional[float] = None
    files: Dict[str, str] = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _pick_fraction(rng: random.Random, choices) -> Fraction:
    return Fraction(rng.choice(choices))


_ELLS = ["1", "2", "3/2", "2/3", "3/4", "4/3", "5/4", "1/2", "5/3", "3"]
_R2S = ["1", "2", "1/2", "3/2", "2/3", "3"]


def _sphere_r(n: int, r2: Fraction) -> Fraction:
    return Fraction(n * (n - 1)) / r2


def _threshold(r: Fraction, m: int) -> Fraction:
    return r / (m - 1)


def _round_flags(kind: str, n: int, r2: Fraction) -> List[str]:
    return [f"--{kind}", str(n), "--r2", str(r2)]


# ---------------------------------------------------------------- scan-cert

def _torus_hemi(rng: random.Random, dims: int, target: float) -> Op:
    """T^dims x S^k_+, window (s_min, s_max) with s_min set so that the torus
    enumeration bound, scaled by the torus volume, is near ``target``; this
    keeps the cost of the variants of one stratum close together."""
    ells = [_pick_fraction(rng, _ELLS) for _ in range(dims)]
    k = rng.choice([2, 3])
    r2 = _pick_fraction(rng, _R2S)
    t2 = _threshold(_sphere_r(k, r2), dims + k)
    volume = math.prod(float(e) for e in ells) ** 0.5
    x = target * rng.uniform(0.9, 1.1)
    # need1 = T2 / s_min;  need1 * volume^(2/dims) ~ x
    s_min = Fraction(1, max(2, math.floor(x / (float(t2) * volume ** (2 / dims)))))
    s_max = Fraction(rng.choice([1, 2, 3]))
    argv = ("scan", "--torus", ",".join(str(e) for e in ells),
            *_round_flags("hemisphere", k, r2),
            "--window", f"{str(s_min)}:{str(s_max)}", "--format", "json")
    return Op(f"torus{dims}-hemisphere", argv, (s_min, s_max), (0, 1))


def _sphere_hemi(rng: random.Random) -> Op:
    n = rng.choice([2, 3, 4, 5])
    k = rng.choice([2, 3, 4])
    r2a = _pick_fraction(rng, _R2S)
    r2b = _pick_fraction(rng, _R2S)
    s_min = Fraction(1, rng.choice([500, 1000, 2000]))
    s_max = Fraction(rng.choice([500, 1000, 2000]))
    argv = ("scan", *_round_flags("sphere", n, r2a), *_round_flags("hemisphere", k, r2b),
            "--window", f"{str(s_min)}:{str(s_max)}", "--format", "json")
    return Op("sphere-hemisphere", argv, (s_min, s_max), (1, 1))


def _sphere_interval(rng: random.Random) -> Op:
    n = rng.choice([2, 3, 4])
    r2 = _pick_fraction(rng, _R2S)
    lam = _pick_fraction(rng, ["1", "3/2", "2", "5/2", "3"])
    s_min = Fraction(1, 100)
    s_max = Fraction(rng.choice([200, 300, 400]))
    argv = ("scan", *_round_flags("sphere", n, r2), "--interval", str(lam),
            "--window", f"{str(s_min)}:{str(s_max)}", "--format", "json")
    return Op("sphere-interval", argv, (s_min, s_max), (1, 0))


_GAPS = [Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(2)]


def _custom_levels(rng: random.Random, lam_max: Fraction, avoid: Fraction) -> List[Tuple[Fraction, int]]:
    levels = [(Fraction(0), 1)]
    eig = Fraction(0)
    while True:
        eig += rng.choice(_GAPS)
        if eig > lam_max:
            return levels
        if eig != avoid:  # never let a level sit on the threshold (degenerate pair)
            levels.append((eig, rng.randint(1, 4)))


def _spectrum_file(dim, curvature, boundary, lam_max, levels, tolerance) -> Tuple[str, str]:
    """(path, text) of a custom spectrum file.  Values are written as p/q,
    or as Python floats when a tolerance selects floating mode."""
    show = str if tolerance is None else (lambda v: repr(float(v)))
    lines = [
        f"dim = {dim}",
        f"scalar_curvature = {show(curvature)}",
        f"has_boundary = {'true' if boundary else 'false'}",
        f"boundary_minimal = {'true' if boundary else 'false'}",
        f"lambda_max = {str(lam_max)}",
    ]
    if tolerance is not None:
        lines.append(f"tolerance = {tolerance!r}")
    lines += [f"eig {show(value)} {mult}" for value, mult in levels]
    text = "\n".join(lines) + "\n"
    path = SPECTRA_DIR / (hashlib.sha256(text.encode()).hexdigest()[:16] + ".spec")
    return path.as_posix(), text


def _custom_pair(rng: random.Random) -> Tuple[Op, Op]:
    """Random rational spectra for a closed factor and a minimal-boundary
    factor, written once exactly and once as floats with tolerance 1e-9.
    Levels step by thirds and halves, so distinct branch zeros stay far
    apart relative to the tolerance.  Curvatures are nonnegative: with
    R1 > 0 > R2 the constant-function branch (0, 0) has a zero, which the
    engine does not exclude and on which it crashes.  The window is derived
    from the thresholds and both completeness bounds: ``index_jump`` probes
    down to s/2 and up to 3s/2, so the factors must be complete up to
    T1 + 2*T2/s_min and T2 + 3/2*s_max*T1."""
    d1, d2 = rng.choice([2, 3]), rng.choice([2, 3])
    m = d1 + d2
    case = rng.choice(["both", "decreasing", "increasing"])
    t1 = Fraction(rng.randint(2, 10), 2) if case != "decreasing" else Fraction(0)
    t2 = Fraction(rng.randint(2, 10), 2) if case != "increasing" else Fraction(0)
    lam1 = Fraction(rng.randint(25, 50))
    lam2 = Fraction(rng.randint(25, 50))
    levels1 = _custom_levels(rng, lam1, t1)
    levels2 = _custom_levels(rng, lam2, t2)
    if t2 > 0:
        s_min = Fraction(1, math.floor((lam1 - t1) / (2 * t2) / Fraction(11, 10)))
    else:
        s_min = Fraction(1, 10)
    if t1 > 0:
        s_max = Fraction(math.floor((lam2 - t2) / (Fraction(3, 2) * t1) / Fraction(11, 10)))
    else:
        s_max = Fraction(10)
    r1, r2 = t1 * (m - 1), t2 * (m - 1)
    ops = []
    for stratum, tol in (("custom-exact", None), ("custom-float", 1e-9)):
        p1, text1 = _spectrum_file(d1, r1, False, lam1, levels1, tol)
        p2, text2 = _spectrum_file(d2, r2, True, lam2, levels2, tol)
        argv = ("scan", "--custom", p1, "--custom", p2,
                "--window", f"{str(s_min)}:{str(s_max)}", "--format", "json")
        ops.append(Op(stratum, argv, (s_min, s_max), (_sign(r1), _sign(r2)), tol, {p1: text1, p2: text2}))
    return ops[0], ops[1]


def _scan_cert_strata() -> Dict[str, List[Op]]:
    strata: Dict[str, List[Op]] = {}

    def add(op):
        strata.setdefault(op.stratum, []).append(op)

    for i in range(VARIANTS):
        add(_torus_hemi(random.Random(f"scan-cert/torus2/{i}"), 2, 34.0))
        add(_torus_hemi(random.Random(f"scan-cert/torus3/{i}"), 3, 9.5))
        add(_sphere_hemi(random.Random(f"scan-cert/sphere-hemisphere/{i}")))
        add(_sphere_interval(random.Random(f"scan-cert/sphere-interval/{i}")))
        for op in _custom_pair(random.Random(f"scan-cert/custom/{i}")):
            add(op)
    return strata


# ------------------------------------------------------------ spectrum-enum

def _spectrum_enum_strata() -> Dict[str, List[Op]]:
    strata: Dict[str, List[Op]] = {"torus3": [], "torus2": [], "hemisphere": []}
    for i in range(VARIANTS):
        rng = random.Random(f"spectrum-enum/torus3/{i}")
        ells = [_pick_fraction(rng, _ELLS) for _ in range(3)]
        volume = math.prod(float(e) for e in ells) ** 0.5
        below = round(180 * rng.uniform(0.9, 1.1) / volume ** (2 / 3))
        strata["torus3"].append(Op("torus3", (
            "spectrum", "--torus", ",".join(str(e) for e in ells),
            "--below", str(below), "--format", "json")))

        rng = random.Random(f"spectrum-enum/torus2/{i}")
        ells = [_pick_fraction(rng, _ELLS) for _ in range(2)]
        volume = math.prod(float(e) for e in ells) ** 0.5
        below = round(4000 * rng.uniform(0.9, 1.1) / volume)
        strata["torus2"].append(Op("torus2", (
            "spectrum", "--torus", ",".join(str(e) for e in ells),
            "--below", str(below), "--format", "json")))

        rng = random.Random(f"spectrum-enum/hemisphere/{i}")
        n = rng.randint(2, 6)
        r2 = _pick_fraction(rng, _R2S)
        below = rng.choice([200000, 400000, 700000, 1000000])
        strata["hemisphere"].append(Op("hemisphere", (
            "spectrum", *_round_flags("hemisphere", n, r2),
            "--below", str(below), "--format", "json")))
    return strata


# ------------------------------------------------------------ verify-oracle

# verify's dense-scan oracle misses an instant that sits exactly on a window
# end and then reports a failed check, so these windows end at points no
# instant of these families can reach.
_OFF_INSTANT = Fraction(1001, 1000)


def _verify_window(s_min: Fraction, s_max: Fraction) -> str:
    return f"{str(s_min * _OFF_INSTANT)}:{str(s_max * _OFF_INSTANT)}"


def _verify_strata() -> Dict[str, List[Op]]:
    strata: Dict[str, List[Op]] = {"sphere-hemisphere": [], "sphere-interval": [], "torus-hemisphere": []}
    for i in range(VARIANTS):
        rng = random.Random(f"verify-oracle/sphere-hemisphere/{i}")
        n, k = rng.choice([2, 3]), rng.choice([2, 3])
        window = _verify_window(Fraction(1, rng.choice([100, 150, 200])), Fraction(rng.choice([50, 100, 150])))
        strata["sphere-hemisphere"].append(Op("sphere-hemisphere", (
            "verify", *_round_flags("sphere", n, _pick_fraction(rng, _R2S)),
            *_round_flags("hemisphere", k, _pick_fraction(rng, _R2S)), "--window", window)))

        rng = random.Random(f"verify-oracle/sphere-interval/{i}")
        n = rng.choice([2, 3])
        lam = _pick_fraction(rng, ["1", "3/2", "2", "5/2", "3"])
        window = _verify_window(Fraction(1, 100), Fraction(rng.choice([50, 100, 150])))
        strata["sphere-interval"].append(Op("sphere-interval", (
            "verify", *_round_flags("sphere", n, _pick_fraction(rng, _R2S)), "--interval", str(lam),
            "--window", window)))

        rng = random.Random(f"verify-oracle/torus-hemisphere/{i}")
        ells = [_pick_fraction(rng, _ELLS) for _ in range(2)]
        k = rng.choice([2, 3])
        r2 = _pick_fraction(rng, _R2S)
        t2 = _threshold(_sphere_r(k, r2), 2 + k)
        volume = math.prod(float(e) for e in ells) ** 0.5
        s_min = Fraction(1, max(2, math.floor(50 * rng.uniform(0.9, 1.1) / (float(t2) * volume))))
        strata["torus-hemisphere"].append(Op("torus-hemisphere", (
            "verify", "--torus", ",".join(str(e) for e in ells), *_round_flags("hemisphere", k, r2),
            "--window", _verify_window(s_min, Fraction(1)))))
    return strata


WORKLOADS = {
    "scan-cert": _scan_cert_strata,
    "spectrum-enum": _spectrum_enum_strata,
    "verify-oracle": _verify_strata,
}


def catalogue(workload: str) -> Dict[str, List[Op]]:
    """Every operation the workload can run, by stratum."""
    return WORKLOADS[workload]()


def pool(workload: str, seed: int, rounds: int) -> List[Op]:
    """The seed's operation sequence: the seed shuffles the variants of each
    stratum, and round r takes the r-th variant of every stratum, strata in
    catalogue order.  A run sees no variant twice before it has seen them all."""
    rng = random.Random(seed)
    orders = [rng.sample(variants, len(variants)) for variants in catalogue(workload).values()]
    return [order[r % len(order)] for r in range(rounds) for order in orders]


def write_files(ops: List[Op]) -> None:
    """Write the custom spectrum files the operations name."""
    for op in ops:
        for path, text in op.files.items():
            target = Path(path)
            if not target.exists() or target.read_text() != text:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text)
