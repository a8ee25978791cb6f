"""Command-line front end: spectrum, scan, branches, verify.

Exit codes: 0 success, 1 verification/engine failure, 2 degenerate pair
(index-jump certification inapplicable), 3 configuration error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from . import bifurcation, product, scalars, spectra
from .errors import (
    ConfigError,
    DegeneratePairError,
    IncompleteSpectrumError,
    SpectrumFormatError,
    YamabeError,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_DEGENERATE = 2
EXIT_CONFIG = 3

_FACTOR_FLAGS = ("sphere", "hemisphere", "interval", "torus", "custom", "r2")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise ConfigError(message)


class _FactorArg(argparse.Action):
    """Collects factor flags in command-line order so that two factors can be
    described by repeating/mixing --sphere/--interval/... flags."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, "factor_args", None) or []
        items.append((option_string.lstrip("-"), values))
        namespace.factor_args = items


def _add_factor_flags(p: _Parser) -> None:
    p.add_argument("--sphere", action=_FactorArg, metavar="N", help="round sphere S^N")
    p.add_argument("--hemisphere", action=_FactorArg, metavar="N", help="closed hemisphere of S^N (Neumann)")
    p.add_argument("--r2", action=_FactorArg, metavar="Q", help="radius squared for the preceding sphere/hemisphere (default 1)")
    p.add_argument("--interval", action=_FactorArg, metavar="LAMBDA", help="segment [0, pi*LAMBDA] (Neumann)")
    p.add_argument("--torus", action=_FactorArg, metavar="L2,L2,...", help="flat torus; entries are L_i^2/(4 pi^2), rational")
    p.add_argument("--custom", action=_FactorArg, metavar="PATH", help="custom spectrum file")


def _add_common_flags(p: _Parser) -> None:
    _add_factor_flags(p)
    p.add_argument("--config", metavar="PATH", help="config file; flags win on conflict")
    p.add_argument("--window", metavar="MIN:MAX")
    p.add_argument("--lambda-max", dest="lambda_max", metavar="Q")
    p.add_argument("--format", dest="fmt", choices=["json", "csv", "text"])
    p.add_argument("--out", metavar="PATH")


def build_parser() -> _Parser:
    p = _Parser(prog="yamabe", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="print a factor's eigenvalue table")
    _add_common_flags(sp)
    sp.add_argument("--below", metavar="Q", help="eigenvalue cutoff (strict)")

    sc = sub.add_parser("scan", help="classify a family and certify its degeneracy instants")
    _add_common_flags(sc)

    br = sub.add_parser("branches", help="emit sampled branch curves as CSV plot data")
    _add_common_flags(br)
    br.add_argument("--samples", type=int, help="points per curve (default 200)")
    br.add_argument("--limit", type=int, help="zeroless branches to include (default 4)")

    ve = sub.add_parser("verify", help="run the oracle suite against the engine")
    _add_common_flags(ve)
    ve.add_argument("--samples", type=int, help="dense-scan grid size (default 20000)")
    return p


_CONFIG_KEYS = {
    "factor1", "factor2", "window", "lambda_max",
    "format", "out", "below", "samples", "limit",
}


def _read_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(str(exc))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})")
    values = {}
    for num, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{num}: bad config line {line!r}")
        values[key] = value.strip()
    return values


def _parse_factor_tokens(tokens: List[Tuple[str, str]]) -> List[spectra.FactorSpectrum]:
    """Turn the ordered flag stream into factor spectra, attaching each --r2
    to the sphere/hemisphere that precedes it."""
    out = []
    pending = None  # ("sphere"|"hemisphere", n)

    def flush():
        nonlocal pending
        if pending is not None:
            kind, n = pending
            out.append(_make_round(kind, n, "1"))
            pending = None

    for flag, value in tokens:
        if flag == "r2":
            if pending is None:
                raise ConfigError("--r2 must follow --sphere or --hemisphere")
            kind, n = pending
            out.append(_make_round(kind, n, value))
            pending = None
        elif flag in ("sphere", "hemisphere"):
            flush()
            try:
                pending = (flag, int(value))
            except ValueError:
                raise ConfigError(f"--{flag} expects an integer dimension, got {value!r}")
        elif flag == "interval":
            flush()
            out.append(_wrap(spectra.interval_neumann, value))
        elif flag == "torus":
            flush()
            out.append(_wrap(spectra.flat_torus, value.split(",")))
        elif flag == "custom":
            flush()
            try:
                out.append(spectra.custom_from_file(value))
            except OSError as exc:
                raise ConfigError(str(exc))
        else:
            raise ConfigError(f"unknown factor flag --{flag}")
    flush()
    return out


def _make_round(kind, n, r2):
    ctor = spectra.round_sphere if kind == "sphere" else spectra.hemisphere_neumann
    return _wrap(ctor, n, r2)


def _wrap(ctor, *args):
    try:
        return ctor(*args)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ConfigError(str(exc))


def _factor_config_tokens(text: str) -> List[Tuple[str, str]]:
    # config value like "sphere 2 r2 1" or "torus 1,1" or "custom path"
    words = text.split()
    tokens = []
    it = iter(words)
    for word in it:
        if word not in _FACTOR_FLAGS:
            raise ConfigError(f"bad factor description {text!r}")
        try:
            tokens.append((word, next(it)))
        except StopIteration:
            raise ConfigError(f"factor description {text!r} is missing a value")
    return tokens


def _gather_factors(args, config) -> List[spectra.FactorSpectrum]:
    tokens = getattr(args, "factor_args", None)
    if tokens:
        return _parse_factor_tokens(tokens)
    tokens = []
    for key in ("factor1", "factor2"):
        if key in config:
            tokens.extend(_factor_config_tokens(config[key]))
    if not tokens:
        raise ConfigError("no factors specified")
    return _parse_factor_tokens(tokens)


def _setting(args, config, key, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return config.get(key, default)


def _number_setting(args, config, key, parse, least, default):
    """Setting ``key`` read by ``parse`` (``default`` when unset), at least ``least``."""
    value = _setting(args, config, key, default)
    if value is None:
        return None
    try:
        number = parse(value)
    except (ValueError, ZeroDivisionError, TypeError):
        raise ConfigError(f"bad {key} {value!r}")
    if number < least:
        raise ConfigError(f"{key} must be at least {least}, got {value!r}")
    return number


def _parse_window(text) -> Tuple[Fraction, Fraction]:
    if text is None:
        raise ConfigError("missing --window MIN:MAX")
    lo, sep, hi = str(text).partition(":")
    if not sep:
        raise ConfigError(f"bad window {text!r}, expected MIN:MAX")
    try:
        window = (scalars.as_exact(lo.strip()), scalars.as_exact(hi.strip()))
    except (ValueError, ZeroDivisionError, TypeError):
        raise ConfigError(f"bad window {text!r}")
    if not (0 < window[0] < window[1]):
        raise ConfigError("window must satisfy 0 < MIN < MAX")
    return window


def _family(args, config) -> product.ProductFamily:
    factors = _gather_factors(args, config)
    if len(factors) != 2:
        raise ConfigError(f"a family needs exactly two factors, got {len(factors)}")
    try:
        return product.make_family(factors[0], factors[1])
    except YamabeError as exc:
        raise ConfigError(str(exc))


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(str(exc))
    else:
        sys.stdout.write(text)


def _mode_of(fam_or_spec) -> str:
    return "exact" if fam_or_spec.tolerance is None else "float"


def cmd_spectrum(args, config) -> int:
    factors = _gather_factors(args, config)
    if len(factors) != 1:
        raise ConfigError("spectrum expects exactly one factor")
    spec = factors[0]
    bound = _number_setting(args, config, "below", lambda text: scalars.as_scalar(text, spec.tolerance), 0, None)
    if bound is None:
        raise ConfigError("missing --below Q")
    rows = spec.eigenvalues_below(bound)
    tol = spec.tolerance
    fmt = _setting(args, config, "fmt", config.get("format", "text"))
    if fmt == "json":
        payload = {
            "label": spec.label,
            "dim": spec.dim,
            "scalar_curvature": scalars.fmt(spec.scalar_curvature, tol),
            "has_boundary": spec.has_boundary,
            "boundary_minimal": spec.boundary_minimal,
            "mode": _mode_of(spec),
            "below": scalars.fmt(bound, tol),
            "eigenvalues": [
                {"value": scalars.fmt(e, tol), "multiplicity": m} for e, m in rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"factor: {spec.label}",
            f"dim = {spec.dim}  R = {scalars.fmt(spec.scalar_curvature, tol)}  "
            f"boundary = {str(spec.has_boundary).lower()}  "
            f"minimal = {str(spec.boundary_minimal).lower()}  mode = {_mode_of(spec)}",
            f"eigenvalues below {scalars.fmt(bound, tol)}:",
        ]
        lines += [f"  {scalars.fmt(e, tol)}  x{m}" for e, m in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, _setting(args, config, "out"))
    return EXIT_OK


def _scan_payload(fam, result, lam) -> dict:
    tol = fam.tolerance
    return {
        "family": fam.label,
        "classification": result.case.value,
        "accumulation": result.accumulation,
        "window": [scalars.fmt(result.window[0], tol), scalars.fmt(result.window[1], tol)],
        "instants": [
            {
                "s": scalars.fmt(ci.instant.s, tol),
                "branches": [[br.i, br.j] for br in ci.instant.branches],
                "multiplicity": ci.instant.total_multiplicity,
                "n_minus": ci.n_minus,
                "n_plus": ci.n_plus,
                "certified": ci.certified,
                "side": ci.side,
            }
            for ci in result.instants
        ],
        "lambda_max": None if lam is None else scalars.fmt(lam, tol),
        "mode": _mode_of(fam),
    }


def _scan_text(payload) -> str:
    lines = [
        f"family: {payload['family']}",
        f"classification: {payload['classification']}",
        f"accumulation: {payload['accumulation']}",
        f"window: [{payload['window'][0]}, {payload['window'][1]}]  "
        f"lambda_max: {payload['lambda_max']}  mode: {payload['mode']}",
        f"instants ({len(payload['instants'])}):",
    ]
    for inst in payload["instants"]:
        branches = " ".join(f"({i},{j})" for i, j in inst["branches"])
        lines.append(
            f"  s = {inst['s']}  branches = {branches}  mult = {inst['multiplicity']}  "
            f"n- = {inst['n_minus']}  n+ = {inst['n_plus']}  "
            f"certified = {'yes' if inst['certified'] else 'no'}  side = {inst['side']}"
        )
    return "\n".join(lines) + "\n"


def cmd_scan(args, config) -> int:
    fam = _family(args, config)
    window = _parse_window(_setting(args, config, "window"))
    lam = _number_setting(args, config, "lambda_max", fam.coerce, 0, None)
    result = bifurcation.classify_family(fam, window, lam)
    payload = _scan_payload(fam, result, lam)
    fmt = _setting(args, config, "fmt", config.get("format", "text"))
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        import csv  # only the CSV writers need it
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["s", "branches", "multiplicity", "n_minus", "n_plus", "certified", "side"])
        for inst in payload["instants"]:
            writer.writerow([
                inst["s"],
                ";".join(f"{i}:{j}" for i, j in inst["branches"]),
                inst["multiplicity"], inst["n_minus"], inst["n_plus"],
                inst["certified"], inst["side"],
            ])
        text = buf.getvalue()
    else:
        text = _scan_text(payload)
    _emit(text, _setting(args, config, "out"))
    if result.case is bifurcation.FamilyCase.DEGENERATE_PAIR:
        print("degenerate pair -- index-jump certification inapplicable", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_branches(args, config) -> int:
    fam = _family(args, config)
    window = _parse_window(_setting(args, config, "window"))
    samples = _number_setting(args, config, "samples", int, 2, 200)
    limit = _number_setting(args, config, "limit", int, 0, 4)
    lam = _number_setting(args, config, "lambda_max", fam.coerce, 0, None)

    # a branch has at most one zero, so it belongs to at most one instant
    branches = [br for inst in bifurcation.degeneracy_instants(fam, window, lam) for br in inst.branches]
    branches.extend(_zeroless_branches(fam, limit))
    branches.sort(key=lambda br: (br.i, br.j))

    lo, hi = float(window[0]), float(window[1])
    step = (hi - lo) / (samples - 1)
    import csv
    buf = io.StringIO()
    for br in branches:
        buf.write(
            f"# sigma_{br.i}_{br.j}: i={br.i} j={br.j} "
            f"mult={br.multiplicity} monotonicity={br.monotonicity.value}\n"
        )
    writer = csv.writer(buf)
    writer.writerow(["s"] + [f"sigma_{br.i}_{br.j}" for br in branches])
    for k in range(samples):
        s = lo + k * step
        writer.writerow(["%.17g" % s] + ["%.17g" % (float(br.a) + float(br.b) / s) for br in branches])
    _emit(buf.getvalue(), _setting(args, config, "out"))
    return EXIT_OK


def _zeroless_branches(fam, count) -> List[bifurcation.EigenBranch]:
    """The first ``count`` zeroless branches in (i + j, i) order, skipping pairs
    beyond a factor's listed levels.  A branch has no zero exactly when i, j
    <= i*, j* or i, j >= i*, j*, so they lie on the diagonals up to i* + j* + count."""
    ci = bifurcation.critical_indices(fam)
    found = []
    for d in range(1, ci.i_star + ci.j_star + count + 1):
        for i in range(d + 1):
            if len(found) == count:
                return found
            try:
                br = bifurcation.branch_from_indices(fam, i, d - i)
            except IncompleteSpectrumError:
                continue
            if bifurcation.branch_zero(br) is None:
                found.append(br)
    return found


def _verify_checks(fam, window, lam, samples):
    """Yield (name, passed, detail) for each oracle/engine comparison;
    ``passed`` is None for a check that no oracle covers."""
    from . import oracle  # numpy is needed by verify alone

    for idx, spec in ((1, fam.factor1), (2, fam.factor2)):
        name = f"factor{idx} {spec.label}"
        if spec.kind == "interval":
            # recover lambda from the first nonzero eigenvalue 1/lambda^2
            lam_param = math.sqrt(1.0 / float(spec.level(1)[0]))
            grid = oracle.fd_interval_spectrum(lam_param, 2000, 10)
            worst = 0.0
            for k in range(10):
                exact = float(spec.level(k)[0])
                approx = grid.eigenvalues[k]
                err = abs(approx - exact) / max(exact, 1e-12) if exact else abs(approx)
                worst = max(worst, err)
            yield (f"{name}: FD Neumann spectrum", worst < 1e-3, f"max rel err {worst:.2e}")
        elif spec.kind in ("sphere", "hemisphere"):
            check = f"{name}: {spec.kind} multiplicities"
            count, top, basis = (
                (oracle.harmonic_dimension, 12, "harmonic") if spec.kind == "sphere"
                else (oracle.even_harmonic_dimension, 10, "even-harmonic")
            )
            if spec.dim > 4:
                yield (check, None, "kernel-rank oracle covers n <= 4")
            else:
                ok = all(spec.level(k)[1] == count(spec.dim, k) for k in range(top + 1))
                yield (check, ok, f"{basis} kernel ranks, k <= {top}")

    need1, need2 = bifurcation.enumeration_bounds(fam, window)
    scan_lam = lam if lam is not None else max(need1, need2, 1)
    result = bifurcation.classify_family(fam, window, lam)
    if result.case is bifurcation.FamilyCase.DEGENERATE_PAIR:
        raise DegeneratePairError(fam.label)
    brackets = oracle.dense_scan_degeneracy(fam, window, samples, scan_lam)
    matched = (
        len(brackets) == len(result.instants)
        and all(lo <= float(ci.instant.s) <= hi for ci, (lo, hi) in zip(result.instants, brackets))
    )
    yield (
        "degeneracy instants vs dense scan",
        matched,
        f"{len(result.instants)} exact instants, {len(brackets)} brackets",
    )

    probes = _probe_indices(fam, window, result.instants)
    checked = [(s, engine) for s, engine in probes if engine is not None]
    # a level above R(s)/(m-1) gives no negative branch at s
    brute = oracle.brute_force_indices(fam, [
        (float(s), float(max(fam.threshold1 + fam.threshold2 / fam.coerce(s), 0)) + 1)
        for s, _ in checked
    ])
    details = [
        f"s={scalars.fmt(s, fam.tolerance)}: engine {engine} vs brute {count}"
        for (s, engine), count in zip(checked, brute)
        if engine != count
    ]
    yield (
        "Morse index vs brute force",
        not details,
        "; ".join(details) if details else f"{len(probes)} probe points agree",
    )


def _probe_indices(fam, window, certified) -> List[Tuple[scalars.Scalar, Optional[int]]]:
    """verify's probe points -- both window ends, then the midpoint of every
    gap between consecutive instants and window ends -- each paired with the
    Morse index that scan prints for that gap, or None for a probe on an
    instant (within the family's tolerance): the n_minus of the certified
    instant that closes the gap, the n_plus of the last one, or morse_index
    when the window holds no instant."""
    times = [ci.instant.s for ci in certified]
    gap_index = [ci.n_minus for ci in certified]
    gap_index.append(certified[-1].n_plus if certified else bifurcation.morse_index(fam, window[0]))
    probes = [(window[0], 0), (window[1], len(times))]
    for gap, (left, right) in enumerate(zip([window[0]] + times, times + [window[1]])):
        probes.append(((fam.coerce(left) + fam.coerce(right)) / 2, gap))
    out = []
    for s, gap in probes:
        # a probe can only fall on one of the two instants that bound its gap
        nearby = times[max(gap - 1, 0):gap + 1]
        on_instant = any(scalars.close(fam.coerce(s), t, fam.tolerance) for t in nearby)
        out.append((s, None if on_instant else gap_index[gap]))
    return out


_VERDICTS = {True: "PASS", False: "FAIL", None: "SKIP"}


def cmd_verify(args, config) -> int:
    fam = _family(args, config)
    window = _parse_window(_setting(args, config, "window", "0.1:10"))
    samples = _number_setting(args, config, "samples", int, 1000, 20000)
    lam = _number_setting(args, config, "lambda_max", fam.coerce, 0, None)
    failures = 0
    lines = []
    for name, passed, detail in _verify_checks(fam, window, lam, samples):
        lines.append(f"{_VERDICTS[passed]} {name}: {detail}")
        failures += passed is False
    lines.append(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    _emit("\n".join(lines) + "\n", _setting(args, config, "out"))
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _read_config(args.config) if getattr(args, "config", None) else {}
        handler = {
            "spectrum": cmd_spectrum,
            "scan": cmd_scan,
            "branches": cmd_branches,
            "verify": cmd_verify,
        }[args.command]
        return handler(args, config)
    except DegeneratePairError as exc:
        print(f"degenerate pair -- index-jump certification inapplicable: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ConfigError, SpectrumFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except YamabeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
