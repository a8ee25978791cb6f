"""Command-line front end: spectrum, scan, branches, verify.

Exit codes: 0 success, 1 verification/engine failure, 2 degenerate pair
(index-jump certification inapplicable), 3 configuration error.
"""

from __future__ import annotations

import gc
import io
import math
import os
import sys
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

# flag -> (metavar, help); every factor flag appends (flag, value) to one ordered stream
_FACTOR_FLAGS = {
    "sphere": ("N", "round sphere S^N"),
    "hemisphere": ("N", "closed hemisphere of S^N (Neumann)"),
    "r2": ("Q", "radius squared for the preceding sphere/hemisphere (default 1)"),
    "interval": ("LAMBDA", "segment [0, pi*LAMBDA] (Neumann)"),
    "torus": ("L2,L2,...", "flat torus; entries are L_i^2/(4 pi^2), rational"),
    "custom": ("PATH", "custom spectrum file"),
}
_ROUND = {"sphere": spectra.round_sphere, "hemisphere": spectra.hemisphere_neumann}
_COMMON = {**_FACTOR_FLAGS, "config": ("PATH", "config file; flags win on conflict"),
           "out": ("PATH", "output file (default stdout)")}
_FAMILY = {**_COMMON, "window": ("MIN:MAX", "window of the parameter s"), "lambda-max": ("Q", "eigenvalue cap")}
# command -> (help, flag -> (metavar, help)); the metavar of --format lists its choices
_COMMANDS = {
    "spectrum": ("print a factor's eigenvalue table", {
        **_COMMON, "below": ("Q", "eigenvalue cutoff (strict)"), "format": ("{json,text}", "")}),
    "scan": ("classify a family and certify its degeneracy instants", {
        **_FAMILY, "format": ("{json,csv,text}", "")}),
    "branches": ("emit sampled branch curves as CSV plot data", {
        **_FAMILY, "samples": ("N", "points per curve (default 200)"),
        "limit": ("N", "zeroless branches to include (default 4)")}),
    "verify": ("run the oracle suite against the engine", _FAMILY),
}
# a config file gives the factors and every other flag but --config, lambda_max for --lambda-max
_CONFIG_KEYS = {"factor1", "factor2"} | {flag.replace("-", "_") for _, flags in _COMMANDS.values()
                                          for flag in flags if flag not in _FACTOR_FLAGS and flag != "config"}


class _Args(dict):
    """Settings by name (``lambda_max`` for ``--lambda-max``); an unset one reads None."""
    __getattr__ = dict.get


def _read_flags(command, argv) -> Optional[_Args]:
    """``command``'s settings in ``argv``, given as ``--flag value`` or ``--flag=value``, or None once
    ``-h`` has printed the help.  Factor flags append to ``factor_args``; others keep their last value."""
    flags = _COMMANDS[command][1]
    args, extras, tokens = _Args(command=command), [], iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_help(command))
            return None
        name, eq, value = token[2:].partition("=")
        if not token.startswith("--") or name not in flags:
            extras.append(token)
            continue
        if not eq:  # the value is the next token, unless that looks like a flag: -x or --x
            value = next(tokens, None)
            if value is None or value[:1] == "-" and (value[1:2].isalpha() or value[1:2] == "-"):
                raise ConfigError(f"argument --{name}: expected one argument")
        if name == "format" and value not in (choices := flags[name][0][1:-1].split(",")):
            raise ConfigError(f"argument --format: invalid choice: {value!r} "
                              f"(choose from {', '.join(map(repr, choices))})")
        if name in _FACTOR_FLAGS:
            args.setdefault("factor_args", []).append((name, value))
        else:
            args[name.replace("-", "_")] = value
    if extras:
        raise ConfigError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _help(command=None) -> str:
    """The ``-h`` text of ``command``, or of the program when None."""
    if command is None:
        head = f"usage: yamabe {{{','.join(_COMMANDS)}}} ...\n\n{__doc__}\ncommands:"
        rows = [(name, text) for name, (text, _) in _COMMANDS.items()]
    else:
        head = f"usage: yamabe {command} [--FLAG VALUE ...]\n\n{_COMMANDS[command][0]}\n\nflags:"
        rows = [(f"--{flag} {metavar}", text) for flag, (metavar, text) in _COMMANDS[command][1].items()]
    rows.append(("-h, --help", "show this help and exit"))
    return head + "".join(f"\n  {left:22} {text}".rstrip() for left, text in rows) + "\n"


def _config_flags(args) -> List[str]:
    """The settings of the config file ``args.config`` that the command has a
    flag for and the command line left unset, as flags: ``key = value``
    becomes ``--key=value``, and the factor descriptions become factor flags,
    factor1's before factor2's (``sphere 2 r2 1`` becomes ``--sphere=2 --r2=1``)."""
    values = {}
    try:
        for num, line in spectra._lines(args.config, ConfigError):
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in _CONFIG_KEYS:
                raise ConfigError(f"line {num}: bad config line {line!r}")
            if key in values:
                raise ConfigError(f"line {num}: repeated key {key!r} (first on line {values[key][1]})")
            values[key] = value.strip(), num
    except OSError as exc:  # main's wrapper names the file
        raise ConfigError(exc.strerror)
    # factor flags on the command line replace every config factor
    descriptions = [] if args.factor_args else [values.get(key, ("",))[0] for key in ("factor1", "factor2")]
    flags = []
    for text in descriptions:
        words = text.split()
        if any(word not in _FACTOR_FLAGS for word in words[::2]):
            raise ConfigError(f"bad factor description {text!r}")
        if len(words) % 2:
            raise ConfigError(f"factor description {text!r} is missing a value")
        flags += [f"--{flag}={value}" for flag, value in zip(words[::2], words[1::2])]
    known = _COMMANDS[args.command][1]
    return flags + [
        f"--{key.replace('_', '-')}={value}" for key, (value, _) in values.items()
        if key.replace("_", "-") in known and args.get(key) is None
    ]


def _factors(args) -> List[spectra.FactorSpectrum]:
    """The factors of the ordered factor-flag stream; each --r2 is the radius
    squared of the sphere or hemisphere just before it."""
    stream = args.factor_args
    if not stream:
        raise ConfigError("no factors specified")
    factors = []
    for k, (flag, value) in enumerate(stream):
        try:
            if flag == "r2":
                if k == 0 or stream[k - 1][0] not in _ROUND:
                    raise ConfigError("--r2 must follow --sphere or --hemisphere")
            elif flag in _ROUND:
                try:
                    n = int(value)
                except ValueError:
                    raise ConfigError(f"--{flag} expects an integer dimension, got {value!r}")
                r2 = stream[k + 1][1] if k + 1 < len(stream) and stream[k + 1][0] == "r2" else "1"
                factors.append(_ROUND[flag](n, r2))
            elif flag == "interval":
                factors.append(spectra.interval_neumann(value))
            elif flag == "torus":
                factors.append(spectra.flat_torus(value.split(",")))
            else:
                factors.append(spectra.custom_from_file(value))
        except (OSError, ValueError, ZeroDivisionError, TypeError) as exc:
            raise ConfigError(str(exc))
    return factors


def _number_setting(args, key, parse, least, default):
    """Setting ``key`` read by ``parse`` (``default`` when unset), at least
    ``least``; an error names the config file that gave the value."""
    value = args.get(key, default)
    if value is None:
        return None
    where = f"{args.config}: " if key in (args.configured or ()) else ""
    try:
        number = parse(value)
    except (ValueError, ZeroDivisionError, TypeError):
        raise ConfigError(f"{where}bad {key} {value!r}")
    if number < least:
        raise ConfigError(f"{where}{key} must be at least {least}, got {value!r}")
    return number


def _family(args, window=None):
    """(family, window, lambda_max): the family of the two factors, then its window ``args.window``
    (``window`` when unset) and its eigenvalue cap, in the family's scalars and checked."""
    factors = _factors(args)
    if len(factors) != 2:
        raise ConfigError(f"a family needs exactly two factors, got {len(factors)}")
    try:
        fam = product.make_family(factors[0], factors[1])
    except YamabeError as exc:
        raise ConfigError(str(exc))
    text = window if args.window is None else args.window
    if text is None:
        raise ConfigError("missing --window MIN:MAX")
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ConfigError(f"bad window {text!r}, expected MIN:MAX")
    try:
        window = (fam.coerce(lo.strip()), fam.coerce(hi.strip()))
    except (ValueError, ZeroDivisionError, TypeError):
        raise ConfigError(f"bad window {text!r}")
    # checked as converted: in floating mode 1e-400 is 0.0, and 1 and 1 + 1e-20 are one float
    if not (0 < window[0] < window[1]):
        raise ConfigError("window must satisfy 0 < MIN < MAX")
    return fam, window, _number_setting(args, "lambda_max", fam.coerce, 0, None)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _mode_of(fam_or_spec) -> str:
    return "exact" if fam_or_spec.tolerance is None else "float"


def cmd_spectrum(args) -> int:
    factors = _factors(args)
    if len(factors) != 1:
        raise ConfigError("spectrum expects exactly one factor")
    spec = factors[0]
    bound = _number_setting(args, "below", lambda text: scalars.as_scalar(text, spec.tolerance), 0, None)
    if bound is None:
        raise ConfigError("missing --below Q")
    rows = spec.eigenvalues_below(bound)
    tol = spec.tolerance
    if args.format == "json":
        import json  # only the JSON writers need it
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
    _emit(text, args.out)
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


def cmd_scan(args) -> int:
    fam, window, lam = _family(args)
    result = bifurcation.classify_family(fam, window, lam)
    payload = _scan_payload(fam, result, lam)
    if args.format == "json":
        import json
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
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
    _emit(text, args.out)
    if result.case is bifurcation.FamilyCase.DEGENERATE_PAIR:
        print("degenerate pair -- index-jump certification inapplicable", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_branches(args) -> int:
    fam, window, lam = _family(args)
    samples = _number_setting(args, "samples", int, 2, 200)
    limit = _number_setting(args, "limit", int, 0, 4)

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
    _emit(buf.getvalue(), args.out)
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


def _verify_checks(fam, window, lam):
    """Yield (name, passed, detail) for each oracle/engine comparison;
    ``passed`` is None for a check that no oracle covers."""
    from . import oracle  # the oracles are needed by verify alone

    for idx, spec in ((1, fam.factor1), (2, fam.factor2)):
        name = f"factor{idx} {spec.label}"
        if spec.kind == "interval":
            # recover lambda from the first nonzero eigenvalue 1/lambda^2
            lam_param = math.sqrt(1.0 / float(spec.level(1)[0]))
            worst = 0.0
            for k, approx in enumerate(oracle.fd_interval_spectrum(lam_param, 2000, 10)):
                exact = float(spec.level(k)[0])
                err = abs(approx - exact) / max(exact, 1e-12) if exact else abs(approx)
                worst = max(worst, err)
            yield (f"{name}: FD Neumann spectrum", worst < 1e-3, f"max rel err {worst:.2e}")
        elif spec.kind in ("sphere", "hemisphere"):
            check = f"{name}: {spec.kind} multiplicities"
            count, top, basis = (
                (oracle.harmonic_dimension, 12, "harmonic") if spec.kind == "sphere"
                else (oracle.even_harmonic_dimension, 10, "even-harmonic")
            )
            top = oracle.kernel_rank_degree_limit(spec.dim, top)
            if top < 1:
                yield (check, None, f"kernel-rank budget covers no degree k >= 1 for n = {spec.dim}")
            else:
                ok = all(spec.level(k)[1] == count(spec.dim, k) for k in range(top + 1))
                yield (check, ok, f"{basis} kernel ranks, k <= {top}")
        elif spec.kind == "custom":
            yield (f"{name}: listed levels", None, "no oracle checks a custom spectrum")

    result = bifurcation.classify_family(fam, window, lam)
    if result.case is bifurcation.FamilyCase.DEGENERATE_PAIR:
        raise DegeneratePairError(fam.label)
    # each factor up to the bound the engine read it to, and never past it
    brackets = oracle.dense_scan_degeneracy(fam, window, 20000, *bifurcation.enumeration_bounds(fam, window))
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
    # each factor up to the bound the engine reads it to at the probe
    brute = oracle.brute_force_indices(fam, [(s, *bifurcation.enumeration_bounds(fam, (s, s))) for s, _ in checked])
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


def cmd_verify(args) -> int:
    checks = list(_verify_checks(*_family(args, "0.1:10")))
    failures = sum(passed is False for _, passed, _ in checks)
    lines = [f"{_VERDICTS[passed]} {name}: {detail}" for name, passed, detail in checks]
    lines.append(f"{failures} check(s) failed" if failures else "all checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def _command(argv) -> int:
    if not argv:
        raise ConfigError("the following arguments are required: command")
    if argv[0] in ("-h", "--help"):
        sys.stdout.write(_help())
        return EXIT_OK
    if argv[0] not in _COMMANDS:
        raise ConfigError(f"argument command: invalid choice: {argv[0]!r} "
                          f"(choose from {', '.join(map(repr, _COMMANDS))})")
    args = _read_flags(argv[0], argv[1:])
    if args is None:
        return EXIT_OK
    if args.config:
        try:  # the config file's settings, each one the command line left unset
            args["configured"] = _read_flags(args.command, _config_flags(args))
        except ConfigError as exc:
            raise ConfigError(f"{args.config}: {exc}")
        args.update(args.configured)
    handler = {"spectrum": cmd_spectrum, "scan": cmd_scan, "branches": cmd_branches, "verify": cmd_verify}
    return handler[args.command](args)


def main(argv: Optional[List[str]] = None) -> int:
    """Run the command ``argv`` and return its exit code.  Without ``argv`` the command is
    ``sys.argv[1:]``, and main flushes stdout and stderr and ends the process with ``os._exit``."""
    own_process = argv is None
    if own_process:
        # the collections during the run skip the import-time heap
        gc.freeze()
    try:
        code = _command(sys.argv[1:] if own_process else argv)
        if own_process:
            sys.stdout.flush()  # os._exit flushes nothing
    except DegeneratePairError as exc:
        print(f"degenerate pair -- index-jump certification inapplicable: {exc}", file=sys.stderr)
        code = EXIT_DEGENERATE
    except (ConfigError, SpectrumFormatError, OSError) as exc:  # OSError: stdout or --out unwritable
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except YamabeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_FAILURE
    if not own_process:
        return code
    # no atexit handler, thread or open file needs the interpreter's teardown, which takes milliseconds
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
