import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from yamabe_bifurcation import (
    DegeneracyInstantError,
    DegeneratePairError,
    bifurcation,
    cli,
    custom_spectrum,
    degeneracy_instants,
    make_family,
    morse_index,
    spectra,
)
from yamabe_bifurcation.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_FAILURE, EXIT_OK

SPHERE_HEMI = ["--sphere", "2", "--hemisphere", "2"]
FLOAT_FAMILY = ["--custom", "closed.spec", "--custom", "boundary.spec"]  # TestScan.write_float_family


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SOURCE_ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


@pytest.fixture(autouse=True)
def no_exit_in_this_process(monkeypatch):
    """main(argv) with a list returns its code: an os._exit here would end pytest with that code."""
    def refuse(code):
        raise AssertionError(f"os._exit({code}) in the test process")
    monkeypatch.setattr(os, "_exit", refuse)


def run_python(script, *args, text=True):
    """``python -c script *args`` in a fresh interpreter that imports this package's source;
    ``text=False`` keeps stdout and stderr as bytes."""
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=text, env=SOURCE_ENV)


def command(*argv, unbuffered=False):
    """The ``subprocess`` arguments of ``python -m yamabe_bifurcation.cli *argv``, which runs main in a
    process of its own, as the ``yamabe`` script does; stdout is block-buffered unless ``unbuffered``."""
    env = {key: value for key, value in SOURCE_ENV.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return {"args": [sys.executable, "-m", "yamabe_bifurcation.cli", *argv], "env": env}


def write_custom(tmp_path, name="deg.spec", levels="eig 0 1\neig 5/2 2\n",
                 dim=3, curv=10, lam=10):
    path = tmp_path / name
    path.write_text(
        f"dim = {dim}\nscalar_curvature = {curv}\nhas_boundary = false\n"
        f"boundary_minimal = false\nlambda_max = {lam}\n{levels}"
    )
    return str(path)


def write_degenerate_pair(tmp_path):
    """Two custom factors whose thresholds are both attained exactly."""
    f2 = tmp_path / "f2.spec"
    f2.write_text(
        "dim = 2\nscalar_curvature = 5\nhas_boundary = true\n"
        "boundary_minimal = true\nlambda_max = 10\neig 0 1\neig 5/4 2\n"
    )
    return write_custom(tmp_path, "f1.spec"), str(f2)


class TestSpectrum:
    def test_text(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--sphere", "2", "--below", "7"])
        assert code == EXIT_OK
        assert "0  x1" in out and "2  x3" in out and "6  x5" in out
        assert "12" not in out

    def test_json_matches_text_values(self, capsys):
        code, out, _ = run(
            capsys, ["spectrum", "--hemisphere", "2", "--r2", "1", "--below", "13", "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["mode"] == "exact"
        assert [(e["value"], e["multiplicity"]) for e in payload["eigenvalues"]] == [
            ("0", 1), ("2", 2), ("6", 3), ("12", 4),
        ]

    def test_unknown_custom_key_exit_3(self, capsys, tmp_path):
        path = write_custom(tmp_path, levels="tolerence = 1e-9\neig 0 1\neig 5/2 2\n")
        code, out, err = run(capsys, ["spectrum", "--custom", path, "--below", "5"])
        assert code == EXIT_CONFIG
        assert err.startswith("error:") and "line 6: unknown header key 'tolerence'" in err and out == ""

    def test_torus_and_interval(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--torus", "1,1", "--below", "3", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [(e["value"], e["multiplicity"]) for e in payload["eigenvalues"]] == [
            ("0", 1), ("1", 4), ("2", 4),
        ]
        code, out, _ = run(capsys, ["spectrum", "--interval", "2", "--below", "1", "--format", "json"])
        assert json.loads(out)["eigenvalues"][1]["value"] == "1/4"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "spec.json"
        code, out, _ = run(
            capsys, ["spectrum", "--sphere", "2", "--below", "3", "--format", "json", "--out", str(target)]
        )
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["dim"] == 2

    def test_two_factors_rejected(self, capsys):
        code, _, err = run(capsys, ["spectrum", *SPHERE_HEMI, "--below", "3"])
        assert code == EXIT_CONFIG
        assert "one factor" in err


class TestScan:
    def test_json_schema_and_instants(self, capsys):
        code, out, _ = run(
            capsys, ["scan", *SPHERE_HEMI, "--window", "0.01:20", "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == {
            "family", "classification", "accumulation", "window",
            "instants", "lambda_max", "mode",
        }
        assert payload["classification"] == "BothPositive"
        assert payload["mode"] == "exact"
        assert [inst["s"] for inst in payload["instants"]] == [
            "1/83", "1/62", "1/44", "1/29", "1/17", "1/8", "1/2", "2", "8", "17",
        ]
        assert all(inst["certified"] for inst in payload["instants"])
        at_half = payload["instants"][6]
        assert at_half["branches"] == [[1, 0]]
        assert (at_half["n_minus"], at_half["n_plus"]) == (3, 0)
        at_two = payload["instants"][7]
        assert (at_two["n_minus"], at_two["n_plus"]) == (0, 2)

    def test_text_and_json_agree(self, capsys):
        code, text_out, _ = run(capsys, ["scan", *SPHERE_HEMI, "--window", "0.4:3"])
        assert code == EXIT_OK
        code, json_out, _ = run(
            capsys, ["scan", *SPHERE_HEMI, "--window", "0.4:3", "--format", "json"]
        )
        payload = json.loads(json_out)
        for inst in payload["instants"]:
            assert f"s = {inst['s']}" in text_out
            assert f"n- = {inst['n_minus']}" in text_out

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, ["scan", *SPHERE_HEMI, "--window", "0.4:3", "--format", "csv"]
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["s"] for row in rows] == ["1/2", "2"]
        assert rows[0]["certified"] == "True"

    def test_rigid_family_empty(self, capsys):
        code, out, _ = run(
            capsys,
            ["scan", "--torus", "1,1", "--interval", "1", "--window", "0.01:100", "--format", "json"],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["classification"] == "RigidNonPositive"
        assert payload["instants"] == []

    def test_degenerate_pair_exit_2(self, capsys, tmp_path):
        f1, f2 = write_degenerate_pair(tmp_path)
        code, _, err = run(
            capsys, ["scan", "--custom", f1, "--custom", f2, "--window", "0.1:10"]
        )
        assert code == EXIT_DEGENERATE
        assert "degenerate pair" in err

    def test_bad_custom_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("dim = 2\neig nope\n")
        code, _, err = run(
            capsys, ["scan", "--custom", str(bad), "--hemisphere", "2", "--window", "0.1:10"]
        )
        assert code == EXIT_CONFIG

    GOOD_SPEC = ["dim = 2", "scalar_curvature = 6", "has_boundary = false", "boundary_minimal = false",
                 "lambda_max = 10", "eig 0 1", "eig 5/2 2"]

    @pytest.mark.parametrize("line, text, message", [
        (7, "eig 5/2 two", "line 7: bad multiplicity 'two'"),
        (4, "", "missing header key 'boundary_minimal'"),
        (3, "has_boundary = yes", "line 3: has_boundary must be true or false"),
        (7, "tolerance = 0", "line 7: tolerance must be positive"),
        (7, "tolerance = tiny", "line 7: bad tolerance 'tiny'"),
        (1, "dim = two", "line 1: bad dim 'two'"),
        (2, "scalar_curvature = 1/0", "line 2: bad scalar_curvature '1/0'"),
        (7, "tolerance = nan", "line 7: tolerance must be positive"),
        (7, "tolerance = inf", "line 7: tolerance must be finite"),
        (7, "tolerance = 1e400", "line 7: tolerance must be finite"),
        (6, "dim = 3", "line 6: repeated header key 'dim' (first on line 1)"),
    ], ids=["multiplicity", "missing-key", "boolean", "tolerance-zero", "tolerance-word", "dim", "curvature",
            "tolerance-nan", "tolerance-inf", "tolerance-overflow", "repeated-key"])
    def test_bad_custom_file_message_exit_3(self, capsys, tmp_path, line, text, message):
        """GOOD_SPEC with one line replaced gives the message of that line."""
        spec = tmp_path / "closed.spec"
        argv = ["scan", "--custom", str(spec), "--hemisphere", "2", "--window", "1:2"]
        spec.write_text("\n".join(self.GOOD_SPEC) + "\n")
        assert run(capsys, argv)[0] == EXIT_OK
        spec.write_text("\n".join(self.GOOD_SPEC[:line - 1] + [text] + self.GOOD_SPEC[line:]) + "\n")
        assert run(capsys, argv) == (EXIT_CONFIG, "", f"error: {message}\n")

    # a closed and a boundary factor in floating mode
    FLOAT_SPEC = ["dim = 3", "scalar_curvature = 6", "has_boundary = false", "boundary_minimal = false",
                  "tolerance = 1e-9", "lambda_max = 200", "eig 0 1", "eig 2.0 2"]
    FLOAT_BOUNDARY = ["dim = 2", "scalar_curvature = 6", "has_boundary = true", "boundary_minimal = true",
                      "tolerance = 1e-9", "lambda_max = 200", "eig 0 1", "eig 3.0 2"]
    @classmethod
    def write_float_family(cls, directory):
        (directory / "closed.spec").write_text("\n".join(cls.FLOAT_SPEC) + "\n")
        (directory / "boundary.spec").write_text("\n".join(cls.FLOAT_BOUNDARY) + "\n")

    @pytest.mark.parametrize("line, text, message", [
        (6, "lambda_max = 1e400", "line 6: bad lambda_max '1e400'"),
        (8, "eig 1e400 1", "line 8: bad eigenvalue '1e400'"),
    ], ids=["lambda-max", "eigenvalue"])
    def test_float_value_with_no_finite_float_exit_3(self, capsys, tmp_path, monkeypatch, line, text, message):
        """FLOAT_SPEC with one line replaced by a value past the float range."""
        monkeypatch.chdir(tmp_path)
        self.write_float_family(tmp_path)
        argv = ["scan", *FLOAT_FAMILY, "--window", "1:2"]
        assert run(capsys, argv)[0] == EXIT_OK
        spec = self.FLOAT_SPEC[:line - 1] + [text] + self.FLOAT_SPEC[line:]
        (tmp_path / "closed.spec").write_text("\n".join(spec) + "\n")
        assert run(capsys, argv) == (EXIT_CONFIG, "", f"error: {message}\n")

    def test_undecodable_custom_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, ["scan", "--custom", str(bad), "--sphere", "2", "--window", "1/2:2"])
        assert code == EXIT_CONFIG
        assert err.startswith("error:") and "not UTF-8" in err and out == ""

    def test_custom_dimension_below_one_exit_3(self, capsys, tmp_path):
        for dim in (-3, 0):
            path = write_custom(tmp_path, "neg.spec", dim=dim)
            message = f"error: {path}: dimension must be at least 1, got {dim}\n"
            for argv in (["spectrum", "--custom", path, "--below", "5"],
                         ["scan", "--custom", path, "--hemisphere", "8", "--window", "0.5:2"]):
                assert run(capsys, argv) == (EXIT_CONFIG, "", message)

    def test_out_into_missing_directory_exit_3(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, ["scan", *SPHERE_HEMI, "--window", "1/2:2", "--out", str(target)])
        assert code == EXIT_CONFIG
        assert err.startswith("error:") and str(target) in err and out == ""
        assert not target.exists()

    def test_insufficient_lambda_exit_1(self, capsys):
        code, _, err = run(
            capsys, ["scan", *SPHERE_HEMI, "--window", "0.01:20", "--lambda-max", "5"]
        )
        assert code == EXIT_FAILURE
        assert "lambda" in err

    def test_bad_window_exit_3(self, capsys):
        for window in ["5:1", "0:2", "abc", "1"]:
            code, _, _ = run(capsys, ["scan", *SPHERE_HEMI, "--window", window])
            assert code == EXIT_CONFIG

    def test_unknown_flag_exit_3(self, capsys):
        code, _, _ = run(capsys, ["scan", *SPHERE_HEMI, "--window", "1:2", "--bogus"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--sphere", "2", "--below", "3", "--window", "1:2"],
        ["spectrum", "--sphere", "2", "--below", "3", "--lambda-max", "5"],
        ["spectrum", "--sphere", "2", "--below", "3", "--format", "csv"],
        ["branches", *SPHERE_HEMI, "--window", "1.5:2.5", "--format", "json"],
        ["verify", *SPHERE_HEMI, "--window", "1:2", "--format", "json"],
    ])
    def test_flag_the_subcommand_does_not_read_exit_3(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == EXIT_CONFIG
        assert err.startswith("error:") and "--" in err and out == ""

    @pytest.mark.parametrize("factors, message", [
        (["--r2", "2", *SPHERE_HEMI], "--r2 must follow --sphere or --hemisphere"),
        (["--sphere", "2", "--r2", "2", "--r2", "3", "--hemisphere", "2"], "--r2 must follow --sphere or --hemisphere"),
        (["--sphere", "x", "--hemisphere", "2"], "--sphere expects an integer dimension, got 'x'"),
    ], ids=["r2-first", "r2-twice", "sphere-x"])
    def test_bad_factor_stream_exit_3(self, capsys, factors, message):
        assert run(capsys, ["scan", *factors, "--window", "1:2"]) == (EXIT_CONFIG, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--sphere", "2", "--below", "abc"],
        ["spectrum", "--sphere", "2", "--below", "-1"],
        ["spectrum", "--torus", "1,1", "--below", "1/0"],
        ["scan", *SPHERE_HEMI, "--window", "1:2", "--lambda-max", "abc"],
        ["branches", *SPHERE_HEMI, "--window", "1:2", "--samples", "1"],
        # floating mode: a value with no finite float, and a window that is
        # not 0 < MIN < MAX as floats
        *([command, *FLOAT_FAMILY, "--window", window] for command in ("scan", "branches", "verify")
          for window in ("1e-400:2", "1:1e400", "1:1.00000000000000000001")),
        ["scan", *FLOAT_FAMILY, "--window", "1:2", "--lambda-max", "1e400"],
        ["spectrum", "--custom", "closed.spec", "--below", "1e400"],
    ])
    def test_bad_number_exit_3(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        self.write_float_family(tmp_path)
        code, out, err = run(capsys, argv)
        assert code == EXIT_CONFIG
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err and out == ""

    def test_constant_branch_excluded_when_r1_positive_r2_negative(self, capsys, tmp_path):
        # the constants' branch (0, 0) would vanish at s = -T2/T1 = 1/2
        levels = "eig 0 1\neig 1 1\n"
        f1 = write_custom(tmp_path, "f1.spec", levels, dim=2, curv=2)
        f2 = tmp_path / "f2.spec"
        f2.write_text(
            "dim = 2\nscalar_curvature = -1\nhas_boundary = true\n"
            f"boundary_minimal = true\nlambda_max = 10\n{levels}"
        )
        for window, expected in (("1/10:1", []), ("1/10:10", [("2", [[0, 1]])])):
            code, out, _ = run(
                capsys, ["scan", "--custom", f1, "--custom", str(f2), "--window", window, "--format", "json"]
            )
            assert code == EXIT_OK
            instants = json.loads(out)["instants"]
            assert [(inst["s"], inst["branches"]) for inst in instants] == expected
            assert all(i + j > 0 for inst in instants for i, j in inst["branches"])

    def test_scan_does_not_import_numpy(self):
        script = (
            "import sys\n"
            "from yamabe_bifurcation import cli\n"
            "cli.main(['scan', '--sphere', '2', '--hemisphere', '2', '--window', '1:3'])\n"
            "sys.exit('numpy' in sys.modules)\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert "s = 2" in proc.stdout

    @pytest.mark.parametrize("family", [
        ["--sphere", "2", "--hemisphere", "2", "--window", "0.1:10"],
        ["--sphere", "2", "--interval", "3", "--window", "0.01:150"],
    ])
    def test_verify_does_not_need_numpy(self, family):
        script = (
            "import sys\n"
            "if sys.argv[1] == 'blocked':\n"
            "    sys.modules['numpy'] = None  # any import of numpy now fails\n"
            "from yamabe_bifurcation import cli\n"
            "code = cli.main(['verify', *sys.argv[2:]])\n"
            "sys.exit(code or (sys.modules.get('numpy') is not None))\n"
        )
        blocked, normal = (run_python(script, mode, *family, text=False) for mode in ("blocked", "normal"))
        assert blocked.returncode == 0, blocked.stderr
        assert normal.returncode == 0, normal.stderr  # and numpy was never imported
        assert blocked.stdout == normal.stdout
        assert normal.stdout.endswith(b"all checks passed\n")

    def test_scan_json_does_not_import_dataclasses_inspect_or_csv(self):
        script = (
            "import sys\n"
            "import yamabe_bifurcation.cli\n"
            "yamabe_bifurcation.cli.main(['scan', '--sphere', '2', '--hemisphere', '2', '--window', '1:3',"
            " '--format', 'json'])\n"
            "loaded = sorted({'dataclasses', 'inspect', 'csv'} & sys.modules.keys())\n"
            "sys.exit(f'imported {loaded}' if loaded else 0)\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["instants"][0]["s"] == "2"

    def test_verify_does_not_import_scipy(self):
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from yamabe_bifurcation import cli\n"
            "sys.exit(cli.main(['verify', '--sphere', '2', '--interval', '1',"
            " '--window', '0.5:10']))\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert "FD Neumann spectrum" in proc.stdout
        assert "all checks passed" in proc.stdout

    def test_import_and_verify_load_neither_argparse_nor_json(self):
        script = (
            "import sys\n"
            "before = set(sys.modules)  # what site imported does not count\n"
            "from yamabe_bifurcation import cli\n"
            "code = cli.main(['verify', '--sphere', '2', '--interval', '1',"
            " '--window', '0.5:10'])\n"
            "loaded = sorted({'argparse', 'json'} & (sys.modules.keys() - before))\n"
            "sys.exit(f'imported {loaded}' if loaded else code)\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("all checks passed\n")


class TestArguments:
    COMMON = ["sphere", "hemisphere", "r2", "interval", "torus", "custom", "config", "out"]
    FLAGS = {
        "spectrum": [*COMMON, "below", "format"],
        "scan": [*COMMON, "window", "lambda-max", "format"],
        "branches": [*COMMON, "window", "lambda-max", "samples", "limit"],
        "verify": [*COMMON, "window", "lambda-max"],
    }

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["plot"], "argument command: invalid choice: 'plot' (choose from 'spectrum', 'scan', 'branches', 'verify')"),
        (["scan", *SPHERE_HEMI, "--window"], "argument --window: expected one argument"),
        (["scan", *SPHERE_HEMI, "--window", "--format", "json"], "argument --window: expected one argument"),
        (["scan", *SPHERE_HEMI, "--win", "1:3"], "unrecognized arguments: --win 1:3"),
        (["spectrum", "--sphere", "2", "--below", "3", "--form=json"], "unrecognized arguments: --form=json"),
        (["verify", *SPHERE_HEMI, "--window", "1:2", "--samples", "10"], "unrecognized arguments: --samples 10"),
        (["scan", *SPHERE_HEMI, "--window", "1:3", "--format", "xml"],
         "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'text')"),
        (["scan", "--window", "1:2"], "no factors specified"),
        (["scan", *SPHERE_HEMI], "missing --window MIN:MAX"),
        (["scan", *SPHERE_HEMI, "--hemisphere", "3", "--window", "1:2"], "a family needs exactly two factors, got 3"),
        (["spectrum", "--sphere", "2"], "missing --below Q"),
        (["scan", "--sphere", "2", "--sphere", "2", "--window", "1:2"], "factor2 (S^2(r2=1)) must have a boundary"),
        (["scan", "--sphere", "2", "--custom", "float.spec", "--window", "1:2"],
         "factors use incompatible numeric representations (tolerances None and 1e-09)"),
        (["scan", "--config", "cube.cfg"], "cube.cfg: bad factor description 'cube 3'"),
        (["scan", "--config", "bare.cfg"], "bare.cfg: factor description 'sphere' is missing a value"),
        (["scan", "--custom", "absent.spec", "--hemisphere", "2", "--window", "1:2"],
         "[Errno 2] No such file or directory: 'absent.spec'"),
    ], ids=["no-command", "unknown-command", "no-value-at-end", "flag-as-value", "abbreviated",
            "abbreviated-with-value", "verify-samples", "format-choice", "no-factors", "no-window", "three-factors", "no-below",
            "closed-factor2", "mixed-modes", "config-unknown-factor", "config-factor-without-value",
            "missing-custom-file"])
    def test_bad_argv_exit_3(self, capsys, tmp_path, monkeypatch, argv, message):
        """The exact message, with nothing on stdout; file names are relative
        to a directory that holds the files some cases read."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "float.spec").write_text(
            "dim = 2\nscalar_curvature = 6\nhas_boundary = true\nboundary_minimal = true\n"
            "tolerance = 1e-9\nlambda_max = 10\neig 0 1\neig 2.5 2\n"
        )
        (tmp_path / "cube.cfg").write_text("factor1 = cube 3\nfactor2 = hemisphere 2\nwindow = 1:2\n")
        (tmp_path / "bare.cfg").write_text("factor1 = sphere\nfactor2 = hemisphere 2\nwindow = 1:2\n")
        assert run(capsys, argv) == (EXIT_CONFIG, "", f"error: {message}\n")

    def test_equals_form_is_the_spaced_form(self, capsys):
        spaced = run(capsys, ["scan", "--sphere", "2", "--hemisphere", "2", "--window", "0.4:3", "--format", "json"])
        joined = run(capsys, ["scan", "--sphere=2", "--hemisphere=2", "--window=0.4:3", "--format=json"])
        assert spaced == joined and spaced[0] == EXIT_OK
        assert [i["s"] for i in json.loads(joined[1])["instants"]] == ["1/2", "2"]

    def test_repeated_setting_keeps_its_last_value(self, capsys):
        last = run(capsys, ["scan", *SPHERE_HEMI, "--window", "0.4:3"])
        assert run(capsys, ["scan", *SPHERE_HEMI, "--window", "0.01:20", "--window=0.4:3"]) == last
        assert last[0] == EXIT_OK and "instants (2):" in last[1]

    @pytest.mark.parametrize("command", sorted(FLAGS))
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_command_help_lists_every_flag(self, capsys, command, flag):
        code, out, err = run(capsys, [command, *SPHERE_HEMI, flag, "--bogus"])
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith(f"usage: yamabe {command} ")
        assert re.findall(r"^  --([a-z0-9-]+)", out, re.M) == self.FLAGS[command]

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_program_help_lists_every_command(self, capsys, flag):
        code, out, err = run(capsys, [flag])
        assert (code, err) == (EXIT_OK, "")
        assert re.findall(r"^  ([a-z]+) ", out, re.M) == ["spectrum", "scan", "branches", "verify"]


class TestHeapFreeze:
    """The entry point freezes the import-time heap only when it reads
    sys.argv, that is, in a process of its own.  The counts are compared
    with the interpreter's own, which is not 0 on Python 3.12."""

    SCAN = ["scan", "--sphere", "2", "--hemisphere", "2", "--window", "1:3"]

    def test_command_line_run_freezes(self):
        # main ends the process, so the count is read in the os._exit it calls
        script = (
            "import gc, os, sys\n"
            "from yamabe_bifurcation import cli\n"
            "sys.argv = ['yamabe', *sys.argv[1:]]\n"
            "before, exit = gc.get_freeze_count(), os._exit\n"
            "def report(code):\n"
            "    print('frozen', gc.get_freeze_count() - before, file=sys.stderr, flush=True)\n"
            "    exit(code)\n"
            "os._exit = report\n"
            "cli.main()\n"
            "sys.exit('main returned')\n"
        )
        proc = run_python(script, *self.SCAN)
        assert proc.returncode == 0, proc.stderr
        assert "s = 2" in proc.stdout
        word, count = proc.stderr.split()
        assert word == "frozen" and int(count) > 0

    def test_call_with_arguments_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        code, out, _ = run(capsys, self.SCAN)
        assert code == EXIT_OK and "s = 2" in out
        assert gc.get_freeze_count() == before

    def test_import_freezes_nothing(self):
        proc = run_python("import gc\nbefore = gc.get_freeze_count()\n"
                          "import yamabe_bifurcation.cli\nprint(gc.get_freeze_count() - before)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"


class TestOwnProcess:
    """main without arguments, as ``python -m yamabe_bifurcation.cli`` and the ``yamabe``
    script call it, flushes stdout and stderr and ends the process with os._exit."""

    BIG = ["spectrum", "--hemisphere", "2", "--below", "100000000", "--format", "json"]  # 664 KB

    def test_output_past_a_pipe_buffer_is_mains(self, capsys):
        proc = subprocess.run(**command(*self.BIG), capture_output=True)
        code, out, err = run(capsys, self.BIG)
        assert code == EXIT_OK and len(out) > 600_000
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())

    @pytest.mark.parametrize("expected, argv", [
        (EXIT_OK, ["scan", *SPHERE_HEMI, "--window", "1:3"]),
        (EXIT_DEGENERATE, ["scan", "--custom", "f1.spec", "--custom", "f2.spec", "--window", "0.1:10"]),
        (EXIT_CONFIG, ["scan", *SPHERE_HEMI]),
        (EXIT_OK, ["--help"]),
    ])
    def test_exit_code_and_output_are_mains(self, capsys, tmp_path, monkeypatch, expected, argv):
        write_degenerate_pair(tmp_path)
        monkeypatch.chdir(tmp_path)
        proc = subprocess.run(**command(*argv), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, argv)
        assert proc.returncode == expected

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_device_is_one_error_line(self, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(**command(*TestHeapFreeze.SCAN, unbuffered=unbuffered),
                                  stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == EXIT_CONFIG
        assert re.fullmatch(r"error: [^\n]+\n", proc.stderr), proc.stderr

    def test_pipe_closed_early_is_one_error_line(self):
        # stdout block-buffered, the default: under -u, CPython drops the rest of a short write unreported
        with subprocess.Popen(**command(*self.BIG), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b'{\n  "label'
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait() == EXIT_CONFIG
        assert re.fullmatch(r"error: [^\n]+\n", err), err


class TestConfigFile:
    def test_config_supplies_everything(self, capsys, tmp_path):
        cfg = tmp_path / "family.cfg"
        cfg.write_text(
            "# sphere times hemisphere\n"
            "factor1 = sphere 2 r2 1\n"
            "factor2 = hemisphere 2\n"
            "window = 0.4:3\n"
            "format = json\n"
        )
        code, out, _ = run(capsys, ["scan", "--config", str(cfg)])
        assert code == EXIT_OK
        assert [i["s"] for i in json.loads(out)["instants"]] == ["1/2", "2"]

    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "family.cfg"
        cfg.write_text("factor1 = sphere 2\nfactor2 = hemisphere 2\nwindow = 0.4:3\n")
        code, out, _ = run(
            capsys, ["scan", "--config", str(cfg), "--window", "1.5:3", "--format", "json"]
        )
        assert code == EXIT_OK
        assert [i["s"] for i in json.loads(out)["instants"]] == ["2"]

    def test_factor_flags_replace_config_factors(self, capsys, tmp_path):
        cfg = tmp_path / "family.cfg"
        cfg.write_text("factor1 = torus 1,1\nfactor2 = interval 1\nwindow = 0.4:3\n")
        code, out, _ = run(
            capsys, ["scan", "--config", str(cfg), *SPHERE_HEMI, "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["classification"] == "BothPositive"

    def test_bad_config_line_exit_3(self, capsys, tmp_path):
        """The file is named once, then the line, as in a custom file's errors."""
        cfg = tmp_path / "family.cfg"
        cfg.write_text("# a family\n\nwindw = 1:2\n")
        assert run(capsys, ["scan", "--config", str(cfg), "--window", "1:2"]) == (
            EXIT_CONFIG, "", f"error: {cfg}: line 3: bad config line 'windw = 1:2'\n")

    def test_undecodable_config_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe")
        assert run(capsys, ["scan", "--config", str(cfg)]) == (
            EXIT_CONFIG, "", f"error: {cfg}: not UTF-8 text "
            "('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)\n")

    def test_missing_config_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "absent.cfg"
        assert run(capsys, ["scan", "--config", str(cfg)]) == (
            EXIT_CONFIG, "", f"error: {cfg}: No such file or directory\n")

    @staticmethod
    def branches_config(tmp_path, settings):
        cfg = tmp_path / "family.cfg"
        cfg.write_text("factor1 = sphere 2\nfactor2 = hemisphere 2\nwindow = 1.5:2.5\n" + settings)
        return str(cfg)

    @staticmethod
    def branches_table(out):
        lines = out.splitlines()
        header = next(line for line in lines if line.startswith("s,"))
        return header.split(",")[1:], lines[lines.index(header) + 1:]

    def test_config_sets_samples_and_limit(self, capsys, tmp_path):
        cfg = self.branches_config(tmp_path, "samples = 3\nlimit = 1\n")
        code, out, _ = run(capsys, ["branches", "--config", cfg])
        assert code == EXIT_OK
        curves, rows = self.branches_table(out)
        assert curves == ["sigma_0_1", "sigma_1_1"]  # the instant's branch and one zeroless
        assert len(rows) == 3

    def test_samples_flag_wins_over_config(self, capsys, tmp_path):
        cfg = self.branches_config(tmp_path, "samples = 3\n")
        code, out, _ = run(capsys, ["branches", "--config", cfg, "--samples", "5"])
        assert code == EXIT_OK
        assert len(self.branches_table(out)[1]) == 5

    @pytest.mark.parametrize("command, settings", [
        ("branches", "samples = 3.5\n"),
        ("branches", "limit = many\n"),
    ])
    def test_non_integer_config_value_exit_3(self, capsys, tmp_path, command, settings):
        code, out, err = run(capsys, [command, "--config", self.branches_config(tmp_path, settings)])
        assert code == EXIT_CONFIG
        assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize("command, settings, bad", [
        ("scan", "factor1 = sphere 2\nfactor2 = hemisphere 2\nwindow = 1:2\nformat = xml\n", "xml"),
        ("spectrum", "factor1 = sphere 2\nbelow = 3\nformat = csv\n", "csv"),
    ], ids=["scan-xml", "spectrum-csv"])
    def test_config_format_outside_the_flag_choices_exit_3(self, capsys, tmp_path, command, settings, bad):
        cfg = tmp_path / "family.cfg"
        cfg.write_text(settings)
        code, out, err = run(capsys, [command, "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert err.startswith("error:") and f"argument --format: invalid choice: '{bad}'" in err and out == ""

    @pytest.mark.parametrize("command, config, flags", [
        ("spectrum", "factor1 = hemisphere 3 r2 2\nbelow = 20\nformat = json\n",
         ["--hemisphere", "3", "--r2", "2", "--below", "20", "--format", "json"]),
        # factor1 is read first wherever it stands in the file
        ("scan", "factor2 = hemisphere 2\nfactor1 = sphere 2 r2 1/2\nwindow = 0.1:10\nlambda_max = 100\nformat = csv\n",
         ["--sphere", "2", "--r2", "1/2", "--hemisphere", "2", "--window", "0.1:10", "--lambda-max", "100",
          "--format", "csv"]),
        ("branches", "factor1 = sphere 2\nfactor2 = hemisphere 2\nwindow = 1/2:3\nsamples = 7\nlimit = 2\n",
         [*SPHERE_HEMI, "--window", "1/2:3", "--samples", "7", "--limit", "2"]),
        ("verify", "factor1 = sphere 2\nfactor2 = interval 1\nwindow = 0.5:10\n",
         ["--sphere", "2", "--interval", "1", "--window", "0.5:10"]),
    ], ids=["spectrum", "scan", "branches", "verify"])
    def test_config_gives_the_output_of_the_same_flags(self, capsys, tmp_path, command, config, flags):
        cfg = tmp_path / "family.cfg"
        cfg.write_text(config + f"out = {tmp_path / 'from_config.txt'}\n")
        assert run(capsys, [command, "--config", str(cfg)]) == (EXIT_OK, "", "")
        assert run(capsys, [command, *flags, "--out", str(tmp_path / "from_flags.txt")]) == (EXIT_OK, "", "")
        from_config = (tmp_path / "from_config.txt").read_bytes()
        assert from_config and from_config == (tmp_path / "from_flags.txt").read_bytes()

    @pytest.mark.parametrize("command", ["scan", "branches", "verify"])
    def test_keys_the_subcommand_has_no_flag_for_are_ignored(self, capsys, tmp_path, command):
        settings = "samples = 2000\nlimit = 1\nbelow = 3\nformat = json\n"
        code, out, err = run(capsys, [command, "--config", self.branches_config(tmp_path, settings)])
        assert code == EXIT_OK and err == ""
        if command == "scan":
            assert [i["s"] for i in json.loads(out)["instants"]] == ["2"]
        elif command == "branches":
            curves, rows = self.branches_table(out)
            assert curves == ["sigma_0_1", "sigma_1_1"] and len(rows) == 2000
        else:
            assert out.endswith("all checks passed\n")

    def test_settings_given_as_flags_are_not_read_from_the_config(self, capsys, tmp_path):
        cfg = tmp_path / "family.cfg"
        cfg.write_text("factor1 = bogus 1\nwindow = nowhere\nformat = xml\n")
        code, out, _ = run(capsys, ["scan", "--config", str(cfg), *SPHERE_HEMI, "--window", "1:3", "--format", "json"])
        assert code == EXIT_OK
        assert [i["s"] for i in json.loads(out)["instants"]] == ["2"]

    @pytest.mark.parametrize("command", ["scan", "verify"])
    def test_empty_config_window_exit_3(self, capsys, tmp_path, command):
        # verify's default window applies only when no window is given at all
        cfg = tmp_path / "family.cfg"
        cfg.write_text("factor1 = sphere 2\nfactor2 = hemisphere 2\nwindow =\n")
        code, out, err = run(capsys, [command, "--config", str(cfg)])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: bad window '', expected MIN:MAX\n"

    def test_repeated_key_exit_3(self, capsys, tmp_path):
        """Unlike a repeated flag, a repeated key is an error at its second line."""
        cfg = self.branches_config(tmp_path, "# a second window\nwindow = 3:4\n")
        assert run(capsys, ["scan", "--config", cfg]) == (
            EXIT_CONFIG, "", f"error: {cfg}: line 5: repeated key 'window' (first on line 3)\n")

    def test_config_error_names_the_file_and_the_value(self, capsys, tmp_path):
        cfg = self.branches_config(tmp_path, "samples = lots\n")
        code, out, err = run(capsys, ["branches", "--config", cfg])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith(f"error: {cfg}: ") and "'lots'" in err

    def test_config_format_json_for_spectrum(self, capsys, tmp_path):
        cfg = tmp_path / "factor.cfg"
        cfg.write_text("factor1 = sphere 2\nbelow = 3\nformat = json\n")
        code, out, _ = run(capsys, ["spectrum", "--config", str(cfg)])
        assert code == EXIT_OK
        assert json.loads(out)["eigenvalues"] == [{"value": "0", "multiplicity": 1}, {"value": "2", "multiplicity": 3}]


class TestBranches:
    def test_csv_shape_and_sign_change(self, capsys):
        code, out, _ = run(
            capsys, ["branches", *SPHERE_HEMI, "--window", "1.5:2.5", "--samples", "11"]
        )
        assert code == EXIT_OK
        comments = [line for line in out.splitlines() if line.startswith("#")]
        assert any("mult=2 monotonicity=decreasing" in c for c in comments)
        data = [line for line in out.splitlines() if not line.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(data))))
        assert len(rows) == 11
        # sigma_{0,1} vanishes at s = 2: negative after, positive before
        values = [(float(r["s"]), float(r["sigma_0_1"])) for r in rows]
        assert all(v > 0 for s, v in values if s < 1.99)
        assert all(v < 0 for s, v in values if s > 2.01)

    def test_includes_zeroless_context_branches(self, capsys):
        code, out, _ = run(
            capsys, ["branches", *SPHERE_HEMI, "--window", "1.5:2.5", "--samples", "3", "--limit", "3"]
        )
        header = next(line for line in out.splitlines() if line.startswith("s,"))
        assert "sigma_1_1" in header  # no zero, kept for context

    @pytest.mark.parametrize("limit, zeroless", [
        ([], ["sigma_0_1", "sigma_0_2", "sigma_1_0", "sigma_1_1"]),
        (["--limit", "1"], ["sigma_0_1"]),
    ])
    def test_limit_adds_exactly_that_many_zeroless_branches(self, capsys, limit, zeroless):
        # a rigid family: no instants, and every branch is zeroless
        code, out, _ = run(
            capsys, ["branches", "--torus", "1,1", "--interval", "1", "--window", "1/2:2", "--samples", "2", *limit]
        )
        assert code == EXIT_OK
        header = next(line for line in out.splitlines() if line.startswith("s,"))
        assert header.split(",")[1:] == zeroless

    def test_limit_stops_at_the_listed_levels(self, capsys, tmp_path):
        closed = write_custom(tmp_path, "closed.spec", levels="eig 0 1\neig 1 2\n", dim=2, curv=2, lam=100)
        boundary = tmp_path / "boundary.spec"
        boundary.write_text(
            "dim = 2\nscalar_curvature = 2\nhas_boundary = true\n"
            "boundary_minimal = true\nlambda_max = 100\neig 0 1\neig 1 1\n"
        )
        code, out, _ = run(
            capsys, ["branches", "--custom", closed, "--custom", str(boundary), "--window", "1/4:4", "--samples", "2"]
        )
        assert code == EXIT_OK
        header = next(line for line in out.splitlines() if line.startswith("s,"))
        # zeros at s = 1/2 and s = 2; (1, 1) is the only zeroless branch the listed levels allow
        assert header.split(",")[1:] == ["sigma_0_1", "sigma_1_0", "sigma_1_1"]


class TestVerify:
    @pytest.mark.parametrize("closed_extra, closed_max, boundary_max", [
        ("eig 50 1\n", 60, 12),  # the dense scan once read the boundary factor up to 82/3
        ("", 28, 60),  # brute force once read the closed factor up to R(s)/(m-1) + 1 = 85/3
    ], ids=["dense-scan", "brute-force"])
    def test_custom_factors_complete_up_to_what_scan_reads(self, capsys, tmp_path, closed_extra, closed_max,
                                                          boundary_max):
        closed = write_custom(tmp_path, "closed.spec", "eig 0 1\neig 1 2\neig 3 1\neig 7 2\neig 20 1\n" + closed_extra,
                              dim=2, curv=2, lam=closed_max)
        boundary = tmp_path / "boundary.spec"
        boundary.write_text(
            "dim = 2\nscalar_curvature = 2\nhas_boundary = true\nboundary_minimal = true\n"
            f"lambda_max = {boundary_max}\neig 0 1\neig 1 1\neig 5 2\neig 11 1\n"
        )
        family = ["--custom", closed, "--custom", str(boundary), "--window", "1/40:1"]
        assert run(capsys, ["scan", *family])[0] == EXIT_OK
        code, out, err = run(capsys, ["verify", *family])
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines() == [
            f"SKIP factor1 {closed}: listed levels: no oracle checks a custom spectrum",
            f"SKIP factor2 {boundary}: listed levels: no oracle checks a custom spectrum",
            "PASS degeneracy instants vs dense scan: 4 exact instants, 4 brackets",
            "PASS Morse index vs brute force: 7 probe points agree",
            "all checks passed",
        ]

    def test_agrees_with_scan_near_a_threshold(self, capsys, tmp_path):
        """Branch (1, 2) has a = 4.9e-9 and b = 1.02e-9, both above the
        tolerance 1e-9, so it is positive at every s and scan finds no
        instant; verify must not call the window end a degeneracy instant."""
        closed = tmp_path / "closed.spec"
        closed.write_text(
            "dim = 3\nscalar_curvature = 6\nhas_boundary = false\nboundary_minimal = false\n"
            "tolerance = 1e-9\nlambda_max = 200\neig 0 1\neig 1.5000000049164488 3\n"
        )
        boundary = tmp_path / "boundary.spec"
        boundary.write_text(
            "dim = 2\nscalar_curvature = 10\nhas_boundary = true\nboundary_minimal = true\n"
            "tolerance = 1e-9\nlambda_max = 200\neig 0 1\neig 1.3333333333333333 2\neig 2.500000001020945 1\n"
        )
        family = ["--custom", str(closed), "--custom", str(boundary), "--window", "0.05:1"]
        code, out, _ = run(capsys, ["scan", *family])
        assert code == EXIT_OK and "instants (0):" in out
        code, out, err = run(capsys, ["verify", *family])
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "all checks passed"

    def test_oracles_apply_the_sign_rule_of_scan(self, capsys, tmp_path):
        """Branch (1, 1) has a within the tolerance of 0, so scan keeps it at
        the sign of b at every s, while brute force reads the raw float sign
        of a: s=5: engine 11 vs brute 5."""
        closed = tmp_path / "closed.spec"
        closed.write_text(
            "dim = 2\nscalar_curvature = 6\nhas_boundary = false\nboundary_minimal = false\n"
            "tolerance = 1e-9\nlambda_max = 100\neig 0 1\neig 2.0000000006652865 2\n"
        )
        boundary = tmp_path / "boundary.spec"
        boundary.write_text(
            "dim = 2\nscalar_curvature = 6\nhas_boundary = true\nboundary_minimal = true\n"
            "tolerance = 1e-9\nlambda_max = 100\neig 0 1\neig 1.999999997990738 3\n"
        )
        family = ["--custom", str(closed), "--custom", str(boundary), "--window", "5:10"]
        code, out, _ = run(capsys, ["scan", *family])
        assert code == EXIT_OK and "instants (0):" in out
        code, out, err = run(capsys, ["verify", *family])
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "all checks passed"

    @pytest.mark.parametrize("closed_levels, boundary_curvature, window", [
        ("eig 0 1\neig 1.5 2\neig 3 1\n", "1e-12", "0.5:4"),
        ("eig 0 1\neig 0.99999995 1\neig 2 1\n", "-3e-10", "0.0001:0.001"),
    ], ids=["above-0", "below-0"])
    def test_boundary_threshold_within_the_tolerance_of_0(self, capsys, tmp_path, closed_levels,
                                                          boundary_curvature, window):
        """T2 = R2/3 lies within the tolerance of 0 but not at it, so scan
        and both oracles read the closed factor to T1 = 1.  Below 0, that
        takes in the level 0.99999995, whose branch (1, 0), -5e-8 + 0/s by
        the coefficient rule, is negative on the whole window."""
        closed = tmp_path / "closed.spec"
        closed.write_text(
            "dim = 2\nscalar_curvature = 3\nhas_boundary = false\nboundary_minimal = false\n"
            "tolerance = 1e-9\nlambda_max = 100\n" + closed_levels
        )
        boundary = tmp_path / "boundary.spec"
        boundary.write_text(
            f"dim = 2\nscalar_curvature = {boundary_curvature}\nhas_boundary = true\nboundary_minimal = true\n"
            "tolerance = 1e-9\nlambda_max = 100\neig 0 1\neig 1.5 2\n"
        )
        code, out, err = run(capsys, ["verify", "--custom", str(closed), "--custom", str(boundary), "--window", window])
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "all checks passed"

    @pytest.mark.parametrize("window", ["0.0001:0.001", "0.0001:1"])
    def test_index_does_not_depend_on_the_window(self, capsys, tmp_path, window):
        """T2 = -1e-10 lies within the tolerance of 0, so branch (1, 0),
        -5e-8 + 0/s by the coefficient rule, is negative at every s, and
        scan counts it on every window.  Reading the closed factor to
        T1 + T2/s_max took in the level 0.99999995 on the wider window but
        not over the instant's span, so the closing recount failed there."""
        closed = tmp_path / "closed.spec"
        closed.write_text(
            "dim = 2\nscalar_curvature = 3\nhas_boundary = false\nboundary_minimal = false\n"
            "tolerance = 1e-9\nlambda_max = 100\neig 0 1\neig 0.99999995 1\neig 2 1\n"
        )
        boundary = tmp_path / "boundary.spec"
        boundary.write_text(
            "dim = 2\nscalar_curvature = -3e-10\nhas_boundary = true\nboundary_minimal = true\n"
            "tolerance = 1e-9\nlambda_max = 100\neig 0 1\neig 0.0005 2\neig 1.5 2\n"
        )
        family = ["--custom", str(closed), "--custom", str(boundary), "--window", window]
        code, out, err = run(capsys, ["scan", *family])
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[4:] == [
            "instants (1):",
            "  s = 0.00050000010000000004  branches = (0,1)  mult = 2  n- = 1  n+ = 3  certified = yes  side = unbounded",
        ]
        code, out, err = run(capsys, ["verify", *family])
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "all checks passed"

    def test_closed_threshold_within_the_tolerance_of_0(self, capsys, tmp_path):
        """T1 = R1/3 lies within the tolerance of 0 but not at it, so scan
        reads the boundary factor to T2 = 2, its lambda_max, and no further.
        Brute force must read it as far at each probe, not to
        T2 + s*T1 = 2.0000003333333329 at s = 1e6."""
        closed = tmp_path / "closed.spec"
        closed.write_text(
            "dim = 2\nscalar_curvature = 1e-12\nhas_boundary = false\nboundary_minimal = false\n"
            "tolerance = 1e-9\nlambda_max = 1000\neig 0 1\neig 1.5 3\neig 4 2\neig 9 4\n"
        )
        boundary = tmp_path / "boundary.spec"
        boundary.write_text(
            "dim = 2\nscalar_curvature = 6\nhas_boundary = true\nboundary_minimal = true\n"
            "tolerance = 1e-9\nlambda_max = 2\neig 0 1\neig 0.5 2\neig 1.25 1\n"
        )
        family = ["--custom", str(closed), "--custom", str(boundary), "--window", "0.5:1000000"]
        code, out, err = run(capsys, ["scan", *family])
        assert (code, err) == (EXIT_OK, "")
        assert "instants (3):" in out
        code, out, err = run(capsys, ["verify", *family])
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-3:] == [
            "PASS degeneracy instants vs dense scan: 3 exact instants, 3 brackets",
            "PASS Morse index vs brute force: 6 probe points agree",
            "all checks passed",
        ]

    def test_critical_indices_use_the_sign_rule_of_the_walk(self, capsys, tmp_path):
        """T1 = T2 = 10 and branch (1, 1) has a = -b = 5e-9, both beyond the
        tolerance 1e-9 of 0 although each level is within 1e-9 * 10 of its
        threshold: the pair is not degenerate, and the branch vanishes at
        s = 1 only."""
        closed = tmp_path / "closed.spec"
        closed.write_text(
            "dim = 2\nscalar_curvature = 30\nhas_boundary = false\nboundary_minimal = false\n"
            "tolerance = 1e-9\nlambda_max = 100\neig 0 1\neig 10.000000005 2\n"
        )
        boundary = tmp_path / "boundary.spec"
        boundary.write_text(
            "dim = 2\nscalar_curvature = 30\nhas_boundary = true\nboundary_minimal = true\n"
            "tolerance = 1e-9\nlambda_max = 100\neig 0 1\neig 9.999999995 3\n"
        )
        family = ["--custom", str(closed), "--custom", str(boundary), "--window", "0.5:2"]
        code, out, err = run(capsys, ["scan", *family])
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines() == [
            f"family: {closed} x {boundary}",
            "classification: BothPositive",
            "accumulation: instants accumulate at 0 and at +inf",
            "window: [0.5, 2]  lambda_max: None  mode: float",
            "instants (1):",
            "  s = 1  branches = (1,1)  mult = 6  n- = 11  n+ = 5  certified = yes  side = tending-to-zero",
        ]
        code, out, err = run(capsys, ["verify", *family])
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "all checks passed"

    def test_passes_on_catalog_family(self, capsys):
        code, out, _ = run(
            capsys, ["verify", *SPHERE_HEMI, "--window", "0.1:10"]
        )
        assert code == EXIT_OK
        assert "all checks passed" in out
        assert "FAIL" not in out
        assert "hemisphere multiplicities" in out
        assert "sphere multiplicities" in out
        assert "dense scan" in out
        assert "brute force" in out

    def test_interval_factor_checked_against_fd(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--sphere", "2", "--interval", "1", "--window", "0.5:10"]
        )
        assert code == EXIT_OK
        assert "FD Neumann spectrum" in out

    def test_instant_on_window_end(self, capsys):
        # 1/75 is the zero of an increasing branch; the dense scan must count it
        code, out, _ = run(
            capsys, ["verify", "--torus", "3/4,3/4", "--hemisphere", "2", "--r2", "3/2", "--window", "1/75:1"]
        )
        assert "13 exact instants, 13 brackets" in out
        assert "all checks passed" in out
        assert code == EXIT_OK

    def test_instant_at_the_dense_scan_bound(self, capsys):
        # the zero at s = 4/3 is on a level equal to the dense scan's exact
        # bound 4/3, which rounds below itself as a float
        code, out, _ = run(
            capsys, ["verify", "--sphere", "2", "--hemisphere", "2", "--r2", "3/2", "--window", "2/3:4/3"]
        )
        assert "1 exact instants, 1 brackets" in out
        assert code == EXIT_OK

    @pytest.mark.parametrize("factors, checked", [
        (["--sphere", "6", "--hemisphere", "5"],
         ["PASS factor1 S^6(r2=1): sphere multiplicities: harmonic kernel ranks, k <= 6",
          "PASS factor2 S^5+(r2=1): hemisphere multiplicities: even-harmonic kernel ranks, k <= 8"]),
        (["--sphere", "2", "--hemisphere", "94"],
         ["PASS factor1 S^2(r2=1): sphere multiplicities: harmonic kernel ranks, k <= 12",
          "PASS factor2 S^94+(r2=1): hemisphere multiplicities: even-harmonic kernel ranks, k <= 1"]),
    ], ids=["sphere6-hemisphere5", "hemisphere94"])
    def test_round_factor_of_any_dimension_is_checked(self, capsys, factors, checked):
        code, out, _ = run(capsys, ["verify", *factors, "--window", "1/10:10"])
        lines = out.splitlines()
        assert lines[:2] == checked
        assert not any(line.startswith("SKIP") for line in lines)
        assert lines[-1] == "all checks passed"
        assert code == EXIT_OK

    def test_factor_beyond_the_kernel_rank_budget_is_skipped(self, capsys):
        code, out, _ = run(capsys, ["verify", "--sphere", "95", "--hemisphere", "2", "--window", "1/10:10"])
        lines = out.splitlines()
        assert lines[0] == ("SKIP factor1 S^95(r2=1): sphere multiplicities: "
                            "kernel-rank budget covers no degree k >= 1 for n = 95")
        assert lines[1].startswith("PASS factor2 S^2+(r2=1)")
        assert lines[-1] == "all checks passed"
        assert code == EXIT_OK

    def test_custom_file_named_like_a_sphere(self, capsys, tmp_path, monkeypatch):
        """The oracle is chosen by the factor's kind, not by its label."""
        levels = "".join(f"eig {k * k}/2 1\n" for k in range(14))
        write_custom(tmp_path, name="S^2.spec", levels=levels, dim=2, curv=2, lam=100)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(
            capsys, ["verify", "--custom", "S^2.spec", "--hemisphere", "2", "--window", "0.5:5"]
        )
        assert "FAIL" not in out
        assert "all checks passed" in out
        assert code == EXIT_OK

    def test_fault_injection_fails(self, capsys, monkeypatch):
        """Corrupting the catalog hemisphere multiplicity table must be caught
        by the independent even-harmonic kernel-rank oracle."""
        real = spectra.even_harmonic_multiplicity

        def corrupted(n, k):
            return real(n, k) + (1 if k == 3 else 0)

        monkeypatch.setattr(spectra, "even_harmonic_multiplicity", corrupted)
        code, out, _ = run(
            capsys, ["verify", *SPHERE_HEMI, "--window", "0.5:5"]
        )
        assert code == EXIT_FAILURE
        assert "FAIL" in out
        assert "hemisphere multiplicities" in out.split("FAIL", 1)[1]

    @staticmethod
    def _bump_jumps(monkeypatch, bumps):
        """Add bumps[k] to the jump of the k-th instant the engine finds."""
        real = bifurcation._search

        def bumped(fam, window, lam):
            instants, start = real(fam, window, lam)
            return [inst._replace(jump=inst.jump + bumps.get(k, 0)) for k, inst in enumerate(instants)], start

        monkeypatch.setattr(bifurcation, "_search", bumped)

    def test_one_wrong_jump_fails_the_closing_recount(self, capsys, monkeypatch):
        """verify certifies through the classify_family call that scan makes,
        so one wrong jump fails its closing recount before brute force runs."""
        self._bump_jumps(monkeypatch, {3: 1})
        code, out, err = run(capsys, ["verify", *SPHERE_HEMI, "--window", "0.01:20"])
        assert code == EXIT_FAILURE
        assert "recounts to" in err
        assert out == ""

    def test_wrong_jump_fails_the_brute_force_check(self, capsys, monkeypatch):
        """The Morse check compares brute force with the indices that scan
        reports, so two wrong jumps that cancel, which the closing recount
        cannot see, fail it."""
        self._bump_jumps(monkeypatch, {3: 1, 4: -1})
        code, out, _ = run(capsys, ["verify", *SPHERE_HEMI, "--window", "0.01:20"])
        assert code == EXIT_FAILURE
        assert "PASS degeneracy instants vs dense scan" in out
        assert "FAIL Morse index vs brute force: s=23/493: engine 16 vs brute 15" in out
        assert "1 check(s) failed" in out

    @given(data=st.data())
    @settings(derandomize=True, deadline=None)  # max_examples from the profile: see conftest.py
    def test_passes_on_random_closed_form_families(self, data):
        """Every check PASSes or SKIPs on a round sphere (n <= 4) or a flat
        torus (d <= 2) times a hemisphere (n <= 4) or an interval, of small
        rational radii and lengths, on a window with s_max/s_min <= 400; a
        degenerate pair, which verify answers with exit 2, is rejected.
        Tori of d = 3 are left out only for time: one T^3[2,6,1/2] x
        S^4_+(r2=2/3) family on (1/390, 3) takes about 15 s, 13 s of it in
        classify_family's box enumeration of the torus."""
        small = st.fractions(Fraction(1, 4), 4, max_denominator=4)
        if data.draw(st.booleans()):
            closed = spectra.flat_torus(data.draw(st.lists(small, min_size=1, max_size=2)))
        else:
            closed = spectra.round_sphere(data.draw(st.integers(1, 4)), data.draw(small))
        if data.draw(st.booleans()):
            boundary = spectra.hemisphere_neumann(data.draw(st.integers(2, 4)), data.draw(small))
        else:
            boundary = spectra.interval_neumann(data.draw(small))
        assume(closed.dim + boundary.dim >= 3)  # make_family refuses m < 3
        fam = make_family(closed, boundary)
        s_min = data.draw(st.fractions(Fraction(1, 400), 10, max_denominator=400))
        s_max = s_min * data.draw(st.fractions(Fraction(21, 20), 400, max_denominator=20))
        try:
            checks = list(cli._verify_checks(fam, (s_min, s_max), None))
        except DegeneratePairError:
            reject()
        assert [check for check in checks if check[1] is False] == []

    def test_degenerate_pair_exit_2(self, capsys, tmp_path):
        f1, f2 = write_degenerate_pair(tmp_path)
        code, out, err = run(capsys, ["verify", "--custom", f1, "--custom", f2, "--window", "0.1:10"])
        assert code == EXIT_DEGENERATE
        assert "degenerate pair" in err
        assert out == ""

    # stdout of one catalogue operation per verify stratum of the benchmark,
    # recorded before the sweep, the block ranks and the Newton steps
    GOLDEN = {
        "sphere-hemisphere": (
            "--sphere 3 --r2 2/3 --hemisphere 2 --r2 3 --window 1001/100000:3003/20",
            "PASS factor1 S^3(r2=2/3): sphere multiplicities: harmonic kernel ranks, k <= 12\n"
            "PASS factor2 S^2+(r2=3): hemisphere multiplicities: even-harmonic kernel ranks, k <= 10\n"
            "PASS degeneracy instants vs dense scan: 33 exact instants, 33 brackets\n"
            "PASS Morse index vs brute force: 36 probe points agree\n"
            "all checks passed\n",
        ),
        "sphere-interval": (
            "--sphere 2 --r2 2/3 --interval 5/2 --window 1001/100000:3003/20",
            "PASS factor1 S^2(r2=2/3): sphere multiplicities: harmonic kernel ranks, k <= 12\n"
            "PASS factor2 I(lambda=5/2): FD Neumann spectrum: max rel err 1.67e-05\n"
            "PASS degeneracy instants vs dense scan: 37 exact instants, 37 brackets\n"
            "PASS Morse index vs brute force: 40 probe points agree\n"
            "all checks passed\n",
        ),
        "torus-hemisphere": (
            "--torus 3/4,3/4 --hemisphere 2 --r2 3/2 --window 1001/150000:1001/1000",
            "PASS factor2 S^2+(r2=3/2): hemisphere multiplicities: even-harmonic kernel ranks, k <= 10\n"
            "PASS degeneracy instants vs dense scan: 23 exact instants, 23 brackets\n"
            "PASS Morse index vs brute force: 26 probe points agree\n"
            "all checks passed\n",
        ),
    }

    @pytest.mark.parametrize("stratum", sorted(GOLDEN))
    def test_golden_output(self, capsys, stratum):
        argv, expected = self.GOLDEN[stratum]
        code, out, _ = run(capsys, ["verify", *argv.split()])
        assert code == EXIT_OK
        assert out == expected


def _exact_custom_family():
    return make_family(
        custom_spectrum(2, 3, [(0, 1), (Fraction(1, 2), 2), (2, 2), (Fraction(7, 2), 1)], 100, label="closed"),
        custom_spectrum(2, 3, [(0, 1), (Fraction(1, 3), 1), (Fraction(3, 2), 2), (3, 1)], 100,
                        has_boundary=True, boundary_minimal=True, label="boundary"),
    )


class TestProbeIndices:
    """verify's one-sweep indices equal a Morse count at every probe, and a
    probe is skipped exactly when that count refuses it as an instant."""

    @pytest.mark.parametrize("name, window", [
        ("sphere_hemisphere", (Fraction(1, 100), 20)),
        ("sphere_hemisphere", (Fraction(1, 2), 8)),  # both ends on instants
        ("torus_hemisphere", (Fraction(1, 75), 1)),
        ("sphere_interval", (Fraction(1, 2), 50)),
        ("exact custom", (Fraction(1, 4), 4)),
        ("exact custom", (Fraction(1, 2), 1)),
        ("torus_interval", (Fraction(1, 10), 10)),  # no instants
    ])
    def test_sweep_matches_morse_index(self, request, name, window):
        fam = _exact_custom_family() if name == "exact custom" else request.getfixturevalue(name)
        certified = bifurcation.classify_family(fam, window).instants
        probes = cli._probe_indices(fam, window, certified)
        assert len(probes) == len(certified) + 3
        for s, index in probes:
            try:
                expected = morse_index(fam, s)
            except DegeneracyInstantError:
                expected = None
            assert index == expected, s
