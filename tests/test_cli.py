import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from yamabe_bifurcation import (
    DegeneracyInstantError,
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


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_undecodable_custom_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, ["scan", "--custom", str(bad), "--sphere", "2", "--window", "1/2:2"])
        assert code == EXIT_CONFIG
        assert err.startswith("error:") and "not UTF-8" in err and out == ""

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
        ["spectrum", "--sphere", "2", "--below", "abc"],
        ["spectrum", "--sphere", "2", "--below", "-1"],
        ["spectrum", "--torus", "1,1", "--below", "1/0"],
        ["scan", *SPHERE_HEMI, "--window", "1:2", "--lambda-max", "abc"],
        ["verify", *SPHERE_HEMI, "--window", "1:2", "--samples", "10"],
    ])
    def test_bad_number_exit_3(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == EXIT_CONFIG
        assert err.startswith("error:")
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
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "s = 2" in proc.stdout

    def test_scan_json_does_not_import_dataclasses_inspect_or_csv(self):
        script = (
            "import sys\n"
            "import yamabe_bifurcation.cli\n"
            "yamabe_bifurcation.cli.main(['scan', '--sphere', '2', '--hemisphere', '2', '--window', '1:3',"
            " '--format', 'json'])\n"
            "loaded = sorted({'dataclasses', 'inspect', 'csv'} & sys.modules.keys())\n"
            "sys.exit(f'imported {loaded}' if loaded else 0)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["instants"][0]["s"] == "2"

    def test_verify_does_not_import_scipy(self):
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from yamabe_bifurcation import cli\n"
            "sys.exit(cli.main(['verify', '--sphere', '2', '--interval', '1',"
            " '--window', '0.5:10', '--samples', '2000']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "FD Neumann spectrum" in proc.stdout
        assert "all checks passed" in proc.stdout


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
        cfg = tmp_path / "family.cfg"
        cfg.write_text("nonsense line\n")
        code, _, err = run(capsys, ["scan", "--config", str(cfg), "--window", "1:2"])
        assert code == EXIT_CONFIG
        assert "family.cfg:1" in err

    def test_undecodable_config_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, ["scan", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert err.startswith("error:") and "bad.cfg: not UTF-8" in err and out == ""

    def test_missing_config_exit_3(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["scan", "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_CONFIG

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
        ("verify", "samples = lots\n"),
    ])
    def test_non_integer_config_value_exit_3(self, capsys, tmp_path, command, settings):
        code, out, err = run(capsys, [command, "--config", self.branches_config(tmp_path, settings)])
        assert code == EXIT_CONFIG
        assert err.startswith("error:") and out == ""


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
    def test_passes_on_catalog_family(self, capsys):
        code, out, _ = run(
            capsys, ["verify", *SPHERE_HEMI, "--window", "0.1:10", "--samples", "5000"]
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
            capsys, ["verify", "--sphere", "2", "--interval", "1", "--window", "0.5:10", "--samples", "2000"]
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
            capsys, ["verify", "--sphere", "2", "--hemisphere", "2", "--r2", "3/2", "--window", "2/3:4/3", "--samples", "2000"]
        )
        assert "1 exact instants, 1 brackets" in out
        assert code == EXIT_OK

    @pytest.mark.parametrize("factors, skipped", [
        (["--sphere", "5", "--hemisphere", "2"], "factor1 S^5(r2=1): sphere multiplicities"),
        (["--sphere", "2", "--hemisphere", "5"], "factor2 S^5+(r2=1): hemisphere multiplicities"),
    ])
    def test_factor_beyond_the_kernel_rank_oracle_is_skipped(self, capsys, factors, skipped):
        code, out, _ = run(capsys, ["verify", *factors, "--window", "1/10:10"])
        lines = out.splitlines()
        assert f"SKIP {skipped}: kernel-rank oracle covers n <= 4" in lines
        assert sum(line.startswith("PASS factor") for line in lines) == 1
        assert lines[-1] == "all checks passed"
        assert code == EXIT_OK

    def test_custom_file_named_like_a_sphere(self, capsys, tmp_path, monkeypatch):
        """The oracle is chosen by the factor's kind, not by its label."""
        levels = "".join(f"eig {k * k}/2 1\n" for k in range(14))
        write_custom(tmp_path, name="S^2.spec", levels=levels, dim=2, curv=2, lam=100)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(
            capsys, ["verify", "--custom", "S^2.spec", "--hemisphere", "2", "--window", "0.5:5", "--samples", "2000"]
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
            capsys, ["verify", *SPHERE_HEMI, "--window", "0.5:5", "--samples", "2000"]
        )
        assert code == EXIT_FAILURE
        assert "FAIL" in out
        assert "hemisphere multiplicities" in out.split("FAIL", 1)[1]

    @staticmethod
    def _bump_jumps(monkeypatch, bumps):
        """Add bumps[k] to the jump of the k-th instant the engine finds."""
        real = bifurcation.degeneracy_instants

        def bumped(fam, window, lam=None):
            instants = real(fam, window, lam)
            return [inst._replace(jump=inst.jump + bumps.get(k, 0)) for k, inst in enumerate(instants)]

        monkeypatch.setattr(bifurcation, "degeneracy_instants", bumped)

    def test_one_wrong_jump_fails_the_closing_recount(self, capsys, monkeypatch):
        """verify certifies through the classify_family call that scan makes,
        so one wrong jump fails its closing recount before brute force runs."""
        self._bump_jumps(monkeypatch, {3: 1})
        code, out, err = run(capsys, ["verify", *SPHERE_HEMI, "--window", "0.01:20", "--samples", "2000"])
        assert code == EXIT_FAILURE
        assert "recounts to" in err
        assert out == ""

    def test_wrong_jump_fails_the_brute_force_check(self, capsys, monkeypatch):
        """The Morse check compares brute force with the indices that scan
        reports, so two wrong jumps that cancel, which the closing recount
        cannot see, fail it."""
        self._bump_jumps(monkeypatch, {3: 1, 4: -1})
        code, out, _ = run(capsys, ["verify", *SPHERE_HEMI, "--window", "0.01:20", "--samples", "2000"])
        assert code == EXIT_FAILURE
        assert "PASS degeneracy instants vs dense scan" in out
        assert "FAIL Morse index vs brute force: s=23/493: engine 16 vs brute 15" in out
        assert "1 check(s) failed" in out

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
