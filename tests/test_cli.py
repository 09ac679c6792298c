import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ladderlab
from ladderlab import cli
from ladderlab.cli import main


def run_cli(args, tmp_path, capsys, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    captured = capsys.readouterr()
    return code, out, captured


def run_module(argv, code=None):
    """Run `python -m ladderlab.cli argv` (or `python -c code`) on this source tree."""
    src = str(Path(ladderlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    command = ["-c", code] if code is not None else ["-m", "ladderlab.cli", *argv]
    return subprocess.run([sys.executable, *command], capture_output=True, text=True, env=env)


def read_csv(path):
    manifest, checks, rows = {}, {}, []
    header = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# check "):
            key, _, value = line[len("# check "):].partition("=")
            checks[key] = value
        elif line.startswith("#"):
            manifest[len(manifest)] = line
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return manifest, checks, header, rows


class TestRep:
    def test_su2_dump(self, tmp_path, capsys):
        code, out, captured = run_cli(
            ["rep", "--algebra", "su2", "--l", "3"], tmp_path, capsys
        )
        assert code == 0
        assert captured.out.strip() == str(out)
        manifest, checks, header, rows = read_csv(out)
        assert header == ["operator", "row", "col", "re", "im"]
        assert checks["dim"] == "7"
        assert float(checks["relations_residual"]) < 1e-12
        lplus = {(r["row"], r["col"]): float(r["re"]) for r in rows if r["operator"] == "L+"}
        assert abs(lplus[("1", "0")] - math.sqrt(6.0)) < 1e-12
        # 7x7: six ladder elements each way, seven diagonal entries (one zero)
        assert len(lplus) == 6

    def test_su11_dump(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["rep", "--algebra", "su11", "--k", "0.5", "--dim", "40"], tmp_path, capsys
        )
        assert code == 0
        _, checks, _, rows = read_csv(out)
        assert float(checks["relations_residual"]) < 1e-12
        lplus = {(r["row"], r["col"]): float(r["re"]) for r in rows if r["operator"] == "L+"}
        assert abs(lplus[("4", "3")] - 4.0) < 1e-12

    def test_invalid_weight_exits_2(self, tmp_path, capsys):
        code, _, captured = run_cli(
            ["rep", "--algebra", "su11", "--k", "0.2", "--dim", "10"], tmp_path, capsys
        )
        assert code == 2
        assert "half-integer" in captured.err

    def test_missing_param_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(["rep", "--algebra", "su2"], tmp_path, capsys)
        assert code == 2

    def test_contaminated_interior_breaches(self, tmp_path, capsys):
        code, out, captured = run_cli(
            ["rep", "--algebra", "su11", "--k", "0.5", "--dim", "10", "--interior", "10"],
            tmp_path,
            capsys,
        )
        assert code == 3
        assert "breach" in captured.err
        assert out.exists()  # the file is still written for inspection


class TestContract:
    def test_study(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["contract", "--family", "su2", "--params", "5,10,20,40", "--n", "3"],
            tmp_path,
            capsys,
        )
        assert code == 0
        _, checks, header, rows = read_csv(out)
        assert header == ["param", "n", "deviation"]
        column = [float(r["deviation"]) for r in rows if r["n"] == "3"]
        assert np.allclose(column, [0.6, 0.3, 0.15, 0.075], atol=1e-12)
        assert abs(float(checks["fitted_slope"]) + 1.0) < 1e-6

    def test_hp(self, tmp_path, capsys):
        code, out, _ = run_cli(["contract", "--hp", "--dim", "64"], tmp_path, capsys)
        assert code == 0
        _, checks, _, _ = read_csv(out)
        assert float(checks["hp_max_deviation"]) < 1e-12

    def test_identities(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["contract", "--identities", "--l", "3", "--tau", "1"], tmp_path, capsys
        )
        assert code == 0
        _, _, header, rows = read_csv(out)
        assert header == ["l", "tau", "identity", "residual"]
        residuals = {r["identity"]: float(r["residual"]) for r in rows}
        assert residuals["deformed_commutator"] < 1e-12
        assert residuals["hamiltonian_decomposition"] < 1e-12

    def test_mode_exclusivity(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["contract", "--hp", "--identities", "--l", "3"], tmp_path, capsys
        )
        assert code == 2


class TestEvolve:
    def test_n7(self, tmp_path, capsys):
        code, out, _ = run_cli(["evolve", "--N", "7", "--tau", "1"], tmp_path, capsys)
        assert code == 0
        _, checks, _, rows = read_csv(out)
        energies = [float(r["energy"]) for r in rows]
        assert np.allclose(energies, (np.arange(7) + 0.5) * 2 * math.pi / 7, atol=1e-10)
        assert abs(float(checks["phase_re"]) + 1.0) < 1e-12
        assert abs(float(checks["phase_im"])) < 1e-12

    def test_n2_custom_tau(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["evolve", "--N", "2", "--tau", "3.14159265358979"], tmp_path, capsys
        )
        assert code == 0
        _, _, _, rows = read_csv(out)
        energies = [float(r["energy"]) for r in rows]
        assert np.allclose(energies, [0.5, 1.5], atol=1e-10)

    def test_omega_units(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["evolve", "--N", "5", "--units", "omega"], tmp_path, capsys
        )
        assert code == 0
        _, _, _, rows = read_csv(out)
        assert np.allclose(
            [float(r["energy"]) for r in rows], np.arange(5) + 0.5, atol=1e-12
        )

    def test_single_state_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(["evolve", "--N", "1"], tmp_path, capsys)
        assert code == 2


class TestOrbit:
    def test_thooft_with_curve(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["orbit", "--thooft-N", "7", "--curve-samples", "2000"], tmp_path, capsys
        )
        assert code == 0
        _, checks, header, rows = read_csv(out)
        assert header == ["record", "index", "t", "x", "y", "theta"]
        touches = [r for r in rows if r["record"] == "touch"]
        curve = [r for r in rows if r["record"] == "curve"]
        assert len(touches) == 7
        assert len(curve) == 2000
        assert checks["period_steps"] == "7"
        angles = sorted(float(r["theta"]) for r in touches)
        assert np.allclose(angles, sorted((2 * math.pi * j / 7) % (2 * math.pi) for j in range(1, 8)), atol=1e-12)

    def test_two_circle_irrational(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "orbit", "--two-circle", "--q-num", "5", "--q-den", "3",
                "--q-irr-add", "pi/40", "--steps", "200",
            ],
            tmp_path,
            capsys,
        )
        assert code == 0
        _, checks, _, rows = read_csv(out)
        assert checks["period_steps"] == ""
        assert float(checks["min_touch_gap"]) > 1e-9
        assert len([r for r in rows if r["record"] == "touch"]) == 200

    def test_two_circle_rational_above_one_rejected(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["orbit", "--two-circle", "--q-num", "5", "--q-den", "3"], tmp_path, capsys
        )
        assert code == 2

    def test_torus_golden(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["orbit", "--torus", "--ratio", "golden", "--steps", "10000"],
            tmp_path,
            capsys,
        )
        assert code == 0
        _, checks, header, rows = read_csv(out)
        assert header == ["step", "phi1", "phi2"]
        assert len(rows) == 10000
        assert float(checks["max_gap_1"]) < 1e-2
        assert float(checks["max_gap_2"]) < 1e-2

    def test_rational_int64_overflow_exits_2(self, tmp_path, capsys):
        code, out, captured = run_cli(
            ["orbit", "--two-circle", "--q-num", "1", "--q-den", str(2**62), "--steps", "3"],
            tmp_path, capsys,
        )
        assert code == 2
        assert "below 2**63" in captured.err
        assert not out.exists()

    def test_torus_needs_rotations(self, tmp_path, capsys):
        code, _, _ = run_cli(["orbit", "--torus"], tmp_path, capsys)
        assert code == 2

    def test_mode_exclusivity(self, tmp_path, capsys):
        code, _, _ = run_cli(["orbit", "--thooft-N", "7", "--torus"], tmp_path, capsys)
        assert code == 2


class TestRowLimit:
    """Row counts above MAX_ROWS exit 2 naming the flag, before anything is allocated."""

    HUGE = str(2**62)

    @pytest.fixture(autouse=True)
    def no_row_arrays(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rows were computed for a rejected row count")

        for name in ("touch_points", "simulate_torus", "spectrum_via_dft",
                     "geometric_phase_check"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("argv,flag", [
        (["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--steps", HUGE], "--steps"),
        (["orbit", "--torus", "--ratio", "golden", "--steps", HUGE], "--steps"),
        (["orbit", "--thooft-N", HUGE], "--thooft-N"),
        (["orbit", "--thooft-N", "7", "--curve-samples", HUGE], "--curve-samples"),
        (["orbit", "--torus", "--ratio", "golden", "--steps", str(cli.MAX_ROWS + 1)], "--steps"),
        (["evolve", "--N", HUGE], "--N"),
        (["evolve", "--N", str(cli.MAX_ROWS + 1)], "--N"),
    ])
    def test_rejected(self, argv, flag, tmp_path, capsys):
        code, out, captured = run_cli(argv, tmp_path, capsys)
        assert code == 2
        assert f"argument {flag}: at most {cli.MAX_ROWS} rows" in captured.err
        assert not out.exists()

    def test_limit_itself_parses(self):
        args = cli.build_parser().parse_args(
            ["orbit", "--thooft-N", str(cli.MAX_ROWS), "--curve-samples", str(cli.MAX_ROWS),
             "--steps", str(cli.MAX_ROWS)])
        assert args.thooft_n == args.curve_samples == args.steps == cli.MAX_ROWS
        args = cli.build_parser().parse_args(["evolve", "--N", str(cli.MAX_ROWS)])
        assert args.N == cli.MAX_ROWS


class TestSchwinger:
    def test_check_all(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["schwinger", "--nmax", "8", "--check", "all"], tmp_path, capsys
        )
        assert code == 0
        _, checks, header, rows = read_csv(out)
        assert header == ["check", "residual"]
        names = {r["check"] for r in rows}
        assert {
            "casimir_interior", "sector_match", "h0_vs_casimir", "hi_vs_l2",
            "h0_hi_commutator", "l2_commutator", "l2_double_commutator",
        } <= names
        assert all(float(r["residual"]) < 1e-10 for r in rows)

    def test_sector_dump_square_root_free(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["schwinger", "--nmax", "8", "--sector", "0", "--dump"], tmp_path, capsys
        )
        assert code == 0
        _, checks, _, rows = read_csv(out)
        assert checks["sector_size"] == "9"
        assert checks["induced_k"] == "0.5"
        lminus = [float(r["re"]) for r in rows if r["operator"] == "L-"]
        assert np.allclose(lminus, np.arange(1, 9), atol=1e-12)

    def test_zero_cutoff_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(["schwinger", "--nmax", "0"], tmp_path, capsys)
        assert code == 2

    @pytest.mark.parametrize("check", ["all", "l2"])
    def test_l2_checks_need_nmax_2(self, check, tmp_path, capsys):
        code, out, captured = run_cli(
            ["schwinger", "--nmax", "1", "--check", check], tmp_path, capsys
        )
        assert code == 2
        assert "--check all/l2 need --nmax >= 2" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("check", ["casimir", "sectors", "hamiltonian"])
    def test_other_checks_run_at_nmax_1(self, check, tmp_path, capsys):
        code, out, _ = run_cli(
            ["schwinger", "--nmax", "1", "--check", check], tmp_path, capsys
        )
        assert code == 0
        _, checks, _, _ = read_csv(out)
        assert checks

    def test_dump_needs_sector(self, tmp_path, capsys):
        code, _, _ = run_cli(["schwinger", "--nmax", "4", "--dump"], tmp_path, capsys)
        assert code == 2

    def test_dump_rejects_unknown_sector(self, tmp_path, capsys):
        # 7.5 lies past the largest |j| = 2 at nmax 4; 0.25 is no half-integer
        for sector in ("7.5", "0.25"):
            code, out, captured = run_cli(
                ["schwinger", "--nmax", "4", "--sector", sector, "--dump"], tmp_path, capsys
            )
            assert code == 2
            assert "no sector with j" in captured.err
            assert not out.exists()


class TestOutputContract:
    def test_json_mirror(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["evolve", "--N", "7", "--format", "json"], tmp_path, capsys, name="out.json"
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["manifest"]["command"] == "evolve"
        assert payload["manifest"]["tool"] == "ladderlab"
        assert payload["manifest"]["parameters"]["N"] == 7
        assert payload["manifest"]["tolerance"] == 1e-12
        assert abs(payload["checks"]["phase_re"] + 1.0) < 1e-12
        assert len(payload["rows"]) == 7
        assert set(payload["rows"][0]) == {"n", "energy"}

    def test_manifest_block_present(self, tmp_path, capsys):
        _, out, _ = run_cli(["rep", "--algebra", "h1", "--dim", "5"], tmp_path, capsys)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ladderlab ")
        assert "# command=rep" in lines
        assert any(line.startswith("# param algebra=h1") for line in lines)
        assert any(line.startswith("# tolerance=") for line in lines)

    def test_identical_config_byte_identical(self, tmp_path, capsys):
        args = ["schwinger", "--nmax", "5"]
        _, out, _ = run_cli(args, tmp_path, capsys, name="a.csv")
        first = out.read_bytes()
        _, out, _ = run_cli(args, tmp_path, capsys, name="a.csv")
        assert out.read_bytes() == first

    def test_rejected_fit_serializes_cleanly(self, tmp_path, capsys):
        # fewer than three sweep points: slope is reported as NaN in CSV and
        # null in JSON (which must stay strictly parseable)
        args = ["contract", "--family", "su2", "--params", "5,10"]
        code, out, _ = run_cli(args, tmp_path, capsys)
        assert code == 0
        _, checks, _, _ = read_csv(out)
        assert checks["fitted_slope"] == "nan"
        code, out, _ = run_cli(args + ["--format", "json"], tmp_path, capsys, name="o.json")
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["checks"]["fitted_slope"] is None

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        code = main(["evolve", "--N", "7", "--frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_stdout_carries_only_the_path(self, tmp_path, capsys):
        code, out, captured = run_cli(
            ["contract", "--hp", "--dim", "8"], tmp_path, capsys
        )
        assert code == 0
        assert captured.out == f"{out}\n"

    @pytest.mark.parametrize("name", ["missing/x.csv", "."])
    def test_out_not_a_file_in_a_directory_exits_2_before_running(self, name, tmp_path,
                                                                   capsys, monkeypatch):
        ran = []
        monkeypatch.setitem(cli.COMMANDS, "evolve", ran.append)
        out = tmp_path / name
        code = main(["evolve", "--N", "4", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"--out {str(out)!r}" in captured.err
        assert ran == [] and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_out_in_missing_directory_prints_no_traceback(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        proc = run_module(["evolve", "--N", "4", "--out", str(out)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "--out" in proc.stderr
        assert not out.parent.exists()

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["evolve", "--N", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "evolve.csv"
        assert (tmp_path / "evolve.csv").exists()


def refuse_orbit(*args, **kwargs):
    raise AssertionError("an orbit was computed for a rejected configuration")


def refuse_build(*args, **kwargs):
    raise AssertionError("a representation, study or orbit was built for a rejected configuration")


class TestInputValidation:
    """Non-finite values and non-positive tolerances exit 2 before any work."""

    def _rejected(self, args, tmp_path, capsys):
        code, out, captured = run_cli(args, tmp_path, capsys)
        assert code == 2
        assert not out.exists()
        return captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
    def test_tolerance(self, value, tmp_path, capsys):
        err = self._rejected(
            ["rep", "--algebra", "h1", "--dim", "8", "--tolerance", value], tmp_path, capsys
        )
        assert "--tolerance" in err

    def test_positive_tolerance_still_gates(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["rep", "--algebra", "su11", "--k", "0.5", "--dim", "10", "--interior", "10",
             "--tolerance", "1e-3"],
            tmp_path, capsys,
        )
        assert code == 3

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_tau(self, value, tmp_path, capsys):
        self._rejected(["evolve", "--N", "8", "--tau", value], tmp_path, capsys)
        self._rejected(["contract", "--identities", "--l", "3", "--tau", value], tmp_path, capsys)

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_omega(self, value, tmp_path, capsys):
        self._rejected(["schwinger", "--nmax", "4", "--Omega", value], tmp_path, capsys)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_gamma(self, value, tmp_path, capsys):
        self._rejected(["schwinger", "--nmax", "4", "--Gamma", value], tmp_path, capsys)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rot1(self, value, tmp_path, capsys):
        self._rejected(["orbit", "--torus", "--rot1", value, "--rot2", "1"], tmp_path, capsys)

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_rot2(self, value, tmp_path, capsys):
        self._rejected(["orbit", "--torus", "--rot1", "1", "--rot2", value], tmp_path, capsys)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_alpha(self, value, tmp_path, capsys):
        self._rejected(["orbit", "--thooft-N", "7", "--alpha", value], tmp_path, capsys)

    @pytest.mark.parametrize("value", ["nan,0", "0,inf", "1,-inf"])
    def test_phi0(self, value, tmp_path, capsys):
        err = self._rejected(
            ["orbit", "--torus", "--ratio", "golden", "--phi0", value], tmp_path, capsys
        )
        assert "finite" in err

    @pytest.mark.parametrize("extra,flag", [
        (["--q-num", "1", "--q-den", "0"], "--q-den"),
        (["--q-num", "1", "--q-den", "0", "--q-irr-add", "pi/40"], "--q-den"),
        (["--q-num", "1", "--q-den", "3", "--q-irr-add", "pi/0"], "--q-irr-add"),
        (["--q-num", "1", "--q-den", "3", "--q-irr-add", "pi/-0.0"], "--q-irr-add"),
    ])
    def test_zero_denominator(self, extra, flag, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "touch_points", refuse_orbit)
        err = self._rejected(["orbit", "--two-circle", *extra], tmp_path, capsys)
        assert flag in err

    @pytest.mark.parametrize("value", ["pi/nan", "inf", "xyz", "pi*-inf", "pi/1e-320"])
    def test_q_irr_add(self, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "touch_points", refuse_orbit)
        err = self._rejected(["orbit", "--two-circle", "--q-num", "1", "--q-den", "3",
                              "--q-irr-add", value], tmp_path, capsys)
        assert "--q-irr-add" in err

    @pytest.mark.parametrize("extra", [
        ["--q-num", "9" * 400, "--q-den", "1", "--q-irr-add", "pi/40"],
        ["--q-num", "9" * 400, "--q-den", "1"],
        ["--q-num", "1", "--q-den", "9" * 400],
        # a finite ratio whose sum with the offset, or product with alpha, overflows
        ["--q-num", str(10**308), "--q-den", "1", "--q-irr-add", "1.7e308"],
        ["--q-num", "1", "--q-den", "3", "--q-irr-add", "1e300", "--alpha", "1e10"],
    ])
    def test_ratio_beyond_float_range(self, extra, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "touch_points", refuse_orbit)
        err = self._rejected(["orbit", "--two-circle", *extra, "--steps", "10"], tmp_path, capsys)
        assert "--q-num / --q-den" in err

    # --flag=value, since argparse reads a separate "-inf" as an option
    @pytest.mark.parametrize("argv,flag,builder", [
        (["rep", "--algebra", "su2", "--l={}"], "--l", "build_su2_rep"),
        (["rep", "--algebra", "su11", "--k={}", "--dim", "8"], "--k", "build_su11_rep"),
        (["contract", "--identities", "--l={}"], "--l", "build_su2_rep"),
        (["contract", "--family", "su2", "--params=50,{}"], "--params",
         "run_contraction_study"),
        (["contract", "--family", "su11", "--params={},5"], "--params",
         "run_contraction_study"),
        (["orbit", "--torus", "--ratio", "golden", "--phi0={},0"], "--phi0", "simulate_torus"),
        (["orbit", "--torus", "--ratio", "golden", "--phi0=0,{}"], "--phi0", "simulate_torus"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_flag(self, argv, flag, builder, value, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr(cli, builder, refuse_build)
        err = self._rejected([arg.format(value) for arg in argv], tmp_path, capsys)
        assert flag in err and "finite" in err

    @pytest.mark.parametrize("argv,flag", [
        (["contract", "--family", "su2", "--params", "5,ten"], "--params"),
        (["orbit", "--torus", "--ratio", "golden", "--phi0", "0,"], "--phi0"),
        (["orbit", "--torus", "--ratio", "golden", "--phi0", "a,b"], "--phi0"),
    ])
    def test_non_number_names_its_flag(self, argv, flag, tmp_path, capsys):
        assert flag in self._rejected(argv, tmp_path, capsys)


    def test_overflowing_touch_step_names_the_flags(self, tmp_path, capsys):
        # beta is finite, but the touch angle step (1 - beta/alpha) pi overflows to -inf;
        # it once gave nan angles, a nan radius_error and exit 0
        err = self._rejected(["orbit", "--two-circle", "--alpha", "1e-300", "--q-num", "1",
                              "--q-den", "2", "--q-irr-add", "1e308", "--steps", "3"],
                             tmp_path, capsys)
        assert "--q-irr-add" in err and "--alpha" in err and "finite" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_sector_is_finite(self, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_two_mode", refuse_build)
        err = self._rejected(["schwinger", "--nmax", "4", f"--sector={value}", "--dump"],
                             tmp_path, capsys)
        assert "--sector" in err and "finite" in err

    def test_dump_needs_sector_before_the_build(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_two_mode", refuse_build)
        err = self._rejected(["schwinger", "--nmax", "800", "--dump"], tmp_path, capsys)
        assert "--dump requires --sector" in err


def test_nan_radius_error_is_a_breach(tmp_path, capsys, monkeypatch):
    # the gate reads `not radius_error <= tolerance`, so a nan residual cannot pass it
    touch_points = cli.touch_points

    def nan_points(*args):
        trace = touch_points(*args)
        return dataclasses.replace(trace, points=np.full_like(trace.points, np.nan))

    monkeypatch.setattr(cli, "touch_points", nan_points)
    code, out, captured = run_cli(["orbit", "--thooft-N", "7"], tmp_path, capsys)
    assert code == 3
    assert "tolerance breach in check 'radius_error'" in captured.err
    assert "# check radius_error=nan" in out.read_text().splitlines()


class TestStartup:
    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy is imported only by the CSR/dense views, matrix_exponential and
        # scipy input; a CLI start that builds its parser needs none of them.
        proc = run_module(None, code=(
            "import sys, ladderlab.cli as cli; cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_leaves_orjson_unloaded(self):
        # orjson formats numeric cells and is imported when the first one is
        # written, so a CLI start that only builds its parser does not pay for it
        proc = run_module(None, code=(
            "import sys, ladderlab.cli as cli; cli.build_parser(); print('orjson' in sys.modules)"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestRepeatedMain:
    """`main` called many times in one process: the parser tree is built once and shared."""

    # every subcommand in CSV and JSON, with parse failures and --help between them
    ARGV = [
        ["rep", "--algebra", "su2", "--l", "2"],
        ["evolve", "--N", "x"],
        ["rep", "--algebra", "su11", "--k", "1.5", "--dim", "6", "--format", "json"],
        ["contract", "--family", "su2", "--params", "5,10,20"],
        ["rep", "--algebra", "h1", "--dim", "5", "--tolerance", "-1"],
        ["contract", "--hp", "--dim", "6", "--format", "json"],
        ["--help"],
        ["evolve", "--N", "5", "--units", "omega"],
        ["orbit", "--torus", "--ratio", "golden", "--steps", str(2**62)],
        ["evolve", "--N", "4", "--format", "json"],
        ["orbit", "--thooft-N", "5", "--curve-samples", "3"],
        ["schwinger", "--help"],
        ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--steps", "7",
         "--format", "json"],
        ["schwinger", "--nmax", "3"],
        ["schwinger", "--nmax", "3", "--sector", "0.5", "--dump", "--format", "json"],
    ]

    @staticmethod
    def _argv(index, argv, tmp_path):
        if "--help" in argv:
            return argv, None
        out = tmp_path / f"{index}.{'json' if 'json' in argv else 'csv'}"
        return argv + ["--out", str(out)], out

    @staticmethod
    def _take(out):
        """The bytes written to `out` (None if nothing was), removing the file."""
        if out is None or not out.exists():
            return None
        data = out.read_bytes()
        out.unlink()
        return data

    def test_each_call_builds_its_own_parser(self):
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert vars(first.parse_args(["evolve", "--N", "3"])) == vars(
            second.parse_args(["evolve", "--N", "3"]))

    def test_parse_wrapper_stays_on_its_parser(self, tmp_path, capsys, monkeypatch):
        # the benchmark tracer sets a wrapped parse_args on each parser it is handed
        parses = []
        build = cli.build_parser

        def counting_parser():
            parser = build()
            parse = parser.parse_args

            def counted(*args, **kwargs):
                parses.append(args)
                return parse(*args, **kwargs)

            parser.parse_args = counted
            return parser

        monkeypatch.setattr(cli, "build_parser", counting_parser)
        for index in range(3):
            assert main(["evolve", "--N", "3", "--out", str(tmp_path / f"{index}.csv")]) == 0
        assert len(parses) == 3
        monkeypatch.undo()
        assert main(["evolve", "--N", "3", "--out", str(tmp_path / "3.csv")]) == 0
        assert len(parses) == 3
        capsys.readouterr()

    def test_forwards_reversed_and_subprocess_agree(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width everywhere
        calls = [self._argv(index, argv, tmp_path) for index, argv in enumerate(self.ARGV)]
        seen = {}
        for argv, out in [*calls, *reversed(calls)]:
            code = main(argv)
            captured = capsys.readouterr()
            seen.setdefault(tuple(argv), []).append(
                (code, captured.out, captured.err, self._take(out)))
        for argv, out in calls:
            forwards, backwards = seen[tuple(argv)]
            assert forwards == backwards, argv
            proc = run_module(argv)
            assert (proc.returncode, proc.stdout, proc.stderr, self._take(out)) == forwards, argv
        codes = [seen[tuple(argv)][0][0] for argv, _ in calls]
        assert codes.count(0) == 12 and codes.count(2) == 3


class TestReach:
    """`schwinger` at nmax 800: dim 641 601, 6.6 TB per dense complex matrix."""

    # tracemalloc peaks measured at 124 MB for --check all and --check
    # hamiltonian (x86-64, numpy 2.4); each bound leaves headroom
    PEAK_BOUND = 250e6
    HAMILTONIAN_PEAK_BOUND = 150e6

    def _run(self, check, tmp_path, capsys):
        tracemalloc.start()
        try:
            code, out, _ = run_cli(["schwinger", "--nmax", "800", "--check", check],
                                   tmp_path, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Exit 3 is the fixed 1e-12 gate sitting below the rounding error of exact
        # identities at this size, a false breach (ROADMAP open item 1).
        assert code in (0, 3)
        return read_csv(out), peak

    def test_schwinger_nmax_800(self, tmp_path, capsys):
        (_, checks, header, rows), peak = self._run("all", tmp_path, capsys)
        assert header == ["check", "residual"] and len(rows) == 9
        assert float(checks["sector_match"]) < 1e-12
        assert peak < self.PEAK_BOUND, f"tracemalloc peak {peak / 1e6:.1f} MB"

    def test_hamiltonian_check_nmax_800(self, tmp_path, capsys):
        # the dissipative residuals set the peak of --check all
        (_, _, _, rows), peak = self._run("hamiltonian", tmp_path, capsys)
        assert [r["check"] for r in rows] == [
            "h0_vs_casimir", "hi_vs_l2", "h0_hermiticity", "hi_hermiticity", "h0_hi_commutator"]
        assert peak < self.HAMILTONIAN_PEAK_BOUND, f"tracemalloc peak {peak / 1e6:.1f} MB"
