import argparse
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
from golden.regen import MANIFEST
from ladderlab import cli, orbits, twomode
from ladderlab.cli import main

# each argv of the byte-identity corpus, `golden/manifest.json`, and its exit code
CORPUS_EXITS = {tuple(case["argv"]): case["exit"]
                for case in json.loads(MANIFEST.read_text(encoding="utf-8"))}


def run_cli(args, tmp_path, capsys, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    captured = capsys.readouterr()
    return code, out, captured


def run_refused(args, tmp_path, capsys) -> str:
    """Run `args`, which must exit 2 and write no file, and return its stderr.

    The byte-identity corpus must hold `args` as a refusal too, which pins its
    text: a missing one is added to REFUSALS in `golden/regen.py`.
    """
    code, out, captured = run_cli(args, tmp_path, capsys)
    assert code == 2 and not out.exists(), captured.err
    assert CORPUS_EXITS.get(tuple(args)) == 2, f"{args} is not a refusal of the corpus"
    return captured.err


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
        err = run_refused(["rep", "--algebra", "su11", "--k", "0.2", "--dim", "10"], tmp_path,
                          capsys)
        assert "half-integer" in err

    def test_missing_param_exits_2(self, tmp_path, capsys):
        run_refused(["rep", "--algebra", "su2"], tmp_path, capsys)

    def test_overflowing_weight_exits_2(self, tmp_path, capsys):
        # 2 * 1e308 overflows; this once ended in an OverflowError traceback, exit 1
        err = run_refused(["rep", "--algebra", "su11", "--k", "1e308", "--dim", "4"], tmp_path,
                          capsys)
        assert "--k" in err and "finite" in err

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
        run_refused(["contract", "--hp", "--identities", "--l", "3"], tmp_path, capsys)

    def test_su2_label_past_memory_runs(self, tmp_path, capsys):
        # l = 1e12 is an irrep of 2e12 + 1 states; building it once died with a
        # 14.6 TiB MemoryError, and the sweep builds 4 + 1 of them now
        code, out, _ = run_cli(["contract", "--family", "su2", "--params", "5,1e12"],
                               tmp_path, capsys)
        assert code == 0
        _, _, _, rows = read_csv(out)
        assert [(r["param"], r["n"]) for r in rows][-1] == ("1000000000000.0", "3")
        assert abs(float(rows[-1]["deviation"]) - 3e-12) < 1e-15

    @pytest.mark.parametrize("family", ["su2", "su11"])
    def test_overflowing_label_exits_2(self, family, tmp_path, capsys):
        # 2 * 1e308 overflows; this once ended in an OverflowError traceback, exit 1
        err = run_refused(["contract", "--family", family, "--params", "5,1e308"], tmp_path,
                          capsys)
        assert "--params" in err and "finite" in err

    # each count is within its own cap, but the sweep writes len(params) * (n + 1) rows
    @pytest.mark.parametrize("argv", [
        ["contract", "--family", "su2", "--params", "5,10", "--n", "5000000"],
        ["contract", "--family", "su11", "--params", "5", "--n", "10000000"],
    ])
    def test_sweep_past_max_rows_exits_2(self, argv, tmp_path, capsys, monkeypatch):
        for builder in ("algebra.build_su2_rep", "algebra.build_su11_rep",
                        "contraction.run_contraction_study"):
            monkeypatch.setattr(f"ladderlab.{builder}", refuse_build)
        err = run_refused(argv, tmp_path, capsys)
        assert err.startswith("ladderlab: --params / --n: ")
        assert err.endswith(f" rows, at most {cli.MAX_ROWS}\n")

    def test_sweep_of_max_rows_reaches_the_study(self, tmp_path, capsys, monkeypatch):
        def reached(family, params, interior):
            assert len(params) * interior == cli.MAX_ROWS
            raise ValueError("reached")

        monkeypatch.setattr("ladderlab.contraction.run_contraction_study", reached)
        code, out, captured = run_cli(["contract", "--family", "su2", "--params", "5,10",
                                       "--n", "4999999"], tmp_path, capsys)
        assert code == 2 and not out.exists()
        assert captured.err == "ladderlab: --params / --n: reached\n"


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
        run_refused(["evolve", "--N", "1"], tmp_path, capsys)


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
        run_refused(["orbit", "--two-circle", "--q-num", "5", "--q-den", "3"], tmp_path, capsys)

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
        err = run_refused(
            ["orbit", "--two-circle", "--q-num", "1", "--q-den", str(2**62), "--steps", "3"],
            tmp_path, capsys,
        )
        assert "below 2**63" in err

    def test_torus_needs_rotations(self, tmp_path, capsys):
        run_refused(["orbit", "--torus"], tmp_path, capsys)

    def test_mode_exclusivity(self, tmp_path, capsys):
        run_refused(["orbit", "--thooft-N", "7", "--torus"], tmp_path, capsys)


class TestRowLimit:
    """Row counts above MAX_ROWS exit 2 naming the flag, before anything is allocated."""

    HUGE = str(2**62)

    @pytest.fixture(autouse=True)
    def no_row_arrays(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rows were computed for a rejected row count")

        for target in ("orbits.touch_points", "orbits.simulate_torus",
                       "evolution.spectrum_via_dft", "evolution.geometric_phase_check"):
            monkeypatch.setattr(f"ladderlab.{target}", refuse)

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
        err = run_refused(argv, tmp_path, capsys)
        assert f"argument {flag}: at most {cli.MAX_ROWS} rows" in err

    def test_limit_itself_parses(self):
        args = cli.build_parser().parse_args(
            ["orbit", "--thooft-N", str(cli.MAX_ROWS), "--curve-samples", str(cli.MAX_ROWS),
             "--steps", str(cli.MAX_ROWS)])
        assert args.thooft_n == args.curve_samples == args.steps == cli.MAX_ROWS
        args = cli.build_parser().parse_args(["evolve", "--N", str(cli.MAX_ROWS)])
        assert args.N == cli.MAX_ROWS

    # operator sizes: 2l + 1 rows for --l, dim rows for --dim, (nmax + 1)^2 for --nmax
    SPIN_CEILING, NMAX_CEILING = (cli.MAX_ROWS - 1) / 2, 3161

    @pytest.mark.parametrize("argv,flag,ceiling", [
        (["rep", "--algebra", "su2", "--l"], "--l", SPIN_CEILING),
        (["contract", "--identities", "--l"], "--l", SPIN_CEILING),
        (["rep", "--algebra", "h1", "--dim"], "--dim", cli.MAX_ROWS),
        (["rep", "--algebra", "su11", "--k", "1.5", "--dim"], "--dim", cli.MAX_ROWS),
        (["contract", "--hp", "--dim"], "--dim", cli.MAX_ROWS),
        (["schwinger", "--nmax"], "--nmax", NMAX_CEILING),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_operator_size_rejected(self, argv, flag, ceiling, tmp_path, capsys, monkeypatch):
        for builder in ("algebra.build_su2_rep", "algebra.build_su11_rep", "algebra.build_h1_rep",
                        "twomode._occupations"):
            monkeypatch.setattr(f"ladderlab.{builder}", refuse_build)
        for text in (str(ceiling + 1), str(10**18)):
            err = run_refused([*argv, text], tmp_path, capsys)
            assert f"argument {flag}: at most {ceiling}" in err

    def test_operator_ceilings_parse(self):
        parse = cli.build_parser().parse_args
        args = parse(["rep", "--algebra", "su2", "--l", str(self.SPIN_CEILING),
                      "--dim", str(cli.MAX_ROWS)])
        assert 2 * args.l + 1 == args.dim == cli.MAX_ROWS
        args = parse(["contract", "--hp", "--l", str(self.SPIN_CEILING), "--dim",
                      str(cli.MAX_ROWS)])
        assert 2 * args.l + 1 == args.dim == cli.MAX_ROWS
        nmax = parse(["schwinger", "--nmax", str(self.NMAX_CEILING)]).nmax
        assert (nmax + 1) ** 2 <= cli.MAX_ROWS < (nmax + 2) ** 2


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

    def test_dump_builds_only_its_sector(self, tmp_path, capsys, monkeypatch):
        calls, occupations = [], twomode._occupations
        monkeypatch.setattr(twomode, "_occupations",
                            lambda *args: calls.append(args) or occupations(*args))
        code, out, captured = run_cli(
            ["schwinger", "--nmax", "8", "--sector", "-1.5", "--dump"], tmp_path, capsys
        )
        assert code == 0, captured.err
        assert calls == [(8, -3, -2)]  # the sector 2j = -3 alone
        _, checks, _, rows = read_csv(out)
        assert checks["sector_size"] == "6" and len(rows) == 6 + 2 * 5

    def test_zero_cutoff_exits_2(self, tmp_path, capsys):
        run_refused(["schwinger", "--nmax", "0"], tmp_path, capsys)

    @pytest.mark.parametrize("check", ["all", "l2"])
    def test_l2_checks_need_nmax_2(self, check, tmp_path, capsys):
        err = run_refused(["schwinger", "--nmax", "1", "--check", check], tmp_path, capsys)
        assert err == "ladderlab: --nmax: the L2 relations need n_max >= 2\n"

    @pytest.mark.parametrize("check", ["casimir", "sectors", "hamiltonian"])
    def test_other_checks_run_at_nmax_1(self, check, tmp_path, capsys):
        code, out, _ = run_cli(
            ["schwinger", "--nmax", "1", "--check", check], tmp_path, capsys
        )
        assert code == 0
        _, checks, _, _ = read_csv(out)
        assert checks

    def test_dump_needs_sector(self, tmp_path, capsys):
        run_refused(["schwinger", "--nmax", "4", "--dump"], tmp_path, capsys)

    def test_dump_rejects_unknown_sector(self, tmp_path, capsys):
        # 7.5 lies past the largest |j| = 2 at nmax 4; 0.25 is no half-integer
        for sector in ("7.5", "0.25"):
            err = run_refused(["schwinger", "--nmax", "4", "--sector", sector, "--dump"],
                              tmp_path, capsys)
            assert "no sector with j" in err


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
        run_refused(["evolve", "--N", "7", "--frobnicate"], tmp_path, capsys)

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
    def test_tolerance(self, value, tmp_path, capsys):
        err = run_refused(
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
        run_refused(["evolve", "--N", "8", "--tau", value], tmp_path, capsys)
        run_refused(["contract", "--identities", "--l", "3", "--tau", value], tmp_path, capsys)

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_omega(self, value, tmp_path, capsys):
        run_refused(["schwinger", "--nmax", "4", "--Omega", value], tmp_path, capsys)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_gamma(self, value, tmp_path, capsys):
        run_refused(["schwinger", "--nmax", "4", "--Gamma", value], tmp_path, capsys)

    @pytest.mark.parametrize("value", ["0", "-0.0", "-1"])
    def test_gamma_is_refused_before_the_build(self, value, tmp_path, capsys, monkeypatch):
        # it was once refused only after the whole space was built and the casimir and
        # sector checks had run
        monkeypatch.setattr("ladderlab.twomode._occupations", refuse_build)
        err = run_refused(["schwinger", "--nmax", "300", "--Gamma", value], tmp_path, capsys)
        assert "--Gamma" in err and "positive" in err

    @pytest.mark.parametrize("value", ["0.3", "5", "-5", "1e9"])
    def test_sector_is_refused_before_the_build(self, value, tmp_path, capsys, monkeypatch):
        # it was once refused only after the whole space was built
        monkeypatch.setattr("ladderlab.twomode._occupations", refuse_build)
        err = run_refused(["schwinger", "--nmax", "4", "--dump", "--sector", value],
                          tmp_path, capsys)
        assert err.startswith("ladderlab: --sector:") and f"j = {float(value)}" in err, err

    # each of these once exited 0: the mode does not read the flag, but its value
    # is still refused where it is parsed
    @pytest.mark.parametrize("argv,flag", [
        (["schwinger", "--nmax", "4", "--check", "casimir", "--Gamma", "0"], "--Gamma"),
        (["contract", "--family", "su2", "--params", "5,10", "--tau", "0"], "--tau"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_unread_flag_outside_its_domain(self, argv, flag, tmp_path, capsys):
        err = run_refused(argv, tmp_path, capsys)
        assert f"argument {flag}: must be positive" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rot1(self, value, tmp_path, capsys):
        run_refused(["orbit", "--torus", "--rot1", value, "--rot2", "1"], tmp_path, capsys)

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_rot2(self, value, tmp_path, capsys):
        run_refused(["orbit", "--torus", "--rot1", "1", "--rot2", value], tmp_path, capsys)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_alpha(self, value, tmp_path, capsys):
        run_refused(["orbit", "--thooft-N", "7", "--alpha", value], tmp_path, capsys)
        run_refused(["orbit", "--two-circle", "--q-num", "1", "--q-den", "3",
                        "--curve-samples", "4", "--alpha", value], tmp_path, capsys)

    @pytest.mark.parametrize("value", ["nan,0", "0,inf", "1,-inf"])
    def test_phi0(self, value, tmp_path, capsys):
        err = run_refused(
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
        monkeypatch.setattr("ladderlab.orbits.touch_points", refuse_orbit)
        err = run_refused(["orbit", "--two-circle", *extra], tmp_path, capsys)
        assert flag in err

    @pytest.mark.parametrize("value", ["pi/nan", "inf", "xyz", "pi*-inf", "pi/1e-320"])
    def test_q_irr_add(self, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("ladderlab.orbits.touch_points", refuse_orbit)
        err = run_refused(["orbit", "--two-circle", "--q-num", "1", "--q-den", "3",
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
        monkeypatch.setattr("ladderlab.orbits.touch_points", refuse_orbit)
        err = run_refused(["orbit", "--two-circle", *extra, "--steps", "10"], tmp_path, capsys)
        assert "--q-num / --q-den" in err

    # --flag=value, since argparse reads a separate "-inf" as an option
    @pytest.mark.parametrize("argv,flag,builder", [
        (["rep", "--algebra", "su2", "--l={}"], "--l", "algebra.build_su2_rep"),
        (["rep", "--algebra", "su11", "--k={}", "--dim", "8"], "--k", "algebra.build_su11_rep"),
        (["contract", "--identities", "--l={}"], "--l", "algebra.build_su2_rep"),
        (["contract", "--family", "su2", "--params=50,{}"], "--params",
         "contraction.run_contraction_study"),
        (["contract", "--family", "su11", "--params={},5"], "--params",
         "contraction.run_contraction_study"),
        (["orbit", "--torus", "--ratio", "golden", "--phi0={},0"], "--phi0",
         "orbits.simulate_torus"),
        (["orbit", "--torus", "--ratio", "golden", "--phi0=0,{}"], "--phi0",
         "orbits.simulate_torus"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v.rpartition(".")[2])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_flag(self, argv, flag, builder, value, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr(f"ladderlab.{builder}", refuse_build)
        err = run_refused([arg.format(value) for arg in argv], tmp_path, capsys)
        assert flag in err and "finite" in err

    @pytest.mark.parametrize("argv,flag", [
        (["contract", "--family", "su2", "--params", "5,ten"], "--params"),
        (["orbit", "--torus", "--ratio", "golden", "--phi0", "0,"], "--phi0"),
        (["orbit", "--torus", "--ratio", "golden", "--phi0", "a,b"], "--phi0"),
    ])
    def test_non_number_names_its_flag(self, argv, flag, tmp_path, capsys):
        assert flag in run_refused(argv, tmp_path, capsys)


    # each of these once printed a message that named no flag, such as "beta
    # must be positive", "count must be >= 1" or "n_sites must be >= 3"
    @pytest.mark.parametrize("argv,flags", [
        (["--two-circle", "--q-num", "-3", "--q-den", "7"], ["--q-num", "--q-den"]),
        (["--two-circle", "--q-num", "3", "--q-den", "-7"], ["--q-num", "--q-den"]),
        (["--two-circle", "--q-num", "3", "--q-den", "7", "--q-irr-add", "-0.5"],
         ["--q-irr-add"]),
        (["--two-circle", "--q-num", "3", "--q-den", "7", "--steps", "0"], ["--steps"]),
        (["--two-circle", "--q-num", "3", "--q-den", "7", "--steps", "-2"], ["--steps"]),
        (["--torus", "--ratio", "golden", "--steps", "0"], ["--steps"]),
        (["--thooft-N", "2"], ["--thooft-N"]),
        (["--thooft-N", "7", "--alpha", "0"], ["--alpha"]),
        (["--two-circle", "--q-num", "3", "--q-den", "7", "--alpha", "0"], ["--alpha"]),
        (["--two-circle", "--q-num", "9", "--q-den", "7"], ["--q-num", "--q-den"]),
        (["--two-circle", "--q-num", "1", "--q-den", str(2**62), "--steps", "1"],
         ["--q-den", "--steps"]),
    ], ids=" ".join)
    def test_orbit_message_names_its_flags(self, argv, flags, tmp_path, capsys):
        err = run_refused(["orbit", *argv], tmp_path, capsys)
        assert all(flag in err for flag in flags), err

    # each of these once printed the library's message alone, such as "dim must
    # be at least 2" or "n_max must be >= 1"
    @pytest.mark.parametrize("argv,flag", [
        (["contract", "--family", "su2", "--params", "0"], "--params"),
        (["contract", "--family", "su2", "--params", "10,5"], "--params"),
        (["contract", "--family", "su2", "--params", "5,5,5"], "--params"),
        (["contract", "--family", "su2", "--params", "5,5,10"], "--params"),
        (["contract", "--family", "su2", "--params", "5,10", "--n", "-1"], "--n"),
        (["evolve", "--N", "0"], "--N"),
        (["evolve", "--N", "1"], "--N"),
        (["schwinger", "--nmax", "0"], "--nmax"),
        (["rep", "--algebra", "su2", "--l", "0"], "--l"),
        (["rep", "--algebra", "su11", "--k", "1.5", "--dim", "0"], "--dim"),
        (["rep", "--algebra", "h1", "--dim", "1"], "--dim"),
        (["contract", "--hp", "--dim", "0"], "--dim"),
        (["rep", "--algebra", "su2", "--l", "2", "--interior", "0"], "--interior"),
        (["contract", "--identities", "--l", "1.3"], "--l"),
        (["orbit", "--torus", "--ratio", "golden", "--phi0", "1,2,3"], "--phi0"),
        (["schwinger", "--nmax", "3", "--dump", "--sector", "0.3"], "--sector"),
        (["schwinger", "--nmax", "3", "--dump", "--sector", "5"], "--sector"),
        (["schwinger", "--nmax", "3", "--dump", "--sector", "1e9"], "--sector"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_library_message_names_its_flag(self, argv, flag, tmp_path, capsys):
        err = run_refused(argv, tmp_path, capsys)
        assert f"{flag}:" in err or f"{flag} /" in err, err

    # each of these once exited 0, recording the ignored value in the manifest
    @pytest.mark.parametrize("argv,flag", [
        (["--thooft-N", "7", "--steps", "5"], "--steps"),
        (["--torus", "--ratio", "golden", "--steps", "5", "--alpha", "2"], "--alpha"),
        (["--thooft-N", "7", "--q-num", "9", "--q-den", "7"], "--q-num"),
        (["--thooft-N", "7", "--q-irr-add", "pi/40"], "--q-irr-add"),
        (["--two-circle", "--q-num", "1", "--q-den", "3", "--phi0", "1,2"], "--phi0"),
        (["--two-circle", "--q-num", "1", "--q-den", "3", "--ratio", "golden"], "--ratio"),
        (["--torus", "--rot1", "1", "--rot2", "2", "--curve-samples", "5"], "--curve-samples"),
        # the golden preset sets both rotations
        (["--torus", "--ratio", "golden", "--rot1", "1", "--rot2", "2"], "--rot1"),
        (["--torus", "--ratio", "golden", "--rot1", "1"], "--rot1"),
        (["--torus", "--ratio", "golden", "--rot2", "2"], "--rot2"),
        # the other commands' modes, named with the command
        (["rep", "--algebra", "su2", "--l", "3", "--k", "2"], "--k"),
        (["rep", "--algebra", "h1", "--dim", "5", "--l", "2"], "--l"),
        (["contract", "--hp", "--l", "3"], "--l"),
        (["contract", "--family", "su2", "--params", "5,10", "--dim", "7"], "--dim"),
        (["contract", "--identities", "--l", "3", "--n", "5"], "--n"),
        (["schwinger", "--nmax", "3", "--sector", "0"], "--sector"),
        (["schwinger", "--nmax", "3", "--check", "casimir", "--Omega", "5"], "--Omega"),
        (["schwinger", "--nmax", "3", "--dump", "--sector", "0", "--check", "l2"], "--check"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_orbit_refuses_a_flag_its_mode_ignores(self, argv, flag, tmp_path, capsys,
                                                   monkeypatch):
        for target in ("orbits.touch_points", "orbits.simulate_torus"):
            monkeypatch.setattr(f"ladderlab.{target}", refuse_orbit)
        for target in ("algebra.build_su2_rep", "algebra.build_su11_rep", "algebra.build_h1_rep",
                       "twomode._occupations", "contraction.run_contraction_study"):
            monkeypatch.setattr(f"ladderlab.{target}", refuse_build)
        command = argv if argv[0] in cli.COMMANDS else ["orbit", *argv]
        err = run_refused(command, tmp_path, capsys)
        assert flag in err and "not read" in err, err

    # a mode run without a flag it needs is refused, naming every flag it needs
    @pytest.mark.parametrize("argv,refusal", [
        (["rep", "--algebra", "su2"], "su2 requires --l"),
        (["rep", "--algebra", "su11", "--k", "1.5"], "su11 requires --k and --dim"),
        (["rep", "--algebra", "h1"], "h1 requires --dim"),
        # an empty sweep is no sweep
        (["contract", "--family", "su2", "--params", ""], "--family requires --params"),
        (["contract", "--identities"], "--identities requires --l"),
        (["orbit", "--two-circle", "--q-num", "1"], "--two-circle requires --q-num and --q-den"),
        # with no --ratio golden, --torus needs both rotations
        (["orbit", "--torus"], "--torus requires --rot1 and --rot2"),
        (["orbit", "--torus", "--rot1", "1"], "--torus requires --rot1 and --rot2"),
        (["orbit", "--torus", "--rot2", "2"], "--torus requires --rot1 and --rot2"),
        (["schwinger", "--nmax", "4", "--dump"], "--dump requires --sector"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_mode_refuses_a_missing_needed_flag(self, argv, refusal, tmp_path, capsys):
        assert run_refused(argv, tmp_path, capsys) == f"ladderlab: {refusal}\n"

    def test_every_needed_flag_defaults_to_none(self):
        # a needed flag counts as left out when it is None or "", which a default must not be
        (commands,) = [action for action in cli._parser_tree()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        defaults = {(command, flag): action.default
                    for command, parser in commands.choices.items()
                    for action in parser._actions for flag in action.option_strings}
        needed = [(command, flag) for command, modes in cli.MODE_FLAGS.items()
                  for needs, _ in modes.values() for flag in needs]
        assert len(needed) == 11
        assert {key: defaults[key] for key in needed if defaults[key] is not None} == {}

    # rep is not here: its mode flags --l, --k and --dim default to None,
    # which no argv can spell
    @pytest.mark.parametrize("argv,defaults", [
        (["--thooft-N", "7"], ["--steps", "1000", "--q-irr-add", "0", "--phi0", "0,0"]),
        (["--torus", "--ratio", "golden"], ["--alpha", "1", "--curve-samples", "0"]),
        (["contract", "--hp", "--dim", "8"], ["--n", "3", "--tau", "1"]),
        (["contract", "--identities", "--l", "3"], ["--n", "3"]),
        (["schwinger", "--nmax", "3", "--dump", "--sector", "0"],
         ["--check", "all", "--Omega", "1", "--Gamma", "0.5"]),
        (["schwinger", "--nmax", "3", "--check", "casimir"], ["--Omega", "1", "--Gamma", "0.5"]),
    ], ids=lambda v: " ".join(v))
    def test_orbit_accepts_an_ignored_flag_at_its_default(self, argv, defaults, tmp_path,
                                                         capsys):
        command = argv if argv[0] in cli.COMMANDS else ["orbit", *argv]
        outputs = []
        for extra in ([], defaults):
            code, out, _ = run_cli([*command, *extra], tmp_path, capsys)
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("mode", [["--two-circle", "--q-num", "3", "--q-den", "7"],
                                      ["--thooft-N", "7"], ["--torus", "--ratio", "golden"]])
    def test_negative_curve_samples(self, mode, tmp_path, capsys, monkeypatch):
        # it once exited 0, writing `param curve_samples=-1` and no curve rows
        monkeypatch.setattr("ladderlab.orbits.touch_points", refuse_orbit)
        monkeypatch.setattr("ladderlab.orbits.simulate_torus", refuse_orbit)
        err = run_refused(["orbit", *mode, "--curve-samples", "-1"], tmp_path, capsys)
        assert "--curve-samples" in err

    def test_overflowing_touch_step_names_the_flags(self, tmp_path, capsys):
        # beta is finite, but the touch angle step (1 - beta/alpha) pi overflows to -inf;
        # it once gave nan angles, a nan radius_error and exit 0
        err = run_refused(["orbit", "--two-circle", "--alpha", "1e-300", "--q-num", "1",
                              "--q-den", "2", "--q-irr-add", "1e308", "--steps", "3"],
                          tmp_path, capsys)
        assert "--q-irr-add" in err and "--alpha" in err and "finite" in err

    # a derived scale beyond the float range (the dissipative table's envelope,
    # omega = 2 pi/(N tau), the touch times j pi/alpha, the curve phase beta t) is
    # refused before the arithmetic that overflows, so no RuntimeWarning fires; each
    # of these once exited 0 with inf, nan or 0.0 cells.  With Omega = Gamma the
    # dissipative table leaves the float range just above 4.7404e153 at nmax 2,
    # 3.1603e152 at nmax 30 and 2.9993e150 at nmax 3161.
    @pytest.mark.parametrize("argv,flags", [
        (["schwinger", "--nmax", "3", "--check", "hamiltonian", "--Omega", "1e308",
          "--Gamma", "1e308"], ["--Omega", "--Gamma"]),
        *((["schwinger", "--nmax", nmax, "--check", "hamiltonian", "--Omega", g, "--Gamma", g],
           ["--Omega", "--Gamma", "--nmax"])
          for nmax, g in [("2", "4.741e153"), ("30", "3.161e152"), ("3161", "3e150")]),
        (["evolve", "--N", "2", "--tau", "1e-320"], ["--N", "--tau"]),
        (["evolve", "--N", "2", "--tau", "1e308", "--units", "omega"], ["--N", "--tau"]),
        (["orbit", "--thooft-N", "7", "--alpha", "1e-308"], ["--alpha", "--thooft-N"]),
        (["orbit", "--two-circle", "--alpha", "1e-308", "--q-num", "1", "--q-den", "2",
          "--steps", "2", "--curve-samples", "3"], ["--alpha", "--steps"]),
        # beta t overflows at the last curve sample: it once wrote nan curve cells
        (["orbit", "--two-circle", "--q-num", "1", "--q-den", "1", "--q-irr-add", "1e307",
          "--steps", "10", "--curve-samples", "3"], ["--q-irr-add", "--steps"]),
    ], ids=["schwinger-Omega-Gamma", "schwinger-edge-nmax-2", "schwinger-edge-nmax-30",
            "schwinger-edge-nmax-3161", "evolve-small-tau", "evolve-zero-omega", "thooft-alpha",
            "two-circle-alpha", "two-circle-curve-phase"])
    def test_overflowing_scale_names_its_flags(self, argv, flags, tmp_path, capsys,
                                               monkeypatch):
        for builder in ("twomode._occupations", "twomode.dissipative_residuals",
                        "evolution.spectrum_via_dft",
                        "evolution.geometric_phase_check", "orbits.thooft_system",
                        "orbits.touch_points"):
            monkeypatch.setattr(f"ladderlab.{builder}", refuse_build)
        err = run_refused(argv, tmp_path, capsys)
        assert all(flag in err for flag in flags) and "float range" in err

    # contract --identities at both float ends: x^2 overflows at a huge tau, omega^2
    # and H^2 at a tiny one, and omega underflows to 0 once (2l + 1) tau overflows.
    # These exited 3 on an overflow or a lost H, 1 with an OverflowError traceback,
    # or 2 with a message that named no flag.  The table's envelope refuses a tau
    # below 3.7048e-154 at l = 1/2, 4.3643e-154 at l = 3 and 4.6862e-154 at l = 10^5.
    @pytest.mark.parametrize("l,tau", [("3", "1e308"), ("3", "9e307"), ("3", "1e-160"),
                                       ("3", "1e-300"), ("3", "5e-324"), ("100000", "1e300"),
                                       ("3", "4e-154"), ("3", "4.3e-154"), ("0.5", "3.7e-154"),
                                       ("100000", "4.68e-154"), ("0.5", "1e308")])
    def test_identity_scale_names_tau_and_l(self, l, tau, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("ladderlab.algebra.build_su2_rep", refuse_build)
        monkeypatch.setattr("ladderlab.contraction.deformed_identity_residuals", refuse_build)
        err = run_refused(["contract", "--identities", "--l", l, "--tau", tau],
                          tmp_path, capsys)
        assert "--tau" in err and "--l" in err and "float range" in err

    @pytest.mark.parametrize("tau", ["0", "-0.0", "-1"])
    def test_identity_tau_must_be_positive(self, tau, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("ladderlab.contraction.deformed_identity_residuals", refuse_build)
        err = run_refused(["contract", "--identities", "--l", "3", "--tau", tau],
                          tmp_path, capsys)
        assert "--tau" in err and "positive" in err

    @pytest.mark.parametrize("l,tau", [("3", "2.5e307"), ("0.5", "8e307"), ("3", "1e-150"),
                                       ("3", "5e-154"), ("3", "4.4e-154"), ("0.5", "3.71e-154"),
                                       ("100000", "4.69e-154")])
    def test_identity_scale_inside_the_float_range_runs(self, l, tau, tmp_path, capsys):
        code, out, _ = run_cli(["contract", "--identities", "--l", l, "--tau", tau],
                               tmp_path, capsys)
        # 3: the fixed tolerance, below the rounding of entries near 1e154 at a tiny tau
        assert code in (0, 3) and out.exists()

    # rep --algebra su11 at a huge weight: L3 L+- leaves the float range in the relation
    # check, which once warned of an overflow, wrote relations_residual=nan and exited 3.
    # The refusal starts just above k = 1.26407e205 at dim 3, 7.65655e204 at dim 10
    # and 7.39231e202 at dim 10^7.
    @pytest.mark.parametrize("k,dim", [("1e206", "3"), ("1e300", "3"), ("1e307", "3"),
                                       ("1e296", "10000000"), ("1.265e205", "3"),
                                       ("7.657e204", "10"), ("7.393e202", "10000000")])
    def test_su11_relation_scale_names_k_and_dim(self, k, dim, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("ladderlab.algebra.build_su11_rep", refuse_build)
        err = run_refused(["rep", "--algebra", "su11", "--k", k, "--dim", dim],
                          tmp_path, capsys)
        assert err.startswith("ladderlab: --k / --dim: ") and "float range" in err

    @pytest.mark.parametrize("k,dim", [("1e200", "3"), ("1e205", "3"), ("1.264e205", "3"),
                                       ("7.655e204", "10")])
    def test_su11_relation_scale_inside_the_float_range_runs(self, k, dim, tmp_path, capsys):
        code, out, _ = run_cli(["rep", "--algebra", "su11", "--k", k, "--dim", dim],
                               tmp_path, capsys)
        # 3: the fixed tolerance, far below the rounding of entries near 1e300
        assert code == 3 and math.isfinite(float(read_csv(out)[1]["relations_residual"]))

    def test_large_but_finite_scales_still_run(self, tmp_path, capsys):
        for nmax, g in [("3", "1e150"), ("2", "4.740e153"), ("30", "3.160e152")]:
            code, _, _ = run_cli(["schwinger", "--nmax", nmax, "--check", "hamiltonian",
                                  "--Omega", g, "--Gamma", g], tmp_path, capsys)
            assert code in (0, 3)
        code, _, _ = run_cli(["orbit", "--thooft-N", "7", "--alpha", "1e-300"], tmp_path, capsys)
        assert code == 0
        code, _, _ = run_cli(["orbit", "--two-circle", "--q-num", "1", "--q-den", "1",
                              "--q-irr-add", "1e307", "--steps", "10"], tmp_path, capsys)
        assert code == 0  # no curve, so beta t is never formed

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_sector_is_finite(self, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("ladderlab.twomode._occupations", refuse_build)
        err = run_refused(["schwinger", "--nmax", "4", f"--sector={value}", "--dump"],
                          tmp_path, capsys)
        assert "--sector" in err and "finite" in err

    def test_dump_needs_sector_before_the_build(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("ladderlab.twomode._occupations", refuse_build)
        err = run_refused(["schwinger", "--nmax", "800", "--dump"], tmp_path, capsys)
        assert "--dump requires --sector" in err


@pytest.mark.parametrize("argv,target,values,check", [
    (["rep", "--algebra", "h1", "--dim", "5"], "algebra.check_algebra_relations",
     [{"relations_residual": math.nan}], "relations_residual"),
    # a nan in the second of its two residuals is in tests/test_evaluate.py
    (["contract", "--hp", "--dim", "8"], "contraction.holstein_primakoff_deviation",
     [{"hp_max_deviation": math.nan}], "hp_max_deviation"),
    (["contract", "--identities", "--l", "2"], "contraction.deformed_identity_residuals",
     [{"deformed_commutator": 0.0, "hamiltonian_decomposition": math.nan}],
     "hamiltonian_decomposition"),
    (["evolve", "--N", "4"], "evolution.geometric_phase_check", [complex(math.nan, 0.0)],
     "phase"),
    (["schwinger", "--nmax", "3"], "twomode.sector_match_residual",
     [{"sector_match": math.nan}], "sector_match"),
], ids=["rep", "contract-hp", "contract-identities", "evolve", "schwinger"])
def test_a_nan_check_is_a_breach(argv, target, values, check, tmp_path, capsys, monkeypatch):
    # every gate reads `not value <= tolerance`, which a nan fails
    results = iter(values)
    monkeypatch.setattr(f"ladderlab.{target}", lambda *args, **kwargs: next(results))
    code, _, captured = run_cli(argv, tmp_path, capsys)
    assert code == 3
    assert f"tolerance breach in check {check!r}" in captured.err


def test_nan_radius_error_is_a_breach(tmp_path, capsys, monkeypatch):
    # the gate reads `not radius_error <= tolerance`, so a nan residual cannot pass it
    touch_points = orbits.touch_points

    def nan_points(*args):
        trace = touch_points(*args)
        return dataclasses.replace(trace, points=np.full_like(trace.points, np.nan))

    monkeypatch.setattr(orbits, "touch_points", nan_points)
    code, out, captured = run_cli(["orbit", "--thooft-N", "7"], tmp_path, capsys)
    assert code == 3
    assert "tolerance breach in check 'radius_error'" in captured.err
    assert "# check radius_error=nan" in out.read_text().splitlines()


class TestStartup:
    def test_cli_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: with sys.modules["scipy"] = None any
        # scipy import raises ImportError, and every subcommand still exits 0
        runs = [
            ["rep", "--algebra", "su2", "--l", "1"],
            ["contract", "--hp", "--dim", "8"],
            ["evolve", "--N", "8"],
            ["orbit", "--thooft-N", "7", "--format", "json"],
            ["schwinger", "--nmax", "4"],
        ]
        argvs = [argv + ["--out", str(tmp_path / argv[0])] for argv in runs]
        proc = run_module(None, code=(
            "import sys; sys.modules['scipy'] = None; import ladderlab.cli as cli; "
            f"print([cli.main(argv) for argv in {argvs!r}])"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0]", proc.stderr

    def test_cli_import_leaves_orjson_unloaded(self):
        # orjson formats numeric cells and is imported when the first one is
        # written, so a CLI start that only builds its parser does not pay for it
        proc = run_module(None, code=(
            "import sys, ladderlab.cli as cli; cli.build_parser(); print('orjson' in sys.modules)"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @staticmethod
    def _loaded(statements: str) -> list[str]:
        """The watched modules that `import ladderlab.cli as cli` and `statements` loaded, sorted.

        They run in a fresh interpreter.  The watched modules are numpy,
        orjson, dataclasses, inspect, json and the `ladderlab.*` modules; one
        the interpreter loaded before that import is not reported.
        """
        proc = run_module(None, code=(
            "import sys; before = set(sys.modules); import ladderlab.cli as cli; "
            f"{statements}; print(*sorted(name for name in set(sys.modules) - before if name in "
            "('numpy', 'orjson', 'dataclasses', 'inspect', 'json') "
            "or name.startswith('ladderlab.')))"))
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1].split()

    # numpy, the library and the writer (with dataclasses and json) are imported
    # where a command first needs them, so a start that stops at the parse, or at
    # a refusal before the command, pays for none of them; `--help` prints to
    # stdout, so only the last line is read
    @pytest.mark.parametrize("statements", [
        "cli.build_parser()",
        "cli.main(['--help'])",
        "cli.main(['evolve', '--help'])",
        "cli.main(['evolve', '--N', 'nan'])",
        "cli.main(['evolve', '--N', '8', '--steps', '3'])",
        "cli.main(['rep', '--algebra', 'su2', '--l', '1', '--k', '2'])",
        "cli.main(['orbit', '--thooft-N', '7', '--steps', '5'])",
        "cli.main(['rep', '--algebra', 'su11', '--k', '1.5'])",
    ], ids=["parser", "help", "command-help", "parse-error", "unknown-flag", "unread-flag",
            "unread-orbit-flag", "needed-flag"])
    def test_a_start_that_only_parses_loads_no_numpy_library_or_writer(self, statements):
        assert self._loaded(statements) == ["ladderlab.cli"]

    def test_package_import_loads_no_numpy(self):
        proc = run_module(None, code=(
            "import sys, ladderlab; print(*sorted(name for name in sys.modules if name == 'numpy' "
            "or name.startswith('ladderlab.')))"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    # each command loads its own modules and those they import, the writer with its
    # dataclasses and json, and no other; orjson only where an array is written,
    # so not for schwinger's check table, a list
    @pytest.mark.parametrize("argv,modules", [
        (["rep", "--algebra", "h1", "--dim", "4"], ["orjson", "ladderlab.algebra",
                                                    "ladderlab.operators"]),
        (["contract", "--hp", "--dim", "4"], ["orjson", "ladderlab.algebra",
                                              "ladderlab.contraction", "ladderlab.operators"]),
        # the step operator is a plain numpy column, so no operator module is loaded
        (["evolve", "--N", "8"], ["orjson", "ladderlab.evolution"]),
        (["orbit", "--thooft-N", "7", "--curve-samples", "3"], ["orjson", "ladderlab.orbits"]),
        (["orbit", "--torus", "--ratio", "golden", "--steps", "10"],
         ["orjson", "ladderlab.orbits"]),
        (["schwinger", "--nmax", "2"], ["ladderlab.algebra", "ladderlab.operators",
                                        "ladderlab.twomode"]),
    ], ids=lambda v: " ".join(v))
    def test_each_command_loads_only_its_modules(self, argv, modules, tmp_path):
        argv = [*argv, "--out", str(tmp_path / "out.csv")]
        loaded = self._loaded(f"assert cli.main({argv!r}) == 0")
        assert loaded == sorted(["numpy", "dataclasses", "inspect", "json", "ladderlab.cli",
                                 "ladderlab.writer", *modules])

    def test_cli_holds_no_library_function(self):
        # the commands import what they call when they run; a stub for a test is
        # set on the library module, where that import reads it
        borrowed = [name for name, value in vars(cli).items()
                    if (getattr(value, "__module__", None) or "").startswith("ladderlab.")
                    and value.__module__ != cli.__name__]
        assert borrowed == []


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
    """Sizes far past what a dense or a full-size build could hold, under tracemalloc bounds.

    `schwinger` at nmax 800 has dim 641 601, 6.6 TB per dense complex matrix,
    and at nmax 3161 10^7 states, of which a check holds one run of whole
    sectors at a time; `evolve` at N = 2^18 and 2^20 holds at most two
    N-length complex vectors at a time; and the su(2) contraction sweep
    builds only the levels it tabulates of each irrep.
    """

    # tracemalloc peaks measured at 5.05 MB for --check all and --check l2
    # at nmax 800 and 5.00 MB for --check hamiltonian, the double commutator
    # of L2 setting the peak of --check all (6.5 MB for all and hamiltonian
    # while each run's set-up formed its occupations, ladders and mode
    # operators through temporaries and `evaluate` held the last identity of
    # one run through the next run's set-up, 7.7 MB while L2, HI, p and
    # [x, p] were held in complex values and each commutator held both its
    # products whole, 9.5 MB when it held their difference too, 103 MB with
    # the whole space built, 124 MB on the flat basis order), 4.76 MB for
    # --check all at nmax 400 and 5.20 MB at nmax 1600 (5.8 and 6.7 MB, 7.2
    # and 7.9 MB, and 9.0 and 9.7 MB, before), 0.084 MB at nmax 30 (0.090
    # and 0.143 MB before), 4.04 MB for --check sectors at nmax 3161 (6.1 and
    # 7.6 MB before; the whole space built would take about 0.4 and 1.6 GB),
    # 12.8 MB for contract --identities at l = 5e4 (14.4, 20.9 and 23.2 MB
    # before, while the Hamiltonian identity held each product beside its
    # scaled copy and each sum beside both its operands), 0.14 MB for the sector
    # dump at nmax 800 and 0.46 MB at nmax 3161 (31 MB at nmax 800 when the
    # sector was sliced out of the whole space, 103 MB when it was picked out
    # of the flat order by index lists), 8.4 MB for evolve at N = 2^18 and
    # 33.6 MB at N = 2^20, 32 B per state, the input and output of numpy's
    # FFT (15.0 and 59.8 MB, 57 B per state, when U was held as two band
    # diagonals and scanned for its first column; 23.4 and 92.6 MB when U^N
    # was formed by band products) and 0.02 MB for the su(2) sweep (530 MB
    # with each irrep built whole), on x86-64 (AMD EPYC) with Python 3.11 and
    # numpy 2.4, each after the warm-up of `_traced`.  Every schwinger check
    # holds one run of whole sectors, under RUN_PEAK_BOUND, about twice its
    # peak, so its peak at nmax 1600 is within RUN_GROWTH_BOUND of that at
    # nmax 400; the contract --identities bound and the nmax 30 bound, the
    # largest two-mode op of the benchmark, each leave about 20% headroom,
    # below the peaks before.  The dissipative table, whose set-up forms the
    # mode operators besides the ladders, peaks within HAMILTONIAN_L2_BOUND
    # of the L2 relations at nmax 800.
    #
    # Memory laws, each read at two sizes a factor of 4 apart, so a change of
    # law (a quadratic build, a whole-space build, a trace of every touch
    # where one period is enough) fails where one bound at one size would
    # pass it.  Peaks measured on x86-64 (Intel Xeon, 2 cores) with CPython
    # 3.11.7 and numpy 2.4.6, after the warm-up of `_traced`, at the 15 625 and
    # 62 500 steps or touches of ORBIT_SIZES: orbit --torus --ratio golden 0.63
    # and 2.50 MB, 40.2 and 40.0 B per step (the angles, their sorted column
    # and its gaps); --two-circle --q-num 3 --q-den 7 --q-irr-add 0.01 0.75 and
    # 3.00 MB, 48.2 and 48.1 B per touch; --thooft-N 0.88 and 3.50 MB, 56.1 and
    # 56.0 B per touch; and the closed --two-circle --q-num 5 --q-den 13, whose
    # trace holds one period, 0.103 MB at both.  At 250 000 the rates are the
    # same, 40.0, 48.0 and 56.0 B, and the closed orbit 0.105 MB; the smaller
    # pair keeps these tests near 2 s, as tracemalloc slows the row writing
    # about ninefold.  The su(2) sweep peaks at 0.013 MB for both --params
    # 50,1e5,1e6,4e6 and 200,4e5,4e6,1.6e7, and schwinger --sector 0 --dump
    # at 178 B per state at nmax 790 (0.141 MB) and 146 B per state at nmax
    # 3160 (0.460 MB); evolve at N = 2^18 and 2^20, 8.39 and 33.56 MB, 32.0 B
    # per state at both (below the 57 B per state of the scan).  Each
    # per-size bound leaves about 20% headroom over the larger of its two
    # rates, and a peak that should not grow with size is held to
    # RUN_GROWTH_BOUND of its peak at the smaller size.
    RUN_PEAK_BOUND = 20e6
    RUN_GROWTH_BOUND = 1.25
    ORBIT_SIZES = (15_625, 62_500)
    TORUS_BYTES_PER_STEP = 48
    IRRATIONAL_BYTES_PER_TOUCH = 58
    THOOFT_BYTES_PER_TOUCH = 68
    DUMP_BYTES_PER_STATE = 215
    IDENTITIES_PEAK_BOUND = 15.4e6
    SMALL_RUN_PEAK_BOUND = 101e3
    HAMILTONIAN_L2_BOUND = 1.15
    DUMP_PEAK_BOUND = 1e6
    DUMP_3161_PEAK_BOUND = 1e6
    EVOLVE_BYTES_PER_STATE = 38
    SU2_SWEEP_PEAK_BOUND = 1e6

    @staticmethod
    def _traced(argv, warmup, tmp_path, capsys):
        """Exit code, output path and tracemalloc peak of `argv`, after an untraced `warmup`.

        The warm-up, a small argv of the same command and mode, makes the
        imports and first-use allocations of that path, so the peak is the
        run's own.
        """
        assert run_cli(warmup, tmp_path, capsys, name="warmup.csv")[0] == 0
        tracemalloc.start()
        try:
            code, out, _ = run_cli(argv, tmp_path, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return code, out, peak

    def _run(self, check, tmp_path, capsys, nmax="800"):
        code, out, peak = self._traced(["schwinger", "--nmax", nmax, "--check", check],
                                       ["schwinger", "--nmax", "2", "--check", check],
                                       tmp_path, capsys)
        # Exit 3 is the fixed 1e-12 gate sitting below the rounding error of exact
        # identities at this size, a false breach (ROADMAP open item 1).
        assert code in (0, 3)
        return read_csv(out), peak

    def test_schwinger_nmax_800(self, tmp_path, capsys):
        (_, checks, header, rows), peak = self._run("all", tmp_path, capsys)
        assert header == ["check", "residual"] and len(rows) == 9
        assert float(checks["sector_match"]) < 1e-12
        assert peak < self.RUN_PEAK_BOUND, f"tracemalloc peak {peak / 1e6:.1f} MB"

    def test_hamiltonian_check_nmax_800(self, tmp_path, capsys):
        # the dissipative residuals set the peak of --check all
        (_, _, _, rows), peak = self._run("hamiltonian", tmp_path, capsys)
        assert [r["check"] for r in rows] == [
            "h0_vs_casimir", "hi_vs_l2", "h0_hermiticity", "hi_hermiticity", "h0_hi_commutator"]
        assert peak < self.RUN_PEAK_BOUND, f"tracemalloc peak {peak / 1e6:.1f} MB"
        # its set-up forms the mode operators in place, beside the ladders
        _, l2 = self._run("l2", tmp_path, capsys)
        assert peak < self.HAMILTONIAN_L2_BOUND * l2, (
            f"tracemalloc peaks {peak / 1e6:.2f} and {l2 / 1e6:.2f} MB")

    def test_schwinger_nmax_30(self, tmp_path, capsys):
        # 961 states in one run: L2, HI and their products held as real diagonals
        (_, _, _, rows), peak = self._run("all", tmp_path, capsys, nmax="30")
        assert len(rows) == 9
        assert peak < self.SMALL_RUN_PEAK_BOUND, f"tracemalloc peak {peak / 1e3:.1f} KB"

    def test_schwinger_nmax_1600(self, tmp_path, capsys):
        (_, checks, _, rows), peak = self._run("all", tmp_path, capsys, nmax="1600")
        assert len(rows) == 9 and float(checks["sector_match"]) < 1e-12
        assert peak < self.RUN_PEAK_BOUND, f"tracemalloc peak {peak / 1e6:.1f} MB"
        # 16 times the states of nmax 400, in runs of the same size
        _, smaller = self._run("all", tmp_path, capsys, nmax="400")
        assert peak < self.RUN_GROWTH_BOUND * smaller, (
            f"tracemalloc peaks {smaller / 1e6:.1f} and {peak / 1e6:.1f} MB")

    def test_sector_check_nmax_3161(self, tmp_path, capsys):
        # the largest cutoff --nmax takes: 10^7 states, 80 MB per diagonal of the whole space
        (_, checks, _, rows), peak = self._run("sectors", tmp_path, capsys, nmax="3161")
        assert [r["check"] for r in rows] == ["sector_match"]
        assert float(checks["sector_match"]) < 1e-12
        assert peak < self.RUN_PEAK_BOUND, f"tracemalloc peak {peak / 1e6:.1f} MB"

    def _dump(self, nmax, sector, size, bound, tmp_path, capsys):
        code, out, peak = self._traced(["schwinger", "--nmax", nmax, "--sector", sector, "--dump"],
                                       ["schwinger", "--nmax", "2", "--sector", "0", "--dump"],
                                       tmp_path, capsys)
        assert code == 0
        _, checks, header, rows = read_csv(out)
        assert checks["sector_size"] == str(size)
        # L3 on every state of the sector, L+ and L- on each of its steps
        assert header == list(cli.ELEMENT_COLUMNS) and len(rows) == size + 2 * (size - 1)
        assert peak < bound, f"tracemalloc peak {peak / 1e6:.2f} MB"

    def test_sector_dump_bytes_per_state(self, tmp_path, capsys):
        # sector 0 holds nmax + 1 states: 791 and 3161, 4 times as many
        for nmax in (790, 3160):
            code, _, peak = self._traced(
                ["schwinger", "--nmax", str(nmax), "--sector", "0", "--dump"],
                ["schwinger", "--nmax", "2", "--sector", "0", "--dump"], tmp_path, capsys)
            assert code == 0
            assert peak < self.DUMP_BYTES_PER_STATE * (nmax + 1), (
                f"{peak / (nmax + 1):.0f} B per state at nmax {nmax}")

    def test_sector_dump_nmax_800(self, tmp_path, capsys):
        self._dump("800", "3", 795, self.DUMP_PEAK_BOUND, tmp_path, capsys)

    def test_sector_dump_nmax_3161(self, tmp_path, capsys):
        # the whole space at this cutoff holds 10^7 states, 80 MB per diagonal
        self._dump("3161", "0", 3162, self.DUMP_3161_PEAK_BOUND, tmp_path, capsys)

    def test_contract_identities_l_5e4(self, tmp_path, capsys):
        # 100 001 states; each commutator holds its two products and no third set
        code, out, peak = self._traced(["contract", "--identities", "--l", "5e4"],
                                       ["contract", "--identities", "--l", "2"], tmp_path, capsys)
        # exit 3: the fixed 1e-12 gate again (ROADMAP open item 1)
        assert code in (0, 3)
        _, _, header, rows = read_csv(out)
        assert header == ["l", "tau", "identity", "residual"]
        assert [r["identity"] for r in rows] == ["deformed_commutator",
                                                 "hamiltonian_decomposition"]
        assert peak < self.IDENTITIES_PEAK_BOUND, f"tracemalloc peak {peak / 1e6:.1f} MB"

    def _evolve(self, n, tmp_path, capsys):
        # --tolerance 1e-6: at these N the rounding of the phase passes the fixed
        # 1e-12 default, a false breach (ROADMAP open item 1)
        code, out, peak = self._traced(["evolve", "--N", str(n), "--tolerance", "1e-6"],
                                       ["evolve", "--N", "8"], tmp_path, capsys)
        assert code == 0
        _, checks, header, rows = read_csv(out)
        assert header == ["n", "energy"] and len(rows) == n
        omega = float(checks["omega"])
        assert [float(rows[i]["energy"]) for i in (0, n - 1)] == [0.5 * omega, (n - 0.5) * omega]
        assert peak < self.EVOLVE_BYTES_PER_STATE * n, f"{peak / n:.1f} B per state at N = {n}"

    def test_evolve_n_2_18(self, tmp_path, capsys):
        self._evolve(2**18, tmp_path, capsys)

    def test_evolve_n_2_20(self, tmp_path, capsys):
        self._evolve(2**20, tmp_path, capsys)

    def test_su2_sweep_to_l_4e6(self, tmp_path, capsys):
        code, out, peak = self._traced(
            ["contract", "--family", "su2", "--params", "50,1e5,1e6,4e6"],
            ["contract", "--family", "su2", "--params", "5,10,20"], tmp_path, capsys)
        assert code == 0
        _, checks, _, rows = read_csv(out)
        assert len(rows) == 4 * 4
        assert abs(float(checks["fitted_slope"]) + 1.0) < 1e-6
        assert peak < self.SU2_SWEEP_PEAK_BOUND, f"tracemalloc peak {peak / 1e6:.1f} MB"
        # every label 4 times larger: the sweep builds only the levels it tabulates
        code, _, larger = self._traced(
            ["contract", "--family", "su2", "--params", "200,4e5,4e6,1.6e7"],
            ["contract", "--family", "su2", "--params", "5,10,20"], tmp_path, capsys)
        assert code == 0
        assert larger < self.RUN_GROWTH_BOUND * peak, (
            f"tracemalloc peaks {peak / 1e6:.3f} and {larger / 1e6:.3f} MB")

    def _orbit_peaks(self, argv, tmp_path, capsys):
        """The tracemalloc peak of `argv` plus --steps or --thooft-N at each of ORBIT_SIZES."""
        peaks = []
        for size in self.ORBIT_SIZES:
            code, _, peak = self._traced([*argv, str(size)], [*argv, "10"], tmp_path, capsys)
            assert code == 0
            peaks.append(peak)
        return peaks

    @pytest.mark.parametrize("argv, bound", [
        (["orbit", "--torus", "--ratio", "golden", "--steps"], TORUS_BYTES_PER_STEP),
        (["orbit", "--two-circle", "--q-num", "3", "--q-den", "7", "--q-irr-add", "0.01",
          "--steps"], IRRATIONAL_BYTES_PER_TOUCH),
        (["orbit", "--thooft-N"], THOOFT_BYTES_PER_TOUCH),
    ], ids=["torus", "two-circle-irrational", "thooft"])
    def test_orbit_bytes_per_touch(self, argv, bound, tmp_path, capsys):
        for size, peak in zip(self.ORBIT_SIZES, self._orbit_peaks(argv, tmp_path, capsys)):
            assert peak < bound * size, f"{peak / size:.1f} B per touch at {size}"

    def test_closed_orbit_holds_one_period(self, tmp_path, capsys):
        smaller, larger = self._orbit_peaks(
            ["orbit", "--two-circle", "--q-num", "5", "--q-den", "13", "--steps"], tmp_path, capsys)
        assert larger < self.RUN_GROWTH_BOUND * smaller, (
            f"tracemalloc peaks {smaller / 1e6:.3f} and {larger / 1e6:.3f} MB")
