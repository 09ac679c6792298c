"""The block writer `cli.write_output` against the row-at-a-time writer it replaced.

`rowwise_write_output` is that writer, kept unchanged (with its two helpers)
as the byte oracle: every file the block writer produces must equal its
output byte for byte.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ladderlab import __version__, cli
from ladderlab.cli import CommandResult, TOOL, WRITE_BLOCK_ROWS, write_output


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_safe(value):
    if value is None:
        return None
    if isinstance(value, float):
        return None if math.isnan(value) else value
    return value


def rowwise_write_output(path: str, fmt: str, command: str, parameters: dict,
                         tolerance: float, result: CommandResult) -> None:
    if fmt == "csv":
        lines = [f"# {TOOL} {__version__}", f"# command={command}"]
        lines.extend(f"# param {key}={_fmt(val)}" for key, val in parameters.items())
        lines.append(f"# tolerance={_fmt(tolerance)}")
        lines.extend(f"# check {key}={_fmt(val)}" for key, val in result.checks.items())
        lines.append(",".join(result.columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in result.rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "manifest": {
                "tool": TOOL,
                "version": __version__,
                "command": command,
                "parameters": {k: _json_safe(v) for k, v in parameters.items()},
                "tolerance": tolerance,
            },
            "checks": {k: _json_safe(v) for k, v in result.checks.items()},
            "rows": [
                {col: _json_safe(v) for col, v in zip(result.columns, row)}
                for row in result.rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


FLOATS = [0.0, -0.0, 1.5, -2.25e-17, 1e16, 123456789.123, math.pi, 5e-324,
          float("inf"), float("-inf"), float("nan")]
STRINGS = ['plain', 'say "hi"', "100%", "%s%d", "ψ ω≥0", "back\\slash", "tab\there",
           "new\nline", "", " "]
MIXED = [None, float("nan"), float("inf"), -0.0, 7, -3, True, False, "mixed \"%\"",
         np.float64(0.1), 2**70]
PARAMETERS = {"steps": 12, "alpha": 0.5, "ratio": None, "phi0": "0,0", "q_irr_add": "pi/40",
              "flag": True, "out": "out.csv"}
CHECKS = {"period_steps": None, "slope": float("nan"), "gap": -0.0, "count": 3,
          "label": "a\"b%c ψ", "big": float("inf")}


def special_result(n_rows: int) -> CommandResult:
    """Rows cycling through special cells; some columns keep one type, some mix."""
    rows = [
        (
            i - n_rows // 2,
            FLOATS[i % len(FLOATS)],
            FLOATS[(3 * i) % (len(FLOATS) - 3)],  # never NaN or +-inf
            STRINGS[i % len(STRINGS)],
            MIXED[i % len(MIXED)],
            None if i % 97 == 0 else i / 7,
        )
        for i in range(n_rows)
    ]
    return CommandResult(
        columns=("i", "x", "finite", "label", "any", "sparse"), rows=rows, checks=dict(CHECKS)
    )


def assert_same_bytes(tmp_path, fmt, result, parameters=PARAMETERS, tolerance=1e-12):
    new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
    write_output(str(new), fmt, "orbit", parameters, tolerance, result)
    rowwise_write_output(str(old), fmt, "orbit", parameters, tolerance, result)
    assert new.read_bytes() == old.read_bytes()
    return new


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 1, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS,
                                    WRITE_BLOCK_ROWS + 1, 3 * WRITE_BLOCK_ROWS + 5, 60_000])
def test_block_writer_matches_rowwise_writer(n_rows, fmt, tmp_path):
    out = assert_same_bytes(tmp_path, fmt, special_result(n_rows))
    if fmt == "json":
        assert len(json.loads(out.read_text(encoding="utf-8"))["rows"]) == n_rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_single_type_blocks_with_specials(fmt, tmp_path):
    # whole blocks of one exact type, with NaN and inf only in the last block
    n = 2 * WRITE_BLOCK_ROWS + 3
    floats = [j / 3 for j in range(n)]
    floats[-1], floats[-2] = float("nan"), float("-inf")
    rows = list(zip(range(n), floats, ["s%"] * n, [None] * n))
    assert_same_bytes(tmp_path, fmt, CommandResult(("n", "v", "s", "none"), rows))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_column_names_are_escaped(fmt, tmp_path):
    result = CommandResult(('q"uote', "pct%s", "ψ"), [(1, 2.0, "x")] * 70)
    assert_same_bytes(tmp_path, fmt, result)


def test_ragged_rows_are_rejected(tmp_path):
    result = CommandResult(("a", "b"), [(1, 2), (3, 4, 5)])
    with pytest.raises(ValueError):
        write_output(str(tmp_path / "out.csv"), "csv", "orbit", {}, 1e-12, result)


CLI_CASES = [
    ["rep", "--algebra", "su2", "--l", "3"],
    ["rep", "--algebra", "su11", "--k", "0.5", "--dim", "40"],
    ["rep", "--algebra", "h1", "--dim", "5"],
    ["rep", "--algebra", "su11", "--k", "0.5", "--dim", "10", "--interior", "10"],
    ["contract", "--family", "su2", "--params", "5,10,20,40", "--n", "3"],
    ["contract", "--family", "su2", "--params", "5,10"],
    ["contract", "--hp", "--dim", "64"],
    ["contract", "--identities", "--l", "3", "--tau", "1"],
    ["evolve", "--N", "7", "--tau", "1"],
    ["evolve", "--N", "5", "--units", "omega"],
    ["orbit", "--thooft-N", "7", "--curve-samples", "2000"],
    ["orbit", "--two-circle", "--q-num", "5", "--q-den", "3", "--q-irr-add", "pi/40",
     "--steps", "200"],
    ["orbit", "--torus", "--ratio", "golden", "--steps", "10000"],
    ["schwinger", "--nmax", "8", "--check", "all"],
    ["schwinger", "--nmax", "8", "--sector", "0", "--dump"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", CLI_CASES, ids=lambda argv: " ".join(argv[:3]))
def test_every_subcommand_matches_rowwise_writer(argv, fmt, tmp_path, monkeypatch, capsys):
    calls = []

    def recording(*args):
        calls.append(args)
        write_output(*args)

    monkeypatch.setattr(cli, "write_output", recording)
    out = tmp_path / f"new.{fmt}"
    assert cli.main(argv + ["--format", fmt, "--out", str(out)]) in (0, 3)
    capsys.readouterr()
    (_, _, command, parameters, tolerance, result), = calls
    old = tmp_path / f"old.{fmt}"
    rowwise_write_output(str(old), fmt, command, parameters, tolerance, result)
    assert out.read_bytes() == old.read_bytes()


def _write_peak(writer, path, result) -> int:
    tracemalloc.start()
    try:
        writer(str(path), "csv", "orbit", {}, 1e-12, result)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_is_one_block(tmp_path):
    args = cli.build_parser().parse_args(
        ["orbit", "--torus", "--ratio", "golden", "--steps", "60000"])
    result = cli.cmd_orbit(args)
    new = _write_peak(write_output, tmp_path / "new.csv", result)
    old = _write_peak(rowwise_write_output, tmp_path / "old.csv", result)
    # The row-at-a-time writer holds every line and the whole text at once
    # (about 11 MB here). The block writer holds one block of formatted cells:
    # 40-100 kB with 64-row blocks (the first calls in a process also fill
    # the interpreter's tuple free list); 512-row blocks exceed the bound.
    assert new < 200_000
    assert 30 * new < old
