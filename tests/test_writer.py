"""The column writer `writer.write_output`, called through `cli.write_output`, against
the row-at-a-time writer it replaced.

`rowwise_write_output` is that writer, kept unchanged (with its two helpers)
as the byte oracle: it formats `oracles.rows(result)` one tuple at a time,
and every file the column writer produces must equal its output byte for
byte.
"""

import io
import json
import math
import os
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladderlab import __version__, cli, writer
from ladderlab.cli import TOOL, write_output
from ladderlab.writer import PLAIN_SCAN_ROWS, WRITE_BLOCK_ROWS, Arange, CommandResult, Periodic
from ladderlab.orbits import CircleDynamics, continuous_position, thooft_system, touch_points
import oracles
from oracles import rational_touch_angles


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
        lines.extend(",".join(_fmt(v) for v in row) for row in oracles.rows(result))
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
                for row in oracles.rows(result)
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
    index = range(n_rows)
    columns = (
        [i - n_rows // 2 for i in index],
        [FLOATS[i % len(FLOATS)] for i in index],
        [FLOATS[(3 * i) % (len(FLOATS) - 3)] for i in index],  # never NaN or +-inf
        [STRINGS[i % len(STRINGS)] for i in index],
        [MIXED[i % len(MIXED)] for i in index],
        [None if i % 97 == 0 else i / 7 for i in index],
    )
    return CommandResult(
        columns=("i", "x", "finite", "label", "any", "sparse"), groups=[columns],
        checks=dict(CHECKS),
    )


def assert_same_bytes(tmp_path, fmt, result, parameters=PARAMETERS, tolerance=1e-12):
    new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
    write_output(str(new), fmt, "orbit", parameters, tolerance, result)
    rowwise_write_output(str(old), fmt, "orbit", parameters, tolerance, result)
    assert new.read_bytes() == old.read_bytes()
    return new


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 1, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS,
                                    WRITE_BLOCK_ROWS + 1, 3 * WRITE_BLOCK_ROWS + 5, 60_000,
                                    # the same sizes around the earlier 64-row block
                                    63, 64, 65, 197])
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
    columns = (range(n), floats, ["s%"] * n, [None] * n)
    assert_same_bytes(tmp_path, fmt, CommandResult(("n", "v", "s", "none"), [columns]))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_column_names_are_escaped(fmt, tmp_path):
    result = CommandResult(('q"uote', "pct%s", "ψ"), [([1] * 70, [2.0] * 70, ["x"] * 70)])
    assert_same_bytes(tmp_path, fmt, result)


def test_ragged_rows_are_rejected(tmp_path):
    result = CommandResult(("a", "b"), [([1, 3], [2, 4, 5])])
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


def _native_array(values) -> bool:
    """Whether `values` is a 1-D float64 or int64 array in native byte order."""
    return (isinstance(values, np.ndarray) and values.ndim == 1
            and values.dtype in (np.dtype(np.float64), np.dtype(np.int64)))


def _written_shape(column) -> bool:
    """Whether a column has one of the shapes the writer formats.

    They are a native float64 or int64 array, an `Arange`, a `Periodic` of
    one label (a str or None), of one float or of a float64 period, and a
    list of at most nine str or float cells.  A float32 or byte-swapped
    array is none of them: the writer would write its cells with the wrong
    digits.
    """
    if isinstance(column, Periodic):
        values = column.values
        return (_native_array(values) and values.dtype.kind == "f"
                or isinstance(values, tuple) and len(values) == 1
                and (values[0] is None or type(values[0]) in (str, float)))
    if isinstance(column, list):
        return len(column) <= 9 and all(isinstance(cell, (str, float)) for cell in column)
    return isinstance(column, Arange) or _native_array(column)


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
    for group in result.groups:
        assert all(map(_written_shape, group)), [type(column) for column in group]
        assert not all(isinstance(column, Periodic) and len(column.values) == 1
                       for column in group)
    old = tmp_path / f"old.{fmt}"
    rowwise_write_output(str(old), fmt, command, parameters, tolerance, result)
    assert out.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("column", [
    np.arange(3.0), np.arange(3), np.arange(9.0)[::-3], np.zeros(0),
    Arange(0, 3), Arange(1, 3, 0.5),
    Periodic(("touch",), 3), Periodic((None,), 3), Periodic((0.5,), 3),
    Periodic(np.linspace(0.0, 1.0, 4), 8),
    ["a", 1.5] * 4 + ["b"], [],
], ids=["float64", "int64", "strided", "empty", "arange", "arange-scaled", "label", "none",
        "one-float", "float-period", "list-of-nine", "empty-list"])
def test_written_shape_holds_each_shape_a_command_builds(column):
    assert _written_shape(column)


@pytest.mark.parametrize("column", [
    np.arange(3, dtype=np.float32), np.arange(3, dtype=np.float16),
    np.arange(3.0).astype(">f8"), np.arange(3).astype(">i8"), np.arange(3, dtype=np.int32),
    np.zeros((2, 2)), np.arange(3) % 2 == 0, np.arange(3) + 1j,
    ["a", 1.5] * 5, ["a", 1], Periodic(("a", "b"), 3), Periodic((1,), 3),
    Periodic(np.arange(4), 8), Periodic(np.arange(4, dtype=np.float32), 8),
], ids=["float32", "float16", "swapped-float", "swapped-int", "int32", "2-d", "bool",
        "complex", "list-of-ten", "int-cell", "two-labels", "one-int", "int-period",
        "float32-period"])
def test_written_shape_refuses_each_shape_the_writer_does_not_format(column):
    # a float32 or byte-swapped column would be written with the wrong digits
    assert not _written_shape(column)


def _write_peak(writer, path, result) -> int:
    import orjson  # noqa: F401  loaded before tracing, so the peak is the writer's own
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
    # (about 11 MB here). The column writer holds about one block of text:
    # 52 kB with 256-row blocks and 126 kB with 512-row blocks (the thooft
    # write below: 119 and 163 kB; CPython 3.11, numpy 2.4), all under the
    # bound. What holds the block at 256 rows is the peak of `evolve --N
    # 1024`, 65 kB with 256-row blocks and 83 kB with 512, not this bound.
    assert new < 200_000
    assert 30 * new < old


def test_row_dump_memory_is_one_block(tmp_path):
    # touch rows led by a constant label, then curve rows that also end in an
    # empty theta: both labels are folded into the row breaks of each block
    args = cli.build_parser().parse_args(
        ["orbit", "--thooft-N", "60000", "--curve-samples", "20000"])
    result = cli.cmd_orbit(args)
    assert [writer._row_dumper(group) is not None for group in result.groups] == [True, True]
    new = _write_peak(write_output, tmp_path / "new.csv", result)
    old = _write_peak(rowwise_write_output, tmp_path / "old.csv", result)
    assert new < 200_000
    assert 30 * new < old


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 1, WRITE_BLOCK_ROWS + 1, 3 * WRITE_BLOCK_ROWS + 5])
def test_array_and_periodic_columns(n_rows, fmt, tmp_path):
    # numpy columns with NaN and inf, periodic columns of every cell kind, and
    # an empty group between two others
    groups = [
        (np.arange(n_rows, dtype=np.int32), np.resize(np.array(FLOATS), n_rows),
         Periodic(np.array(FLOATS), n_rows), Periodic(MIXED, n_rows), np.arange(n_rows) / 7),
        (np.arange(0), np.zeros(0), Periodic((), 0), Periodic(("x",), 0), []),
        (range(5), [None] * 5, Periodic((None,), 5), Periodic(STRINGS, 5), np.full(5, np.nan)),
    ]
    result = CommandResult(("i", "x", "p", "q", "f"), groups, checks=dict(CHECKS))
    assert len(result.rows) == n_rows + 5
    assert_same_bytes(tmp_path, fmt, result)


def test_periodic_needs_values_and_a_length():
    with pytest.raises(ValueError):
        Periodic((), 3)
    with pytest.raises(ValueError):
        Periodic((1.0,), -1)


def test_groups_need_every_column(tmp_path):
    result = CommandResult(("a", "b"), [([1, 2], [3, 4]), ([5],)])
    with pytest.raises(ValueError):
        len(result.rows)
    with pytest.raises(ValueError):
        next(oracles.rows(result))
    with pytest.raises(ValueError):
        write_output(str(tmp_path / "out.json"), "json", "orbit", {}, 1e-12, result)
    assert not (tmp_path / "out.json").exists()


# `result.rows` holds the row count alone: the count of the data rows written,
# for every mode of every subcommand
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["rep", "--algebra", "su2", "--l", "2"],
    ["rep", "--algebra", "su11", "--k", "1.5", "--dim", "6"],
    ["contract", "--family", "su2", "--params", "5,10"],
    ["contract", "--hp", "--dim", "5"],
    ["contract", "--identities", "--l", "2"],
    ["evolve", "--N", "6"],
    ["orbit", "--thooft-N", "7", "--curve-samples", "4"],
    ["orbit", "--two-circle", "--q-num", "3", "--q-den", "7", "--steps", "20"],
    ["orbit", "--torus", "--ratio", "golden", "--steps", "300"],
    ["orbit", "--torus", "--rot1", "1", "--rot2", "2", "--steps", "3"],
    ["schwinger", "--nmax", "3"],
    ["schwinger", "--nmax", "3", "--dump", "--sector", "0.5"],
], ids=" ".join)
def test_rows_counts_the_rows_written(argv, fmt, tmp_path):
    args = cli.build_parser().parse_args(argv)
    result = cli.COMMANDS[args.command](args)
    out = tmp_path / f"out.{fmt}"
    write_output(str(out), fmt, args.command, {}, 1e-12, result)
    written = _rows_written(out, fmt)
    assert written > 0
    assert result.rows == range(written)


def _rows_written(out: Path, fmt: str) -> int:
    """The data rows of a CSV or JSON output file."""
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        return len(json.loads(text)["rows"])
    return sum(not line.startswith("#") for line in text.splitlines()) - 1


def _recorded(argv, fmt, tmp_path, monkeypatch):
    """Run the CLI; return its output file and the arguments `write_output` got."""
    calls = []

    def recording(*args):
        calls.append(args)
        write_output(*args)

    monkeypatch.setattr(cli, "write_output", recording)
    out = tmp_path / f"new.{fmt}"
    assert cli.main(argv + ["--format", fmt, "--out", str(out)]) == 0
    (call,) = calls
    return out, call


def full_closed_orbit(q: Fraction, count: int, alpha: float) -> CommandResult:
    """The touch rows and checks of `orbit` for the ratio q, one row per touch.

    Every array runs over all `count` touches, with angles from the
    object-integer oracle and the period from exact fractions; nothing is
    read from `touch_points`.
    """
    angles = rational_touch_angles(q.numerator, q.denominator, count)
    x, y = np.cos(angles), np.sin(angles)
    ordered = np.sort(angles)
    gaps = np.append(np.diff(ordered), ordered[0] + 2 * math.pi - ordered[-1])
    checks = {
        "period_steps": ((1 - q) / 2).denominator,  # theta_j / 2 pi = j (1 - q) / 2 mod 1
        "radius_error": float(np.max(np.abs(x**2 + y**2 - 1.0))),
        "min_touch_gap": float(np.min(gaps)),
    }
    rows = (["touch"] * count, list(range(1, count + 1)),
            [j * (math.pi / alpha) for j in range(1, count + 1)],
            x.tolist(), y.tolist(), angles.tolist())
    return CommandResult(("record", "index", "t", "x", "y", "theta"), [rows], checks=checks)


def assert_closed_orbit_matches_oracle(argv, q, count, alpha, fmt, tmp_path, monkeypatch):
    """The CLI's checks and bytes for a closed orbit against `full_closed_orbit`."""
    out, (_, _, command, parameters, tolerance, result) = _recorded(
        argv, fmt, tmp_path, monkeypatch)
    full = full_closed_orbit(q, count, alpha)
    repeats = full.checks["period_steps"] < count
    assert [isinstance(column, Periodic) for column in result.groups[0]] == \
        [True, False, False, repeats, repeats, repeats]
    assert result.checks == full.checks
    # the oracle formats the full touch arrays row by row, with no period in sight
    old = tmp_path / f"old.{fmt}"
    rowwise_write_output(str(old), fmt, command, parameters, tolerance, full)
    assert out.read_bytes() == old.read_bytes()
    return out, result, full


CLOSED_ORBITS = [
    # (argv, dynamics, touches); the period is 2 den / gcd(den - num, 2 den)
    pytest.param(["orbit", "--two-circle", "--q-num", "5", "--q-den", "13", "--steps", "7"],
                 CircleDynamics.rational(1.0, 5, 13), 7, id="below-period-13"),
    pytest.param(["orbit", "--thooft-N", "1000"], thooft_system(1000), 1000,
                 id="one-period-1000"),
    # 60 000 = 4615 periods of 13 + 5, and 13 does not divide a block, so
    # block boundaries fall inside periods
    pytest.param(["orbit", "--two-circle", "--q-num", "5", "--q-den", "13", "--steps", "60000"],
                 CircleDynamics.rational(1.0, 5, 13), 60_000, id="period-13-partial"),
    # a period longer than a block: 1500 = 2 periods of 602 + 296
    pytest.param(["orbit", "--two-circle", "--q-num", "2", "--q-den", "301", "--steps", "1500"],
                 CircleDynamics.rational(1.0, 2, 301), 1500, id="period-602-partial"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv,dynamics,count", CLOSED_ORBITS)
def test_closed_orbit_matches_full_arrays(argv, dynamics, count, fmt, tmp_path, monkeypatch):
    out, result, full = assert_closed_orbit_matches_oracle(
        argv, dynamics.q, count, dynamics.alpha, fmt, tmp_path, monkeypatch)
    assert list(oracles.rows(result)) == list(oracles.rows(full))
    assert len(result.rows) == _rows_written(out, fmt) == count


# Runs around the closure period of random ratios: one touch short of it, at
# it, one past it, and k periods plus a remainder.  The examples hold periods
# longer than a write block (602 and 400 rows).
@settings(derandomize=True, max_examples=40, deadline=None)
@example(num=2, den=301, alpha=1.0, place="wrapped", k=2, r=296)
@example(num=1, den=200, alpha=0.3, place="before", k=1, r=0)
@given(
    num=st.integers(min_value=1, max_value=400),
    den=st.integers(min_value=3, max_value=401),
    alpha=st.sampled_from([1.0, 0.3, 2.5]),
    place=st.sampled_from(["before", "at", "after", "wrapped"]),
    k=st.integers(min_value=1, max_value=4),
    r=st.integers(min_value=0, max_value=10**6),
)
def test_closed_orbit_around_its_period_matches_object_oracle(num, den, alpha, place, k, r,
                                                              tmp_path_factory):
    q = Fraction(1 + (num - 1) % (den - 1), den)  # 0 < q < 1
    period = ((1 - q) / 2).denominator
    count = {"before": period - 1, "at": period, "after": period + 1,
             "wrapped": k * period + r % period}[place]
    argv = ["orbit", "--two-circle", "--q-num", str(q.numerator), "--q-den",
            str(q.denominator), "--steps", str(count), "--alpha", repr(alpha)]
    tmp_path = tmp_path_factory.mktemp("closed")
    with pytest.MonkeyPatch.context() as monkeypatch:
        for fmt in ("csv", "json"):
            assert_closed_orbit_matches_oracle(argv, q, count, alpha, fmt, tmp_path, monkeypatch)


def _main_peak(argv) -> int:
    """The tracemalloc peak of `cli.main(argv)`, with orjson and the parser made before tracing."""
    import orjson  # noqa: F401
    cli.build_parser()
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_orbit_peak_memory(tmp_path, capsys):
    # The benchmark's largest orbits op. Its full tracemalloc peak was 17.8 MB
    # when the command built one tuple per row, 3.85 MB with columns while
    # touch_points formed every touch's residue, angle and point, and 1.07 MB
    # with one period of 13 and index and times arrays (0.48 MB each).  With
    # those two as `Arange` columns it is the writer's block: 0.11 MB measured
    # with orjson 3.8.3.
    peak = _main_peak(["orbit", "--two-circle", "--q-num", "5", "--q-den", "13",
                       "--steps", "60000", "--format", "json", "--out", str(tmp_path / "out.json")])
    capsys.readouterr()
    assert peak < 300_000, f"tracemalloc peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_closed_orbit_reach(fmt, capsys):
    # a million touches hold one period and a block: 0.11 MB (CSV) and 0.12 MB
    # (JSON) measured, where the index and times arrays took 16 MB
    peak = _main_peak(["orbit", "--two-circle", "--q-num", "5", "--q-den", "13",
                       "--steps", "1000000", "--format", fmt, "--out", os.devnull])
    capsys.readouterr()
    assert peak < 500_000, f"tracemalloc peak {peak / 1e6:.2f} MB"


# `Arange` columns against the arrays they stand for, formed as the command
# formed them before: the touch index and times and a curve group from
# `_trace_groups`, and a torus-like group.  The lengths fall around the block
# (256) and scan (4096) boundaries.  alpha 1e5 puts the first touch times
# below 1e-4, and alpha 1e-12 puts them at 1e16 and above from j = 3184 on,
# so cells in exponent form start partway through a group.
@settings(derandomize=True, max_examples=30, deadline=None)
@example(boundary=PLAIN_SCAN_ROWS, offset=1, alpha=1e-12, curve=WRITE_BLOCK_ROWS + 1)
@example(boundary=WRITE_BLOCK_ROWS, offset=0, alpha=1e5, curve=0)
@given(
    boundary=st.sampled_from([1, WRITE_BLOCK_ROWS, 3 * WRITE_BLOCK_ROWS, PLAIN_SCAN_ROWS,
                              2 * PLAIN_SCAN_ROWS]),
    offset=st.integers(min_value=-2, max_value=2),
    alpha=st.one_of(st.sampled_from([1e5, 1e-12]), st.floats(min_value=1e-12, max_value=1e5)),
    curve=st.sampled_from([0, 1, WRITE_BLOCK_ROWS + 1, PLAIN_SCAN_ROWS - 1]),
)
def test_arange_columns_write_the_bytes_of_their_arrays(boundary, offset, alpha, curve,
                                                        tmp_path_factory):
    count = max(1, boundary + offset)
    dynamics = CircleDynamics.rational(alpha, 5, 13)
    trace = touch_points(dynamics, count)
    groups = cli._trace_groups(dynamics, trace, curve)
    label, _, _, x, y, theta = groups[0]
    touch_times = np.arange(1.0, count + 1) * (math.pi / alpha)
    arrays = [(label, np.arange(1, count + 1), touch_times, x, y, theta)]
    if curve:
        times = np.linspace(0.0, float(touch_times[-1]), curve)
        arrays.append((groups[1][0], np.arange(curve), times,
                       *continuous_position(dynamics, times), groups[1][-1]))
    assert writer._row_dumper(groups[0]) is not None  # Arange columns take the row dump
    columns = ("record", "index", "t", "x", "y", "theta")
    step = -math.pi / alpha
    torus = (Arange(1, count), np.arange(count) / 7, Arange(0, count, step))
    torus_arrays = (np.arange(1, count + 1), torus[1], np.arange(0.0, count) * step)
    tmp_path = tmp_path_factory.mktemp("arange")
    for new, old in ((CommandResult(columns, groups), CommandResult(columns, arrays)),
                     (CommandResult(("a", "b", "c"), [torus]),
                      CommandResult(("a", "b", "c"), [torus_arrays]))):
        assert list(oracles.rows(new)) == list(oracles.rows(old))
        for fmt in ("csv", "json"):
            write_output(str(tmp_path / f"new.{fmt}"), fmt, "orbit", {}, 1e-12, new)
            write_output(str(tmp_path / f"old.{fmt}"), fmt, "orbit", {}, 1e-12, old)
            assert (tmp_path / f"new.{fmt}").read_bytes() == (tmp_path / f"old.{fmt}").read_bytes()


# `writer._cells` formats float and integer columns from orjson's shortest
# round-trip digits; these tests hold every cell to `float.__repr__`,
# `int.__repr__` and `json.dumps`.

def _neighbours(x: float, steps: int = 2) -> list[float]:
    below, above, out = x, x, [x]
    for _ in range(steps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


EDGE_FLOATS = sorted({
    *_neighbours(1e-4), *_neighbours(1e16),
    *(v for k in range(-14, 54) for v in _neighbours(2.0**k, 1)),
    1e15, 2.0**53 + 2, 5e-324, 0.0, 1.0 / 3, 0.1, 123456789.123, 1e-5, 1.5e-5, 1e22, 1e300,
}) + [-0.0, math.nan, math.inf, -math.inf]
EDGE_FLOATS += [-x for x in EDGE_FLOATS]


def _expected(values, fmt: str) -> list[str]:
    """The cells of the row-at-a-time writer for a list of Python floats or ints."""
    if fmt == "csv":
        return list(map(_fmt, values))
    return [json.dumps(_json_safe(v)) for v in values]


def _assert_cells(values: np.ndarray) -> None:
    """`_cells` of `values` and of its list against `repr` and `json.dumps`, finite and not.

    The finite cells are checked as an array only if there are some: the
    writer formats no empty block.
    """
    exact = values.tolist()
    finite = values[np.isfinite(values)] if values.dtype.kind == "f" else values
    for fmt in ("csv", "json"):
        assert writer._cells(values, fmt) == _expected(exact, fmt)
        assert writer._cells(exact, fmt) == _expected(exact, fmt)
        if len(finite):
            assert writer._cells(finite, fmt) == _expected(finite.tolist(), fmt)
        assert writer._cells(finite.tolist(), fmt) == _expected(finite.tolist(), fmt)


def test_edge_floats_match_repr():
    values = np.array(EDGE_FLOATS)
    assert writer._cells(values, "csv") == list(map(float.__repr__, EDGE_FLOATS))
    _assert_cells(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1), min_size=1, max_size=300))
@example([0x7FF8000000000000])  # one nan: no finite cell
def test_float_bit_patterns_match_repr(bits):
    # every float64, nan payloads and subnormals included, is some int64 bit pattern
    _assert_cells(np.array(bits, dtype=np.int64).view(np.float64))


def test_strided_columns():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(600, 2)) * 10.0 ** rng.integers(-8, 20, size=(600, 2))
    _assert_cells(points[:, 0])
    _assert_cells(points[::-3, 1])


@pytest.mark.parametrize("values", [
    np.array([np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max], dtype=np.int64),
    np.array([0, 2**63, np.iinfo(np.uint64).max], dtype=np.uint64),
    np.array([-128, 127], dtype=np.int8),
    np.array([0, 65535], dtype=np.uint16),
    np.array([1, -2, 2**40], dtype=">i8"),
    np.array([7, 2**31 - 1], dtype=np.int32)[::-1],
], ids=["int64", "uint64", "int8", "uint16", "int64-big-endian", "int32-strided"])
def test_integer_arrays_match_repr(values):
    assert writer._cells(values, "csv") == list(map(int.__repr__, values.tolist()))
    _assert_cells(values)


@pytest.mark.parametrize("values", [
    [2**63, 2**64 - 1],
    [-1, 2**63],  # numpy would hold these as float64
    [2**70, -2**70, 3],  # and these as objects
    range(-5, 5),
])
def test_integer_lists_beyond_int64_match_repr(values):
    for fmt in ("csv", "json"):
        assert writer._cells(values, fmt) == list(map(int.__repr__, values))


# A CSV block of numbers is written from one orjson dump of its rows
# (`writer._row_dumper`); every other block goes through `_join_rows`.  These
# tests hold both to the row-at-a-time writer and count the blocks that fell
# back.  A block with a cell that is not plain (an exponent, nan or inf)
# stays in the dump, with its cells spelled by `writer._spelled`; the tests
# named for the column path count the cells spelled.

def _joined_blocks(monkeypatch) -> list[int]:
    """The row count of each block that `write_output` joins from formatted columns."""
    counts = []
    join_rows = writer._join_rows

    def counting(pieces, cells):
        counts.append(len(cells[0]))
        return join_rows(pieces, cells)

    monkeypatch.setattr(writer, "_join_rows", counting)
    return counts


def _spelled_rows(monkeypatch) -> list[int]:
    """The length of each column slice or period whose cells `writer._spelled` spells."""
    counts = []
    spelled = writer._spelled

    def counting(values, fmt):
        counts.append(len(values))
        return spelled(values, fmt)

    monkeypatch.setattr(writer, "_spelled", counting)
    return counts


ROWS = 3 * WRITE_BLOCK_ROWS + 7


@pytest.mark.parametrize("special", [1e-5, -1e-5, 1e16, -1e16, 5e-324, math.nan, math.inf,
                                     -math.inf, math.nextafter(1e-4, 0)])
@pytest.mark.parametrize("column", [1, 2])
def test_one_non_plain_cell_sends_only_its_block_to_the_column_path(special, column, tmp_path,
                                                                    monkeypatch):
    x = np.linspace(0.5, 6.0, ROWS)
    y = -x
    (x, y)[column - 1][WRITE_BLOCK_ROWS + 5] = special
    joined, spelled = _joined_blocks(monkeypatch), _spelled_rows(monkeypatch)
    result = CommandResult(("i", "x", "y"), [(np.arange(ROWS), x, y)])
    assert_same_bytes(tmp_path, "csv", result)
    assert joined == []
    assert spelled == [WRITE_BLOCK_ROWS]  # the second block of that column alone


def test_a_column_spells_only_its_own_non_plain_block(tmp_path, monkeypatch):
    # a lone nan, inf, -inf, 1e-07 and 1e16 in block 2 of a three-block float
    # column, beside a plain float column: the row dump (CSV) and the column
    # path (JSON) each hand `_spelled` that column's block 2 and nothing else
    rows = 3 * WRITE_BLOCK_ROWS
    plain = np.linspace(0.5, 6.0, rows)
    special = np.linspace(-6.0, -0.5, rows)
    special[2 * WRITE_BLOCK_ROWS + 40 * np.arange(5)] = [math.nan, math.inf, -math.inf, 1e-7,
                                                         1e16]
    seen, spelled = [], writer._spelled

    def recording(values, fmt):
        seen.append(np.array(values))
        return spelled(values, fmt)

    monkeypatch.setattr(writer, "_spelled", recording)
    result = CommandResult(("plain", "special"), [(plain, special)])
    for fmt in ("csv", "json"):
        seen.clear()
        assert_same_bytes(tmp_path, fmt, result)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], special[2 * WRITE_BLOCK_ROWS:])


def test_signed_zeros_and_integer_extremes(tmp_path, monkeypatch):
    ints = np.resize(np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max]), ROWS)
    uints = np.resize(np.array([0, 2**63, np.iinfo(np.uint64).max], dtype=np.uint64), ROWS)
    floats = np.resize(np.array([0.0, -0.0, 1e-4, -1e-4, math.nextafter(1e16, 0), 0.1]), ROWS)
    narrow = np.resize(np.array([0.1, -0.0, 6e4], dtype=np.float32), ROWS)
    swapped = (np.arange(ROWS, dtype=">i8") - 9, np.linspace(-3.0, 3.5, ROWS).astype(">f8"))
    joined = _joined_blocks(monkeypatch)
    result = CommandResult(("i", "u", "f", "n", "bi", "bf"),
                           [(ints, uints, floats, narrow, *swapped)])
    assert_same_bytes(tmp_path, "csv", result)
    assert joined == []


# a folded label of 0 to 12 characters at each end gives every row-break
# length from 1 to 27 bytes: the line break alone, written over each row's
# last comma when there is no label, and every longer break the `replace`
# of that line break puts in, the 3-byte `\na,` of `contract --hp` among them
EDGE_COLUMNS = {"none": None, "curve": Periodic(("curve",), ROWS),
                "empty": Periodic((None,), ROWS), "blank": Periodic(("",), ROWS),
                **{f"label{n}": Periodic(("abcdefghijkl"[:n],), ROWS) for n in range(1, 13)}}


@pytest.mark.parametrize("first", list(EDGE_COLUMNS))
@pytest.mark.parametrize("last", list(EDGE_COLUMNS))
def test_constant_labels_first_and_last_fold_into_row_breaks(first, last, tmp_path,
                                                             monkeypatch):
    # ("curve", ..., "empty") is the shape of the curve rows, ("curve", ...) of the touch rows;
    # the nan and the 1e-7 in the second block are spelled, and their quotes deleted
    middle = (np.arange(ROWS), np.linspace(1.0, 2.0, ROWS), np.arange(ROWS) / 7 + 1)
    middle[1][WRITE_BLOCK_ROWS + 3] = math.nan
    middle[2][WRITE_BLOCK_ROWS + 9] = 1e-7
    group = tuple(column for column in (EDGE_COLUMNS[first], *middle, EDGE_COLUMNS[last])
                  if column is not None)
    joined, spelled = _joined_blocks(monkeypatch), _spelled_rows(monkeypatch)
    result = CommandResult(tuple("abcde"[:len(group)]), [group, group])
    assert_same_bytes(tmp_path, "csv", result)
    assert joined == []
    # the second block of each group, in the two columns that hold a nan or a 1e-7
    assert spelled == [WRITE_BLOCK_ROWS] * 4


@pytest.mark.parametrize("size", [508, 509, 510, 4096])
def test_long_labels_fold_into_row_breaks(size, tmp_path, monkeypatch):
    # a row break of size + 2 bytes: the line break, the label and its comma
    middle = (np.arange(ROWS), np.linspace(1.0, 2.0, ROWS))
    group = (Periodic(("x" * size,), ROWS), *middle)
    assert writer._row_dumper(group) is not None
    joined = _joined_blocks(monkeypatch)
    assert_same_bytes(tmp_path, "csv", CommandResult(("label", "i", "x"), [group]))
    assert joined == []


@pytest.mark.parametrize("group", [
    (Periodic(("a,b",), ROWS), np.arange(ROWS)),
    (Periodic(('say "hi"',), ROWS), np.arange(ROWS)),
    (np.arange(ROWS), Periodic(("ψ",), ROWS)),
    (np.arange(ROWS), Periodic(("new\nline",), ROWS)),
], ids=["comma", "quote", "non-ascii", "newline"])
def test_labels_fold_as_the_reference_formatter_writes_them(group, tmp_path, monkeypatch):
    # each label's bytes go into the row breaks verbatim, as `_fmt` writes the cell
    assert writer._row_dumper(group) is not None
    joined = _joined_blocks(monkeypatch)
    assert_same_bytes(tmp_path, "csv", CommandResult(tuple("ab"), [group]))
    assert joined == []


@pytest.mark.parametrize("first", ["none", "curve"])
@pytest.mark.parametrize("last", ["none", "empty"])
@pytest.mark.parametrize("column", [0, 1])
def test_a_nan_in_one_block_stays_a_cell(first, last, column, tmp_path):
    # orjson writes nan as `null`; only the bytes are checked, so a nan left
    # as `null` cannot pass
    middle = [np.linspace(1.0, 2.0, ROWS), np.arange(ROWS) / 7 + 1]
    middle[column][2 * WRITE_BLOCK_ROWS + 9] = math.nan
    group = tuple(c for c in (EDGE_COLUMNS[first], *middle, EDGE_COLUMNS[last]) if c is not None)
    assert_same_bytes(tmp_path, "csv", CommandResult(tuple("abcd"[:len(group)]), [group]))


def _specials(n: int) -> np.ndarray:
    """A float column with a nan, an inf and a 1e-7 in its first rows, all in block 0."""
    column = np.linspace(0.5, 6.0, n)
    column[:3] = [math.nan, math.inf, 1e-7][:n]
    return column


# the columns of an unlabeled group, the first `width` of one kind: its row
# break is `\n`, written in place over every width-th comma of the dump
UNLABELED_COLUMNS = {
    "int": lambda n: [np.arange(n) - 7, Arange(1, n), Periodic(np.array([3, -1, 0]), n),
                      np.arange(n, dtype=np.int32) * -3],
    "float": lambda n: [_specials(n), Arange(1, n, 0.1),
                        Periodic(np.array([2.0, 1e-7, -0.5, 4.0, 9.0]), n),
                        np.linspace(-3.0, 3.5, n)],
    "mixed": lambda n: [Arange(1, n), _specials(n), Periodic(np.array([5, -2]), n),
                        Periodic(np.array([0.25, 1e20, -1.5]), n)],
}


@pytest.mark.parametrize("rows", [1, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS,
                                  WRITE_BLOCK_ROWS + 1, 2 * WRITE_BLOCK_ROWS + 1])
@pytest.mark.parametrize("kind", list(UNLABELED_COLUMNS))
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_unlabeled_row_breaks_overwrite_each_rows_last_comma(width, kind, rows, tmp_path,
                                                             monkeypatch):
    group = tuple(UNLABELED_COLUMNS[kind](rows)[:width])
    joined = _joined_blocks(monkeypatch)
    assert_same_bytes(tmp_path, "csv", CommandResult(tuple("abcd"[:width]), [group, group]))
    assert joined == []


@pytest.mark.parametrize("period", [1, 13, WRITE_BLOCK_ROWS, 300, ROWS + 1])
def test_periodic_numbers_across_block_boundaries(period, tmp_path, monkeypatch):
    angles = np.linspace(0.25, 6.0, period)
    group = (Periodic(("touch",), ROWS), np.arange(1, ROWS + 1),
             Periodic(np.cos(angles), ROWS), Periodic(angles, ROWS),
             Periodic(np.arange(period, dtype=np.int32) - 5, ROWS))
    joined = _joined_blocks(monkeypatch)
    assert_same_bytes(tmp_path, "csv", CommandResult(tuple("abcde"), [group]))
    assert joined == []


def test_a_non_plain_cell_in_a_period_sends_its_blocks_to_the_column_path(tmp_path,
                                                                        monkeypatch):
    # cell 5 of a 300-cell period: in rows 5 and 305 (blocks 0 and 1), 605 (block 2)
    period = np.linspace(1.0, 2.0, 300)
    period[5] = 1e-7
    joined, spelled = _joined_blocks(monkeypatch), _spelled_rows(monkeypatch)
    result = CommandResult(("a", "b"), [(np.arange(ROWS), Periodic(period, ROWS))])
    assert_same_bytes(tmp_path, "csv", result)
    assert joined == []
    assert spelled == [300]  # the period, once


@pytest.mark.parametrize("group", [
    (np.arange(ROWS), Periodic(("mid",), ROWS), np.arange(ROWS) / 3),  # a label in the middle
    (np.arange(ROWS), Periodic((None,), ROWS), np.arange(ROWS) / 3),
    (np.arange(ROWS), ["s"] * ROWS, np.arange(ROWS) / 3),  # a string column in the middle
    (np.arange(ROWS), np.arange(ROWS) % 2 == 0),  # bools
    (np.arange(ROWS), list(range(ROWS))),  # numbers in a list
    (Periodic(("touch",), ROWS), np.arange(ROWS) + 1j),  # complex
], ids=["middle-label", "middle-none", "middle-strings", "bools", "list", "complex"])
def test_other_groups_take_the_column_path(group, tmp_path, monkeypatch):
    assert writer._row_dumper(group) is None
    joined = _joined_blocks(monkeypatch)
    assert_same_bytes(tmp_path, "csv", CommandResult(tuple("abc"[:len(group)]), [group]))
    assert joined == [WRITE_BLOCK_ROWS] * 3 + [7]


@pytest.mark.parametrize("argv", CLI_CASES, ids=lambda argv: " ".join(argv[:3]))
def test_json_never_takes_the_row_dump(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(writer, "_row_dumper", None)  # any call would raise
    assert cli.main(argv + ["--format", "json", "--out", str(tmp_path / "out.json")]) in (0, 3)
    capsys.readouterr()


# Before a group's first block, `write_output` plans what is fixed for the
# whole group: each numeric column's blocks that are not plain, found by one
# scan of that column PLAIN_SCAN_ROWS rows at a time
# (`writer._non_plain_blocks`), and, on the column path, each run of fixed
# text and `Periodic` columns joined into one periodic text.  These tests
# hold the plan to the row-at-a-time writer.

def _both_formats(tmp_path, result):
    for fmt in ("csv", "json"):
        assert_same_bytes(tmp_path, fmt, result)


def test_adjacent_periods_13_and_7(tmp_path, monkeypatch):
    # two periodic texts on the column path, one of period 13 and one of 7
    group = (np.arange(ROWS), Periodic(np.linspace(0.5, 1.5, 13), ROWS),
             Periodic(np.arange(7) - 3, ROWS), np.arange(ROWS) / 7 + 1)
    joined = _joined_blocks(monkeypatch)
    _both_formats(tmp_path, CommandResult(tuple("abcd"), [group]))
    assert joined == [WRITE_BLOCK_ROWS] * 3 + [7]  # the JSON blocks only


PERIODIC_PLACES = {
    "first": lambda p: (p, np.arange(ROWS), np.linspace(1.0, 2.0, ROWS)),
    "last": lambda p: (np.arange(ROWS), np.linspace(1.0, 2.0, ROWS), p),
    "after-label": lambda p: (Periodic(("touch",), ROWS), p, np.arange(ROWS)),
    "before-label": lambda p: (np.arange(ROWS), p, Periodic((None,), ROWS)),
    # a string column keeps CSV on the column path, and a period other than
    # its own starts a run of its own
    "after-strings": lambda p: (np.arange(ROWS), Periodic(STRINGS, ROWS), p,
                                np.linspace(1.0, 2.0, ROWS)),
    "only-periodic": lambda p: (Periodic(("touch",), ROWS), p, Periodic(STRINGS[:3], ROWS)),
}


@pytest.mark.parametrize("period", [1, WRITE_BLOCK_ROWS, 300, ROWS + 1])
@pytest.mark.parametrize("place", list(PERIODIC_PLACES))
def test_periodic_column_in_every_place(place, period, tmp_path):
    column = Periodic(np.linspace(0.25, 6.0, period) * 10.0 ** (np.arange(period) % 3), ROWS)
    group = PERIODIC_PLACES[place](column)
    _both_formats(tmp_path, CommandResult(tuple("abcd"[:len(group)]), [group, group]))


def _slots_per_row(monkeypatch) -> list[int]:
    """The texts joined per row in each block that `write_output` joins from formatted columns."""
    slots = []
    join_rows = writer._join_rows

    def counting(pieces, cells):
        slots.append(sum(1 for piece in pieces if piece) + len(cells))
        return join_rows(pieces, cells)

    monkeypatch.setattr(writer, "_join_rows", counting)
    return slots


def test_periodic_runs_are_joined_once_per_group(tmp_path, monkeypatch):
    # a JSON two-circle row: the record label with the text around it, then
    # index, "t", and x, y, theta with the text up to the row's end: 5 slots
    slots = _slots_per_row(monkeypatch)
    argv = ["orbit", "--two-circle", "--q-num", "5", "--q-den", "13", "--steps", "600"]
    _recorded(argv, "json", tmp_path, monkeypatch)
    assert slots == [5, 5, 5]


@pytest.mark.parametrize("periods,count", [((300, 300), 3), ((13, 7), 4), ((300, 301), 4)])
def test_a_run_is_split_before_its_period_outgrows_it(periods, count, tmp_path, monkeypatch):
    # a run joins the columns of one period; a column of another period
    # starts a run of its own, one slot more per row
    slots = _slots_per_row(monkeypatch)
    group = (np.arange(ROWS), *(Periodic(np.arange(p) / 7, ROWS) for p in periods))
    assert_same_bytes(tmp_path, "json", CommandResult(("a", "b", "c"), [group]))
    assert slots == [count] * 4


SCAN_ROWS = 2 * writer.PLAIN_SCAN_ROWS + WRITE_BLOCK_ROWS + 44  # ends in a 44-row block


@pytest.mark.parametrize("row,block_rows", [
    (writer.PLAIN_SCAN_ROWS - 1, WRITE_BLOCK_ROWS),  # the last row of the first scan step
    (writer.PLAIN_SCAN_ROWS, WRITE_BLOCK_ROWS),  # the first row of the second
    (2 * writer.PLAIN_SCAN_ROWS, WRITE_BLOCK_ROWS),  # the first row of the last
    (SCAN_ROWS - 1, 44),  # the group's last row, in its partial block
    (SCAN_ROWS - 44, 44),
])
@pytest.mark.parametrize("special", [1e-7, math.nan, -math.inf])
def test_a_non_plain_cell_at_a_scan_edge_sends_only_its_block(row, block_rows, special,
                                                              tmp_path, monkeypatch):
    x = np.linspace(0.5, 6.0, SCAN_ROWS)
    x[row] = special
    joined, spelled = _joined_blocks(monkeypatch), _spelled_rows(monkeypatch)
    group = (Periodic(("touch",), SCAN_ROWS), np.arange(SCAN_ROWS), x)
    assert_same_bytes(tmp_path, "csv", CommandResult(("a", "b", "c"), [group]))
    assert joined == []
    assert spelled == [block_rows]  # that block of that column alone


def test_a_non_plain_cell_in_a_period_over_many_scan_steps(tmp_path, monkeypatch):
    # cell 5 of a 300-cell period, laid out over rows 5, 305, ... of each scan step
    period = np.linspace(1.0, 2.0, 300)
    period[5] = 1e-7
    joined, spelled = _joined_blocks(monkeypatch), _spelled_rows(monkeypatch)
    group = (np.arange(SCAN_ROWS), Periodic(period, SCAN_ROWS))
    assert_same_bytes(tmp_path, "csv", CommandResult(("a", "b"), [group]))
    assert joined == []
    assert spelled == [300]  # the period, once


def test_json_writer_memory_is_one_block(tmp_path):
    # the benchmark's JSON op: the column path holds one block of formatted
    # cells and the group's period-13 texts
    import orjson  # noqa: F401  loaded before tracing, so the peak is the writer's own
    args = cli.build_parser().parse_args(
        ["orbit", "--two-circle", "--q-num", "5", "--q-den", "13", "--steps", "60000"])
    result = cli.cmd_orbit(args)
    peaks = []
    for writer, name in ((write_output, "new"), (rowwise_write_output, "old")):
        tracemalloc.start()
        try:
            writer(str(tmp_path / f"{name}.json"), "json", "orbit", {}, 1e-12, result)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    new, old = peaks
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
    assert new < 200_000
    assert 30 * new < old


@pytest.mark.parametrize("argv", [
    ["rep", "--algebra", "su2", "--l", "60"],
    ["orbit", "--two-circle", "--q-num", "5", "--q-den", "13", "--steps", "3000",
     "--format", "json"],
], ids=["csv-rep", "json-two-circle"])
def test_a_file_that_takes_part_of_each_write_gets_every_byte(argv, tmp_path, monkeypatch,
                                                               capsys):
    # the writer opens its file unbuffered, so the OS may take part of a block
    # at a time; here each write takes at most 1000 bytes
    taken = []

    class ShortWrites(io.FileIO):
        def write(self, data):
            taken.append(min(len(data), 1000))
            return super().write(memoryview(data)[:1000])

    def short_open(path, mode, buffering):
        assert (mode, buffering) == ("wb", 0)
        return ShortWrites(path, "wb")

    # the same path for both, since the manifest names it
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    whole = out.read_bytes()
    out.unlink()
    monkeypatch.setattr(writer, "open", short_open, raising=False)
    assert cli.main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == whole
    assert sum(taken) == len(whole) and taken.count(1000) > len(whole) // 2000
