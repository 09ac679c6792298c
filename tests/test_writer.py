"""The column writer `cli.write_output` against the row-at-a-time writer it replaced.

`rowwise_write_output` is that writer, kept unchanged (with its two helpers)
as the byte oracle: it formats `result.rows` one tuple at a time, and every
file the column writer produces must equal its output byte for byte.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab import __version__, cli
from ladderlab.cli import CommandResult, Periodic, TOOL, WRITE_BLOCK_ROWS, write_output
from ladderlab.orbits import CircleDynamics, thooft_system, touch_points


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
    # (about 11 MB here). The column writer holds one block of formatted
    # cells: about 110 kB with 256-row blocks (64 kB with 128 rows); 512-row
    # blocks exceed the bound.
    assert new < 200_000
    assert 30 * new < old


def test_row_dump_memory_is_one_block(tmp_path):
    # touch rows led by a constant label, then curve rows that also end in an
    # empty theta: both labels are folded into the row breaks of each block
    args = cli.build_parser().parse_args(
        ["orbit", "--thooft-N", "60000", "--curve-samples", "20000"])
    result = cli.cmd_orbit(args)
    assert [cli._row_dumper(group) is not None for group in result.groups] == [True, True]
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
        write_output(str(tmp_path / "out.json"), "json", "orbit", {}, 1e-12, result)
    assert not (tmp_path / "out.json").exists()


def _recorded(argv, fmt, tmp_path, monkeypatch, capsys):
    """Run the CLI; return its output file and the arguments `write_output` got."""
    calls = []

    def recording(*args):
        calls.append(args)
        write_output(*args)

    monkeypatch.setattr(cli, "write_output", recording)
    out = tmp_path / f"new.{fmt}"
    assert cli.main(argv + ["--format", fmt, "--out", str(out)]) == 0
    capsys.readouterr()
    (call,) = calls
    return out, call


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
def test_closed_orbit_matches_full_arrays(argv, dynamics, count, fmt, tmp_path, monkeypatch,
                                         capsys):
    out, (_, _, command, parameters, tolerance, result) = _recorded(
        argv, fmt, tmp_path, monkeypatch, capsys)
    trace = touch_points(dynamics, count)
    repeats = trace.period_steps < count
    assert [isinstance(column, Periodic) for column in result.groups[0]] == \
        [True, False, False, repeats, repeats, repeats]
    # the oracle formats the full touch arrays row by row, with no period in sight
    full = CommandResult(result.columns, [(
        ["touch"] * count, list(range(1, count + 1)), trace.times.tolist(),
        trace.points[:, 0].tolist(), trace.points[:, 1].tolist(), trace.angles.tolist(),
    )], checks=result.checks)
    old = tmp_path / f"old.{fmt}"
    rowwise_write_output(str(old), fmt, command, parameters, tolerance, full)
    assert out.read_bytes() == old.read_bytes()
    assert list(result.rows) == list(full.rows)
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        written = len(json.loads(text)["rows"])
    else:
        written = sum(not line.startswith("#") for line in text.splitlines()) - 1
    assert len(result.rows) == written == count


def test_orbit_peak_memory(tmp_path, capsys):
    # The benchmark's largest orbits op. Its full tracemalloc peak was 17.8 MB
    # when the command built one tuple per row; with columns it is 3.9 MB,
    # most of it the touch_points arrays.
    argv = ["orbit", "--two-circle", "--q-num", "5", "--q-den", "13", "--steps", "60000",
            "--format", "json", "--out", str(tmp_path / "out.json")]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 6_000_000


# `cli._cells` formats float and integer columns from orjson's shortest
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
    """`_cells` of `values` and of its list against `repr` and `json.dumps`, finite and not."""
    exact = values.tolist()
    finite = values[np.isfinite(values)] if values.dtype.kind == "f" else values
    for fmt in ("csv", "json"):
        assert cli._cells(values, fmt) == _expected(exact, fmt)
        assert cli._cells(exact, fmt) == _expected(exact, fmt)
        assert cli._cells(finite, fmt) == _expected(finite.tolist(), fmt)
        assert cli._cells(finite.tolist(), fmt) == _expected(finite.tolist(), fmt)


def test_edge_floats_match_repr():
    values = np.array(EDGE_FLOATS)
    assert cli._cells(values, "csv") == list(map(float.__repr__, EDGE_FLOATS))
    _assert_cells(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1), max_size=300))
def test_float_bit_patterns_match_repr(bits):
    # every float64, nan payloads and subnormals included, is some int64 bit pattern
    _assert_cells(np.array(bits, dtype=np.int64).view(np.float64))


@pytest.mark.parametrize("dtype", [np.float32, np.float16, ">f8", ">f4"])
def test_narrow_and_byte_swapped_floats_keep_their_exact_value(dtype):
    # a float32 or float16 cell is the repr of the float64 it widens to, not
    # the shortest digits of the narrow type
    values = np.array([0.1, 1 / 3, -2.5e-5, 6e4, 1e-4, 0.0, -0.0, np.nan, np.inf], dtype=dtype)
    assert cli._cells(values, "csv")[:2] == [repr(float(values[0])), repr(float(values[1]))]
    _assert_cells(values)


def test_strided_and_empty_columns():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(600, 2)) * 10.0 ** rng.integers(-8, 20, size=(600, 2))
    _assert_cells(points[:, 0])
    _assert_cells(points[::-3, 1])
    for empty in (points[600:, 0], np.zeros(0), np.arange(0)):
        for fmt in ("csv", "json"):
            assert cli._cells(empty, fmt) == []


@pytest.mark.parametrize("values", [
    np.array([np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max], dtype=np.int64),
    np.array([0, 2**63, np.iinfo(np.uint64).max], dtype=np.uint64),
    np.array([-128, 127], dtype=np.int8),
    np.array([0, 65535], dtype=np.uint16),
    np.array([1, -2, 2**40], dtype=">i8"),
    np.array([7, 2**31 - 1], dtype=np.int32)[::-1],
], ids=["int64", "uint64", "int8", "uint16", "int64-big-endian", "int32-strided"])
def test_integer_arrays_match_repr(values):
    assert cli._cells(values, "csv") == list(map(int.__repr__, values.tolist()))
    _assert_cells(values)


@pytest.mark.parametrize("values", [
    [2**63, 2**64 - 1],
    [-1, 2**63],  # numpy would hold these as float64
    [2**70, -2**70, 3],  # and these as objects
    range(-5, 5),
])
def test_integer_lists_beyond_int64_match_repr(values):
    for fmt in ("csv", "json"):
        assert cli._cells(values, fmt) == list(map(int.__repr__, values))


# A CSV block of plain numbers is written from one orjson dump of its rows
# (`cli._row_dumper`); every other block goes through `_join_rows`.  These
# tests hold both to the row-at-a-time writer and count the blocks that fell
# back.

def _joined_blocks(monkeypatch) -> list[int]:
    """The row count of each block that `write_output` joins from formatted columns."""
    counts = []
    join_rows = cli._join_rows

    def counting(pieces, cells):
        counts.append(len(cells[0]))
        return join_rows(pieces, cells)

    monkeypatch.setattr(cli, "_join_rows", counting)
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
    joined = _joined_blocks(monkeypatch)
    result = CommandResult(("i", "x", "y"), [(np.arange(ROWS), x, y)])
    assert_same_bytes(tmp_path, "csv", result)
    assert joined == [WRITE_BLOCK_ROWS]  # the second block alone


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


EDGE_COLUMNS = {"none": None, "curve": Periodic(("curve",), ROWS),
                "empty": Periodic((None,), ROWS), "blank": Periodic(("",), ROWS)}


@pytest.mark.parametrize("first", list(EDGE_COLUMNS))
@pytest.mark.parametrize("last", list(EDGE_COLUMNS))
def test_constant_labels_first_and_last_fold_into_row_breaks(first, last, tmp_path,
                                                             monkeypatch):
    # ("curve", ..., "empty") is the shape of the curve rows, ("curve", ...) of the touch rows
    middle = (np.arange(ROWS), np.linspace(1.0, 2.0, ROWS), np.arange(ROWS) / 7 + 1)
    group = tuple(column for column in (EDGE_COLUMNS[first], *middle, EDGE_COLUMNS[last])
                  if column is not None)
    joined = _joined_blocks(monkeypatch)
    result = CommandResult(tuple("abcde"[:len(group)]), [group, group])
    assert_same_bytes(tmp_path, "csv", result)
    assert joined == []


@pytest.mark.parametrize("first", ["none", "curve"])
@pytest.mark.parametrize("last", ["none", "empty"])
@pytest.mark.parametrize("column", [0, 1])
def test_a_nan_in_one_block_stays_a_cell(first, last, column, tmp_path):
    # orjson writes nan as `null`, the text of the row dump's row markers; only
    # the bytes are checked, so a nan taken for a row break cannot pass
    middle = [np.linspace(1.0, 2.0, ROWS), np.arange(ROWS) / 7 + 1]
    middle[column][2 * WRITE_BLOCK_ROWS + 9] = math.nan
    group = tuple(c for c in (EDGE_COLUMNS[first], *middle, EDGE_COLUMNS[last]) if c is not None)
    assert_same_bytes(tmp_path, "csv", CommandResult(tuple("abcd"[:len(group)]), [group]))


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
    joined = _joined_blocks(monkeypatch)
    result = CommandResult(("a", "b"), [(np.arange(ROWS), Periodic(period, ROWS))])
    assert_same_bytes(tmp_path, "csv", result)
    assert joined == [WRITE_BLOCK_ROWS] * 3


@pytest.mark.parametrize("group", [
    (Periodic(("a,b",), ROWS), np.arange(ROWS)),  # a label that is not one plain CSV cell
    (Periodic(('say "hi"',), ROWS), np.arange(ROWS)),
    (np.arange(ROWS), Periodic(("ψ",), ROWS)),  # a non-ASCII label
    (np.arange(ROWS), Periodic(("new\nline",), ROWS)),
    (np.arange(ROWS), Periodic(("mid",), ROWS), np.arange(ROWS) / 3),  # a label in the middle
    (np.arange(ROWS), Periodic((None,), ROWS), np.arange(ROWS) / 3),
    (np.arange(ROWS), ["s"] * ROWS, np.arange(ROWS) / 3),  # a string column in the middle
    (np.arange(ROWS), np.arange(ROWS) % 2 == 0),  # bools
    (np.arange(ROWS), list(range(ROWS))),  # numbers in a list
    (Periodic(("touch",), ROWS), np.arange(ROWS) + 1j),  # complex
    (Periodic(("touch",), ROWS),),  # no numeric column
    (Periodic(("touch",), ROWS), Periodic((None,), ROWS)),
], ids=["comma", "quote", "non-ascii", "newline", "middle-label", "middle-none",
        "middle-strings", "bools", "list", "complex", "label-only", "labels-only"])
def test_other_groups_take_the_column_path(group, tmp_path, monkeypatch):
    assert cli._row_dumper(group) is None
    joined = _joined_blocks(monkeypatch)
    assert_same_bytes(tmp_path, "csv", CommandResult(tuple("abc"[:len(group)]), [group]))
    assert joined == [WRITE_BLOCK_ROWS] * 3 + [7]


@pytest.mark.parametrize("argv", CLI_CASES, ids=lambda argv: " ".join(argv[:3]))
def test_json_never_takes_the_row_dump(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_row_dumper", None)  # any call would raise
    assert cli.main(argv + ["--format", "json", "--out", str(tmp_path / "out.json")]) in (0, 3)
    capsys.readouterr()
