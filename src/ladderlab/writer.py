"""The writer: a command's result as a CSV or JSON file.

A `CommandResult` holds a command's columns as row groups, and
`write_output` writes its manifest, its checks and its rows, a block of
rows at a time.  The CLI imports this module when a command runs, so a
start that stops at the parse or at a refusal before the command loads
none of it.  By then the command has loaded numpy through the library;
orjson is imported on the first numeric cell.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .cli import TOOL

# Rows per block in `write_output`: the writer holds one block of formatted
# text beyond the result's columns, so its memory does not grow with the row count.
WRITE_BLOCK_ROWS = 256
# Rows per step of the writer's plain-number scan (`_non_plain_blocks`): whole
# blocks, few enough that the scan's arrays stay small whatever the row count.
PLAIN_SCAN_ROWS = 16 * WRITE_BLOCK_ROWS


@dataclass(frozen=True, eq=False)
class Periodic:
    """A column of `length` cells repeating `values`: cell i is values[i % len(values)].

    One value repeated over a row group is `Periodic((value,), n)`.  The writer
    formats `values` once and repeats the strings.
    """

    values: Sequence
    length: int

    def __post_init__(self) -> None:
        if self.length < 0 or (self.length and not len(self.values)):
            raise ValueError("a periodic column needs a length >= 0 and, if not empty, values")

    def __len__(self) -> int:
        return self.length


class Arange:
    """A column of `length` cells first + i, each times `scale` if one is given.

    A slice `column[a:b]` is an array of `dtype`, made when it is taken:
    integers as `np.arange` makes them or, with a scale, each exact integer
    first + i times `scale`, rounded once, the bits of
    `np.arange(float(first), first + length) * scale`.  A plain class, not
    a dataclass, which would cost every write half a millisecond.
    """

    def __init__(self, first: int, length: int, scale: float | None = None) -> None:
        self.first, self.length, self.scale = first, length, scale
        self.dtype = np.dtype(int if scale is None else float)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, key: slice) -> np.ndarray:
        start, stop, step = key.indices(self.length)
        if self.scale is None:
            return np.arange(self.first + start, self.first + stop, step)
        cells = np.arange(float(self.first + start), float(self.first + stop), step)
        cells *= self.scale
        return cells


def _group_length(group: tuple, width: int) -> int:
    """Rows in a row group; ValueError unless it has `width` columns of one length."""
    lengths = [len(column) for column in group]
    if len(group) != width or len(set(lengths)) > 1:
        raise ValueError(f"a row group needs {width} columns of one length, got lengths {lengths}")
    return lengths[0] if lengths else 0


@dataclass
class CommandResult:
    """Named columns, stored as row groups written one after the other.

    Each group holds one column per name, all of one length.  A column is a
    native 1-D float64 or int64 array, an `Arange`, a `Periodic` of one
    label, one float or a float64 period, or a list of a few str or float
    cells: the writer formats no other shape.
    `gated` holds the values `main` holds to `--tolerance`.
    """

    columns: tuple[str, ...]
    groups: list[tuple]
    checks: dict[str, object] = field(default_factory=dict)
    gated: dict[str, float] = field(default_factory=dict)

    @property
    def rows(self) -> range:
        """A range of the row count; ValueError for ragged groups, as `write_output` raises."""
        width = len(self.columns)
        return range(sum(_group_length(group, width) for group in self.groups))


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


def _numeric_cells(values: np.ndarray, fmt: str, plain: bool = False) -> list[str]:
    """The cells of a non-empty native float64 or int64 array as `fmt` writes them, in one dump.

    orjson writes the shortest round-trip digits of a float64 (Ryu), the
    same digits as `repr`, and spells them as `repr` does wherever `repr`
    uses fixed notation (`_fixed_notation`).  An array the caller knows is
    `plain`, with no other float, is dumped as it is.  Any other array is
    dumped as its `_spelled` list, and the quotes orjson puts around each
    spelled float are deleted.
    """
    import orjson  # on first use: a CLI start that only parses pays nothing

    if plain:
        text = orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)
    else:
        text = orjson.dumps(_spelled(values, fmt)).replace(b'"', b"")
    return text[1:-1].decode("ascii").split(",")


def _fixed_notation(values: np.ndarray) -> np.ndarray:
    """Where orjson spells a float as `repr` does: 1e-4 <= |x| < 1e16, and zero."""
    magnitude = abs(values)
    return ((magnitude >= 1e-4) & (magnitude < 1e16)) | (values == 0)


def _spelled(values: np.ndarray, fmt: str) -> list:
    """`values.tolist()`, with each float orjson would not write as `fmt` does spelled as a string.

    Such a float is one outside `_fixed_notation`: an exponent, nan or inf.
    Its string is its `repr` for CSV (`1e-07`, `nan`, `inf`), and for JSON
    what `json.dumps` writes after `_json_safe` (`1e-07`, `null`,
    `Infinity`, `-Infinity`).  This is the one place the writer spells a
    float of an array or `Arange` itself.
    """
    cells = values.tolist()
    if values.dtype.kind == "f":
        spell = repr if fmt == "csv" else lambda value: json.dumps(_json_safe(value))
        for i in np.flatnonzero(~_fixed_notation(values)).tolist():
            cells[i] = spell(cells[i])
    return cells


def _cells(values, fmt: str) -> list[str]:
    """The formatted cells of a column slice or period, a numpy array or a sequence.

    An integer or float array is formatted whole by `_numeric_cells`.  A
    sequence is formatted a cell at a time: by `_fmt` for CSV, and for
    JSON as `json.dumps` writes it after `_json_safe`, which writes NaN as
    null.  No long column is such a sequence: the longest list a command
    builds has nine cells.
    """
    if _numeric_column(values):
        return _numeric_cells(values, fmt)
    if fmt == "csv":
        return list(map(_fmt, values))
    return [json.dumps(_json_safe(value)) for value in values]


def _periodic_slice(period: list, start: int, stop: int) -> list:
    """Items start .. stop - 1 of a sequence that repeats the list `period`."""
    size = len(period)
    first = start % size
    head = period[first:first + stop - start]
    missing = stop - start - len(head)
    return head + period * (missing // size) + period[:missing % size]


def _folded_text(column) -> str | None:
    """The CSV cell of a column holding one label, or None, throughout; else None.

    The cell is `_fmt` of the value, a `str` or None, as the column path
    writes it; the row dump puts its bytes into the row breaks verbatim.
    """
    if isinstance(column, Periodic) and len(column.values) == 1:
        value = column.values[0]
        if value is None or type(value) is str:
            return _fmt(value)
    return None


def _numeric_column(column) -> bool:
    """Whether a column is an integer or float array or `Arange`, or a `Periodic` run of one."""
    values = column.values if isinstance(column, Periodic) else column
    return isinstance(values, (np.ndarray, Arange)) and values.dtype.kind in "iuf"


def _number_lists(column, length: int):
    """For a numeric column, a function (start, stop) -> its cells start .. stop - 1, in a list.

    The cells are Python ints and floats, each float orjson does not spell
    as `repr` given as its `_spelled` string instead.  A `Periodic`
    column's period is spelled once, here, and each block slices it; an
    array's blocks that hold such a float are found once, here
    (`_non_plain_blocks`), and only those are spelled.
    """
    if isinstance(column, Periodic):
        period = _spelled(column.values, "csv")
        return lambda start, stop: _periodic_slice(period, start, stop)
    non_plain = _non_plain_blocks(column, length)

    def cells(start: int, stop: int) -> list:
        values = column[start:stop]
        return _spelled(values, "csv") if non_plain[start // WRITE_BLOCK_ROWS] else values.tolist()

    return cells


def _non_plain_blocks(column, length: int) -> bytes:
    """One flag per block of an array or `Arange` column: 1 if it holds a float that is not plain.

    A block is a run of WRITE_BLOCK_ROWS rows, numbered from 0; the spelling
    rule is `_fixed_notation`, outside which a float is not plain: orjson
    does not spell it as `repr`.  A float column is checked PLAIN_SCAN_ROWS
    rows at a time; an integer column has no such cell.
    """
    blocks = np.zeros(-(-length // WRITE_BLOCK_ROWS), dtype=bool)
    if column.dtype.kind == "f":
        for start in range(0, length, PLAIN_SCAN_ROWS):
            rows = np.flatnonzero(~_fixed_notation(column[start:start + PLAIN_SCAN_ROWS]))
            blocks[(rows + start) // WRITE_BLOCK_ROWS] = True
    return blocks.tobytes()


def _row_dumper(group: tuple):
    """For a CSV row group, a function (start, stop) -> the bytes of rows start .. stop - 1.

    The bytes, a `memoryview`, come from one `orjson.dumps` of a flat list
    of the block's cells, with no string made per cell.  The text is copied
    into a `bytearray`, and its `[`, every row's last comma and its `]` are
    overwritten with a line break through a numpy view, an equal-length
    rewrite with nothing counted and no new text built.  That is right
    because no cell holds a comma: cells are numbers or spelled `repr`s
    (`nan`, `inf`, `1e-07`).  A float cell that is not plain (an exponent,
    nan or inf) is dumped as its `repr` string, and the quotes orjson puts
    around it are deleted, which no other cell holds: each column spells
    only its own blocks that hold such a cell (`_number_lists`).  The
    middle columns must be numeric (`_numeric_column`); the first and the
    last may instead be a label repeated throughout (`_folded_text`).  A
    group with such a label then has one `replace` of every line break,
    which no cell holds, by the row break: the end of one row, a comma and
    the trailing label before the line break, and the start of the next,
    the leading label and a comma.  The text before the first row and after
    the last is sliced off, so the block goes to the file with no further
    copy.  `_row_dumper` returns None for a group of any other shape.
    """
    lead = _folded_text(group[0]) if group else None
    trail = _folded_text(group[-1]) if len(group) > 1 else None
    middle = group[lead is not None:len(group) - (trail is not None)]
    if not middle or not all(map(_numeric_column, middle)):
        return None
    import orjson

    numbers = [_number_lists(column, len(group[0])) for column in middle]
    width = len(middle)
    prefix = b"" if lead is None else lead.encode() + b","
    end = b"\n" if trail is None else b"," + trail.encode() + b"\n"

    def dump(start: int, stop: int) -> memoryview:
        flat = [0] * ((stop - start) * width)
        for k, cells in enumerate(numbers):
            flat[k::width] = cells(start, stop)
        text = orjson.dumps(flat)
        del flat  # freed before the quotes are deleted and the row breaks put in
        text = bytearray(text.replace(b'"', b""))
        # "[a,b,c,d]" -> "\na,b\nc,d\n": the "[", the last comma of each row, and the "]"
        view = np.frombuffer(text, dtype=np.uint8)
        view[np.flatnonzero(view == ord(","))[width - 1::width]] = ord("\n")
        view[0] = view[-1] = ord("\n")
        if lead is not None or trail is not None:
            text = text.replace(b"\n", end + prefix)
        return memoryview(text)[len(end):len(text) - len(prefix)]

    return dump


def _json_row_pieces(columns: tuple[str, ...]) -> list[str]:
    """The text around the cells of one row object inside "rows".

    The layout is that of `json.dumps(..., indent=2)`; the first piece starts
    with the "," that separates a row from the one before.
    """
    names = [json.encoder.encode_basestring_ascii(col) for col in columns]
    return [f",\n    {{\n      {names[0]}: ", *(f",\n      {name}: " for name in names[1:]),
            "\n    }"]


def _join_rows(pieces: list[str], cells: list[list[str]]) -> str:
    """The rows of a block: pieces[0], the first cell, pieces[1], ..., pieces[-1] per row.

    An empty piece takes no place in the joined list.
    """
    rows = len(cells[0])
    slots = [pieces[0], *itertools.chain.from_iterable(zip(cells, pieces[1:]))]
    slots = [slot for slot in slots if not isinstance(slot, str) or slot]
    stride = len(slots)
    flat = [""] * (rows * stride)
    for k, slot in enumerate(slots):
        flat[k::stride] = [slot] * rows if isinstance(slot, str) else slot
    return "".join(flat)


def _array_cells(column, fmt: str, length: int):
    """For a column that is not `Periodic`, a function (start, stop) -> its cells start .. stop - 1.

    The cells are those of `_cells`.  The blocks of a float array with a
    cell that is not plain are found once (`_non_plain_blocks`), and every
    other block of an integer or float array is dumped as it is.
    """
    if not _numeric_column(column):
        return lambda start, stop: _cells(column[start:stop], fmt)
    non_plain = _non_plain_blocks(column, length)
    return lambda start, stop: _numeric_cells(column[start:stop], fmt,
                                              not non_plain[start // WRITE_BLOCK_ROWS])


def _column_path(group: tuple, pieces: list[str], fmt: str, length: int):
    """For a row group, a function (start, stop) -> the text of rows start .. stop - 1.

    A row is pieces[0], the first column's cell, pieces[1], and so on.  Each
    run of pieces and `Periodic` columns of one period (a one-value column
    joins any run) is joined here, once, into one periodic text: row by row
    over that period, or over the group if that is shorter.  Any other
    column ends the run.  Each block then slices those texts, formats the
    other columns' cells (`_array_cells`), and joins the row from both with
    `_join_rows`.  Every group a command builds has a column that is an
    array, a list or a `Periodic` of more than one value, so every row has
    cells of its own to join.
    """
    texts: list = []  # in row order: a text for every row, or a function (start, stop) -> texts
    run: list[list[str]] = [[pieces[0]]]  # the current run, each part one period of its texts

    def close_run(size: int) -> None:
        joined = ["".join(row) for row in zip(*(_periodic_slice(part, 0, size) for part in run))]
        texts.append(joined[0] if size == 1 else functools.partial(_periodic_slice, joined))
        run.clear()

    period = 1
    for column, piece in zip(group, pieces[1:]):
        if isinstance(column, Periodic):
            cells = _cells(column.values, fmt)
            own = min(len(cells), length)
            if own != 1:
                if period not in (1, own):
                    close_run(period)
                period = own
            run.append(cells)
        else:
            close_run(period)
            texts.append(_array_cells(column, fmt, length))
            period = 1
        run.append([piece])
    close_run(period)

    # `_join_rows` alternates fixed pieces and per-row cells
    joined_pieces, slots = [""], []
    for text in texts:
        if isinstance(text, str):
            joined_pieces[-1] += text
        else:
            slots.append(text)
            joined_pieces.append("")
    return lambda start, stop: _join_rows(joined_pieces, [cells(start, stop) for cells in slots])


def _write_all(handle, data) -> None:
    """Write all of `data` to the unbuffered file `handle`, which may take part of each write."""
    data = memoryview(data)
    while data:
        data = data[handle.write(data):]


def write_output(path: str, fmt: str, command: str, parameters: dict,
                 tolerance: float, result: CommandResult) -> None:
    """Write the manifest, the checks and the rows of `result` to `path`.

    Each row group is written WRITE_BLOCK_ROWS rows at a time, and each
    block's bytes are written before the next block is formatted.  What is
    fixed for a whole group is planned once, before its first block: a CSV
    group of numbers gets its row dump (`_row_dumper`), and any other group
    its column path (`_column_path`), built on first use, with its periodic
    texts joined once.  On both, each numeric column finds its blocks that
    are not plain once (`_non_plain_blocks`), and only those are spelled
    (`_spelled`).  The file is written as bytes: UTF-8 text, lines ended by LF on
    every platform.  Every write is already a whole block, so the file is
    opened unbuffered, with no buffer of its own, and `_write_all` writes
    each block to its last byte.  The bytes are those of formatting every
    cell with `_fmt` (CSV) or of `json.dumps(payload, indent=2)` over row objects
    (JSON).  Groups whose columns differ in number or length raise
    ValueError before the file is opened.
    """
    width = len(result.columns)
    lengths = [_group_length(group, width) for group in result.groups]
    if fmt == "csv":
        lines = [f"# {TOOL} {__version__}", f"# command={command}"]
        lines.extend(f"# param {key}={_fmt(val)}" for key, val in parameters.items())
        lines.append(f"# tolerance={_fmt(tolerance)}")
        lines.extend(f"# check {key}={_fmt(val)}" for key, val in result.checks.items())
        lines.append(",".join(result.columns))
        head, tail = "\n".join(lines) + "\n", ""
        pieces, separator = ["", *[","] * (width - 1), "\n"], ""
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
            "rows": [],
        }
        text = json.dumps(payload, indent=2)
        # text ends with '"rows": []\n}'; the rows go between the brackets
        head, tail = (text[:-3], "\n  ]\n}\n") if sum(lengths) else (text + "\n", "")
        pieces, separator = _json_row_pieces(result.columns), ","
    skip = len(separator)  # cut from the first row written
    with open(path, "wb", buffering=0) as handle:
        _write_all(handle, head.encode())
        for group, length in zip(result.groups, lengths):
            dump = _row_dumper(group) if fmt == "csv" else None
            join = None
            for start in range(0, length, WRITE_BLOCK_ROWS):
                stop = min(start + WRITE_BLOCK_ROWS, length)
                if dump:
                    data = dump(start, stop)
                else:
                    join = join or _column_path(group, pieces, fmt, length)
                    data = memoryview(join(start, stop).encode())[skip:]
                skip = 0
                _write_all(handle, data)
                del data  # not held while the next block is formatted
        _write_all(handle, tail.encode())
