"""Command-line front end: build representations, run checks and studies,
simulate orbits, and write CSV/JSON reports.

Every run writes a single output file that starts with a manifest echoing the
resolved configuration (tool version, command, parameters, tolerance) and, for
CSV, `# check name=value` lines for scalar results ahead of the data table.
All computations are deterministic, so identical configurations produce
byte-identical files.  Exit codes: 0 success, 2 invalid configuration,
3 tolerance breach in a requested check.
"""

from __future__ import annotations

import argparse
import copy
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .algebra import build_h1_rep, build_su2_rep, build_su11_rep, check_algebra_relations
from .contraction import (
    deformed_commutator_check,
    hamiltonian_identity_check,
    holstein_primakoff,
    run_contraction_study,
)
from .evolution import EvolutionParams, geometric_phase_check, spectrum_via_dft
from .operators import max_entry
from .orbits import (
    CircleDynamics,
    circular_gaps,
    continuous_position,
    density_metrics,
    simulate_torus,
    thooft_system,
    touch_points,
)
from .twomode import (
    DissipativeParams,
    build_two_mode,
    casimir_interior_residual,
    dissipative_residuals,
    l2_relation_check,
    sector_decompose,
    sector_match_residual,
    sector_operators,
)

TOOL = "ladderlab"
GOLDEN_ROTATION = math.pi * (math.sqrt(5.0) - 1.0)  # 2*pi*(sqrt(5)-1)/2
# Rows per block in `write_output`: the writer holds one block of formatted
# text beyond the result's columns, so its memory does not grow with the row count.
WRITE_BLOCK_ROWS = 256
# Largest --steps, --thooft-N, --curve-samples and evolve --N: each is a count
# of output rows, checked before any array is allocated.
MAX_ROWS = 10**7
ELEMENT_COLUMNS = ("operator", "row", "col", "re", "im")


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


def _python_values(column) -> Iterable:
    """The cells of a column as Python values (numpy scalars become float/int)."""
    if isinstance(column, Periodic):
        return itertools.islice(itertools.cycle(_python_values(column.values)), column.length)
    if isinstance(column, np.ndarray):
        return column.tolist()
    return column


def _group_length(group: tuple, width: int) -> int:
    """Rows in a row group; ValueError unless it has `width` columns of one length."""
    lengths = [len(column) for column in group]
    if len(group) != width or len(set(lengths)) > 1:
        raise ValueError(f"a row group needs {width} columns of one length, got lengths {lengths}")
    return lengths[0] if lengths else 0


@dataclass
class CommandResult:
    """Named columns, stored as row groups written one after the other.

    Each group holds one column per name, all of one length; a column is a
    numpy array, a sequence of Python values, or a `Periodic`.
    """

    columns: tuple[str, ...]
    groups: list[tuple]
    checks: dict[str, object] = field(default_factory=dict)
    breaches: list[str] = field(default_factory=list)

    @property
    def rows(self) -> "Rows":
        return Rows(self)


class Rows:
    """Sized view of a result's rows: each row a tuple of Python values, in order."""

    def __init__(self, result: CommandResult) -> None:
        self._result = result

    def __len__(self) -> int:
        width = len(self._result.columns)
        return sum(_group_length(group, width) for group in self._result.groups)

    def __iter__(self):
        len(self)  # rejects ragged groups before any row is yielded
        for group in self._result.groups:
            yield from zip(*map(_python_values, group))


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type: a finite float above zero."""
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _row_count(text: str) -> int:
    """argparse type: an integer no larger than MAX_ROWS (lower bounds are the command's)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value > MAX_ROWS:
        raise argparse.ArgumentTypeError(f"at most {MAX_ROWS} rows, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser: its own shallow copy of one tree built on first use.

    Each call returns a new object, so an attribute set on it (a wrapped
    `parse_args`, say) stays on it.  The arguments, subparsers and defaults
    are shared with every other copy: parse with it, but add nothing to it.
    """
    return copy.copy(_parser_tree())


@functools.cache
def _parser_tree() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL, description="ladder-algebra representations, contraction studies, "
        "cyclic evolution spectra, deterministic orbits, and two-mode checks"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output path (default: <command>.<format>)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--tolerance", type=_positive, default=1e-12,
                        help="breach threshold for requested checks (default 1e-12)")

    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("rep", parents=[common], help="build a representation and dump elements")
    rep.add_argument("--algebra", choices=("su2", "su11", "h1"), required=True)
    rep.add_argument("--l", type=_finite, help="spin label (su2)")
    rep.add_argument("--k", type=_finite, help="discrete-series weight (su11)")
    rep.add_argument("--dim", type=int, help="truncation cutoff (su11, h1)")
    rep.add_argument("--interior", type=int, help="states used for the relation check")

    contract = sub.add_parser("contract", parents=[common],
                              help="contraction sweeps, the k=1/2 boson mapping, identities")
    contract.add_argument("--family", choices=("su2", "su11"))
    contract.add_argument("--params", help="comma-separated sweep values, ascending")
    contract.add_argument("--n", type=int, default=3, help="ladder level for the rate fit")
    contract.add_argument("--hp", action="store_true", help="compare the k=1/2 mapping with h(1)")
    contract.add_argument("--identities", action="store_true",
                          help="deformed commutator and Hamiltonian identities")
    contract.add_argument("--dim", type=int, help="cutoff for --hp (default 64)")
    contract.add_argument("--l", type=_finite, help="spin label for --identities")
    contract.add_argument("--tau", type=_finite, default=1.0, help="time step for --identities")

    evolve = sub.add_parser("evolve", parents=[common], help="cyclic evolution spectrum and phase")
    evolve.add_argument("--N", type=_row_count, required=True, help="number of states")
    evolve.add_argument("--tau", type=_finite, default=1.0, help="time step")
    evolve.add_argument("--units", choices=("energy", "omega"), default="energy")

    orbit = sub.add_parser("orbit", parents=[common], help="circle and torus orbit traces")
    orbit.add_argument("--thooft-N", dest="thooft_n", type=_row_count,
                       help="N-site single-cover circle system")
    orbit.add_argument("--two-circle", dest="two_circle", action="store_true")
    orbit.add_argument("--torus", action="store_true")
    orbit.add_argument("--alpha", type=_finite, default=1.0, help="envelope frequency")
    orbit.add_argument("--curve-samples", dest="curve_samples", type=_row_count, default=0,
                       help="samples of the underlying continuous curve")
    orbit.add_argument("--steps", type=_row_count, default=1000)
    orbit.add_argument("--q-num", dest="q_num", type=int, help="rational ratio numerator")
    orbit.add_argument("--q-den", dest="q_den", type=int, help="rational ratio denominator")
    orbit.add_argument("--q-irr-add", dest="q_irr_add", default="0",
                       help="irrational ratio offset, e.g. 'pi/40' or a float")
    orbit.add_argument("--ratio", choices=("golden",), help="torus rotation preset")
    orbit.add_argument("--rot1", type=_finite,
                       help="torus rotation per step, coordinate 1 (rad)")
    orbit.add_argument("--rot2", type=_finite,
                       help="torus rotation per step, coordinate 2 (rad)")
    orbit.add_argument("--phi0", default="0,0", help="torus start angles 'phi1,phi2'")

    schwinger = sub.add_parser("schwinger", parents=[common],
                               help="two-mode realization checks and sector dumps")
    schwinger.add_argument("--nmax", type=int, required=True, help="per-mode cutoff")
    schwinger.add_argument("--check", choices=("all", "casimir", "sectors", "hamiltonian", "l2"),
                           default="all")
    schwinger.add_argument("--sector", type=_finite, help="sector label j for --dump")
    schwinger.add_argument("--dump", action="store_true", help="dump one sector's ladder table")
    schwinger.add_argument("--Omega", type=_finite, default=1.0)
    schwinger.add_argument("--Gamma", type=_finite, default=0.5)
    return parser


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _element_groups(ops) -> list[tuple]:
    """One row group of ELEMENT_COLUMNS per operator, over its nonzero entries.

    The entries come from the operator's diagonals in the row-major order of
    `np.nonzero` on the dense matrix.
    """
    groups = []
    for op in ops:
        rows, cols, values = op.bands.nonzero()
        groups.append((Periodic((op.label,), len(values)), rows, cols, values.real, values.imag))
    return groups


def cmd_rep(args) -> CommandResult:
    if args.algebra == "su2":
        if args.l is None:
            raise ValueError("su2 requires --l")
        rep = build_su2_rep(args.l)
        default_interior = rep.dim
    elif args.algebra == "su11":
        if args.k is None or args.dim is None:
            raise ValueError("su11 requires --k and --dim")
        rep = build_su11_rep(args.k, args.dim)
        default_interior = rep.dim - 1
    else:
        if args.dim is None:
            raise ValueError("h1 requires --dim")
        rep = build_h1_rep(args.dim)
        default_interior = rep.dim - 1
    interior = default_interior if args.interior is None else args.interior
    residual = check_algebra_relations(rep, interior)
    result = CommandResult(
        columns=ELEMENT_COLUMNS,
        groups=_element_groups([rep.L3, rep.Lplus, rep.Lminus]),
        checks={"dim": rep.dim, "interior": interior, "relations_residual": residual},
    )
    if residual > args.tolerance:
        result.breaches.append("relations_residual")
    return result


def cmd_contract(args) -> CommandResult:
    chosen = [args.family is not None, args.hp, args.identities]
    if sum(chosen) != 1:
        raise ValueError("choose exactly one of --family, --hp, --identities")

    if args.hp:
        dim = 64 if args.dim is None else args.dim
        rep = build_su11_rep(0.5, dim)
        a, adag = holstein_primakoff(rep)
        osc = build_h1_rep(dim)
        deviation = max(
            max_entry(a.bands - osc.Lminus.bands),
            max_entry(adag.bands - osc.Lplus.bands),
        )
        result = CommandResult(
            columns=ELEMENT_COLUMNS,
            groups=_element_groups([a, adag]),
            checks={"hp_max_deviation": deviation},
        )
        if deviation > args.tolerance:
            result.breaches.append("hp_max_deviation")
        return result

    if args.identities:
        if args.l is None:
            raise ValueError("--identities requires --l")
        rep = build_su2_rep(args.l)
        residuals = {
            "deformed_commutator": deformed_commutator_check(rep, args.tau),
            "hamiltonian_decomposition": hamiltonian_identity_check(rep, args.tau),
        }
        count = len(residuals)
        result = CommandResult(
            columns=("l", "tau", "identity", "residual"),
            groups=[(Periodic((args.l,), count), Periodic((args.tau,), count),
                     list(residuals), list(residuals.values()))],
        )
        result.breaches = [name for name, value in residuals.items() if value > args.tolerance]
        return result

    if not args.params:
        raise ValueError("--family requires --params")
    params = _finite_list("--params", args.params)
    report = run_contraction_study(args.family, params, args.n + 1)
    sweep, levels = len(report.params), report.interior
    return CommandResult(
        columns=("param", "n", "deviation"),
        groups=[(np.repeat(report.params, levels), np.tile(np.arange(levels), sweep),
                 report.deviations.ravel())],
        checks={
            "fit_n": report.fit_n,
            "fitted_slope": report.fitted_slope,
            "fit_residual": report.fit_residual,
        },
    )


def cmd_evolve(args) -> CommandResult:
    params = EvolutionParams(args.N, args.tau)
    spectrum = spectrum_via_dft(params)
    phase = geometric_phase_check(params)
    scale = params.omega if args.units == "omega" else 1.0
    result = CommandResult(
        columns=("n", "energy"),
        groups=[(np.arange(len(spectrum)), spectrum.values / scale)],
        checks={
            "omega": params.omega,
            "phase_re": phase.real,
            "phase_im": phase.imag,
        },
    )
    if abs(phase + 1.0) > args.tolerance:
        result.breaches.append("phase")
    return result


def _finite_list(flag: str, text: str, skip_blank: bool = True) -> list[float]:
    """The comma-separated numbers of a flag, each by the `_finite` rules; an error names the flag.

    With `skip_blank`, blank items are left out.
    """
    try:
        return [_finite(tok) for tok in text.split(",") if tok.strip() or not skip_blank]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{flag} {text!r}: {exc}") from None


def _parse_offset(text: str) -> float:
    """--q-irr-add: '', '0' or 'none' (no offset), 'pi', 'pi/<d>', 'pi*<m>' or a number.

    Each number follows the `_finite` rules, and so does the offset; an
    error names the flag.
    """
    t = text.strip()
    if t in ("", "0", "none"):
        return 0.0
    if t == "pi":
        return math.pi
    try:
        if t.startswith("pi/"):
            divisor = _finite(t[3:])
            if divisor == 0:
                raise argparse.ArgumentTypeError("divides by zero")
            offset = math.pi / divisor
        elif t.startswith("pi*"):
            offset = math.pi * _finite(t[3:])
        else:
            offset = _finite(t)
        if not math.isfinite(offset):
            raise argparse.ArgumentTypeError("the offset is not finite")
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"--q-irr-add {text!r}: {exc}") from None
    return offset


def _trace_groups(dynamics, trace, curve_samples: int) -> list[tuple]:
    """The touch rows, then the curve rows if any.

    A closed orbit's x, y and theta repeat bit for bit every `period_steps`
    touches (they are fixed functions of periodic int64 residues), so they
    are passed as one period.
    """
    count, period = len(trace.angles), trace.period_steps
    x, y, theta = trace.points[:, 0], trace.points[:, 1], trace.angles
    if period is not None and period < count:
        x, y, theta = (Periodic(column[:period], count) for column in (x, y, theta))
    groups = [(Periodic(("touch",), count), np.arange(1, count + 1), trace.times, x, y, theta)]
    if curve_samples > 0:
        times = np.linspace(0.0, float(trace.times[-1]), curve_samples)
        xs, ys = continuous_position(dynamics, times)
        groups.append((Periodic(("curve",), curve_samples), np.arange(curve_samples), times,
                       xs, ys, Periodic((None,), curve_samples)))
    return groups


def cmd_orbit(args) -> CommandResult:
    chosen = [args.thooft_n is not None, args.two_circle, args.torus]
    if sum(chosen) != 1:
        raise ValueError("choose exactly one of --thooft-N, --two-circle, --torus")

    if args.torus:
        if args.ratio == "golden":
            rot1 = rot2 = GOLDEN_ROTATION
        elif args.rot1 is not None and args.rot2 is not None:
            rot1, rot2 = args.rot1, args.rot2
        else:
            raise ValueError("--torus requires --ratio golden or both --rot1 and --rot2")
        phi0 = tuple(_finite_list("--phi0", args.phi0, skip_blank=False))
        if len(phi0) != 2:
            raise ValueError("--phi0 needs two comma-separated angles")
        orbit = simulate_torus(rot1, rot2, 1.0, args.steps, phi0)
        gap1, gap2 = density_metrics(orbit)
        return CommandResult(
            columns=("step", "phi1", "phi2"),
            groups=[(np.arange(1, orbit.steps + 1), orbit.angles[:, 0], orbit.angles[:, 1])],
            checks={"max_gap_1": gap1, "max_gap_2": gap2},
        )

    if args.thooft_n is not None:
        dynamics = thooft_system(args.thooft_n, alpha=args.alpha)
        trace = touch_points(dynamics, args.thooft_n)
    else:
        if args.q_num is None or args.q_den is None:
            raise ValueError("--two-circle requires --q-num and --q-den")
        if args.q_den == 0:
            raise ValueError("--q-den must be nonzero")
        offset = _parse_offset(args.q_irr_add)
        try:
            if offset == 0.0:
                dynamics = CircleDynamics.rational(args.alpha, args.q_num, args.q_den)
            else:
                beta = args.alpha * (args.q_num / args.q_den + offset)
                if not math.isfinite(beta):
                    raise OverflowError
                dynamics = CircleDynamics.irrational(args.alpha, beta)
        except OverflowError:
            raise ValueError("--q-num / --q-den: the ratio, or --alpha times it, is beyond "
                             "the float range") from None
        try:
            trace = touch_points(dynamics, args.steps)
        except ValueError as exc:
            if dynamics.q is not None or args.steps < 1:
                raise
            # the touch angle step (1 - beta/alpha) pi is beyond the float range
            raise ValueError(f"--alpha / --q-num / --q-den / --q-irr-add: {exc}") from None

    radius_error = float(np.max(np.abs(trace.points[:, 0] ** 2 + trace.points[:, 1] ** 2 - 1.0)))
    result = CommandResult(
        columns=("record", "index", "t", "x", "y", "theta"),
        groups=_trace_groups(dynamics, trace, args.curve_samples),
        checks={
            "period_steps": trace.period_steps,
            "radius_error": radius_error,
            "min_touch_gap": float(np.min(circular_gaps(trace.angles))),
        },
    )
    if not radius_error <= args.tolerance:  # a nan residual is a breach too
        result.breaches.append("radius_error")
    return result


def cmd_schwinger(args) -> CommandResult:
    if args.dump and args.sector is None:
        raise ValueError("--dump requires --sector")
    space = build_two_mode(args.nmax)

    if args.dump:
        decomp = sector_decompose(space)
        if args.sector not in decomp.sectors:
            raise ValueError(f"no sector with j = {args.sector}")
        indices = decomp.sectors[args.sector]
        ops = sector_operators(space, indices)
        return CommandResult(
            columns=ELEMENT_COLUMNS,
            groups=_element_groups(ops),
            checks={
                "sector_j": args.sector,
                "sector_size": len(indices),
                "induced_k": decomp.induced_k[args.sector],
            },
        )

    selected = args.check
    if selected in ("all", "l2") and args.nmax < 2:
        raise ValueError("--check all/l2 need --nmax >= 2")
    checks: dict[str, object] = {}
    if selected in ("all", "casimir"):
        checks["casimir_interior"] = casimir_interior_residual(space)
    if selected in ("all", "sectors"):
        checks["sector_match"] = sector_match_residual(space)
    if selected in ("all", "hamiltonian"):
        params = DissipativeParams(Omega=args.Omega, Gamma=args.Gamma)
        checks.update(dissipative_residuals(space, params))
    if selected in ("all", "l2"):
        res1, res2 = l2_relation_check(space, space.n_max)
        checks["l2_commutator"] = res1
        checks["l2_double_commutator"] = res2
    result = CommandResult(
        columns=("check", "residual"),
        groups=[(list(checks), list(checks.values()))],
        checks=checks,
    )
    result.breaches = [name for name, value in checks.items() if value > args.tolerance]
    return result


COMMANDS = {
    "rep": cmd_rep,
    "contract": cmd_contract,
    "evolve": cmd_evolve,
    "orbit": cmd_orbit,
    "schwinger": cmd_schwinger,
}


def _json_safe(value):
    if value is None:
        return None
    if isinstance(value, float):
        return None if math.isnan(value) else value
    return value


def _numeric_cells(values: np.ndarray) -> list[str]:
    """The `repr` of each element of a float or integer array, in one `orjson.dumps` call.

    orjson writes the shortest round-trip digits of a float64 (Ryu), the
    same digits as `repr`, and spells them as `repr` does wherever `repr`
    uses fixed notation: 1e-4 <= |x| < 1e16, and zero.  The few cells
    outside that range (exponents, nan, inf, which orjson writes as
    `null`) are taken from `repr`.  Floats go through float64 first, since
    orjson prints a float32 with float32's own shortest digits.
    """
    import orjson  # on first use: a CLI start that only parses pays nothing

    if values.dtype.kind == "f":
        values = values.astype(np.float64, copy=False)
    elif not values.dtype.isnative:
        # orjson reads the array's memory in native byte order
        values = values.astype(values.dtype.newbyteorder("="))
    if not len(values):
        return []
    text = orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)
    cells = text[1:-1].decode("ascii").split(",")
    if values.dtype.kind == "f":
        for i in np.flatnonzero(~_fixed_notation(values)).tolist():
            cells[i] = repr(float(values[i]))
    return cells


def _fixed_notation(values: np.ndarray) -> np.ndarray:
    """Where orjson spells a float64 as `repr` does: 1e-4 <= |x| < 1e16, and zero."""
    magnitude = np.abs(values)
    return ((magnitude >= 1e-4) & (magnitude < 1e16)) | (values == 0)


def _exact_cells(values, kind: type) -> list[str]:
    """The `repr` of each value of a sequence whose values are all of type `kind`, float or int."""
    array = np.array(values)
    # ints beyond int64 become an object array, or float64 when both signs
    # are present; those keep int.__repr__
    if kind is float or array.dtype.kind in "iu":
        return _numeric_cells(array)
    return list(map(int.__repr__, values))


def _csv_column(values) -> list[str]:
    """`_fmt` of each value; a column of one exact type is formatted in one pass."""
    kinds = set(map(type, values))
    if kinds == {float} or kinds == {int}:
        return _exact_cells(values, *kinds)
    if kinds == {str}:
        return list(values)
    return list(map(_fmt, values))


def _json_column(values) -> list[str]:
    """Each value as `json.dumps` writes it after `_json_safe` (NaN as null)."""
    kinds = set(map(type, values))
    if (kinds == {float} and all(map(math.isfinite, values))) or kinds == {int}:
        return _exact_cells(values, *kinds)
    if kinds == {str}:
        return list(map(json.encoder.encode_basestring_ascii, values))
    return [json.dumps(_json_safe(v)) for v in values]


def _cells(values, fmt: str) -> list[str]:
    """The formatted cells of a column slice, a numpy array or a sequence.

    A float or integer array is formatted whole by `_numeric_cells`; JSON
    leaves a float array with nan or inf to `_json_column`, which writes
    NaN as null.
    """
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        if kind in "iu" or (kind == "f" and (fmt == "csv" or np.isfinite(values).all())):
            return _numeric_cells(values)
        values = values.tolist()
    return _csv_column(values) if fmt == "csv" else _json_column(values)


def _block_cells(column, fmt: str):
    """A function (start, stop) -> the formatted cells start .. stop - 1 of `column`.

    A `Periodic` column's values are formatted once, and each block repeats
    those strings from the right offset.
    """
    if not isinstance(column, Periodic):
        return lambda start, stop: _cells(column[start:stop], fmt)
    period = _cells(column.values, fmt)
    size = len(period)

    def cells(start: int, stop: int) -> list[str]:
        first = start % size
        head = period[first:first + stop - start]
        missing = stop - start - len(head)
        return head + period * (missing // size) + period[:missing % size]

    return cells


def _folded_text(column) -> str | None:
    """The CSV cell of a column holding one label, or None, throughout; else None.

    Only a label that is one plain CSV cell as it stands (ASCII, with no
    `,`, `"` or line break) qualifies, so the row dump may fold it into
    its row breaks.
    """
    if not (isinstance(column, Periodic) and len(column.values) == 1):
        return None
    value = column.values[0]
    if value is None:
        return ""
    if type(value) is str and value.isascii() and not any(c in value for c in ',"\n\r'):
        return value
    return None


def _numeric_column(column) -> bool:
    """Whether a column is an integer or float array, or a `Periodic` run of one."""
    values = column.values if isinstance(column, Periodic) else column
    return isinstance(values, np.ndarray) and values.dtype.kind in "iuf"


def _block_values(column, start: int, stop: int) -> np.ndarray:
    """Cells start .. stop - 1 of a numeric column, floats as float64 (as in `_numeric_cells`)."""
    if isinstance(column, Periodic):
        values = column.values[np.arange(start, stop) % len(column.values)]
    else:
        values = column[start:stop]
    return values.astype(np.float64, copy=False) if values.dtype.kind == "f" else values


def _plain(blocks: list[np.ndarray]) -> bool:
    """Whether orjson spells every cell of a block's integer and float64 arrays as `repr` does."""
    floats = [values for values in blocks if values.dtype.kind == "f"]
    # one check over all float columns at once
    return not floats or bool(_fixed_notation(np.array(floats)).all())


def _row_dumper(group: tuple):
    """For a CSV row group, a function (start, stop) -> the text of rows start .. stop - 1.

    The text comes from one `orjson.dumps` of a flat list of the block's
    cells, each row's cells followed by a None marker, with no string made
    per cell: each `,null,` between rows becomes a row break.  The middle
    columns must be numeric (`_numeric_column`); the first and the last may
    instead be a label repeated throughout (`_folded_text`), which goes into
    the row breaks.  The function returns None for a block with a cell that
    is not `_plain`, and `_row_dumper` returns None for a group of any other
    shape.
    """
    lead = _folded_text(group[0]) if group else None
    trail = _folded_text(group[-1]) if len(group) > 1 else None
    middle = group[lead is not None:len(group) - (trail is not None)]
    if not middle or not all(map(_numeric_column, middle)):
        return None
    import orjson

    prefix = "" if lead is None else lead + ","
    suffix = "" if trail is None else "," + trail
    row_break, stride = suffix + "\n" + prefix, len(middle) + 1

    def text(start: int, stop: int) -> str | None:
        values = [_block_values(column, start, stop) for column in middle]
        if not _plain(values):
            return None
        flat = [None] * ((stop - start) * stride)  # Python ints and floats, then a None per row
        for k, column in enumerate(values):
            flat[k::stride] = column.tolist()
        # "[a,b,null,c,d,null]" -> "a,b,null,c,d"
        body = str(memoryview(orjson.dumps(flat))[1:-6], "ascii")
        del flat  # freed before the row breaks are built
        # `null` is only ever a marker: `_plain` sends a block with nan or inf to the column path
        return prefix + body.replace(",null,", row_break) + suffix + "\n"

    return text


def _json_row_pieces(columns: tuple[str, ...]) -> list[str]:
    """The text around the cells of one row object inside "rows".

    The layout is that of `json.dumps(..., indent=2)`; the first piece starts
    with the "," that separates a row from the one before.
    """
    names = [json.encoder.encode_basestring_ascii(col) for col in columns]
    return [f",\n    {{\n      {names[0]}: ", *(f",\n      {name}: " for name in names[1:]),
            "\n    }"]


def _join_rows(pieces: list[str], cells: list[list[str]]) -> str:
    """The rows of a block: pieces[0], the first cell, pieces[1], ..., pieces[-1] per row."""
    rows, stride = len(cells[0]), 2 * len(cells) + 1
    flat = [""] * (rows * stride)
    flat[::stride] = [pieces[0]] * rows
    for k, (column, piece) in enumerate(zip(cells, pieces[1:])):
        flat[2 * k + 1::stride] = column
        flat[2 * k + 2::stride] = [piece] * rows
    return "".join(flat)


def write_output(path: str, fmt: str, command: str, parameters: dict,
                 tolerance: float, result: CommandResult) -> None:
    """Write the manifest, the checks and the rows of `result` to `path`.

    Each row group is written WRITE_BLOCK_ROWS rows at a time, and each
    block's text is written before the next block is formatted.  A CSV block
    of plain numbers comes from one dump of its rows (`_row_dumper`); any
    other block has every column's slice formatted in one pass and its rows
    joined from the formatted columns and the fixed text between cells.
    The bytes are those of formatting every cell with `_fmt` (CSV) or of
    `json.dumps(payload, indent=2)` over row objects (JSON).  Groups whose
    columns differ in number or length raise ValueError before the file is
    opened.
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
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(head)
        started = False
        for group, length in zip(result.groups, lengths):
            dump = _row_dumper(group) if fmt == "csv" else None
            formatters = [_block_cells(column, fmt) for column in group]
            for start in range(0, length, WRITE_BLOCK_ROWS):
                stop = min(start + WRITE_BLOCK_ROWS, length)
                text = dump(start, stop) if dump else None
                if text is None:
                    text = _join_rows(pieces, [cells(start, stop) for cells in formatters])
                handle.write(text if started else text[len(separator):])
                started = True
                del text  # not held while the next block is formatted
        handle.write(tail)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    out = args.out or f"{args.command}.{args.format}"
    if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or "."):
        print(f"{TOOL}: --out {out!r} is not a file path in an existing directory",
              file=sys.stderr)
        return 2

    try:
        result = COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"{TOOL}: {exc}", file=sys.stderr)
        return 2

    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    parameters["out"] = out
    write_output(out, args.format, args.command, parameters, args.tolerance, result)
    print(out)
    if result.breaches:
        for name in result.breaches:
            print(f"{TOOL}: tolerance breach in check {name!r}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
