"""Command-line front end: build representations, run checks and studies,
simulate orbits, and write CSV/JSON reports.

Every run writes a single output file that starts with a manifest echoing the
resolved configuration (tool version, command, parameters, tolerance) and, for
CSV, `# check name=value` lines for scalar results ahead of the data table.
All computations are deterministic, so identical configurations produce
byte-identical files.  Exit codes: 0 success, 2 invalid configuration,
3 tolerance breach in a requested check.

The module imports only the standard library.  Each command imports the
library names it calls when it runs, and the writer imports numpy and
orjson where it uses them, so a start that stops at the parse or at a
refusal before the command loads neither numpy nor any other module of
the package.
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
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    import numpy as np

TOOL = "ladderlab"
GOLDEN_ROTATION = math.pi * (math.sqrt(5.0) - 1.0)  # 2*pi*(sqrt(5)-1)/2
# Rows per block in `write_output`: the writer holds one block of formatted
# text beyond the result's columns, so its memory does not grow with the row count.
WRITE_BLOCK_ROWS = 256
# Rows per step of the writer's plain-number scan (`_non_plain_blocks`): whole
# blocks, few enough that the scan's arrays stay small whatever the row count.
PLAIN_SCAN_ROWS = 16 * WRITE_BLOCK_ROWS
# Largest row count of an output or an operator, checked at parse time before
# any array is allocated: --steps, --thooft-N, --curve-samples, evolve --N and
# each --dim directly, and the dimension 2l + 1 of --l and (nmax + 1)^2 of --nmax.
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


class Arange:
    """A column of `length` cells first + i, each times `scale` if one is given.

    A slice `column[a:b]` is an array of `dtype`, made when it is taken:
    integers as `np.arange` makes them or, with a scale, each exact integer
    first + i times `scale`, rounded once, the bits of
    `np.arange(float(first), first + length) * scale`.  A plain class, not
    a dataclass, which would cost every CLI start half a millisecond.
    """

    def __init__(self, first: int, length: int, scale: float | None = None) -> None:
        import numpy as np

        self.first, self.length, self.scale = first, length, scale
        self.dtype = np.dtype(int if scale is None else float)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, key: slice) -> np.ndarray:
        import numpy as np

        start, stop, step = key.indices(self.length)
        if self.scale is None:
            return np.arange(self.first + start, self.first + stop, step)
        cells = np.arange(float(self.first + start), float(self.first + stop), step)
        cells *= self.scale
        return cells


def _python_values(column) -> Iterable:
    """The cells of a column as Python values (numpy scalars become float/int)."""
    import numpy as np

    if isinstance(column, Periodic):
        return itertools.islice(itertools.cycle(_python_values(column.values)), column.length)
    if isinstance(column, (np.ndarray, Arange)):
        return column[:].tolist()
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
    numpy array, a sequence of Python values, a `Periodic` or an `Arange`.
    `gated` holds the values `main` holds to `--tolerance`.
    """

    columns: tuple[str, ...]
    groups: list[tuple]
    checks: dict[str, object] = field(default_factory=dict)
    gated: dict[str, float] = field(default_factory=dict)

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


class Count:
    """argparse type: a number from `least` to `most`, read by `parse` (`int`, or `_finite`).

    `unit` follows `most` in the message: "rows" where the value is itself a
    row count, else what it counts.  A plain class, not a dataclass, for the
    reason `Arange` gives.
    """

    def __init__(self, least, most=MAX_ROWS, unit: str = "rows", parse=int) -> None:
        self.least, self.most, self.unit, self.parse = least, most, unit, parse

    def __call__(self, text: str):
        try:
            value = self.parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < self.least:
            raise argparse.ArgumentTypeError(f"must be >= {self.least}, got {text}")
        if value > self.most:
            raise argparse.ArgumentTypeError(f"at most {self.most} {self.unit}, got {text}")
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
    # a spin label l builds operators of 2l + 1 rows
    spin_label = Count(0.5, (MAX_ROWS - 1) / 2, f"(2l + 1 <= {MAX_ROWS} rows)", _finite)

    rep = sub.add_parser("rep", parents=[common], help="build a representation and dump elements")
    rep.add_argument("--algebra", choices=("su2", "su11", "h1"), required=True)
    rep.add_argument("--l", type=spin_label, help="spin label (su2)")
    rep.add_argument("--k", type=_finite, help="discrete-series weight (su11)")
    rep.add_argument("--dim", type=Count(2), help="truncation cutoff (su11, h1)")
    rep.add_argument("--interior", type=int, help="states used for the relation check")

    contract = sub.add_parser("contract", parents=[common],
                              help="contraction sweeps, the k=1/2 boson mapping, identities")
    # the mode flags sit among the others: the manifest lists parameters in parser order
    contract_mode = contract.add_mutually_exclusive_group(required=True)
    contract_mode.add_argument("--family", choices=("su2", "su11"))
    contract.add_argument("--params", help="comma-separated sweep values, ascending")
    contract.add_argument("--n", type=Count(1), default=3, help="ladder level for the rate fit")
    contract_mode.add_argument("--hp", action="store_true",
                               help="compare the k=1/2 mapping with h(1)")
    contract_mode.add_argument("--identities", action="store_true",
                               help="deformed commutator and Hamiltonian identities")
    contract.add_argument("--dim", type=Count(2), help="cutoff for --hp (default 64)")
    contract.add_argument("--l", type=spin_label, help="spin label for --identities")
    contract.add_argument("--tau", type=_positive, default=1.0, help="time step for --identities")

    evolve = sub.add_parser("evolve", parents=[common], help="cyclic evolution spectrum and phase")
    evolve.add_argument("--N", type=Count(2), required=True, help="number of states")
    evolve.add_argument("--tau", type=_positive, default=1.0, help="time step")
    evolve.add_argument("--units", choices=("energy", "omega"), default="energy")

    orbit = sub.add_parser("orbit", parents=[common], help="circle and torus orbit traces")
    orbit_mode = orbit.add_mutually_exclusive_group(required=True)
    orbit_mode.add_argument("--thooft-N", dest="thooft_n", type=Count(3),
                            help="N-site single-cover circle system")
    orbit_mode.add_argument("--two-circle", dest="two_circle", action="store_true")
    orbit_mode.add_argument("--torus", action="store_true")
    orbit.add_argument("--alpha", type=_positive, default=1.0, help="envelope frequency")
    orbit.add_argument("--curve-samples", dest="curve_samples", type=Count(0), default=0,
                       help="samples of the underlying continuous curve")
    orbit.add_argument("--steps", type=Count(1), default=1000)
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
    schwinger.add_argument("--nmax", type=Count(1, math.isqrt(MAX_ROWS) - 1,
                                                f"((nmax + 1)^2 <= {MAX_ROWS} rows)"),
                           required=True, help="per-mode cutoff")
    schwinger.add_argument("--check", choices=("all", "casimir", "sectors", "hamiltonian", "l2"),
                           default="all")
    schwinger.add_argument("--sector", type=_finite, help="sector label j for --dump")
    schwinger.add_argument("--dump", action="store_true", help="dump one sector's ladder table")
    schwinger.add_argument("--Omega", type=_finite, default=1.0)
    schwinger.add_argument("--Gamma", type=_positive, default=0.5)
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
    from .algebra import build_h1_rep, build_su2_rep, build_su11_rep, check_algebra_relations

    if args.algebra == "su2":
        if args.l is None:
            raise ValueError("su2 requires --l")
        rep = _flagged("--l", build_su2_rep, args.l)
        default_interior = rep.dim
    elif args.algebra == "su11":
        if args.k is None or args.dim is None:
            raise ValueError("su11 requires --k and --dim")
        rep = _flagged("--k / --dim", build_su11_rep, args.k, args.dim)
        default_interior = rep.dim - 1
    else:
        if args.dim is None:
            raise ValueError("h1 requires --dim")
        rep = build_h1_rep(args.dim)
        default_interior = rep.dim - 1
    interior = default_interior if args.interior is None else args.interior
    residual = _flagged("--interior", check_algebra_relations, rep, interior)
    return CommandResult(
        columns=ELEMENT_COLUMNS,
        groups=_element_groups([rep.L3, rep.Lplus, rep.Lminus]),
        checks={"dim": rep.dim, "interior": interior, "relations_residual": residual},
        gated={"relations_residual": residual},
    )


def cmd_contract(args) -> CommandResult:
    import numpy as np

    from .algebra import build_h1_rep, build_su2_rep, build_su11_rep
    from .contraction import deformed_identity_residuals, holstein_primakoff, run_contraction_study
    from .operators import Identity, evaluate

    if args.hp:
        dim = 64 if args.dim is None else args.dim
        rep = build_su11_rep(0.5, dim)
        a, adag = holstein_primakoff(rep)
        osc = build_h1_rep(dim)
        deviation = evaluate([Identity("hp_max_deviation", lambda: a.bands - osc.Lminus.bands),
                              Identity("hp_max_deviation", lambda: adag.bands - osc.Lplus.bands)])
        return CommandResult(
            columns=ELEMENT_COLUMNS,
            groups=_element_groups([a, adag]),
            checks=deviation,
            gated=deviation,
        )

    if args.identities:
        if args.l is None:
            raise ValueError("--identities requires --l")
        rep = _flagged("--l", build_su2_rep, args.l)
        # x = alpha L1 has entries up to alpha (l + 1/2)/2, with alpha^2 = tau/pi, so x^2
        # reaches tau (l + 1/2)^2 / (2 pi); H = omega (L3 + l + 1/2) reaches 2 pi/tau, so
        # omega^2/4 + H^2 stays below 2 (2 pi/tau)^2, which also bounds p^2 and omega^2 x^2;
        # and omega = 2 pi/((2l + 1) tau) underflows unless (2l + 1) tau is finite
        width, rate = args.l + 0.5, 2.0 * math.pi / args.tau
        if not math.isfinite(max(args.tau / (2.0 * math.pi) * width * width, 2.0 * rate * rate,
                                 2.0 * width * args.tau)):
            raise ValueError(f"--l {args.l!r} / --tau {args.tau!r}: the identity checks "
                             "leave the float range")
        residuals = deformed_identity_residuals(rep, args.tau)
        count = len(residuals)
        return CommandResult(
            columns=("l", "tau", "identity", "residual"),
            groups=[(Periodic((args.l,), count), Periodic((args.tau,), count),
                     list(residuals), list(residuals.values()))],
            gated=residuals,
        )

    if not args.params:
        raise ValueError("--family requires --params")
    params = _finite_list("--params", args.params)
    report = _flagged("--params / --n", run_contraction_study, args.family, params, args.n + 1)
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
    import numpy as np

    from .evolution import EvolutionParams, geometric_phase_check, spectrum_via_dft

    params = EvolutionParams(args.N, args.tau)
    # the energies run up to N omega = 2 pi / tau; a zero omega divides --units omega
    if not (params.omega > 0.0 and math.isfinite(params.n_states * params.omega)):
        raise ValueError(f"--N {args.N} / --tau {args.tau!r}: omega = 2 pi/(N tau) = "
                         f"{params.omega!r} puts the energies beyond the float range")
    energies = spectrum_via_dft(params)
    phase = geometric_phase_check(params)
    scale = params.omega if args.units == "omega" else 1.0
    return CommandResult(
        columns=("n", "energy"),
        groups=[(np.arange(len(energies)), energies / scale)],
        checks={
            "omega": params.omega,
            "phase_re": phase.real,
            "phase_im": phase.imag,
        },
        gated={"phase": abs(phase + 1.0)},
    )


def _flagged(flags: str, function, *args):
    """`function(*args)`; a ValueError it raises is raised again, its message led by `flags`."""
    try:
        return function(*args)
    except ValueError as exc:
        raise ValueError(f"{flags}: {exc}") from None


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

    A closed orbit's trace holds x, y and theta for one period when the run
    is longer (`OrbitTrace`); they are passed as that period, repeated.  The
    index and the times t_j = j pi/alpha are `Arange` columns.
    """
    import numpy as np

    from .orbits import continuous_position

    count = trace.count
    x, y, theta = trace.points[:, 0], trace.points[:, 1], trace.angles
    if len(theta) < count:
        x, y, theta = (Periodic(column, count) for column in (x, y, theta))
    groups = [(Periodic(("touch",), count), Arange(1, count),
               Arange(1, count, trace.time_step), x, y, theta)]
    if curve_samples > 0:
        # the last touch time, the bits of trace.times[-1]
        times = np.linspace(0.0, count * trace.time_step, curve_samples)
        xs, ys = continuous_position(dynamics, times)
        groups.append((Periodic(("curve",), curve_samples), Arange(0, curve_samples), times,
                       xs, ys, Periodic((None,), curve_samples)))
    return groups


def cmd_orbit(args) -> CommandResult:
    import numpy as np

    from .orbits import (
        CircleDynamics,
        circular_gaps,
        density_metrics,
        simulate_torus,
        thooft_system,
        touch_points,
    )

    count, flag = (args.steps, "--steps") if args.thooft_n is None else (args.thooft_n, "--thooft-N")

    if args.torus:
        if args.ratio == "golden":
            if (args.rot1, args.rot2) != (None, None):
                raise ValueError("--rot1 / --rot2 are not read by orbit --torus --ratio golden, "
                                 "which sets both rotations; leave them out")
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
            groups=[(Arange(1, orbit.steps), orbit.angles[:, 0], orbit.angles[:, 1])],
            checks={"max_gap_1": gap1, "max_gap_2": gap2},
        )

    last_time = count * (math.pi / args.alpha)
    if not math.isfinite(last_time):
        raise ValueError(f"--alpha {args.alpha!r} / {flag} {count}: the touch times "
                         "j pi/alpha are beyond the float range")
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
        except ValueError as exc:  # a rational ratio outside (0, 1), or a beta not above 0
            flags = "--q-num / --q-den" if offset == 0.0 else "--q-num / --q-den / --q-irr-add"
            raise ValueError(f"{flags}: {exc}") from None
        # the curve runs to the last touch time; a 't Hooft system has beta < alpha
        if args.curve_samples > 0 and not math.isfinite(abs(dynamics.beta) * last_time):
            raise ValueError("--alpha / --q-num / --q-den / --q-irr-add / --steps: the curve "
                             "phase beta t is beyond the float range")
        try:
            trace = touch_points(dynamics, args.steps)
        except ValueError as exc:
            # a rational q beyond the int64 angles, or an irrational touch
            # angle step (1 - beta/alpha) pi beyond the float range
            flags = ("--q-num / --q-den / --steps" if dynamics.q is not None
                     else "--alpha / --q-num / --q-den / --q-irr-add")
            raise ValueError(f"{flags}: {exc}") from None

    # a closed orbit's trace holds one period, whose values repeat bit for bit;
    # once it wraps, every angle is revisited exactly, a gap of zero
    radius_error = float(np.max(np.abs(trace.points[:, 0] ** 2 + trace.points[:, 1] ** 2 - 1.0)))
    wrapped = len(trace.angles) < count
    return CommandResult(
        columns=("record", "index", "t", "x", "y", "theta"),
        groups=_trace_groups(dynamics, trace, args.curve_samples),
        checks={
            "period_steps": trace.period_steps,
            "radius_error": radius_error,
            "min_touch_gap": 0.0 if wrapped else float(np.min(circular_gaps(trace.angles))),
        },
        gated={"radius_error": radius_error},
    )


def cmd_schwinger(args) -> CommandResult:
    from .twomode import (
        DissipativeParams,
        build_two_mode,
        casimir_interior_residual,
        dissipative_residuals,
        l2_relation_check,
        sector_match_residual,
        sector_operators,
    )

    if args.dump:
        if args.sector is None:
            raise ValueError("--dump requires --sector")
        # j = (n_A - n_B)/2 with both occupations in 0 .. nmax
        if not ((2 * args.sector).is_integer() and abs(2 * args.sector) <= args.nmax):
            raise ValueError(f"--sector: no sector with j = {args.sector} at --nmax {args.nmax} "
                             f"(2j must be an integer with |2j| <= nmax)")
    space = build_two_mode(args.nmax)

    if args.dump:
        rep = sector_operators(space, args.sector)
        return CommandResult(
            columns=ELEMENT_COLUMNS,
            groups=_element_groups([rep.L3, rep.Lplus, rep.Lminus]),
            checks={"sector_j": args.sector, "sector_size": rep.dim, "induced_k": rep.kind.k},
        )

    selected = args.check
    if selected in ("all", "l2") and args.nmax < 2:
        raise ValueError("--check all/l2 need --nmax >= 2")
    if selected in ("all", "hamiltonian"):
        # H0 and HI have entries up to |Omega| nmax and |Gamma| nmax, and H0 is
        # diagonal, so no entry the dissipative checks form exceeds this
        scale = 2.0 * space.n_max**2 * max(abs(args.Omega), abs(args.Gamma),
                                           abs(args.Omega * args.Gamma))
        if not math.isfinite(scale):
            raise ValueError(f"--Omega {args.Omega!r} / --Gamma {args.Gamma!r}: the dissipative "
                             f"checks at --nmax {args.nmax} reach beyond the float range")
    checks: dict[str, object] = {}
    if selected in ("all", "casimir"):
        checks["casimir_interior"] = casimir_interior_residual(space)
    if selected in ("all", "sectors"):
        checks["sector_match"] = sector_match_residual(space)
    if selected in ("all", "hamiltonian"):
        params = DissipativeParams(args.Omega, args.Gamma)
        checks.update(dissipative_residuals(space, params))
    if selected in ("all", "l2"):
        res1, res2 = l2_relation_check(space, space.n_max)
        checks["l2_commutator"] = res1
        checks["l2_double_commutator"] = res2
    return CommandResult(
        columns=("check", "residual"),
        groups=[(list(checks), list(checks.values()))],
        checks=checks,
        gated=checks,
    )


# The flags each mode of a command reads, by the mode: a flag that picks the mode
# when set, or a flag and the value that picks it.  The first mode picked runs,
# and refuses any other flag named here for its command that is set away from
# its default, rather than ignore it.
MODE_FLAGS = {
    "rep": {"--algebra su2": ("--l",), "--algebra su11": ("--k", "--dim"),
            "--algebra h1": ("--dim",)},
    "contract": {"--family": ("--params", "--n"), "--hp": ("--dim",),
                 "--identities": ("--l", "--tau")},
    "orbit": {"--thooft-N": ("--alpha", "--curve-samples"),
              "--two-circle": ("--alpha", "--curve-samples", "--steps", "--q-num", "--q-den",
                               "--q-irr-add"),
              "--torus": ("--steps", "--ratio", "--rot1", "--rot2", "--phi0")},
    "schwinger": {"--dump": ("--sector",), "--check all": ("--Omega", "--Gamma"),
                  "--check casimir": (), "--check sectors": (),
                  "--check hamiltonian": ("--Omega", "--Gamma"), "--check l2": ()},
}


def _refuse_unread_flags(args) -> None:
    """Raise if the mode run ignores a flag of `MODE_FLAGS` set away from its parser default."""
    modes = MODE_FLAGS.get(args.command, {})
    (commands,) = [action for action in _parser_tree()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    actions = {flag: action for action in commands.choices[args.command]._actions
               for flag in action.option_strings}

    def set_to(flag: str, choice: str = "") -> bool:
        """Whether `flag` is set to `choice` or, with no choice, away from its default."""
        value = getattr(args, actions[flag].dest)
        return value == choice if choice else value != actions[flag].default

    for mode, read in modes.items():
        if set_to(*mode.split()):
            read = {mode.split()[0], *read}
            for key, flags in modes.items():
                for flag in (key.split()[0], *flags):
                    if flag not in read and set_to(flag):
                        raise ValueError(f"{flag} is not read by {args.command} {mode}; "
                                         "leave it out")
            return


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


def _float64(values: np.ndarray) -> np.ndarray:
    """A float array as float64, the type orjson spells as `repr`; any other array as it is."""
    import numpy as np

    return values.astype(np.float64, copy=False) if values.dtype.kind == "f" else values


def _numeric_cells(values: np.ndarray, plain: bool = False) -> list[str]:
    """The `repr` of each element of a float or integer array, in one `orjson.dumps` call.

    orjson writes the shortest round-trip digits of a float64 (Ryu), the
    same digits as `repr`, and spells them as `repr` does wherever `repr`
    uses fixed notation: 1e-4 <= |x| < 1e16, and zero.  The few cells
    outside that range (exponents, nan, inf, which orjson writes as
    `null`) are taken from `repr`, unless the caller passes `plain` for an
    array it knows has none.  Floats go through float64 first, since
    orjson prints a float32 with float32's own shortest digits.
    """
    import numpy as np
    import orjson  # on first use: a CLI start that only parses pays nothing

    values = _float64(values)
    if not values.dtype.isnative:
        # orjson reads the array's memory in native byte order
        values = values.astype(values.dtype.newbyteorder("="))
    if not len(values):
        return []
    text = orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)
    cells = text[1:-1].decode("ascii").split(",")
    if values.dtype.kind == "f" and not plain:
        for i in np.flatnonzero(~_fixed_notation(values)).tolist():
            cells[i] = repr(float(values[i]))
    return cells


def _fixed_notation(values: np.ndarray) -> np.ndarray:
    """Where orjson spells a float64 as `repr` does: 1e-4 <= |x| < 1e16, and zero."""
    import numpy as np

    magnitude = np.abs(values)
    return ((magnitude >= 1e-4) & (magnitude < 1e16)) | (values == 0)


def _exact_cells(values, kind: type) -> list[str]:
    """The `repr` of each value of a sequence whose values are all of type `kind`, float or int."""
    import numpy as np

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
    import numpy as np

    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        if kind in "iu" or (kind == "f" and (fmt == "csv" or np.isfinite(values).all())):
            return _numeric_cells(values)
        values = values.tolist()
    return _csv_column(values) if fmt == "csv" else _json_column(values)


def _periodic_slice(period: list, start: int, stop: int) -> list:
    """Items start .. stop - 1 of a sequence that repeats the list `period`."""
    size = len(period)
    first = start % size
    head = period[first:first + stop - start]
    missing = stop - start - len(head)
    return head + period * (missing // size) + period[:missing % size]


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
    """Whether a column is an integer or float array or `Arange`, or a `Periodic` run of one."""
    import numpy as np

    values = column.values if isinstance(column, Periodic) else column
    return isinstance(values, (np.ndarray, Arange)) and values.dtype.kind in "iuf"


def _number_lists(column):
    """For a numeric column, a function (start, stop, spell) -> its cells start .. stop - 1.

    The cells are Python ints and floats, in a list; with `spell`, each
    float that orjson does not spell as `repr` (`_fixed_notation`) is its
    `repr` string instead.  A `Periodic` column becomes one list here,
    spelled, and each block slices it: only a block with `spell` set holds
    such a cell.
    """
    import numpy as np

    if isinstance(column, Periodic):
        period = _spelled(_float64(column.values))
        return lambda start, stop, spell: _periodic_slice(period, start, stop)
    return lambda start, stop, spell: (_spelled if spell else np.ndarray.tolist)(
        _float64(column[start:stop]))


def _spelled(values: np.ndarray) -> list:
    """`values.tolist()`, with the `repr` string of each float orjson would not spell as `repr`."""
    import numpy as np

    cells = values.tolist()
    if values.dtype.kind == "f":
        for i in np.flatnonzero(~_fixed_notation(values)).tolist():
            cells[i] = repr(cells[i])
    return cells


def _non_plain_blocks(columns, length: int) -> bytes:
    """One flag per block of a row group: 1 if a float cell is one orjson does not spell as `repr`.

    A block is a run of WRITE_BLOCK_ROWS rows, numbered from 0; the spelling
    rule is `_fixed_notation`.  Each array or `Arange` column is checked
    PLAIN_SCAN_ROWS rows at a time.
    """
    import numpy as np

    blocks = np.zeros(-(-length // WRITE_BLOCK_ROWS), dtype=bool)
    for column in columns:
        if column.dtype.kind != "f":
            continue
        for start in range(0, length, PLAIN_SCAN_ROWS):
            values = _float64(column[start:min(start + PLAIN_SCAN_ROWS, length)])
            rows = np.flatnonzero(~_fixed_notation(values))
            blocks[(rows + start) // WRITE_BLOCK_ROWS] = True
    return blocks.tobytes()


def _row_marker(size: int):
    """A value orjson writes as `size` bytes, for 2 <= size <= 509; None (`null`) otherwise.

    It is size // 2 nested lists around nothing, or around a 0 when size is
    odd: `[]`, `[0]`, `[[]]`, `[[0]]`, ...  No row-dump cell holds a bracket,
    so `,marker,` is found only where a marker is.  orjson refuses more than
    255 levels, and the dump's own list is one of them.
    """
    if not 2 <= size <= 509:
        return None
    marker = [0] if size % 2 else []
    for _ in range(size // 2 - 1):
        marker = [marker]
    return marker


def _row_dumper(group: tuple):
    """For a CSV row group, a function (start, stop) -> the bytes of rows start .. stop - 1.

    The bytes come from one `orjson.dumps` of a flat list of the block's
    cells, with no string made per cell.  A group with no label has a line
    break alone as its row break: its list holds only the cells, and the
    text is copied into a `bytearray` in which every `width`-th comma and
    the closing `]` are overwritten by a line break, an equal-length rewrite
    with nothing counted and no new text built.  That is right because no
    cell holds a comma: cells are numbers or spelled `repr`s (`nan`, `inf`,
    `1e-07`).  Any other group has a marker before the first row and after
    each row, and a 0 at each end of the list.  Each `,marker,` in the text
    becomes a row break, the end of one row and the start of the next; the
    two zeros and the breaks outside the block are cut off.  The marker
    makes `,marker,` exactly as long as the row break (`_row_marker`):
    CPython's `bytes.replace` then rewrites a copy in place, where a pattern
    of another length has every match counted first and a new text built.  A
    break of 2 or 3 bytes (a line break, then an empty or one-character
    label and its comma, as in `contract --hp`) is shorter than `,[],`, the
    shortest pattern no cell can hold, and keeps None, written `null`: a
    `,X,` with a one-byte X could only be a digit, and a digit can be a
    cell.  Either way the block is one buffer, sliced from the dump with no
    further copy.  The middle columns must be numeric (`_numeric_column`);
    the first and the last may instead be a label repeated throughout
    (`_folded_text`), which goes into the row breaks.  A float cell that is
    not plain (an exponent, nan or inf) is dumped as its `repr` string, and
    the quotes orjson puts around it are deleted, which no other cell and no
    folded label holds: a `Periodic` column's period is spelled once, and
    the array blocks that hold such a cell are found once, here
    (`_non_plain_blocks`).  `_row_dumper` returns None for a group of any
    other shape.
    """
    lead = _folded_text(group[0]) if group else None
    trail = _folded_text(group[-1]) if len(group) > 1 else None
    middle = group[lead is not None:len(group) - (trail is not None)]
    if not middle or not all(map(_numeric_column, middle)):
        return None
    import numpy as np
    import orjson

    non_plain = _non_plain_blocks([c for c in middle if not isinstance(c, Periodic)],
                                  len(group[0]))
    numbers = [_number_lists(column) for column in middle]
    if lead is None and trail is None:
        width = len(middle)

        def dump_unlabeled(start: int, stop: int) -> memoryview:
            spell = non_plain[start // WRITE_BLOCK_ROWS]
            flat = [0] * ((stop - start) * width)
            for k, cells in enumerate(numbers):
                flat[k::width] = cells(start, stop, spell)
            text = bytearray(orjson.dumps(flat).replace(b'"', b""))
            del flat
            # "[a,b,c,d]" -> "[a,b\nc,d\n": the last comma of each row, and the "]"
            view = np.frombuffer(text, dtype=np.uint8)
            view[np.flatnonzero(view == ord(","))[width - 1::width]] = ord("\n")
            view[-1] = ord("\n")
            return memoryview(text)[1:]

        return dump_unlabeled
    prefix = b"" if lead is None else lead.encode() + b","
    end = b"\n" if trail is None else b"," + trail.encode() + b"\n"
    row_break, stride = end + prefix, len(middle) + 1
    marker = _row_marker(len(row_break) - 2)
    pattern = b"," + orjson.dumps(marker) + b","

    def dump(start: int, stop: int) -> memoryview:
        spell = non_plain[start // WRITE_BLOCK_ROWS]
        cells_end = 2 + (stop - start) * stride
        flat = [marker] * (cells_end + 1)  # 0, marker, each row's numbers and a marker, 0
        flat[0] = flat[-1] = 0
        for k, cells in enumerate(numbers):
            flat[2 + k:cells_end:stride] = cells(start, stop, spell)
        text = orjson.dumps(flat)
        del flat  # freed before the row breaks are put in
        # "[0,M,a,b,M,c,d,M,0]" -> "[0" end prefix "a,b" end prefix "c,d" end
        # prefix "0]"; nan and inf are spelled as strings, so no cell is `null`
        text = text.replace(b'"', b"").replace(pattern, row_break)
        return memoryview(text)[2 + len(end):len(text) - 2 - len(prefix)]

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
    other block of an integer or float array is formatted with no check.
    """
    if not _numeric_column(column):
        return lambda start, stop: _cells(column[start:stop], fmt)
    non_plain = _non_plain_blocks([column], length)

    def cells(start: int, stop: int) -> list[str]:
        if non_plain[start // WRITE_BLOCK_ROWS]:
            return _cells(column[start:stop], fmt)
        return _numeric_cells(column[start:stop], plain=True)

    return cells


def _column_path(group: tuple, pieces: list[str], fmt: str, length: int):
    """For a row group, a function (start, stop) -> the text of rows start .. stop - 1.

    A row is pieces[0], the first column's cell, pieces[1], and so on.  Each
    run of pieces and `Periodic` columns between two other columns is joined
    here, once, into one periodic text: row by row over the least common
    multiple of its periods, or over the group if that is shorter.  A run
    is split before a column that would take that period past the longest
    of WRITE_BLOCK_ROWS and its parts.  Each block then slices those texts,
    formats the other columns' cells (`_array_cells`), and joins the row
    from both with `_join_rows`.
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
            merged = min(math.lcm(period, len(cells)), length)
            if merged > max(WRITE_BLOCK_ROWS, period, own):
                close_run(period)
                merged = own
            run.append(cells)
            period = merged
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
    if not slots:  # every run has period 1: each row is the same text
        row, joined_pieces = joined_pieces[0], ["", ""]
        slots.append(lambda start, stop: [row] * (stop - start))
    return lambda start, stop: _join_rows(joined_pieces, [cells(start, stop) for cells in slots])


def write_output(path: str, fmt: str, command: str, parameters: dict,
                 tolerance: float, result: CommandResult) -> None:
    """Write the manifest, the checks and the rows of `result` to `path`.

    Each row group is written WRITE_BLOCK_ROWS rows at a time, and each
    block's bytes are written before the next block is formatted.  What is
    fixed for a whole group is planned once, before its first block: a CSV
    group of numbers gets its row dump (`_row_dumper`), with the blocks that
    are not plain found in one scan, and any other group its column path
    (`_column_path`), built on first use, with its periodic texts joined
    once.  The file is written as bytes: UTF-8 text, lines ended by LF on
    every platform.  The bytes are those of formatting every cell with
    `_fmt` (CSV) or of `json.dumps(payload, indent=2)` over row objects
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
    with open(path, "wb") as handle:
        handle.write(head.encode())
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
                handle.write(data)
                del data  # not held while the next block is formatted
        handle.write(tail.encode())


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
        _refuse_unread_flags(args)
        result = COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"{TOOL}: {exc}", file=sys.stderr)
        return 2

    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    parameters["out"] = out
    write_output(out, args.format, args.command, parameters, args.tolerance, result)
    print(out)
    # a nan fails `value <= tolerance`, so it is a breach too
    breaches = [name for name, value in result.gated.items() if not value <= args.tolerance]
    for name in breaches:
        print(f"{TOOL}: tolerance breach in check {name!r}", file=sys.stderr)
    return 3 if breaches else 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
