"""Command-line front end: build representations, run checks and studies,
simulate orbits, and write CSV/JSON reports.

Every run writes a single output file that starts with a manifest echoing the
resolved configuration (tool version, command, parameters, tolerance) and, for
CSV, `# check name=value` lines for scalar results ahead of the data table.
All computations are deterministic, so identical configurations produce
byte-identical files.  Exit codes: 0 success, 2 invalid configuration,
3 tolerance breach in a requested check.

The module imports only the standard library.  Each command imports the
library names it calls, and the writer (`ladderlab.writer`), when it runs;
the writer imports numpy, which the library has loaded by then, and orjson
on its first numeric cell.  So a start that stops at the parse or at a
refusal before the command loads neither numpy, the writer nor any other
module of the package.
"""

from __future__ import annotations

import argparse
import copy
import functools
import math
import os
import sys

TOOL = "ladderlab"
GOLDEN_ROTATION = math.pi * (math.sqrt(5.0) - 1.0)  # 2*pi*(sqrt(5)-1)/2
# Largest row count of an output or an operator, checked at parse time before
# any array is allocated: --steps, --thooft-N, --curve-samples, evolve --N and
# each --dim directly, and the dimension 2l + 1 of --l and (nmax + 1)^2 of --nmax;
# and the len(params) * (n + 1) rows of a contract --family sweep, before it runs.
MAX_ROWS = 10**7
ELEMENT_COLUMNS = ("operator", "row", "col", "re", "im")


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
    row count, else what it counts.  A plain class, not a dataclass, so that a
    start that only parses imports no `dataclasses`.
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


def _element_groups(ops) -> list[tuple]:
    """One row group of ELEMENT_COLUMNS per operator, over its nonzero entries.

    The entries come from the operator's diagonals in the row-major order of
    `np.nonzero` on the dense matrix.
    """
    from .writer import Periodic

    groups = []
    for op in ops:
        rows, cols, values = op.bands.nonzero()
        groups.append((Periodic((op.label,), len(values)), rows, cols, values.real, values.imag))
    return groups


def cmd_rep(args) -> CommandResult:
    from .algebra import (
        Su11,
        build_h1_rep,
        build_su2_rep,
        build_su11_rep,
        check_algebra_relations,
        relations_in_float_range,
    )
    from .writer import CommandResult

    if args.algebra == "su2":
        rep = _flagged("--l", build_su2_rep, args.l)
        default_interior = rep.dim
    elif args.algebra == "su11":
        kind = _flagged("--k / --dim", Su11, args.k)
        _flagged("--k / --dim", relations_in_float_range, kind, args.dim)
        rep = build_su11_rep(kind.k, args.dim)
        default_interior = rep.dim - 1
    else:
        rep = build_h1_rep(args.dim)
        default_interior = rep.dim - 1
    interior = default_interior if args.interior is None else args.interior
    residuals = _flagged("--interior", check_algebra_relations, rep, interior)
    return CommandResult(
        columns=ELEMENT_COLUMNS,
        groups=_element_groups([rep.L3, rep.Lplus, rep.Lminus]),
        checks={"dim": rep.dim, "interior": interior, **residuals},
        gated=residuals,
    )


def cmd_contract(args) -> CommandResult:
    import numpy as np

    from .algebra import Su2, build_h1_rep, build_su2_rep, build_su11_rep
    from .contraction import (
        deformed_identities_in_float_range,
        deformed_identity_residuals,
        holstein_primakoff,
        holstein_primakoff_deviation,
        run_contraction_study,
    )
    from .writer import CommandResult, Periodic

    if args.hp:
        dim = 64 if args.dim is None else args.dim
        a, adag = holstein_primakoff(build_su11_rep(0.5, dim))
        deviation = holstein_primakoff_deviation(a, adag, build_h1_rep(dim))
        return CommandResult(
            columns=ELEMENT_COLUMNS,
            groups=_element_groups([a, adag]),
            checks=deviation,
            gated=deviation,
        )

    if args.identities:
        kind = _flagged("--l", Su2, args.l)
        _flagged("--l / --tau", deformed_identities_in_float_range, kind.l, args.tau)
        residuals = deformed_identity_residuals(build_su2_rep(kind.l), args.tau)
        count = len(residuals)
        return CommandResult(
            columns=("l", "tau", "identity", "residual"),
            groups=[(Periodic((args.l,), count), Periodic((args.tau,), count),
                     list(residuals), list(residuals.values()))],
            gated=residuals,
        )

    params = _finite_list("--params", args.params)
    rows = len(params) * (args.n + 1)
    if rows > MAX_ROWS:
        raise ValueError(f"--params / --n: the sweep writes {len(params)} x {args.n + 1} = "
                         f"{rows} rows, at most {MAX_ROWS}")
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
    from .evolution import EvolutionParams, geometric_phase_check, spectrum_via_dft
    from .writer import Arange, CommandResult

    params = _flagged(f"--N {args.N} / --tau {args.tau!r}", EvolutionParams, args.N, args.tau)
    energies = spectrum_via_dft(params)
    phase = geometric_phase_check(params)
    scale = params.omega if args.units == "omega" else 1.0
    return CommandResult(
        columns=("n", "energy"),
        groups=[(Arange(0, len(energies)), energies / scale)],
        checks={
            "omega": params.omega,
            "phase_re": phase.real,
            "phase_im": phase.imag,
        },
        gated={"phase": abs(phase + 1.0)},
    )


def _flagged(flags: str, function, *args, **kwargs):
    """`function(*args, **kwargs)`; a ValueError it raises is raised again, led by `flags`."""
    try:
        return function(*args, **kwargs)
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
    from .writer import Arange, Periodic

    count = trace.count
    x, y, theta = trace.points[:, 0], trace.points[:, 1], trace.angles
    if len(theta) < count:
        x, y, theta = (Periodic(column, count) for column in (x, y, theta))
    groups = [(Periodic(("touch",), count), Arange(1, count),
               Arange(1, count, trace.time_step), x, y, theta)]
    if curve_samples > 0:
        # the last touch time, the bits of the last touch row's t
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
        continuous_position,
        density_metrics,
        simulate_torus,
        thooft_system,
        touch_points,
        touch_time_step,
    )
    from .writer import Arange, CommandResult

    count, flag = (args.steps, "--steps") if args.thooft_n is None else (args.thooft_n, "--thooft-N")

    if args.torus:
        rot1, rot2 = (GOLDEN_ROTATION,) * 2 if args.ratio == "golden" else (args.rot1, args.rot2)
        phi0 = tuple(_finite_list("--phi0", args.phi0, skip_blank=False))
        angles = _flagged("--phi0", simulate_torus, rot1, rot2, steps=args.steps, phi0=phi0)
        gap1, gap2 = density_metrics(angles)
        return CommandResult(
            columns=("step", "phi1", "phi2"),
            groups=[(Arange(1, args.steps), angles[:, 0], angles[:, 1])],
            checks={"max_gap_1": gap1, "max_gap_2": gap2},
        )

    step = _flagged(f"--alpha {args.alpha!r} / {flag} {count}", touch_time_step, args.alpha, count)
    if args.thooft_n is not None:
        dynamics = thooft_system(args.thooft_n, alpha=args.alpha)
        trace = touch_points(dynamics, args.thooft_n)
    else:
        offset = _parse_offset(args.q_irr_add)
        flags = "--q-num / --q-den" if offset == 0.0 else "--q-num / --q-den / --q-irr-add"
        dynamics = _flagged(flags, CircleDynamics.rational, args.alpha, args.q_num, args.q_den,
                            offset)
        # the curve runs to the last touch time; a 't Hooft system, and any rational
        # ratio, has beta < alpha, so only an irrational one can reach past the range
        if args.curve_samples > 0:
            _flagged(f"--alpha / {flags} / --steps", continuous_position, dynamics, count * step)
        # a rational q beyond the int64 angles, or an irrational touch angle
        # step (1 - beta/alpha) pi beyond the float range
        flags = ("--q-num / --q-den / --steps" if dynamics.q is not None
                 else "--alpha / --q-num / --q-den / --q-irr-add")
        trace = _flagged(flags, touch_points, dynamics, args.steps)

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
        casimir_interior_residual,
        dissipative_in_float_range,
        dissipative_residuals,
        l2_relation_check,
        sector_match_residual,
        sector_operators,
    )
    from .writer import CommandResult

    selected, params = args.check, DissipativeParams(args.Omega, args.Gamma)
    if args.dump:
        rep = _flagged("--sector", sector_operators, args.nmax, args.sector)
        return CommandResult(
            columns=ELEMENT_COLUMNS,
            groups=_element_groups([rep.L3, rep.Lplus, rep.Lminus]),
            checks={"sector_j": args.sector, "sector_size": rep.dim, "induced_k": rep.kind.k},
        )
    if selected in ("all", "hamiltonian"):
        _flagged("--Omega / --Gamma / --nmax", dissipative_in_float_range, args.nmax, params)

    checks: dict[str, object] = {}
    if selected in ("all", "casimir"):
        checks.update(casimir_interior_residual(args.nmax))
    if selected in ("all", "sectors"):
        checks.update(sector_match_residual(args.nmax))
    if selected in ("all", "hamiltonian"):
        checks.update(dissipative_residuals(args.nmax, params))
    if selected in ("all", "l2"):
        checks.update(_flagged("--nmax", l2_relation_check, args.nmax))
    return CommandResult(
        columns=("check", "residual"),
        groups=[(list(checks), list(checks.values()))],
        checks=checks,
        gated=checks,
    )


# The flags each mode of a command needs, then the other flags it reads, by the
# mode: a flag that picks the mode when set, or a flag and the value that picks
# it.  The first mode picked runs.  It refuses any other flag named here for its
# command that is set away from its default, rather than ignore it, and then a
# flag it needs that is left out.
MODE_FLAGS = {
    "rep": {"--algebra su2": (("--l",), ()), "--algebra su11": (("--k", "--dim"), ()),
            "--algebra h1": (("--dim",), ())},
    "contract": {"--family": (("--params",), ("--n",)), "--hp": ((), ("--dim",)),
                 "--identities": (("--l",), ("--tau",))},
    "orbit": {"--thooft-N": ((), ("--alpha", "--curve-samples")),
              "--two-circle": (("--q-num", "--q-den"),
                               ("--alpha", "--curve-samples", "--steps", "--q-irr-add")),
              # ahead of --torus, whose rotations it sets
              "--ratio golden": ((), ("--torus", "--steps", "--phi0")),
              "--torus": (("--rot1", "--rot2"), ("--steps", "--phi0"))},
    "schwinger": {"--dump": (("--sector",), ()), "--check all": ((), ("--Omega", "--Gamma")),
                  "--check casimir": ((), ()), "--check sectors": ((), ()),
                  "--check hamiltonian": ((), ("--Omega", "--Gamma")), "--check l2": ((), ())},
}


def _refuse_unread_flags(args) -> None:
    """Raise if the mode run ignores a set flag of `MODE_FLAGS`, or leaves out one it needs.

    A flag is set when its value differs from its parser default; a needed
    flag is left out when its value is None or "".
    """
    modes = MODE_FLAGS.get(args.command, {})
    (commands,) = [action for action in _parser_tree()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    actions = {flag: action for action in commands.choices[args.command]._actions
               for flag in action.option_strings}

    def set_to(flag: str, choice: str = "") -> bool:
        """Whether `flag` is set to `choice` or, with no choice, away from its default."""
        value = getattr(args, actions[flag].dest)
        return value == choice if choice else value != actions[flag].default

    for mode, (needs, reads) in modes.items():
        if set_to(*mode.split()):
            read = {mode.split()[0], *needs, *reads}
            for key, (key_needs, key_reads) in modes.items():
                for flag in (key.split()[0], *key_needs, *key_reads):
                    if flag not in read and set_to(flag):
                        raise ValueError(f"{flag} is not read by {args.command} {mode}; "
                                         "leave it out")
            if any(getattr(args, actions[flag].dest) in (None, "") for flag in needs):
                raise ValueError(f"{mode.split()[-1]} requires {' and '.join(needs)}")
            return


COMMANDS = {
    "rep": cmd_rep,
    "contract": cmd_contract,
    "evolve": cmd_evolve,
    "orbit": cmd_orbit,
    "schwinger": cmd_schwinger,
}


def write_output(path: str, fmt: str, command: str, parameters: dict,
                 tolerance: float, result: CommandResult) -> None:
    """`writer.write_output`, the writer imported on the first write."""
    from . import writer

    writer.write_output(path, fmt, command, parameters, tolerance, result)


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
