"""Span tracing around the calls into each `ladderlab` module, and the per-layer metrics.

`Tracer.install` wraps every public function of the package's modules, the
`OperatorMatrix` constructor, the CLI's command table and its argument
parser, and rebinds each wrapped function wherever a module imported it by
name (`from .operators import max_entry` leaves a second binding in the
importing module).  `uninstall` restores the originals, so untraced passes
run the package untouched.  Spans are kept in memory: name, start, end,
parent span, op id and pass number, plus one count for the spans that carry
one (bytes for an `OperatorMatrix`, steps for an orbit, rows for a write).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path

LAYERS = ("cli", "operators", "algebra", "contraction", "evolution", "orbits", "twomode")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    pass_no: int
    count: int = 0


def _count(name: str, args, kwargs) -> int:
    """The work count a span records, read from the call's arguments."""
    if name == "operators.OperatorMatrix":
        return args[0].dim ** 2 * 16  # dense complex128 entries
    if name == "orbits.touch_points":
        return int(args[1] if len(args) > 1 else kwargs["count"])
    if name == "orbits.simulate_torus":
        return int(args[3] if len(args) > 3 else kwargs["steps"])
    if name == "cli.write_output":
        return len((args[5] if len(args) > 5 else kwargs["result"]).rows)
    return 0


class Tracer:
    """Records spans while installed; `op` and `pass_no` label the spans that follow."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: str | None = None
        self.pass_no = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self.op, self.pass_no)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.count = _count(name, args, kwargs)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions of every module in LAYERS of `package`."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._set(module, attr, wrapped[id(value)])

        cli = modules["cli"]
        for command, fn in list(cli.COMMANDS.items()):
            self._restore.append((cli.COMMANDS, command, fn))
            cli.COMMANDS[command] = wrapped[id(fn)]

        matrix = modules["operators"].OperatorMatrix
        self._set(matrix, "__post_init__",
                  self.wrap("operators.OperatorMatrix", matrix.__post_init__))

        build_parser = cli.build_parser

        def parser_with_traced_parse():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return parser

        self._set(cli, "build_parser", parser_with_traced_parse)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def summary(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """Per span name: calls, inclusive seconds, self seconds."""
    own = self_times(spans)
    table: dict[str, list] = {}
    for s in spans:
        row = table.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += own[s.id]
    return {name: tuple(row) for name, row in sorted(table.items())}


# (metric, unit, kind, span names): kind "s" sums inclusive seconds, "self_s"
# sums self seconds, "calls" counts spans, "count" sums the span counts.
SPAN_METRICS = (
    ("twomode.build_s", "s", "s", ("twomode.build_two_mode",)),
    ("twomode.casimir_s", "s", "s", ("twomode.casimir_interior_residual", "twomode.casimir")),
    ("twomode.dissipative_s", "s", "s", ("twomode.dissipative_residuals",)),
    ("twomode.l2_relation_s", "s", "s", ("twomode.l2_relation_check",)),
    ("twomode.sector_match_self_s", "s", "self_s", ("twomode.sector_match_residual",)),
    ("twomode.sector_operators_s", "s", "s", ("twomode.sector_operators",)),
    ("twomode.sector_decompose_s", "s", "s", ("twomode.sector_decompose",)),
    ("twomode.sector_decompose_calls", "count", "calls", ("twomode.sector_decompose",)),
    ("operators.construct_s", "s", "s", ("operators.OperatorMatrix",)),
    ("operators.construct_calls", "count", "calls", ("operators.OperatorMatrix",)),
    ("operators.dense_bytes", "B", "count", ("operators.OperatorMatrix",)),
    ("operators.max_entry_s", "s", "s", ("operators.max_entry",)),
    ("operators.restricted_s", "s", "s", ("operators.restricted",)),
    ("algebra.build_s", "s", "s",
     ("algebra.build_su2_rep", "algebra.build_su11_rep", "algebra.build_h1_rep")),
    ("algebra.build_calls", "count", "calls",
     ("algebra.build_su2_rep", "algebra.build_su11_rep", "algebra.build_h1_rep")),
    ("algebra.check_relations_s", "s", "s", ("algebra.check_algebra_relations",)),
    ("contraction.deviation_s", "s", "s", ("contraction.contraction_deviation",)),
    ("contraction.deviation_calls", "count", "calls", ("contraction.contraction_deviation",)),
    ("contraction.identities_s", "s", "s",
     ("contraction.deformed_commutator_check", "contraction.hamiltonian_identity_check")),
    ("contraction.hp_s", "s", "s", ("contraction.holstein_primakoff",)),
    ("contraction.study_self_s", "s", "self_s", ("contraction.run_contraction_study",)),
    ("evolution.build_operator_s", "s", "s", ("evolution.build_evolution_operator",)),
    ("evolution.build_operator_calls", "count", "calls",
     ("evolution.build_evolution_operator",)),
    ("evolution.spectrum_self_s", "s", "self_s", ("evolution.spectrum_via_dft",)),
    ("evolution.phase_self_s", "s", "self_s", ("evolution.geometric_phase_check",)),
    ("orbits.touch_points_s", "s", "s", ("orbits.touch_points",)),
    ("orbits.simulate_torus_s", "s", "s", ("orbits.simulate_torus",)),
    ("orbits.density_metrics_s", "s", "s", ("orbits.density_metrics",)),
    ("orbits.continuous_position_s", "s", "s", ("orbits.continuous_position",)),
    ("orbits.steps", "count", "count", ("orbits.touch_points", "orbits.simulate_torus")),
    ("cli.write_output_s", "s", "s", ("cli.write_output",)),
    ("cli.rows_written", "count", "count", ("cli.write_output",)),
    ("cli.parse_s", "s", "s", ("cli.build_parser", "cli.parse_args")),
    ("cli.command_self_s", "s", "self_s",
     ("cli.cmd_rep", "cli.cmd_contract", "cli.cmd_evolve", "cli.cmd_orbit",
      "cli.cmd_schwinger")),
)


def pass_metrics(spans: list[Span], schwinger_ops: int) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced pass."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    metrics = {}
    for metric, _, kind, names in SPAN_METRICS:
        chosen = [s for name in names for s in by_name.get(name, ())]
        if kind == "s":
            metrics[metric] = sum(s.end - s.start for s in chosen)
        elif kind == "self_s":
            metrics[metric] = sum(own[s.id] for s in chosen)
        elif kind == "calls":
            metrics[metric] = len(chosen)
        else:
            metrics[metric] = sum(s.count for s in chosen)
    calls = metrics["twomode.sector_decompose_calls"]
    metrics["twomode.sector_decompose_per_op"] = calls / schwinger_ops if schwinger_ops else 0.0
    # reps built by a contraction study over the commutators its deviations compute
    studies = {s.id for s in by_name.get("contraction.run_contraction_study", ())}
    reps = sum(1 for s in spans if s.name.startswith("algebra.build_") and s.parent in studies)
    commutators = metrics["contraction.deviation_calls"]
    metrics["contraction.commutator_reuse_ratio"] = reps / commutators if commutators else 0.0
    return metrics


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
