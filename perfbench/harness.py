"""Runs a workload's ops through `ladderlab.cli.main` in-process and derives its metrics.

A pass runs every op of the workload once, in a seeded order.  Each op's
`cli.main` call is one `op_s` sample and their sum is one `study_s` sample.
After each pass the written files are judged: the first write of an op is
parsed and checked against its closed form, and every later write must
match the first byte for byte.  An op invocation fails if it exits
non-zero, raises, writes no file, or its file is rejected.

The first pass only fills caches and lazy imports and is not timed.
Untraced runs then time passes for the requested seconds with a cold start
in a fresh interpreter after each, and measure the `tracemalloc` peak of
each op group's largest op in a pass of its own (tracing allocations slows
an op several-fold).

The speed of a shared host drifts by up to 2x over seconds to minutes, alike
for every kind of work, so raw wall times of the same code differ more
between runs than any useful bound.  Every timed call therefore sits between
two runs of a fixed pure-Python reference loop, and its end-to-end time is
reported scaled to reference speed: wall seconds x `REF_SECONDS` / (mean of
the two reference times).  Raw wall times are printed beside them.

Traced runs alternate untraced and traced passes, so the tracing overhead
is the difference of their medians at reference speed.  Span times are raw
wall seconds.
"""

from __future__ import annotations

import gc
import hashlib
import io
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
SETUP_SAMPLES = 5
# The reference loop's wall time on the recording machine at its fast speed;
# it only keeps scaled times close to wall seconds on that machine.
REF_SECONDS = 0.015

END_TO_END = (
    ("study_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_p90", "s"),
    ("peak_mem_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
)

PER_LAYER = (
    *((name, unit) for name, unit, _, _ in spans.SPAN_METRICS),
    ("twomode.sector_decompose_per_op", "count/op"),
    ("contraction.commutator_reuse_ratio", "ratio"),
    ("cli.output_bytes", "B"),
    ("cli.exit3", "count"),
    ("cli.exit2", "count"),
    ("check.mismatch", "count"),
    ("trace.study_s", "s"),
    ("trace.overhead_s", "s"),
)


def reference() -> float:
    """Wall seconds of a fixed pure-Python loop that measures the host's current speed."""
    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(100_000):
        total += (i * 0.5) % 7.0
        table[i & 1023] = total
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` at reference speed, from the reference times either side of it."""
    return seconds * REF_SECONDS * 2 / (before + after)


class BenchError(Exception):
    """The benchmark cannot run here (no package source, bad arguments)."""


def load_package():
    """Import `ladderlab` from `ROOT/src`, refusing any other installed copy."""
    package_dir = ROOT / "src" / "ladderlab"
    if not (package_dir / "cli.py").is_file():
        raise BenchError(f"no ladderlab source at {package_dir}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import ladderlab
    import ladderlab.cli  # noqa: F401  (binds ladderlab.cli)

    if Path(ladderlab.__file__).resolve().parent != package_dir.resolve():
        raise BenchError(f"imported ladderlab from {ladderlab.__file__}, not {package_dir}")
    return ladderlab


@dataclass
class OpRun:
    key: str
    seconds: float
    code: int | None  # None: cli.main raised
    problems: list[str] = field(default_factory=list)
    nbytes: int = 0
    scaled: float = 0.0  # seconds at reference speed

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


@dataclass
class PassRun:
    ops: list[OpRun]

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.ops)

    @property
    def scaled(self) -> float:
        return sum(r.scaled for r in self.ops)


class Runner:
    """Runs and judges ops, remembering each op's first verdict and file digest."""

    def __init__(self, package, workdir: Path, tracer: spans.Tracer | None = None) -> None:
        self.package = package
        self.workdir = workdir
        self.tracer = tracer
        self.verdicts: dict[str, list[str]] = {}
        self.digests: dict[str, str] = {}
        self.runs: list[OpRun] = []
        workdir.mkdir(parents=True, exist_ok=True)

    def _path(self, op: workloads.Op) -> Path:
        return self.workdir / f"{op.key}.{op.fmt}"

    def _call(self, op: workloads.Op) -> OpRun:
        argv = [*op.argv, "--out", str(self._path(op))]
        if self.tracer is not None:
            self.tracer.op = op.key
        captured = io.StringIO()
        with redirect_stdout(captured), redirect_stderr(captured):
            start = time.perf_counter()
            try:
                code = self.package.cli.main(argv)
            except Exception:  # an op that raises is a failed op, not a failed run
                code = None
                traceback.print_exc()
            seconds = time.perf_counter() - start
        if code is None:
            sys.stderr.write(f"{op.key} raised:\n{captured.getvalue()}")
        return OpRun(op.key, seconds, code)

    def _judge(self, op: workloads.Op, run: OpRun) -> None:
        path = self._path(op)
        if not path.is_file():
            run.problems = ["no output file written"]
            return
        data = path.read_bytes()
        run.nbytes = len(data)
        digest = hashlib.sha256(data).hexdigest()
        if op.key not in self.digests:
            self.digests[op.key] = digest
            try:
                self.verdicts[op.key] = op.check(checks.read_output(path, op.fmt))
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                self.verdicts[op.key] = [f"unreadable output: {exc!r}"]
        if digest != self.digests[op.key]:
            run.problems = ["bytes differ from the op's first write"]
        else:
            run.problems = list(self.verdicts[op.key])
        if run.problems:
            sys.stderr.write(f"{op.key}: {'; '.join(run.problems)}\n")

    def run_pass(self, order: list[workloads.Op]) -> PassRun:
        for op in order:
            self._path(op).unlink(missing_ok=True)
        gc.collect()
        refs = [reference()]
        runs = []
        for op in order:
            runs.append(self._call(op))
            refs.append(reference())
        for op, run, before, after in zip(order, runs, refs, refs[1:]):
            run.scaled = scale(run.seconds, before, after)
            self._judge(op, run)
        self.runs.extend(runs)
        return PassRun(runs)

    def peak_memory(self, op: workloads.Op) -> int:
        """tracemalloc peak, in bytes, of one run of `op`."""
        self._path(op).unlink(missing_ok=True)
        gc.collect()
        tracemalloc.start()
        try:
            run = self._call(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self._judge(op, run)
        self.runs.append(run)
        return peak


def cold_start() -> tuple[float, float]:
    """Wall seconds, and seconds at reference speed, of `import ladderlab.cli`
    plus `build_parser()` in a fresh interpreter."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import ladderlab.cli as cli; cli.build_parser(); print(cli.__file__)"
    before = reference()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=False)
    seconds = time.perf_counter() - start
    after = reference()
    if proc.returncode != 0 or not proc.stdout.strip().startswith(src):
        raise BenchError(f"cold start failed: {proc.stderr.strip() or proc.stdout.strip()}")
    return seconds, scale(seconds, before, after)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _timed_passes(runner: Runner, ops, rng: random.Random, seconds: float, tracer=None,
                  between=None):
    """Untraced passes, or untraced/traced pairs when `tracer` is given.

    A pair runs one op order twice; which half goes first alternates, so
    the warmer second run favours neither side of the tracing overhead.
    `between` runs after each untraced pass, outside its timing.
    """
    plain, traced = [], []
    minimum = MIN_PASSES if tracer is None else MIN_PASSES - 1
    start = time.perf_counter()
    while len(plain) < minimum or time.perf_counter() - start < seconds:
        order = rng.sample(ops, len(ops))
        traced_first = tracer is not None and len(plain) % 2 == 1
        if not traced_first:
            plain.append(runner.run_pass(order))
        if tracer is not None:
            tracer.pass_no += 1
            tracer.install(runner.package)
            try:
                traced.append(runner.run_pass(order))
            finally:
                tracer.uninstall()
        if traced_first:
            plain.append(runner.run_pass(order))
        if between is not None:
            between()
    return plain, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
                 setup_samples: int = SETUP_SAMPLES, log=print) -> dict:
    """Run one workload and return the result object the benchmark prints last."""
    package = load_package()
    ops = workloads.build(name, seed, tiny)
    rng = random.Random(f"order:{name}:{seed}")
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    env = environment()
    log(" ".join(f"{k}={v}" for k, v in env.items()))
    log(f"workload={name} seed={seed} ops/pass={len(ops)} trace={int(trace)}")
    tracer = spans.Tracer() if trace else None
    runner = Runner(package, workdir, tracer)
    try:
        runner.run_pass(ops)
        if trace:
            plain, traced = _timed_passes(runner, ops, rng, seconds, tracer)
            metrics = _layer_metrics(name, seed, ops, plain, traced, tracer, log)
        else:
            # cold starts spread over the run see the same host state as the passes
            setup: list[tuple[float, float]] = []
            plain, _ = _timed_passes(runner, ops, rng, seconds,
                                     between=lambda: setup.append(cold_start()))
            peaks = [runner.peak_memory(op) for op in ops if op.largest]
            while len(setup) < setup_samples:
                setup.append(cold_start())
            metrics = _end_to_end(plain, peaks, setup, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = runner.runs
    attempted, failed = len(runs), sum(r.failed for r in runs)
    raised, rejected = sum(r.code is None for r in runs), sum(bool(r.problems) for r in runs)
    log(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} op invocations failed: "
        f"exit3={sum(r.code == 3 for r in runs)} exit2={sum(r.code == 2 for r in runs)} "
        f"raised={raised} rejected={rejected})")
    return {
        "correct": raised == 0 and rejected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _end_to_end(plain: list[PassRun], peaks: list[int], setup: list[tuple[float, float]],
                log) -> dict:
    runs = [r for p in plain for r in p.ops]
    attempted, failed = len(runs), sum(r.failed for r in runs)
    wall_setup = statistics.median(s for s, _ in setup)
    log(f"wall times: study {statistics.median(p.seconds for p in plain):.6g} s, "
        f"op p50 {statistics.median(r.seconds for r in runs):.6g} s, "
        f"op p90 {_p90([r.seconds for r in runs]):.6g} s, setup {wall_setup:.6g} s; "
        f"the metrics below are these scaled to reference speed")
    values = {
        "study_s": (statistics.median(p.scaled for p in plain), f"median of {len(plain)} passes"),
        "op_s_p50": (statistics.median(r.scaled for r in runs), f"{len(runs)} op invocations"),
        "op_s_p90": (_p90([r.scaled for r in runs]), f"{len(runs)} op invocations"),
        "peak_mem_mb": (sum(peaks) / 1e6, "sum of the tracemalloc peaks of each op group's "
                        f"largest op: {' + '.join(f'{p / 1e6:.2f}' for p in peaks)}"),
        "ok_ratio": ((attempted - failed) / attempted,
                     f"{attempted - failed} of {attempted} timed op invocations"),
        "setup_s": (statistics.median(s for _, s in setup), f"median of {len(setup)} cold starts"),
    }
    metrics = {}
    for name, unit in END_TO_END:
        value, note = values[name]
        log(f"{name} {value:.6g} {unit} ({note})")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _layer_metrics(name, seed, ops, plain, traced, tracer, log) -> dict:
    schwinger_ops = sum(op.argv[0] == "schwinger" for op in ops)
    per_pass = []
    for number, run in enumerate(traced, start=1):
        values = spans.pass_metrics([s for s in tracer.spans if s.pass_no == number],
                                    schwinger_ops)
        values["cli.output_bytes"] = sum(r.nbytes for r in run.ops)
        values["cli.exit3"] = sum(r.code == 3 for r in run.ops)
        values["cli.exit2"] = sum(r.code == 2 for r in run.ops)
        values["check.mismatch"] = sum(bool(r.problems) for r in run.ops)
        per_pass.append(values)
    values = spans.median_metrics(per_pass)
    plain_s = statistics.median(p.scaled for p in plain)
    values["trace.study_s"] = statistics.median(p.scaled for p in traced)
    values["trace.overhead_s"] = values["trace.study_s"] - plain_s

    log(f"span self times per traced pass ({len(traced)} traced, {len(plain)} untraced passes):")
    log(f"  {'span':45s} {'calls':>7s} {'incl_s':>10s} {'self_s':>10s}")
    for span_name, (calls, incl, own) in spans.summary(tracer.spans).items():
        n = len(traced)
        log(f"  {span_name:45s} {calls / n:7.0f} {incl / n:10.4f} {own / n:10.4f}")
    metrics = {}
    for metric, unit in PER_LAYER:
        metrics[metric] = {"value": values[metric], "unit": unit}
        log(f"{metric} {values[metric]:.6g} {unit} (median of {len(traced)} traced passes)")
    log(f"tracing overhead {values['trace.overhead_s']:.6g} s per pass "
        f"(traced study_s {values['trace.study_s']:.6g} s - untraced {plain_s:.6g} s)")
    spans_path = ROOT / ".bench_work" / f"spans-{name}-seed{seed}.json"
    tracer.write(spans_path)
    log(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics
