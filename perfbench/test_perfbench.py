"""Self-tests of the benchmark: metric coverage, checker sensitivity, failure accounting.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import harness
import workloads

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    result = harness.run_workload(workload, seed=3, seconds=0.01, trace=bool(trace), tiny=True,
                                  setup_samples=1, log=lambda *_: None)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def _write(op: workloads.Op, path: Path) -> str:
    package = harness.load_package()
    assert package.cli.main([*op.argv, "--out", str(path)]) in (0, 3)
    return path.read_text(encoding="utf-8")


def _csv_edit(text: str, row: int, column: str, edit) -> str:
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[header].split(",")
    cells = lines[header + 1 + row].split(",")
    cells[columns.index(column)] = repr(edit(float(cells[columns.index(column)])))
    lines[header + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _json_edit(text: str, row: int, column: str, edit) -> str:
    payload = json.loads(text)
    payload["rows"][row][column] = edit(payload["rows"][row][column])
    return json.dumps(payload)


MUTATIONS = [
    ("dense", "evolve-16-omega", 3, "energy", lambda v: v * (1 + 1e-9)),
    ("dense", "evolve-8-energy", 7, "energy", lambda v: v + 1e-6),
    ("orbits", "two-circle-rational", 4, "theta", lambda v: v + 1e-7),
    ("orbits", "thooft", 10, "theta", lambda v: (v + 2 * math.pi / 300) % (2 * math.pi)),
    ("orbits", "torus-seeded", 100, "phi2", lambda v: v + 1e-9),
    ("orbits", "two-circle-irrational", 250, "theta", lambda v: v - 1e-9),
    ("dense", "schwinger-all-8", 8, "residual", lambda v: 1e-9),
    ("dense", "schwinger-dump-8", 2, "re", lambda v: v + 1e-12),
    ("dense", "rep-su2", 5, "re", lambda v: v * (1 + 1e-12)),
    ("dense", "contract-su2", 6, "deviation", lambda v: v + 1e-12),
    ("dense", "contract-hp", 3, "re", lambda v: v + 1e-13),
]


@pytest.mark.parametrize("workload,key,row,column,edit", MUTATIONS,
                         ids=[f"{m[1]}-{m[3]}" for m in MUTATIONS])
def test_checker_accepts_the_real_file_and_rejects_a_corrupted_one(
        tmp_path, workload, key, row, column, edit):
    op = next(op for op in workloads.build(workload, seed=5, tiny=True) if op.key == key)
    path = tmp_path / f"out.{op.fmt}"
    text = _write(op, path)
    assert op.check(checks.read_output(path, op.fmt)) == []

    path.write_text((_json_edit if op.fmt == "json" else _csv_edit)(text, row, column, edit),
                    encoding="utf-8")
    assert op.check(checks.read_output(path, op.fmt)) != []


class _FakeCli:
    """Writes a different file on every call and exits with a fixed code."""

    def __init__(self, code: int) -> None:
        self.code, self.calls = code, 0

    def main(self, argv) -> int:
        self.calls += 1
        Path(argv[-1]).write_text(f"# command=fake\nvalue\n{self.calls}\n", encoding="utf-8")
        return self.code


def _fake_runner(tmp_path, code):
    op = workloads.Op("fake", ("fake",), lambda out: [])
    return harness.Runner(SimpleNamespace(cli=_FakeCli(code)), tmp_path), op


def test_bytes_that_change_between_passes_fail_the_op(tmp_path):
    runner, op = _fake_runner(tmp_path, 0)
    first, second = runner.run_pass([op]).ops[0], runner.run_pass([op]).ops[0]
    assert not first.failed
    assert second.failed and second.problems == ["bytes differ from the op's first write"]


def test_a_nonzero_exit_fails_the_op_without_rejecting_its_output(tmp_path):
    runner, op = _fake_runner(tmp_path, 3)
    run = runner.run_pass([op]).ops[0]
    assert run.failed and run.problems == []


def test_without_package_source_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(harness.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
