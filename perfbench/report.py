"""Run every workload untraced and traced at one seed and print every metric.

    python3 perfbench/report.py --seed 1

Workloads and run length are those of BENCHMARK.json.

Each run is a separate `run.py` process; its human-readable lines (metrics
with units and sample counts, the failure breakdown, the span table and the
tracing overhead) are echoed, then a table of all metrics by workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    benchmark = run.declared()
    workloads = [w["name"] for w in benchmark["workloads"]]

    table: dict[str, dict[str, str]] = {}
    status = 0
    for workload in workloads:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(benchmark["run_seconds"]),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            print(f"== {workload} trace={trace} exit={proc.returncode}")
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                row = table.setdefault(f"{name} [{metric['unit']}]", {})
                row[workload] = f"{metric['value']:.4g}"

    print(f"\n{'metric [unit]':48s}" + "".join(f"{w:>12s}" for w in workloads))
    for name, row in table.items():
        print(f"{name:48s}" + "".join(f"{row.get(w, '-'):>12s}" for w in workloads))
    return status


if __name__ == "__main__":
    sys.exit(main())
