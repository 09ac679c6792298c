"""Benchmark of the `ladderlab` CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` there and nowhere else.  Human-readable lines (environment, every
metric with its unit and sample count, the failure breakdown, and with
`--trace 1` the span table and tracing overhead) come first; the last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer ones.  Exit code 2 means the benchmark
could not run (for instance, no package source); no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread is the single-threaded baseline, within the cores of any
# machine; it must be set before numpy is first imported.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared() -> dict:
    """The benchmark's declaration: workloads, run length and metrics."""
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared()["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="how long the timed passes run")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 < args.seconds < 3600:
        parser.error("--seconds must be positive and below an hour")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in BLAS_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    import harness  # imports numpy, so only after the thread pin

    try:
        result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
