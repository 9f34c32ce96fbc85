#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload table1_scan --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` makes the traced run and
reports the per-layer metrics.  Diagnostics go to stdout first; the
last line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Files of the program under test the benchmark builds on.
PROGRAM = ("src/repro/__init__.py", "benchmarks/table1_harness.py",
           "benchmarks/bench_sharded.py")

WORKLOADS = ("table1_scan", "wire_lookup", "wire_ingest", "shard_scatter")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "table1_scan":
        from perfbench.table1_scan import run
    elif name == "wire_lookup":
        from perfbench.wire import run_lookup as run
    elif name == "wire_ingest":
        from perfbench.wire import run_ingest as run
    else:
        from perfbench.shard_scatter import run
    return run(ROOT, seed, seconds, trace)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in PROGRAM
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: program files missing under {ROOT}: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    # Replace the script directory: the package is imported as perfbench.
    sys.path[:1] = [ROOT, os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "benchmarks")]
    from perfbench.measure import (calibration_ms, environment_record, log,
                                   pin_environment)
    from perfbench.report import load_spec, print_run, result_line

    cleared = pin_environment()  # before anything imports repro
    spec = load_spec(ROOT)
    log("environment", json.dumps(environment_record(args.seed, cleared)))
    log(f"calibration_ms {calibration_ms():.3f} (diagnostic, not gated)")
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    log(f"calibration_ms {calibration_ms():.3f} (diagnostic, not gated)")
    line = result_line(spec, outcome, bool(args.trace))
    log(f"{args.workload} seed {args.seed} "
        f"{'traced' if args.trace else 'untraced'}:")
    print_run(line, outcome)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
