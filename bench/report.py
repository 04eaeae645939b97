#!/usr/bin/env python3
"""Print every benchmark metric for every workload, with its unit.

    python3 bench/report.py [--seed N]

Runs bench/run.py once untraced and once traced on every workload of
BENCHMARK.json, for its run_seconds, one run after the other, and prints
the end-to-end metrics, the failed fraction, the per-layer metrics and the
tracing overhead (traced minus untraced median op time).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = SPEC["run_seconds"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        info, plain = run_once(workload, args.seed, seconds, 0)
        traced_info, traced = run_once(workload, args.seed, seconds, 1)
        print(f"== {workload} (seed {args.seed}, {seconds} s per run)")
        for line in info + traced_info:
            if not line.startswith("record "):
                print(f"   {line}")
        print(f"   correct {plain['correct']}, failed_fraction "
              f"{plain['failed']}/{plain['attempted']} = {plain['failed'] / plain['attempted']:.4g}")
        for result in (plain, traced):
            for name, metric in result["metrics"].items():
                print(f"   {name:42s} {metric['value']:14.6g} {metric['unit']}")
        overhead = (traced["metrics"]["traced.op_s_p50"]["value"]
                    - plain["metrics"]["op_s_p50"]["value"])
        print(f"   {'tracing overhead (op_s_p50)':42s} {overhead:14.6g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
