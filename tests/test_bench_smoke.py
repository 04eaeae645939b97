"""The benchmark harness still runs: its self-test repeats every workload
under tracing and must find identical counts."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_runs_and_counts_repeat():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sum("identical" in line for line in proc.stdout.splitlines()) == 3, proc.stdout
