#!/usr/bin/env python3
"""breather-forge benchmark: one workload, one seed, closed loop, one client.

    python3 bench/run.py --workload flagship|sweep|roundtrip --seed N \
        --seconds S --trace 0|1

Runs ops back to back until their summed time reaches --seconds, checks
every result outside the timed region, and prints one JSON object as the
last line: the end-to-end metrics with --trace 0, the per-layer metrics from
an in-memory span trace with --trace 1.  Run from a checkout of the
repository; the program is imported from its src/ directory, and all files
the run writes go under .bench_work/ in the checkout.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy is imported here or in a child.
THREAD_PINS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15
CACHE_NOTE = ("every working set fits in cache: the largest array is 96x130 doubles "
              "(~100 KB), so no bandwidth roofline is claimed")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "step_s_tail": "s",
    "ops_per_s": "1/s",
    "verified_fraction": "fraction",
    "peak_rss_mb": "MB",
}


def setup_sample() -> float:
    """Wall time of one fresh interpreter importing the program.

    This is what every CLI invocation pays before any work: interpreter
    start-up plus the numpy/scipy import.  The benchmark's own import of
    the program has already warmed the file and bytecode caches.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import breather_forge.cli_io"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True)
    return time.perf_counter() - t0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def run_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu": _cpu_model(), "caches": _cache_sizes(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "thread_pins": THREAD_PINS,
        "loop": "closed loop, one client, single process", "cache_note": CACHE_NOTE,
    }


def _dir_usage(path: Path) -> tuple[int, int]:
    files = nbytes = 0
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            files += 1
            nbytes += os.path.getsize(os.path.join(dirpath, name))
    return files, nbytes


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists; the maximum is
    returned as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(workload, seed: int, seconds: float, tracer, workdir: Path,
            max_ops: int | None = None, setup_repeats: int = 0) -> dict:
    """Closed loop: run ops until their summed time reaches `seconds`.

    The `setup_repeats` set-up samples are spread evenly over the ops' time,
    one whenever the summed op time passes the next multiple of
    seconds / setup_repeats, so that they see the host as the ops see it.
    """
    from workloads import OpClock, Verdict
    rng = random.Random(seed)
    clock = OpClock(tracer)
    total = Verdict()
    op_times, step_times, setup_times = [], [], []
    files = nbytes = 0
    while sum(op_times) < seconds and (max_ops is None or len(op_times) < max_ops):
        while (len(setup_times) < setup_repeats
               and sum(op_times) >= len(setup_times) * seconds / setup_repeats):
            setup_times.append(setup_sample())
        index = len(op_times)
        op_dir = workdir / f"op-{index}"
        op_dir.mkdir()
        outcome = workload.run(workload.draw(rng), str(op_dir), clock)
        op_times.append(outcome.op_s)
        step_times.extend(outcome.step_s)
        op_files, op_bytes = _dir_usage(op_dir)
        files += op_files
        nbytes += op_bytes
        verdict = workload.check(outcome)
        total.attempted += verdict.attempted
        total.failed += verdict.failed
        total.correct &= verdict.correct
        total.notes.extend(f"op {index}: {note}" for note in verdict.notes)
        shutil.rmtree(op_dir)
    while len(setup_times) < setup_repeats:
        setup_times.append(setup_sample())
    return {"op_times": op_times, "step_times": step_times, "setup_times": setup_times,
            "verdict": total, "files": files, "bytes": nbytes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "breather_forge" / "__init__.py").is_file():
        print(f"bench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace))
    print("record " + json.dumps(record))

    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer) if args.trace else None
    try:
        result = measure(workload, args.seed, args.seconds, tracer, workdir,
                         setup_repeats=0 if args.trace else SETUP_REPEATS)
    finally:
        if restore is not None:
            restore()
        shutil.rmtree(workdir, ignore_errors=True)

    verdict = result["verdict"]
    op_times, step_times = result["op_times"], result["step_times"]
    n_ops = len(op_times)
    pct, tail_value = tail(step_times)
    print(f"ops {n_ops} in {sum(op_times):.3f} s; steps {len(step_times)}; "
          f"step_s_tail is p{pct:.1f} of {len(step_times)} steps")
    print(f"failed_fraction {verdict.failed}/{verdict.attempted}")
    for note in verdict.notes[:20]:
        print(f"failed {note}")

    if args.trace:
        metrics = tracing.layer_metrics(tracer, n_ops, op_times, result["files"],
                                        result["bytes"])
        units = tracing.PER_LAYER_UNITS
        trace_path = WORK / f"trace-{args.workload}.csv"
        tracer.write_csv(str(trace_path), ["record " + json.dumps(record)])
        print(f"trace {len(tracer.op)} spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(result["setup_times"]),
            "op_s_p50": statistics.median(op_times),
            "step_s_tail": tail_value,
            "ops_per_s": n_ops / sum(op_times),
            "verified_fraction": (verdict.attempted - verdict.failed) / verdict.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
