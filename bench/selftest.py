#!/usr/bin/env python3
"""Self-test of the benchmark: two traced runs with one seed give identical counts.

    python3 bench/selftest.py [--seed N]

Runs a fixed number of ops of every workload twice under tracing and
compares every per-layer count (everything except times).  It asserts no
fixed values, so a change that moves the counts does not break it.  It
then prints the counts of one odd flagship solve from seed (0.8, 1.0) and of
one trajectory integration, the baseline quoted in bench/README.md.
"""

import argparse
import math
import shutil
import sys

import run  # sets the thread pins before numpy is imported

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
from breather_forge import solver  # noqa: E402
from workloads import WORKLOADS, Flagship, OpClock  # noqa: E402

OPS = {"flagship": 2, "sweep": 1, "roundtrip": 1}


def _counts(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items()
            if not name.endswith("self_s") and name != "traced.op_s_p50"}


def traced_counts(workload, seed: int, ops: int) -> dict:
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run.measure(workload, seed, math.inf, tracer, workdir, max_ops=ops)
    finally:
        restore()
        shutil.rmtree(workdir, ignore_errors=True)
    return _counts(tracing.layer_metrics(tracer, len(result["op_times"]), result["op_times"],
                                         result["files"], result["bytes"]))


def baseline(op) -> dict:
    """Counts of one traced call of `op(workdir)`."""
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with OpClock(tracer):
            op(str(workdir))
    finally:
        restore()
        shutil.rmtree(workdir, ignore_errors=True)
    return _counts(tracing.layer_metrics(tracer, 1, [0.0], 0, 0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    status = 0
    for name, ops in OPS.items():
        first = traced_counts(WORKLOADS[name], args.seed, ops)
        second = traced_counts(WORKLOADS[name], args.seed, ops)
        differing = sorted(k for k in first if first[k] != second[k])
        print(f"{name}: {len(first)} counts over {ops} ops, "
              f"{'identical' if not differing else 'DIFFER: ' + ', '.join(differing)}")
        status |= bool(differing)

    seed = {"amplitude": 0.8, "width": 1.0}
    flagship = baseline(lambda _: solver.hybrid_solve(Flagship.config(seed, "odd")))
    calls = flagship["lattice_model.eval_potential.calls"]
    print("odd flagship at seed (0.8, 1.0): "
          f"{flagship['solver.iterations']:.0f} iterations; "
          f"{flagship['operators.apply_S.calls']:.0f} S evaluations, "
          f"{flagship['solver.s_evals_outside_gmres']:.0f} outside GMRES and "
          f"{flagship['solver.s_evals_in_gmres']:.0f} inside "
          f"({flagship['solver.gmres.matvecs']:.0f} matvecs, "
          f"{flagship['solver.gmres.calls']:.0f} GMRES calls); "
          f"{calls:.0f} eval_potential calls of "
          f"{flagship['lattice_model.eval_potential.elements'] / calls:.0f} elements")
    roundtrip = baseline(lambda workdir: WORKLOADS["roundtrip"].run(
        dict(seed, probe_seed=0), workdir, OpClock()))
    steps = roundtrip["validation.integrate.steps"] / 2
    print(f"integrator: {roundtrip['validation.force_evals_per_step'] * steps:.0f} "
          f"force evaluations for {steps:.0f} steps")
    return status


if __name__ == "__main__":
    sys.exit(main())
