#!/usr/bin/env python3
"""Tabulate the existence-bound landscape over frequency and decay rate.

Writes results/bounds.csv with r_max, r_crit and the non-resonance flags on
a (omega, lambda) grid for the unit quartic chain, plus the measured norm
gap of one converged solve per frequency (how far the computed breather
sits above r_max).
"""

import csv
import os
import sys

import numpy as np

from breather_forge import (GridSpec, PotentialSpec, SolverConfig, WeightSpec,
                            bounds_report, hybrid_solve)

QUARTIC = PotentialSpec(quartic=1.0)


def main():
    out = sys.argv[1] if len(sys.argv) > 1 else "results"
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "bounds.csv")
    solves = {}
    for omega in np.linspace(2.1, 3.6, 7):
        cfg = SolverConfig(grid=GridSpec(64, 16, 130, float(omega)),
                           weight=WeightSpec(0.0), potential=QUARTIC,
                           parity="odd", seed=(None, 1.5),
                           max_iter=400)
        res = hybrid_solve(cfg)
        solves[float(omega)] = res.x0_norm if res.status == "converged" else float("nan")
        print(f"omega = {omega:.3f}: {res.status}, x0_norm = {res.x0_norm:.6f}")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["omega", "lambda", "r_max", "r_crit",
                         "nonres0_ok", "nonres_ok", "solved_x0_norm"])
        for omega, x0 in solves.items():
            for lam in np.linspace(0.0, 1.5, 7):
                rep = bounds_report(omega, WeightSpec(float(lam)), QUARTIC, x0)
                writer.writerow([omega, float(lam), rep.r_max, rep.r_crit,
                                 rep.nonres0_ok, rep.nonres_ok, x0])
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
