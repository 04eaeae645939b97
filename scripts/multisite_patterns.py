#!/usr/bin/env python3
"""Seed-width experiment: single-site versus multi-site localized states.

Well above the band edge the fundamental breather is barely one site wide,
so a broad seed overlaps the basin of the two-site bound state instead.
Both are genuine fixed points; this script converges each, prints their
central profiles, and cross-checks both against the time integrator.
"""

import numpy as np

from breather_forge import (GridSpec, PotentialSpec, SolverConfig, WeightSpec,
                            decay_rate_fit, hybrid_solve, integrate_trajectory,
                            max_amplitude_profile)

QUARTIC = PotentialSpec(quartic=1.0)
OMEGA = 2.8


def solve_with_width(width):
    cfg = SolverConfig(grid=GridSpec(96, 16, 130, OMEGA),
                       weight=WeightSpec(0.0), potential=QUARTIC,
                       parity="odd", seed=(0.8, width), max_iter=400)
    return hybrid_solve(cfg)


def main():
    for label, width in (("narrow seed (fundamental)", 1.5),
                         ("broad seed (two-site state)", 1.0)):
        res = solve_with_width(width)
        profile = max_amplitude_profile(res.field)
        half = res.field.grid.n_sites // 2
        window = np.round(profile[half - 4: half + 5], 4)
        decay = decay_rate_fit(res)[0] if res.status == "converged" else float("nan")
        print(f"{label}: status={res.status} x0_norm={res.x0_norm:.5f} "
              f"decay={decay:.3f}")
        print(f"  |x| near centre: {window}")
        if res.status == "converged":
            rep = integrate_trajectory(res.field, QUARTIC, 5, 512)
            print(f"  return error over 5 periods: {rep.period_return_error:.2e}, "
                  f"energy drift: {rep.energy_drift:.2e}")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
