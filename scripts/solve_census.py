#!/usr/bin/env python3
"""Run the 166-solve census and print one line per solve, then work totals.

    PYTHONPATH=src python3 scripts/solve_census.py > census.txt

The set:
- 50 flagship seeds (Omega = 2.2, N = 64, M = 16, N_t = 130, quartic 1) from
  random.Random(12), amplitude U(0.65, 0.95) then width U(0.9, 1.1), each
  solved odd and even;
- the 54-case grid of 'auto' seeds: quartic 0.5, 1, 2 x nine frequencies from
  2.02 to 3.6 x both parities, on lattices sized by the tail rate kappa;
- the 12-point continuation sweep 2.6 -> 2.05 on N = 96 from seed (0.87, 1.05).

Each line holds the case, status, iterations and repr(x0_norm).  Then one
line of iteration totals per group (flagship odd, flagship even, grid,
sweep) and the totals, which count converged solves, S evaluations and GMRES
calls and matvecs, by wrapping the names the solver module looks up.  The
totals also give the most matvecs of any one GMRES call and the number of
calls that reached the column cap: ``solver.gmres`` runs a single cycle, so
a call at the cap is a linear solve that may have missed its tolerance.  A
last line counts the sweep's warm attempts, the capped Newton solves that
``solver.solve`` runs from a start field, and the fallbacks, attempts that
did not converge and so were followed by the hybrid.  The output is
deterministic, so two builds are compared with diff.
"""

import math
import random
import sys
from types import SimpleNamespace

from breather_forge import (GridSpec, PotentialSpec, SolverConfig, WeightSpec,
                            continuation_sweep, hybrid_solve, solve, solver)

COUNTS = {"s_evals": 0, "gmres_calls": 0, "matvecs": 0, "most_matvecs": 0, "at_cap": 0,
          "warm": 0, "fallbacks": 0}


def _counting(fn, key):
    def wrapper(*args, **kwargs):
        COUNTS[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _counting_gmres(gmres):
    def wrapper(A, b, *, rtol, restart):
        COUNTS["gmres_calls"] += 1
        before = COUNTS["matvecs"]
        op = SimpleNamespace(shape=A.shape, dtype=A.dtype,
                             matvec=_counting(A.matvec, "matvecs"))
        x = gmres(op, b, rtol=rtol, restart=restart)
        matvecs = COUNTS["matvecs"] - before
        COUNTS["most_matvecs"] = max(COUNTS["most_matvecs"], matvecs)
        COUNTS["at_cap"] += matvecs >= min(restart, b.size)
        return x
    return wrapper


def _counting_warm(newton_solve):
    def wrapper(config, initial=None):
        COUNTS["warm"] += 1
        result = newton_solve(config, initial)
        COUNTS["fallbacks"] += result.status != solver.STATUS_CONVERGED
        return result
    return wrapper


def _config(grid: GridSpec, quartic: float, parity: str, seed) -> SolverConfig:
    return SolverConfig(grid=grid, weight=WeightSpec.for_parity(0.0, parity),
                        potential=PotentialSpec(quartic=quartic), parity=parity, seed=seed)


def _line(label: str, result) -> str:
    return f"{label} {result.status} {result.iterations} {result.x0_norm!r}"


def census():
    """Yield one line per solve of the set."""
    rng = random.Random(12)
    for index in range(50):
        seed = (rng.uniform(0.65, 0.95), rng.uniform(0.9, 1.1))
        for parity in ("odd", "even"):
            result = hybrid_solve(_config(GridSpec(64, 16, 130, 2.2), 1.0, parity, seed))
            yield _line(f"flagship {index:02d} {parity}", result)
    for quartic in (0.5, 1.0, 2.0):
        for omega in (2.02, 2.05, 2.1, 2.2, 2.35, 2.5, 2.8, 3.2, 3.6):
            kappa = math.acosh((omega**2 - 2.0) / 2.0)
            n_sites = max(64, 2 * math.ceil(math.log(1e10) / kappa + 4))
            for parity in ("odd", "even"):
                grid = GridSpec.with_dealiasing(n_sites, 16, omega)
                result = solve(_config(grid, quartic, parity, (None, 1.0)))
                yield _line(f"grid {quartic} {omega} N={n_sites} {parity}", result)
    config = _config(GridSpec.with_dealiasing(96, 16, 2.6), 1.0, "odd", (0.87, 1.05))
    for result in continuation_sweep(config, 2.6, 2.05, 12):
        yield _line(f"sweep {result.config.grid.omega!r}", result)


def _group(line: str) -> str:
    words = line.split()
    return f"flagship {words[2]}" if words[0] == "flagship" else words[0]


def main() -> int:
    solver.apply_S = _counting(solver.apply_S, "s_evals")
    solver.gmres = _counting_gmres(solver.gmres)
    solver.newton_solve = _counting_warm(solver.newton_solve)
    solves = converged = 0
    group_iterations: dict[str, int] = {}
    for line in census():
        print(line)
        solves += 1
        converged += line.split()[-3] == "converged"
        group = _group(line)
        group_iterations[group] = group_iterations.get(group, 0) + int(line.split()[-2])
    for group, iterations in group_iterations.items():
        print(f"iterations {group}: {iterations}")
    print(f"total: {solves} solves, {converged} converged, "
          f"{sum(group_iterations.values())} iterations, {COUNTS['s_evals']} S "
          f"evaluations, {COUNTS['gmres_calls']} GMRES calls, {COUNTS['matvecs']} matvecs, "
          f"at most {COUNTS['most_matvecs']} in one call, {COUNTS['at_cap']} calls at the "
          "column cap")
    print(f"warm: {COUNTS['warm']} attempts, {COUNTS['fallbacks']} fallbacks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
