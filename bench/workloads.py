"""The benchmark workloads: inputs drawn from the workload seed, one op, its check.

Every op runs the program in-process through public names, so an op's time
is the program's work and not interpreter start-up.  Checks use public
functions only and run outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import time
from dataclasses import dataclass, field

from breather_forge import (GridSpec, PotentialSpec, SolverConfig, WeightSpec,
                            cli_io, solver, validation, x2_norm)

OMEGA = 2.2
# x0_norm of the Omega = 2.2, quartic = 1 breather; every seed in the boxes
# below converges to it (N = 64 and N = 96 agree to 1e-10).
REFERENCE_X0 = {"odd": 0.8608563553, "even": 0.8609909344}
REFERENCE_RTOL = 1e-8
# verify's limits, and criterion 8's trajectory bounds
FLOOR_LIMIT = 1e-10
TRAJECTORY_LIMITS = {"period_return_error": 1e-4, "energy_drift": 1e-8,
                     "momentum_drift": 1e-12}
VERIFY_CHECKS = 9


@dataclass
class Outcome:
    op_s: float
    step_s: list[float]
    data: object


@dataclass
class Verdict:
    """attempted/failed count checked results; correct is False on a wrong answer.

    A result that is right but sits on a lattice too short for it (boundary
    floor above 1e-10) counts as failed without being wrong.
    """

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list[str] = field(default_factory=list)

    def add(self, right: bool, floor_ok: bool, what: str):
        self.attempted += 1
        if not (right and floor_ok):
            self.failed += 1
            self.notes.append(what)
        self.correct &= right


class OpClock:
    """Times one op and marks it as the tracer's current op."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.start = self.stop = 0.0

    @property
    def elapsed(self) -> float:
        return self.stop - self.start

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.begin_op()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.stop = time.perf_counter()
        if self.tracer is not None:
            self.tracer.end_op()
        return False


def _matches_reference(x0: float | None, parity: str) -> bool:
    ref = REFERENCE_X0[parity]
    return x0 is not None and abs(x0 - ref) <= REFERENCE_RTOL * ref


def _solves_equation(fld, config: SolverConfig) -> bool:
    strong = validation.strong_residual(fld, config.potential, config.weight)
    return strong <= 10.0 * config.tol_residual * x2_norm(fld, config.weight)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_io.run_command(argv)
    return code, out.getvalue()


def _marking(fn, marks: list[float]):
    """Wrap `fn` to append the time each call returns to `marks`."""
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            marks.append(time.perf_counter())
    return wrapper


class Flagship:
    name = "flagship"

    def draw(self, rng: random.Random) -> dict:
        return {"amplitude": rng.uniform(0.65, 0.95), "width": rng.uniform(0.9, 1.1)}

    @staticmethod
    def config(inp: dict, parity: str) -> SolverConfig:
        return SolverConfig(grid=GridSpec(64, 16, 130, OMEGA),
                            weight=WeightSpec.for_parity(0.0, parity),
                            potential=PotentialSpec(quartic=1.0), parity=parity,
                            seed=(inp["amplitude"], inp["width"]))

    def run(self, inp: dict, op_dir: str, clock: OpClock) -> Outcome:
        # One op solves both parities, and is also the step: even solves take
        # ~40% less time than odd ones, so single solves would make a
        # two-peaked distribution whose median falls between the peaks.
        configs = [self.config(inp, parity) for parity in ("odd", "even")]
        with clock:
            results = [solver.hybrid_solve(config) for config in configs]
        return Outcome(clock.elapsed, [clock.elapsed], list(zip(configs, results)))

    def check(self, outcome: Outcome) -> Verdict:
        verdict = Verdict()
        for config, result in outcome.data:
            right = (result.status == solver.STATUS_CONVERGED
                     and _matches_reference(result.x0_norm, config.parity)
                     and _solves_equation(result.field, config))
            verdict.add(right, validation.boundary_floor(result.field) <= FLOOR_LIMIT,
                        f"{config.parity} seed {config.seed}")
        return verdict


SWEEP_POINTS = 12


class Sweep:
    name = "sweep"

    def draw(self, rng: random.Random) -> dict:
        return {"amplitude": rng.uniform(0.8, 0.95), "width": rng.uniform(1.0, 1.1)}

    def run(self, inp: dict, op_dir: str, clock: OpClock) -> Outcome:
        argv = ["sweep", "--omega-from", "2.6", "--omega-to", "2.05",
                "--steps", str(SWEEP_POINTS), "--n-sites", "96", "--harmonics", "16",
                "--quartic", "1", "--parity", "odd",
                "--seed-amplitude", repr(inp["amplitude"]),
                "--seed-width", repr(inp["width"]), "--out", op_dir]
        # The sweep solves every point, then writes every point's artifacts,
        # then sweep.csv.  Each solve (a bisection retry is its own solve) and
        # each emit_outputs ends a step; the last step runs to the op's end,
        # so the steps partition the op, writes included.  continuation_sweep
        # and the sweep command look these names up in their modules.
        marks: list[float] = []
        originals = solver.solve, cli_io.emit_outputs
        solver.solve, cli_io.emit_outputs = (_marking(fn, marks) for fn in originals)
        try:
            with clock:
                code, _ = _cli(argv)
        finally:
            solver.solve, cli_io.emit_outputs = originals
        bounds = [clock.start, *marks[:-1], clock.stop]
        steps = [end - start for start, end in zip(bounds, bounds[1:])]
        return Outcome(clock.elapsed, steps, (code, op_dir))

    def check(self, outcome: Outcome) -> Verdict:
        code, op_dir = outcome.data
        verdict = Verdict()
        if code != 0:
            verdict.correct = False
            verdict.attempted, verdict.failed = SWEEP_POINTS, SWEEP_POINTS
            verdict.notes.append(f"sweep exit code {code}")
            return verdict
        with open(os.path.join(op_dir, "sweep.csv"), newline="") as handle:
            rows = list(csv.DictReader(handle))
        branch_points = 0
        for idx, row in enumerate(rows):
            point_dir = os.path.join(op_dir, f"point_{idx:03d}")
            manifest = cli_io.load_manifest(os.path.join(point_dir, "manifest.json"))
            config = cli_io.parse_config(manifest["config_echo"])
            fld = cli_io.field_from_spectrum_csv(os.path.join(point_dir, "spectrum.csv"),
                                                 config.grid)
            right = (manifest["result"]["status"] == solver.STATUS_CONVERGED
                     and _solves_equation(fld, config))
            if abs(config.grid.omega - OMEGA) < 1e-9:
                branch_points += 1
                right &= _matches_reference(manifest["result"]["x0_norm"], "odd")
            verdict.add(right, validation.boundary_floor(fld) <= FLOOR_LIMIT,
                        f"omega {float(row['omega']):.4f}")
        if len(rows) != SWEEP_POINTS or branch_points != 1:
            verdict.correct = False
            verdict.notes.append(f"{len(rows)} points, {branch_points} at omega {OMEGA}")
        return verdict


class Roundtrip:
    name = "roundtrip"

    def draw(self, rng: random.Random) -> dict:
        return {"amplitude": rng.uniform(0.65, 0.95), "width": rng.uniform(0.9, 1.1),
                "probe_seed": rng.randrange(2**31)}

    def run(self, inp: dict, op_dir: str, clock: OpClock) -> Outcome:
        manifest = os.path.join(op_dir, "manifest.json")
        commands = [
            ["solve", "--omega", "2.2", "--quartic", "1", "--parity", "odd",
             "--n-sites", "64", "--harmonics", "16",
             "--seed-amplitude", repr(inp["amplitude"]), "--seed-width", repr(inp["width"]),
             "--integrate-periods", "10", "--steps-per-period", "512", "--dump-nu",
             "--out", op_dir],
            ["verify", "--manifest", manifest],
            ["integrate", "--manifest", manifest, "--periods", "10",
             "--steps-per-period", "512"],
        ]
        os.environ["BREATHER_FORGE_SEED"] = str(inp["probe_seed"])
        steps, runs = [], []
        with clock:
            for argv in commands:
                t0 = time.perf_counter()
                runs.append(_cli(argv))
                steps.append(time.perf_counter() - t0)
        return Outcome(clock.elapsed, steps, (runs, op_dir))

    def check(self, outcome: Outcome) -> Verdict:
        (solve_run, verify_run, integrate_run), op_dir = outcome.data
        verdict = Verdict()
        if solve_run[0] != 0 or integrate_run[0] != 0:
            verdict.add(False, False, f"exit codes {solve_run[0]}, {integrate_run[0]}")
            return verdict
        # verify prints "CHECK <name>: PASS|FAIL (<detail>)" per check
        checks = dict(line[len("CHECK "):].split(": ", 1)
                      for line in verify_run[1].splitlines() if line.startswith("CHECK "))
        failing = [name for name, text in checks.items() if not text.startswith("PASS")]
        manifest = cli_io.load_manifest(os.path.join(op_dir, "manifest.json"))
        with open(os.path.join(op_dir, "trajectory.json")) as handle:
            trajectories = [manifest["trajectory"], json.load(handle)]
        within = all(t is not None and all(t[key] <= limit
                                           for key, limit in TRAJECTORY_LIMITS.items())
                     for t in trajectories)
        right = (len(checks) == VERIFY_CHECKS and within
                 and set(failing) <= {"boundary_floor"}
                 and verify_run[0] == (1 if failing else 0)
                 and _matches_reference(manifest["result"]["x0_norm"], "odd"))
        verdict.add(right, not failing, f"failing checks {failing}, trajectory ok {within}")
        return verdict


WORKLOADS = {w.name: w for w in (Flagship(), Sweep(), Roundtrip())}
