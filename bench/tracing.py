"""Span tracing from outside the program.

`install` replaces the public names each breather_forge module imports from
the module below it with thin wrappers that open and close a span.  Spans
stay in memory in flat arrays (name, start, end, parent, op, attr) and are
written out once, at the end of a run.  A layer's self time is its span
time minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import statistics
import time
from array import array

import numpy as np
from scipy.sparse.linalg import LinearOperator

from breather_forge import cli_io, operators, solver, spectral_field, validation


class Tracer:
    """In-memory span store; spans are recorded only while `active`."""

    def __init__(self):
        self.installed = False
        self.active = False
        self.op_index = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.grids: dict = {}
        self.op = array("i")
        self.parent = array("i")
        self.name = array("i")
        self.attr = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.op)
        self.op.append(self.op_index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.attr.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int, attr: int = 0):
        self.end[sid] = time.perf_counter()
        self.attr[sid] = attr
        self._stack.pop()

    def begin_op(self):
        """Start the next op; its spans are recorded only if wrappers are installed."""
        self.op_index += 1
        self.active = self.installed
        if self.installed:
            self._root = self.open("op")

    def end_op(self):
        if self.active:
            self.close(self._root)
        self.active = False

    def grid_id(self, grid) -> int:
        return self.grids.setdefault(grid, len(self.grids))

    def write_csv(self, path: str, header_lines: list[str]):
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", newline="") as handle:
            for line in header_lines:
                handle.write(f"# {line}\n")
            writer = csv.writer(handle)
            writer.writerow(["op", "span", "parent", "name", "start_s", "end_s", "attr"])
            for i in range(len(self.op)):
                writer.writerow([self.op[i], i, self.parent[i], self.names[self.name[i]],
                                 repr(self.start[i] - t0), repr(self.end[i] - t0),
                                 self.attr[i]])


def _wrap(tracer: Tracer, fn, name: str, attr=None):
    """Span around `fn`; `attr(args, result)` stores one integer on the span."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        sid = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(sid, attr(args, result) if attr is not None and result is not None else 0)

    return traced


def _elements(args, result) -> int:
    return int(np.size(args[1]))


def _solve_attr(args, result) -> int:
    # iterations in the high bits, converged in the lowest bit
    return 2 * result.iterations + (result.status == solver.STATUS_CONVERGED)


# (module, attribute, span name, attr): each module's view of the layer below
_TARGETS = [
    (operators, "eval_potential", "lattice_model.eval_potential", _elements),
    (validation, "eval_potential", "lattice_model.eval_potential", _elements),
    (spectral_field, "synthesize", "spectral_field.synthesize", None),
    (operators, "synthesize", "spectral_field.synthesize", None),
    (validation, "synthesize", "spectral_field.synthesize", None),
    (cli_io, "synthesize", "spectral_field.synthesize", None),
    (operators, "analyze", "spectral_field.analyze", None),
    (spectral_field, "project_even", "spectral_field.project", None),
    (spectral_field, "project_odd", "spectral_field.project", None),
    (operators, "x0_norm", "spectral_field.norm", None),
    (solver, "x0_norm", "spectral_field.norm", None),
    (solver, "x2_norm", "spectral_field.norm", None),
    (validation, "x0_norm", "spectral_field.norm", None),
    (cli_io, "x0_norm", "spectral_field.norm", None),
    (cli_io, "x2_norm", "spectral_field.norm", None),
    (solver, "apply_S", "operators.apply_S", None),
    (operators, "apply_N", "operators.apply_N", None),
    (validation, "apply_N", "operators.apply_N", None),
    (operators, "apply_M_inverse", "operators.apply_M_inverse", None),
    (validation, "apply_M", "operators.apply_M", None),
    (cli_io, "probe_operator_norm", "operators.probe_operator_norm", None),
    (solver, "hybrid_solve", "solver.solve", _solve_attr),
    (solver, "newton_solve", "solver.solve", _solve_attr),
    (solver, "picard_solve", "solver.solve", _solve_attr),
    (cli_io, "continuation_sweep", "solver.continuation_sweep", None),
    (validation, "strong_residual", "validation.strong_residual", None),
    (validation, "fit_decay_profile", "validation.fit_decay_profile", None),
    (validation, "integrate_trajectory", "validation.integrate_trajectory",
     lambda args, result: args[2] * args[3]),
    (cli_io, "emit_outputs", "cli_io.emit_outputs", None),
    (cli_io, "load_manifest", "cli_io.read", None),
    (cli_io, "field_from_spectrum_csv", "cli_io.read", None),
    (cli_io, "run_command", "cli_io.run_command", None),
]


def install(tracer: Tracer):
    """Wrap every traced name; returns a function that restores the originals."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in _TARGETS]
    for module, attr, name, attr_fn in _TARGETS:
        setattr(module, attr, _wrap(tracer, getattr(module, attr), name, attr_fn))

    multiplier = operators.Multiplier
    saved_build = multiplier.__dict__["build"]
    multiplier.build = staticmethod(_wrap(
        tracer, multiplier.build, "operators.Multiplier.build",
        lambda args, result: tracer.grid_id(args[0])))

    saved_gmres = solver.gmres
    traced_gmres = _wrap(tracer, saved_gmres, "solver.gmres")

    def gmres(A, b, *args, **kwargs):
        if tracer.active:
            A = LinearOperator(A.shape, dtype=A.dtype,
                               matvec=_wrap(tracer, A.matvec, "solver.matvec"))
        return traced_gmres(A, b, *args, **kwargs)

    solver.gmres = gmres
    tracer.installed = True

    def restore():
        for module, attr, original in saved:
            setattr(module, attr, original)
        multiplier.build = saved_build
        solver.gmres = saved_gmres
        tracer.installed = False

    return restore


# Per-layer metrics: name -> unit.  Counts and times are per measured op.
PER_LAYER_UNITS = {
    "lattice_model.eval_potential.calls": "count/op",
    "lattice_model.eval_potential.elements": "count/op",
    "lattice_model.eval_potential.self_s": "s/op",
    "spectral_field.synthesize.calls": "count/op",
    "spectral_field.synthesize.self_s": "s/op",
    "spectral_field.analyze.calls": "count/op",
    "spectral_field.analyze.self_s": "s/op",
    "spectral_field.project.calls": "count/op",
    "spectral_field.project.self_s": "s/op",
    "spectral_field.norm.calls": "count/op",
    "spectral_field.norm.self_s": "s/op",
    "operators.apply_S.calls": "count/op",
    "operators.apply_S.self_s": "s/op",
    "operators.apply_N.self_s": "s/op",
    "operators.apply_M_inverse.self_s": "s/op",
    "operators.multiplier_builds": "count/op",
    "operators.multiplier_reuse": "ratio",
    "solver.solve.calls": "count/op",
    "solver.solve.converged_ratio": "ratio",
    "solver.iterations": "count/op",
    "solver.s_evals_in_gmres": "count/op",
    "solver.s_evals_outside_gmres": "count/op",
    "solver.gmres.calls": "count/op",
    "solver.gmres.matvecs": "count/op",
    "solver.gmres.self_s": "s/op",
    "solver.self_s": "s/op",
    "validation.integrate.steps": "count/op",
    "validation.force_evals_per_step": "ratio",
    "validation.integrate_trajectory.self_s": "s/op",
    "validation.strong_residual.self_s": "s/op",
    "validation.fit_decay_profile.self_s": "s/op",
    "cli_io.emit_outputs.self_s": "s/op",
    "cli_io.read.self_s": "s/op",
    "cli_io.run_command.self_s": "s/op",
    "cli_io.bytes_written": "bytes/op",
    "cli_io.files_written": "count/op",
    "traced.op_s_p50": "s",
}

# Self time of these spans is the solver's own work: Picard/Anderson and
# Newton vector algebra, the finite-difference matvec and the sweep loop.
_SOLVER_OWN = ("solver.solve", "solver.matvec", "solver.continuation_sweep")


def span_totals(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, summed attr, self time; plus the derived counts."""
    n = len(tracer.op)
    names = tracer.names
    child = [0.0] * n
    under_gmres = bytearray(n)
    under_integrate = bytearray(n)
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += tracer.end[i] - tracer.start[i]
            pname = names[tracer.name[p]]
            under_gmres[i] = under_gmres[p] or pname == "solver.gmres"
            under_integrate[i] = under_integrate[p] or pname == "validation.integrate_trajectory"
    totals: dict[str, dict] = {}
    s_in_gmres = force_evals = 0
    builds_per_op: dict[int, set] = {}
    for i in range(n):
        name = names[tracer.name[i]]
        entry = totals.setdefault(name, {"calls": 0, "attr": 0, "self_s": 0.0, "converged": 0})
        entry["calls"] += 1
        entry["attr"] += tracer.attr[i]
        entry["self_s"] += tracer.end[i] - tracer.start[i] - child[i]
        if name == "solver.solve":
            entry["converged"] += tracer.attr[i] & 1
        elif name == "operators.apply_S" and under_gmres[i]:
            s_in_gmres += 1
        elif name == "lattice_model.eval_potential" and under_integrate[i]:
            force_evals += 1
        elif name == "operators.Multiplier.build":
            builds_per_op.setdefault(tracer.op[i], set()).add(tracer.attr[i])
    totals["_derived"] = {
        "s_in_gmres": s_in_gmres,
        "force_evals": force_evals,
        "distinct_grids": sum(len(g) for g in builds_per_op.values()),
    }
    return totals


def layer_metrics(tracer: Tracer, n_ops: int, op_times: list[float],
                  files_written: int, bytes_written: int) -> dict[str, float]:
    """Every per-layer metric, each divided by the number of measured ops."""
    totals = span_totals(tracer)
    empty = {"calls": 0, "attr": 0, "self_s": 0.0, "converged": 0}
    get = lambda name: totals.get(name, empty)
    derived = totals["_derived"]
    per_op = lambda value: value / n_ops
    apply_s = get("operators.apply_S")["calls"]
    solves = get("solver.solve")
    builds = get("operators.Multiplier.build")["calls"]
    steps = get("validation.integrate_trajectory")["attr"]
    metrics = {
        "lattice_model.eval_potential.calls": get("lattice_model.eval_potential")["calls"],
        "lattice_model.eval_potential.elements": get("lattice_model.eval_potential")["attr"],
        "lattice_model.eval_potential.self_s": get("lattice_model.eval_potential")["self_s"],
        "operators.apply_S.calls": apply_s,
        "operators.multiplier_builds": builds,
        "solver.solve.calls": solves["calls"],
        "solver.iterations": (solves["attr"] - solves["converged"]) // 2,
        "solver.s_evals_in_gmres": derived["s_in_gmres"],
        "solver.s_evals_outside_gmres": apply_s - derived["s_in_gmres"],
        "solver.gmres.calls": get("solver.gmres")["calls"],
        "solver.gmres.matvecs": get("solver.matvec")["calls"],
        "solver.self_s": sum(get(name)["self_s"] for name in _SOLVER_OWN),
        "validation.integrate.steps": steps,
        "cli_io.bytes_written": bytes_written,
        "cli_io.files_written": files_written,
    }
    for layer in ("synthesize", "analyze", "project", "norm"):
        metrics[f"spectral_field.{layer}.calls"] = get(f"spectral_field.{layer}")["calls"]
        metrics[f"spectral_field.{layer}.self_s"] = get(f"spectral_field.{layer}")["self_s"]
    for name in ("operators.apply_S", "operators.apply_N", "operators.apply_M_inverse",
                 "solver.gmres", "validation.integrate_trajectory",
                 "validation.strong_residual", "validation.fit_decay_profile",
                 "cli_io.emit_outputs", "cli_io.read", "cli_io.run_command"):
        metrics[f"{name}.self_s"] = get(name)["self_s"]
    metrics = {name: per_op(value) for name, value in metrics.items()}
    metrics["operators.multiplier_reuse"] = derived["distinct_grids"] / builds if builds else 0.0
    metrics["solver.solve.converged_ratio"] = (solves["converged"] / solves["calls"]
                                              if solves["calls"] else 0.0)
    metrics["validation.force_evals_per_step"] = derived["force_evals"] / steps if steps else 0.0
    metrics["traced.op_s_p50"] = statistics.median(op_times)
    return {name: metrics[name] for name in PER_LAYER_UNITS}
