"""The benchmark's tracer still finds every name it patches.

bench/tracing.py replaces module attributes of the program with timing
wrappers.  A refactor that renames or drops one of them breaks the benchmark;
these tests name the missing attribute in well under a second.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from breather_forge import (GridSpec, PotentialSpec, SolverConfig, WeightSpec,
                            cli_io, operators, solver, spectral_field)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402


def _target_names():
    return [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing._TARGETS]


def _small_config() -> SolverConfig:
    return SolverConfig(grid=GridSpec(32, 8, 66, 2.6), weight=WeightSpec(0.0),
                        potential=PotentialSpec(quartic=1.0), seed=(0.8, 1.0))


def test_every_traced_name_exists():
    missing = [name for name, (module, attr, _, _) in zip(_target_names(), tracing._TARGETS)
               if not hasattr(module, attr)]
    assert not missing, f"bench/tracing.py patches names the program lacks: {missing}"


@pytest.fixture
def installed():
    originals = [getattr(module, attr) for module, attr, _, _ in tracing._TARGETS]
    build, gmres = operators.Multiplier.__dict__["build"], solver.gmres
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        yield tracer, originals, build, gmres
    finally:
        restore()
    unrestored = [name for name, (module, attr, _, _), original
                  in zip(_target_names(), tracing._TARGETS, originals)
                  if getattr(module, attr) is not original]
    assert not unrestored, f"restore() left wrappers on {unrestored}"
    assert operators.Multiplier.__dict__["build"] is build
    assert solver.gmres is gmres


def test_install_wraps_every_target(installed):
    _, originals, build, gmres = installed
    unwrapped = [name for name, (module, attr, _, _), original
                 in zip(_target_names(), tracing._TARGETS, originals)
                 if getattr(module, attr) is original]
    assert not unwrapped, f"install() left {unwrapped} unwrapped"
    assert operators.Multiplier.__dict__["build"] is not build
    assert solver.gmres is not gmres
    # the projector is looked up when it is asked for, so the wrapper counts
    assert spectral_field.parity_projector("odd") is spectral_field.project_odd
    assert spectral_field.parity_projector("even") is spectral_field.project_even


def test_a_traced_solve_passes_through_each_solver_layer(installed, tmp_path):
    tracer = installed[0]
    tracer.begin_op()
    result = solver.hybrid_solve(_small_config())
    # a bare solve fits no decay: the record writer's fit for decay.csv does
    cli_io.emit_outputs(result, str(tmp_path))
    tracer.end_op()
    assert result.status == solver.STATUS_CONVERGED
    seen = set(tracer.names)
    expected = {"solver.solve", "operators.apply_S", "spectral_field.synthesize",
                "spectral_field.analyze", "spectral_field.project", "spectral_field.norm",
                "lattice_model.eval_potential", "validation.strong_residual",
                "validation.fit_decay_profile", "solver.gmres", "solver.matvec"}
    assert not expected - seen, f"no spans for {sorted(expected - seen)}"


def test_every_S_evaluation_opens_an_analyze_span(installed):
    # the fused symbol takes the harmonics of W'(u) through the traced analyze
    tracer = installed[0]
    tracer.begin_op()
    solver.hybrid_solve(_small_config())
    tracer.end_op()
    names = [tracer.names[i] for i in tracer.name]
    analyzed = {tracer.parent[i] for i, name in enumerate(names)
                if name == "spectral_field.analyze"}
    s_spans = [i for i, name in enumerate(names) if name == "operators.apply_S"]
    assert s_spans
    assert [i for i in s_spans if i not in analyzed] == []


def test_solve_dispatch_opens_a_solve_span(installed):
    tracer = installed[0]
    tracer.begin_op()
    solver.solve(_small_config())
    tracer.end_op()
    spans = Counter(tracer.names[i] for i in tracer.name)
    assert spans["solver.solve"] == 1


def test_sweep_solves_and_emits_once_per_point(monkeypatch, tmp_path):
    # the sweep workload ends one timing step at each of these calls
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "solve", counting("solve", solver.solve))
    monkeypatch.setattr(cli_io, "emit_outputs", counting("emit", cli_io.emit_outputs))
    code = cli_io.run_command(["sweep", "--omega-from", "2.6", "--omega-to", "2.3",
                               "--steps", "3", "--n-sites", "32", "--harmonics", "8",
                               "--quartic", "1", "--seed-amplitude", "0.8",
                               "--out", str(tmp_path)])
    assert code == 0
    assert calls == {"solve": 3, "emit": 3}
