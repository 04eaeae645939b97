"""Every script under scripts/ still imports what it uses from the package, and
runs to completion.

Each script runs ``main()`` only under ``__main__``, so loading it under
another name executes just its imports and top-level constants; the second
test then calls ``main()`` with the output directory as its one argument.
The census runs in a process of its own.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))
# solve_census.py rebinds solver.apply_S, solver.gmres and solver.newton_solve
# for the rest of the process to count calls, so it runs in a subprocess
RUNNABLE = [path for path in SCRIPTS if path.name != "solve_census.py"]


def test_scripts_are_found():
    assert SCRIPTS
    assert len(RUNNABLE) == len(SCRIPTS) - 1


@pytest.mark.parametrize("path", SCRIPTS, ids=[path.name for path in SCRIPTS])
def test_script_imports_resolve(path):
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert callable(namespace["main"])


@pytest.mark.parametrize("path", RUNNABLE, ids=[path.name for path in RUNNABLE])
def test_script_main_runs(path, tmp_path, monkeypatch, capsys):
    main = runpy.run_path(str(path), run_name="smoke")["main"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [path.name, str(tmp_path / "out")])
    assert main() == 0
    assert capsys.readouterr().out


def test_census_converges_on_every_solve():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    census = next(path for path in SCRIPTS if path.name == "solve_census.py")
    proc = subprocess.run([sys.executable, str(census)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    totals = [line for line in proc.stdout.splitlines() if line.startswith("total: ")]
    assert len(totals) == 1 and totals[0].startswith("total: 166 solves, 166 converged"), totals


def test_artifact_set_logs_every_run_with_its_directory_replaced(tmp_path, monkeypatch,
                                                                capsys):
    path = next(path for path in SCRIPTS if path.name == "artifact_set.py")
    namespace = runpy.run_path(str(path), run_name="smoke")
    out = tmp_path / "set"
    monkeypatch.setattr(sys, "argv", [path.name, str(out)])
    assert namespace["main"]() == 0
    names = [name for name, _ in namespace["runs"](str(out))]
    assert sorted(p.name for p in out.glob("*.log")) == sorted(f"{name}.log" for name in names)
    for name in names:
        log = (out / f"{name}.log").read_text()
        assert str(tmp_path) not in log
        if not name.startswith("verify_"):  # verify exits 1 on a record a check fails
            assert log.startswith("exit code 0\n"), log
    assert "manifest = OUT/solve_odd/manifest.json" in (out / "solve_odd.log").read_text()
    assert (out / "integrate" / "trajectory.json").exists()
