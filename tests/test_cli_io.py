import argparse
import csv
import filecmp
import importlib
import io
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import breather_forge
from breather_forge import (Multiplier, cli_io, decay_rate_fit, operators, solver,
                            spectral_field, synthesize, validation, x0_norm)
from breather_forge.cli_io import (CONFIG_KEYS, ConfigError, ConfigWarning,
                                   _TRACE_HEADER, _build_parser, _config_from_args,
                                   _csv_text, field_from_spectrum_csv, load_manifest,
                                   parse_config, run_command,
                                   serialize_config)

from conftest import flagship_config

MINIMAL = "omega = 2.2\n"

FULL = """\
# flagship configuration
omega = 2.2
grid.n_sites = 64
grid.n_harmonics = 16
potential.quartic = 1.0
solver.parity = odd
solver.seed_amplitude = 0.8
solver.seed_width = 1.0
"""


def test_parse_minimal_document_applies_defaults():
    config = parse_config(MINIMAL)
    assert config.grid.omega == 2.2
    assert config.grid.n_sites == 64
    assert config.grid.n_harmonics == 16
    assert config.seed == (None, 1.0)


def test_parse_empty_document_requires_omega():
    with pytest.raises(ConfigError, match="omega"):
        parse_config("")


def test_parse_warns_inside_phonon_band():
    with pytest.warns(ConfigWarning, match="band edge"):
        parse_config("omega = 1.0\n")


def test_parse_rejects_unknown_keys_with_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("omega = 2.2\n\nsolver.turbo = yes\n")


def test_parse_rejects_duplicates_and_ranges():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("omega = 2.2\nomega = 2.3\n")
    with pytest.raises(ConfigError, match="even"):
        parse_config("omega = 2.2\ngrid.n_sites = 63\n")
    with pytest.raises(ConfigError, match="parity"):
        parse_config("omega = 2.2\nsolver.parity = sideways\n")
    with pytest.raises(ConfigError, match="positive"):
        parse_config("omega = -1.0\n")


def test_parse_names_each_bad_choice_by_line():
    with pytest.raises(ConfigError) as info:
        parse_config("omega = 2.2\nsolver.parity = sideways\nsolver.max_iter = many\n")
    assert str(info.value) == (
        "line 2: solver.parity must be one of even, odd, got 'sideways'; "
        "line 3: solver.max_iter must be an integer, got 'many'")


@pytest.mark.parametrize("value", ["newton", "picard", "fast"])
def test_parse_rejects_the_removed_strategy_key_by_line(value):
    with pytest.raises(ConfigError) as info:
        parse_config(f"omega = 2.2\nsolver.strategy = {value}\n")
    assert str(info.value) == (
        "line 2: solver.strategy was removed, as every solve runs Picard then Newton; "
        f"got {value!r}")


def test_parse_ignores_the_strategy_line_earlier_manifests_echo():
    config = parse_config(FULL)
    assert parse_config(FULL + "solver.strategy = hybrid\n") == config
    assert "strategy" not in serialize_config(config)


def test_strategy_flag_is_a_usage_error(tmp_path):
    assert run_command([*_FLAGSHIP_SOLVE, "--strategy", "hybrid",
                        "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


# each removed key with the value every manifest written before its removal echoes
_RETIRED_LINES = {"solver.strategy": "hybrid", "solver.damping": "0.5",
                  "solver.accel_depth": "5", "solver.tol_zero": "1e-08"}


@pytest.mark.parametrize("key", _RETIRED_LINES)
def test_parse_ignores_each_retired_line_earlier_manifests_echo(key):
    assert parse_config(f"{FULL}{key} = {_RETIRED_LINES[key]}\n") == parse_config(FULL)
    assert key not in serialize_config(parse_config(FULL))


@pytest.mark.parametrize("key, value", [("solver.damping", "0.6"),
                                        ("solver.damping", "0.50"),
                                        ("solver.accel_depth", "3"),
                                        ("solver.tol_zero", "1e-8")])
def test_parse_rejects_another_value_of_a_retired_key_by_line(key, value):
    with pytest.raises(ConfigError) as info:
        parse_config(f"omega = 2.2\n{key} = {value}\n")
    message = str(info.value)
    assert message.startswith(f"line 2: {key} was removed, as ")
    assert message.endswith(f"; got {value!r}") and message.count("line ") == 1


@pytest.mark.parametrize("key", _RETIRED_LINES)
def test_parse_rejects_a_repeated_retired_line(key):
    line = f"{key} = {_RETIRED_LINES[key]}\n"
    with pytest.raises(ConfigError) as info:
        parse_config("omega = 2.2\n" + line + line)
    assert str(info.value) == f"line 3: duplicate key {key!r}"


@pytest.mark.parametrize("argv", [["--damping", "0.5"], ["--accel-depth", "5"]], ids=" ".join)
def test_retired_flags_are_usage_errors(argv, tmp_path):
    assert run_command([*_FLAGSHIP_SOLVE, *argv, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_readme_config_table_has_one_row_per_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Config format\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| [^|]+ \| (`--[a-z0-9-]+`|file only) \|",
                      section, re.M)
    assert rows == [(row.key, f"`{row.flag}`" if row.flag else "file only")
                    for row in CONFIG_KEYS]
    assert re.findall(r"\ball (\d+) in this order", section) == [str(len(CONFIG_KEYS))]


def test_config_round_trip_fixpoint():
    config = parse_config(FULL)
    text = serialize_config(config)
    assert parse_config(text) == config
    assert serialize_config(parse_config(text)) == text


def test_every_key_serialises_to_the_canonical_echo():
    # shuffled order and loose spellings; both 'auto' values; the cubic-only
    # potential still gets the quartic sample count 2*(3+1)*12+2 = 98
    text = """\
solver.seed_width = 1.2
solver.seed_amplitude = auto
solver.max_iter = 400
solver.tol_residual = 1E-10
solver.parity = even
potential.quartic = 0
potential.cubic = 0.25
weight.lambda = 1e-1
grid.omega = 2.30
grid.n_time_samples = auto
grid.n_harmonics = 12
grid.n_sites = 48
"""
    assert serialize_config(parse_config(text)) == """\
grid.n_sites = 48
grid.n_harmonics = 12
grid.n_time_samples = 98
grid.omega = 2.3
weight.lambda = 0.1
potential.cubic = 0.25
potential.quartic = 0.0
solver.parity = even
solver.tol_residual = 1e-10
solver.max_iter = 400
solver.seed_amplitude = auto
solver.seed_width = 1.2
"""


FLAG_VALUES = {
    "grid.n_sites": "40", "grid.n_harmonics": "10", "grid.n_time_samples": "90",
    "grid.omega": "2.35", "weight.lambda": "0.05", "potential.cubic": "0.3",
    "potential.quartic": "0.7", "solver.parity": "even", "solver.tol_residual": "1e-9",
    "solver.max_iter": "300", "solver.seed_amplitude": "0.9", "solver.seed_width": "1.1",
}


@pytest.mark.parametrize("row", [row for row in CONFIG_KEYS if row.flag],
                         ids=lambda row: row.key)
def test_flag_and_config_line_give_the_same_config(row, tmp_path):
    value = FLAG_VALUES[row.key]
    base = tmp_path / "base.conf"
    base.write_text(MINIMAL)
    args = _build_parser().parse_args(["solve", "--config", str(base), row.flag, value])
    from_flag = _config_from_args(args)
    line = f"{row.key} = {value}\n"
    from_file = parse_config(line if row.key == "grid.omega" else MINIMAL + line)
    assert from_flag == from_file
    assert from_file != parse_config(MINIMAL)


@pytest.mark.parametrize("argv", [
    ["--tol-zero", "1e-9"],
    ["--time-samples", "auto"],
    ["--seed-amplitude", "auto"],
], ids=["tol_zero", "time_samples_auto", "seed_amplitude_auto"])
def test_file_only_spellings_are_usage_errors(argv, tmp_path):
    assert run_command(["solve", "--omega", "2.2", *argv,
                        "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_bounds_command_prints_exact_values(capsys):
    rc = run_command(["bounds", "--omega2", "12", "--lambda", "0", "--beta", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert repr((4.0 / 3.0) ** 0.5) in out
    assert repr((4.0 / 3.0) ** (1.0 / 3.0)) in out
    assert "nonres_ok = True" in out


def test_bounds_command_mixed_potential_exit_code(capsys):
    rc = run_command(["bounds", "--omega2", "12", "--cubic", "1", "--quartic", "1"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "no global growth pair" in err
    assert "cap" not in err


_FLAGSHIP_SOLVE = ["solve", "--omega", "2.2", "--quartic", "1"]


@pytest.mark.parametrize("argv", [
    [*_FLAGSHIP_SOLVE, "--lambda", "nan"],
    [*_FLAGSHIP_SOLVE, "--seed-amplitude", "nan"],
    [*_FLAGSHIP_SOLVE, "--seed-amplitude", "inf"],
    [*_FLAGSHIP_SOLVE, "--seed-width", "inf"],
    [*_FLAGSHIP_SOLVE, "--seed-width", "0"],
    [*_FLAGSHIP_SOLVE, "--seed-amplitude", "-1"],
    [*_FLAGSHIP_SOLVE, "--max-iter", "0"],
    [*_FLAGSHIP_SOLVE, "--tol-residual", "nan"],
    [*_FLAGSHIP_SOLVE, "--quartic", "nan"],
    [*_FLAGSHIP_SOLVE, "--quartic", "inf"],
    [*_FLAGSHIP_SOLVE, "--omega", "inf"],
    ["bounds", "--omega", "nan", "--quartic", "1"],
    ["bounds", "--omega", "4", "--quartic", "1", "--x0-norm", "nan"],
    ["bounds", "--omega", "4", "--quartic", "1", "--x0-norm", "inf"],
    ["bounds", "--omega", "4", "--quartic", "1", "--x0-norm", "-1"],  # a norm is >= 0
    ["bounds", "--omega", "2.2", "--quartic", "1", "--lambda", "800"],  # cosh(800) = inf
], ids=" ".join)
def test_non_finite_number_exits_one_before_any_work(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # solve's default --out is ./out
    rc = run_command(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert len(captured.err.splitlines()) == 1, captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["bounds", "--omega", "-2.2", "--quartic", "1"],
    ["bounds", "--omega", "0", "--quartic", "1"],
    ["bounds", "--omega2", "-1", "--quartic", "1"],
    ["bounds", "--omega2", "0", "--quartic", "1"],
], ids=" ".join)
def test_bounds_refuses_frequencies_solve_refuses(argv, capsys):
    rc = run_command(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert len(captured.err.splitlines()) == 1, captured.err
    assert "omega" in captured.err and "math domain" not in captured.err
    assert captured.out == ""
    if "--omega2" in argv:
        assert "--omega2" in captured.err


def test_usage_errors_exit_one():
    assert run_command(["frobnicate"]) == 1
    assert run_command(["solve", "--omega"]) == 1


def test_parser_is_built_once_and_outlives_a_usage_error(capsys):
    fresh = _build_parser.__wrapped__()
    assert run_command(["solve", "--omega"]) == 1
    assert run_command(["bounds", "--omega2", "12", "--beta", "1"]) == 0
    assert _build_parser() is _build_parser()
    capsys.readouterr()
    assert run_command(["--help"]) == 0
    assert capsys.readouterr().out == fresh.format_help()
    assert run_command(["solve", "--help"]) == 0
    subcommands = next(action for action in fresh._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert capsys.readouterr().out == subcommands.choices["solve"].format_help()


def test_solve_harmonic_exits_two(tmp_path, capsys):
    rc = run_command(["solve", "--omega", "2.5", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "collapsed_to_zero" in capsys.readouterr().out


def test_solve_resonant_exits_three(tmp_path, capsys):
    rc = run_command(["solve", "--omega", "1.5", "--quartic", "1",
                      "--out", str(tmp_path / "out")])
    assert rc == 3


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    conf = out / "bf.conf"
    conf.write_text(FULL)
    rc = run_command(["solve", "--config", str(conf), "--out", str(out / "run"),
                      "--dump-nu"])
    assert rc == 0
    return out / "run"


def test_artifacts_present_and_csv_well_formed(solved_dir):
    names = ["manifest.json", "trace.csv", "profile.csv",
             "spectrum.csv", "decay.csv", "nu_table.csv"]
    for name in names:
        assert (solved_dir / name).exists()
    raw = (solved_dir / "profile.csv").read_bytes()
    first, rest = raw.split(b"\r\n", 1)
    assert first == b"n,max_abs_amplitude,log_amplitude"
    assert rest  # data rows follow, RFC-style line endings throughout


def test_manifest_round_trip(solved_dir):
    manifest = load_manifest(str(solved_dir / "manifest.json"))
    assert manifest["schema_version"] == 1
    rebuilt = json.loads(json.dumps(manifest))
    assert rebuilt == manifest
    assert manifest["result"]["status"] == "converged"
    assert set(manifest["artifact_paths"]) >= {"trace.csv", "profile.csv",
                                               "spectrum.csv", "decay.csv"}


def test_spectrum_reload_is_exact(solved_dir, flagship_result):
    config = parse_config(load_manifest(str(solved_dir / "manifest.json"))["config_echo"])
    field = field_from_spectrum_csv(str(solved_dir / "spectrum.csv"), config.grid)
    assert np.array_equal(field.coeffs, flagship_result.field.coeffs)
    assert field.coeffs.dtype == np.float64


def _shift_first_row(column, shift):
    """An edit of spectrum rows: move the first row's n (column 0) or m (1)."""
    def edit(rows):
        cells = rows[0].split(",")
        cells[column] = str(int(cells[column]) + shift)
        return [",".join(cells), *rows[1:]]
    return edit


# the first row is n = -32, m = 1 on the 64-site, 16-harmonic grid
@pytest.mark.parametrize("edit", [
    _shift_first_row(0, 64), _shift_first_row(0, -1), _shift_first_row(1, -1),
    lambda rows: rows[:99], lambda rows: [rows[0], *rows[:-1]],
], ids=["n_past_last_site", "n_before_first_site", "m_zero", "cut_to_99_rows",
        "repeated_row"])
def test_spectrum_reader_rejects_rows_off_the_grid(edit, solved_dir, tmp_path):
    config = parse_config(load_manifest(str(solved_dir / "manifest.json"))["config_echo"])
    header, *rows = (solved_dir / "spectrum.csv").read_text().splitlines()
    path = tmp_path / "spectrum.csv"
    path.write_text("\r\n".join([header, *edit(rows)]) + "\r\n")
    with pytest.raises(ValueError, match="spectrum.csv: expected one row"):
        field_from_spectrum_csv(str(path), config.grid)


def test_spectrum_reader_takes_rows_in_any_order(solved_dir, tmp_path):
    config = parse_config(load_manifest(str(solved_dir / "manifest.json"))["config_echo"])
    header, *rows = (solved_dir / "spectrum.csv").read_text().splitlines()
    path = tmp_path / "spectrum.csv"
    path.write_text("\r\n".join([header, *rows[::-1]]) + "\r\n")
    reread = field_from_spectrum_csv(str(path), config.grid)
    original = field_from_spectrum_csv(str(solved_dir / "spectrum.csv"), config.grid)
    assert np.array_equal(reread.coeffs, original.coeffs)


@pytest.mark.parametrize("command", ["verify", "integrate"])
def test_truncated_spectrum_exits_one_with_one_error_line(command, solved_dir, tmp_path,
                                                          capsys):
    for name in ("manifest.json", "trace.csv"):
        (tmp_path / name).write_bytes((solved_dir / name).read_bytes())
    lines = (solved_dir / "spectrum.csv").read_text().splitlines()
    (tmp_path / "spectrum.csv").write_text("\r\n".join(lines[:100]) + "\r\n")
    rc = run_command([command, "--manifest", str(tmp_path / "manifest.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "spectrum.csv" in captured.err
    assert "CHECK" not in captured.out


# both edits are of the fifth line, the fourth data row
@pytest.mark.parametrize("edit", [
    lambda line: line.rsplit(",", 1)[0],
    lambda line: line.rsplit(",", 1)[0] + ",x",
], ids=["last_cell_lost", "cell_not_a_number"])
def test_malformed_spectrum_row_names_the_file(edit, solved_dir, tmp_path, capsys):
    for name in ("manifest.json", "trace.csv"):
        (tmp_path / name).write_bytes((solved_dir / name).read_bytes())
    lines = (solved_dir / "spectrum.csv").read_text().splitlines()
    lines[4] = edit(lines[4])
    path = tmp_path / "spectrum.csv"
    path.write_text("\r\n".join(lines) + "\r\n")
    config = parse_config(load_manifest(str(solved_dir / "manifest.json"))["config_echo"])
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
        field_from_spectrum_csv(str(path), config.grid)
    rc = run_command(["verify", "--manifest", str(tmp_path / "manifest.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert captured.err.startswith(f"error: {path}: ")
    assert "CHECK" not in captured.out


@pytest.mark.parametrize("command", ["verify", "integrate"])
def test_spectrum_with_a_sine_part_exits_one_with_one_error_line(command, solved_dir,
                                                                 tmp_path, capsys):
    for name in ("manifest.json", "trace.csv"):
        (tmp_path / name).write_bytes((solved_dir / name).read_bytes())
    lines = (solved_dir / "spectrum.csv").read_text().splitlines()
    cells = lines[4].split(",")
    cells[3] = "1e-300"
    lines[4] = ",".join(cells)
    path = tmp_path / "spectrum.csv"
    path.write_text("\r\n".join(lines) + "\r\n")
    config = parse_config(load_manifest(str(solved_dir / "manifest.json"))["config_echo"])
    with pytest.raises(ValueError, match=re.escape(f"{path}: 1 nonzero im cells")):
        field_from_spectrum_csv(str(path), config.grid)
    rc = run_command([command, "--manifest", str(tmp_path / "manifest.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {path}: ")
    assert "CHECK" not in captured.out


def _without_result(manifest):
    del manifest["result"]


def _bounds_not_an_object(manifest):
    manifest["bounds"] = 1


def _x0_norm_not_a_number(manifest):
    manifest["result"]["x0_norm"] = "abc"


@pytest.mark.parametrize("command", ["verify", "integrate"])
@pytest.mark.parametrize("manifest, key", [
    ({}, "config_echo"), ([1], "config_echo"), (_without_result, "result"),
    (_bounds_not_an_object, "bounds"), (_x0_norm_not_a_number, "x0_norm"),
], ids=["empty_object", "list", "flagship_without_result", "flagship_bounds_int",
        "flagship_x0_norm_string"])
def test_malformed_manifest_exits_one_with_one_error_line(command, manifest, key, solved_dir,
                                                         tmp_path, capsys):
    for name in ("spectrum.csv", "trace.csv"):
        (tmp_path / name).write_bytes((solved_dir / name).read_bytes())
    if callable(manifest):
        edit = manifest
        manifest = load_manifest(str(solved_dir / "manifest.json"))
        edit(manifest)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    rc = run_command([command, "--manifest", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {path}: ")
    assert f"'{key}'" in captured.err
    assert "CHECK" not in captured.out


def test_reproducible_trace_names_the_first_differing_row(solved_dir, tmp_path, capsys):
    for name in ("manifest.json", "spectrum.csv"):
        (tmp_path / name).write_bytes((solved_dir / name).read_bytes())
    lines = (solved_dir / "trace.csv").read_text().splitlines()
    original = lines[4]  # iter 3
    cells = original.split(",")
    cells[1] = cells[1][:-1] + str((int(cells[1][-1]) + 1) % 10)  # one fp_residual digit
    lines[4] = ",".join(cells)
    (tmp_path / "trace.csv").write_text("\r\n".join(lines) + "\r\n")
    rc = run_command(["verify", "--manifest", str(tmp_path / "manifest.json")])
    out = capsys.readouterr().out
    assert rc == 1
    assert (f"CHECK reproducible_trace: FAIL (first differing row iter 3: "
            f"stored {lines[4]!r}, re-solved {original!r})") in out.splitlines()


def test_decay_file_slope_matches_fit(solved_dir, flagship_result):
    lam_eff, _ = decay_rate_fit(flagship_result)
    rows = (solved_dir / "decay.csv").read_text().strip().splitlines()[1:]
    parsed = [tuple(float(v) for v in line.split(",")) for line in rows]
    finite = [(d, f) for d, _, f in parsed if math.isfinite(f)]
    (d1, f1), (d2, f2) = finite[0], finite[-1]
    slope = (f2 - f1) / (d2 - d1)
    assert slope == pytest.approx(-lam_eff, rel=1e-12)
    # the file draws the fit's own line, bit for bit, and the manifest holds its rate
    with open(solved_dir / "profile.csv", newline="") as handle:
        amp = np.array([float(row[1]) for row in list(csv.reader(handle))[1:]])
    rate, intercept, _ = validation.fit_decay_profile(amp, 0.0)
    assert all(f == intercept - rate * d for d, f in finite)
    assert load_manifest(str(solved_dir / "manifest.json"))["result"]["decay_fit"] == rate


def test_verify_passes_on_fresh_manifest(solved_dir, capsys):
    rc = run_command(["verify", "--manifest", str(solved_dir / "manifest.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "reproducible_trace: PASS" in out


def test_verify_bounds_the_operator_norm_without_random_probes(solved_dir, monkeypatch,
                                                               capsys):
    def no_random_field(*args):
        raise AssertionError("verify drew a random field")

    monkeypatch.setattr(spectral_field, "random_field", no_random_field)
    monkeypatch.setattr(operators, "random_field", no_random_field)
    rc = run_command(["verify", "--manifest", str(solved_dir / "manifest.json")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(lines) == 9 and all(line.startswith("CHECK ") and ": PASS (" in line
                                   for line in lines)
    assert "CHECK operator_norm_bound: PASS (min |nu| 0.8400000000000007 vs " \
        "omega^2 - 4 0.8400000000000007)" in lines


def _copy_solution(solved_dir, tmp_path, config_echo: str) -> str:
    """The solved flagship's manifest, trace and spectrum in ``tmp_path``, the
    manifest echoing ``config_echo``; returns the manifest path."""
    manifest = load_manifest(str(solved_dir / "manifest.json"))
    manifest["config_echo"] = config_echo
    (tmp_path / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for name in ("trace.csv", "spectrum.csv"):
        (tmp_path / name).write_bytes((solved_dir / name).read_bytes())
    return str(tmp_path / "manifest.json")


def test_verify_passes_a_manifest_echoing_the_removed_strategy_key(solved_dir, tmp_path,
                                                                  capsys):
    # manifests written before the keys' removal hold strategy, damping and
    # accel_depth right after solver.parity, and tol_zero after tol_residual
    echo = load_manifest(str(solved_dir / "manifest.json"))["config_echo"]
    parity_line, tol_line = "solver.parity = odd\n", "solver.tol_residual = 1e-10\n"
    assert echo.count(parity_line) == echo.count(tol_line) == 1
    assert not any(key in echo for key in _RETIRED_LINES)
    echo = echo.replace(parity_line, parity_line + "solver.strategy = hybrid\n"
                        "solver.damping = 0.5\nsolver.accel_depth = 5\n")
    echo = echo.replace(tol_line, tol_line + "solver.tol_zero = 1e-08\n")
    rc = run_command(["verify", "--manifest", _copy_solution(solved_dir, tmp_path, echo)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(lines) == 9 and all(line.startswith("CHECK ") and ": PASS (" in line
                                   for line in lines)


def test_verify_refuses_an_unusable_seed_before_any_check(solved_dir, tmp_path, capsys):
    echo = load_manifest(str(solved_dir / "manifest.json"))["config_echo"]
    width_line = "solver.seed_width = 1.0\n"
    assert echo.count(width_line) == 1
    path = _copy_solution(solved_dir, tmp_path,
                          echo.replace(width_line, "solver.seed_width = 0.0\n"))
    rc = run_command(["verify", "--manifest", path])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("config error: seed ")


def test_verify_fails_a_record_that_does_not_solve_the_equation(tmp_path, capsys):
    out = tmp_path / "short"
    rc = run_command(["solve", "--omega", "2.5", "--quartic", "1", "--seed-amplitude", "0.9",
                      "--max-iter", "3", "--out", str(out)])
    assert rc == 2
    capsys.readouterr()
    rc = run_command(["verify", "--manifest", str(out / "manifest.json")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert len(lines) == 9 and all(line.startswith("CHECK ") for line in lines)
    assert [line.split(":")[0] for line in lines if ": FAIL" in line] == [
        "CHECK strong_residual"]


def _edit_manifest(change):
    def edit(record):
        manifest = load_manifest(str(record / "manifest.json"))
        change(manifest)
        (record / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return edit


def _scale_spectrum(factor, site=None):
    """An edit scaling the (site, m=1) cell of spectrum.csv, or every cell if
    site is None, by factor; the manifest stores the edited field's X0 norm."""
    def edit(record):
        lines = (record / "spectrum.csv").read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            n, m, re_part, im_part = line.split(",")
            if site is None or (n, m) == (str(site), "1"):
                lines[i] = ",".join([n, m, repr(float(re_part) * factor), im_part])
        (record / "spectrum.csv").write_text("\r\n".join(lines) + "\r\n")
        manifest = load_manifest(str(record / "manifest.json"))
        config = parse_config(manifest["config_echo"])
        field = field_from_spectrum_csv(str(record / "spectrum.csv"), config.grid)
        manifest["result"]["x0_norm"] = x0_norm(field, config.weight)
        (record / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return edit


def _edit_trace_row(record):
    lines = (record / "trace.csv").read_text().splitlines()
    cells = lines[4].split(",")  # iter 3
    cells[1] = repr(float(cells[1]) * 2.0)
    lines[4] = ",".join(cells)
    (record / "trace.csv").write_text("\r\n".join(lines) + "\r\n")


def _solve_cold_at_the_band_edge(record):
    # N = 96 holds the Omega = 2.05 breather's core but not its tail: edge/peak 2.5e-9
    shutil.rmtree(record)
    assert run_command(["solve", "--omega", "2.05", "--quartic", "1", "--n-sites", "96",
                        "--out", str(record)]) == 0


def _solve_from_a_zero_seed(record):
    # S(0) = 0: the solve ends collapsed_to_zero on an all-zero field, which has no peak
    shutil.rmtree(record)
    assert run_command(["solve", "--omega", "2.2", "--quartic", "1", "--seed-amplitude", "0",
                        "--out", str(record)]) == 2


# the rows whose detail is a message, not '<value> vs limit <limit>'
_MESSAGE_ROWS = ("schema_version", "operator_norm_bound", "reproducible_trace")


@pytest.mark.parametrize("row, edit", [
    ("schema_version", _edit_manifest(lambda m: m.update(schema_version=2))),
    ("x0_norm_matches", _edit_manifest(
        lambda m: m["result"].update(x0_norm=m["result"]["x0_norm"] * (1.0 + 1e-9)))),
    ("x0_norm_matches", _edit_manifest(lambda m: m["result"].update(x0_norm=None))),
    ("parity_relation", _scale_spectrum(1.0 + 1e-9, site=1)),
    ("strong_residual", _scale_spectrum(1.0 + 1e-6)),
    ("boundary_floor", _solve_cold_at_the_band_edge),
    ("boundary_floor", _solve_from_a_zero_seed),
    ("bounds_arithmetic", _edit_manifest(
        lambda m: m["bounds"].update(r_max=m["bounds"]["r_max"] * (1.0 + 1e-12)))),
    ("reproducible_trace", _edit_trace_row),
], ids=["schema_version", "x0_norm_perturbed", "x0_norm_null", "parity_relation",
        "strong_residual", "boundary_floor", "boundary_floor_zero_field", "bounds_arithmetic",
        "reproducible_trace"])
def test_each_check_has_a_record_that_fails_it_alone(row, edit, solved_dir, tmp_path, capsys):
    record = tmp_path / "record"
    shutil.copytree(solved_dir, record)
    edit(record)
    capsys.readouterr()
    rc = run_command(["verify", "--manifest", str(record / "manifest.json")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert len(lines) == 9 and all(line.startswith("CHECK ") for line in lines)
    assert [line.split(":")[0] for line in lines if ": FAIL (" in line] == [f"CHECK {row}"]
    for line in lines:
        name, verdict = re.fullmatch(r"CHECK (\w+): (PASS|FAIL) \(.*\)", line).groups()
        if name not in _MESSAGE_ROWS:
            value, limit = map(float, re.fullmatch(
                r"CHECK \w+: \w+ \((\S+) vs limit (\S+)\)", line).groups())
            assert (value <= limit) == (verdict == "PASS"), line


def test_the_solver_gate_and_verify_read_the_same_strong_residual_row(solved_dir, monkeypatch,
                                                                      capsys):
    def failing_row(field, config):
        return "strong_residual", math.inf, 0.0

    monkeypatch.setattr(validation, "strong_residual_check", failing_row)
    rc = run_command(["verify", "--manifest", str(solved_dir / "manifest.json")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    # the re-solve never converges either, so its trace runs past the stored one
    assert [line.split(":")[0] for line in lines if ": FAIL (" in line] == [
        "CHECK strong_residual", "CHECK reproducible_trace"]
    assert "CHECK strong_residual: FAIL (inf vs limit 0.0)" in lines
    config = parse_config(load_manifest(str(solved_dir / "manifest.json"))["config_echo"])
    assert solver.solve(config).status == solver.STATUS_MAX_ITER


@pytest.mark.parametrize("parity, reference", [("odd", 0.8608563553), ("even", 0.8609909344)])
def test_default_seed_solves_the_flagship(parity, reference, tmp_path, capsys):
    rc = run_command(["solve", "--omega", "2.2", "--quartic", "1", "--parity", parity,
                      "--out", str(tmp_path / "out")])
    assert rc == 0
    manifest = load_manifest(str(tmp_path / "out" / "manifest.json"))
    assert manifest["config_echo"].count("solver.seed_amplitude = auto") == 1
    assert manifest["result"]["x0_norm"] == pytest.approx(reference, rel=1e-8)


def test_integrate_from_manifest(solved_dir, tmp_path, capsys):
    rc = run_command(["integrate", "--manifest", str(solved_dir / "manifest.json"),
                      "--periods", "3", "--steps-per-period", "256",
                      "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "trajectory.json").read_text())
    assert report["period_return_error"] < 1e-3
    assert report["energy_drift"] < 1e-8


def test_zero_field_result_emits_valid_files(tmp_path):
    rc = run_command(["solve", "--omega", "2.5", "--out", str(tmp_path / "z")])
    assert rc == 2
    manifest = load_manifest(str(tmp_path / "z" / "manifest.json"))
    assert manifest["result"]["x0_norm"] <= 1e-8
    profile = (tmp_path / "z" / "profile.csv").read_text().splitlines()
    assert profile[0] == "n,max_abs_amplitude,log_amplitude"
    assert len(profile) == 1 + 64


def test_sweep_command(tmp_path, capsys):
    rc = run_command(["sweep", "--omega-from", "2.6", "--omega-to", "2.4",
                      "--steps", "3", "--quartic", "1", "--n-sites", "32",
                      "--harmonics", "8", "--seed-amplitude", "0.8",
                      "--out", str(tmp_path / "sw")])
    assert rc == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "omega,status,x0_norm,fp_residual"
    assert len(lines) == 4
    # each point, the two warm ones among them, echoes the config it was solved on,
    # and that config's grid reads the point's spectrum
    config = parse_config("omega = 2.6\npotential.quartic = 1\ngrid.n_sites = 32\n"
                          "grid.n_harmonics = 8\nsolver.seed_amplitude = 0.8\n")
    for idx, omega in enumerate(np.linspace(2.6, 2.4, 3)):
        point = tmp_path / "sw" / f"point_{idx:03d}"
        manifest = load_manifest(str(point / "manifest.json"))
        assert manifest["config_echo"] == serialize_config(config.with_omega(float(omega)))
        echoed = parse_config(manifest["config_echo"])
        field = field_from_spectrum_csv(str(point / "spectrum.csv"), echoed.grid)
        assert x0_norm(field, echoed.weight) == manifest["result"]["x0_norm"]


def test_sweep_with_equal_endpoints_solves_every_point(tmp_path):
    # three points at one frequency: no secant through two equal frequencies
    out = tmp_path / "sw"
    rc = run_command(["sweep", "--omega-from", "2.6", "--omega-to", "2.6", "--steps", "3",
                      "--quartic", "1", "--n-sites", "32", "--harmonics", "8",
                      "--seed-amplitude", "0.8", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:2] for line in lines] == [["2.6", "converged"]] * 3


def test_solve_writes_no_samples(tmp_path):
    out = tmp_path / "out"
    rc = run_command(["solve", "--omega", "2.6", "--quartic", "1", "--n-sites", "32",
                      "--harmonics", "8", "--seed-amplitude", "0.8", "--out", str(out)])
    assert rc == 0
    assert not (out / "samples.csv").exists()
    assert load_manifest(str(out / "manifest.json"))["artifact_paths"] == [
        "trace.csv", "profile.csv", "spectrum.csv", "decay.csv"]


def test_samples_regenerate_from_the_spectrum(solved_dir):
    config = parse_config(load_manifest(str(solved_dir / "manifest.json"))["config_echo"])
    samples = synthesize(field_from_spectrum_csv(str(solved_dir / "spectrum.csv"),
                                                 config.grid))
    rows = (solved_dir / "profile.csv").read_text().splitlines()[1:]
    profile = np.array([float(row.split(",")[1]) for row in rows])
    assert np.max(np.abs(samples), axis=1).tobytes() == profile.tobytes()


def test_sweep_writes_no_samples(tmp_path):
    out = tmp_path / "sw"
    rc = run_command(["sweep", "--omega-from", "2.6", "--omega-to", "2.4", "--steps", "3",
                      "--quartic", "1", "--n-sites", "32", "--harmonics", "8",
                      "--seed-amplitude", "0.8", "--out", str(out)])
    assert rc == 0
    for idx in range(3):
        point = out / f"point_{idx:03d}"
        assert not (point / "samples.csv").exists()
        assert "samples.csv" not in load_manifest(str(point / "manifest.json"))["artifact_paths"]


@pytest.mark.parametrize("command", ["verify", "integrate"])
def test_reading_a_resonant_point_prints_one_warning_line(command, tmp_path, capsys):
    out = tmp_path / "sw"
    rc = run_command(["sweep", "--omega-from", "2.4", "--omega-to", "1.6", "--steps", "3",
                      "--quartic", "1", "--n-sites", "32", "--harmonics", "8",
                      "--seed-amplitude", "0.8", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        run_command([command, "--manifest", str(out / "point_002" / "manifest.json")])
    assert [w for w in escaped if issubclass(w.category, ConfigWarning)] == []
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "arning" in line] == [
        "warning: omega^2 = 2.56 does not clear the phonon band edge 4; "
        "solving will fail with a resonance error"]


def test_verify_reaches_a_verdict_on_a_resonance_record(tmp_path, capsys):
    out = tmp_path / "sw"
    rc = run_command(["sweep", "--omega-from", "2.4", "--omega-to", "1.6", "--steps", "3",
                      "--quartic", "1", "--n-sites", "32", "--harmonics", "8",
                      "--seed-amplitude", "0.8", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rc = run_command(["verify", "--manifest", str(out / "point_002" / "manifest.json")])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert rc == 1
    # the record holds no bounds, so bounds_arithmetic is not among the checks
    assert len(lines) == 8 and all(line.startswith("CHECK ") for line in lines)
    # the placeholder field is zero: it has no peak to measure its edges against
    assert [line for line in lines if ": FAIL" in line] == [
        "CHECK boundary_floor: FAIL (nan vs limit 1e-10)",
        "CHECK operator_norm_bound: FAIL "
        "(omega^2 = 2.56 does not clear the phonon band edge 4)"]
    assert "CHECK reproducible_trace: PASS (0 iterates compared bit-identically)" in lines
    assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--omega", "2.5", "--cubic", "0.3"],
    ["solve", "--omega", "2.3", "--cubic", "0.3", "--quartic", "1"],
    ["sweep", "--omega-from", "2.6", "--omega-to", "2.4", "--steps", "3",
     "--cubic", "0.3", "--quartic", "1"],
], ids=["solve_cubic", "solve_mixed", "sweep_mixed"])
def test_cubic_input_exits_three_and_writes_nothing(argv, tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_command([*argv, "--n-sites", "32", "--harmonics", "8", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("precondition: potential.cubic = 0.3 is not supported")
    assert err.count("\n") == 1
    assert not out.exists()


def _config_line_without_equals(tmp_path, solved_dir):
    (tmp_path / "bad.conf").write_text("omega = 2.2\npotential.quartic 1\n")
    return ["solve", "--config", str(tmp_path / "bad.conf"), "--out", str(tmp_path / "out")]


def _record_that_blows_up(tmp_path, solved_dir):
    record = tmp_path / "record"
    shutil.copytree(solved_dir, record)
    _scale_spectrum(1000.0)(record)  # x 100 stays finite at 512 steps a period
    return ["integrate", "--manifest", str(record / "manifest.json"),
            "--out", str(tmp_path / "out")]


# per EXIT_TABLE row, by its error's name: an argv that ends there, and the start
# of the stderr line it ends with
_EXIT_CASES = {
    "ConfigError": (_config_line_without_equals,
                    "config error: line 2: expected 'key = value'"),
    "ResonanceError": (lambda tmp_path, _: ["solve", "--omega", "1.5", "--quartic", "1"],
                       "resonance: omega^2 = 2.25 does not clear the phonon band edge 4"),
    "UnsupportedPotentialError": (lambda tmp_path, _: ["solve", "--omega", "2.5",
                                                       "--cubic", "0.3"],
                                  "precondition: potential.cubic = 0.3 is not supported"),
    "MixedPotentialError": (lambda tmp_path, _: ["bounds", "--omega2", "12", "--cubic", "1",
                                                 "--quartic", "1"],
                            "bounds: mixed cubic+quartic potential has no global growth pair"),
    "BlowUpError": (_record_that_blows_up,
                    "trajectory blow-up: non-finite state after 1 periods"),
    "ValueError": (lambda tmp_path, _: ["sweep", "--omega-from", "2.6", "--omega-to", "2.4",
                                        "--steps", "0", "--quartic", "1"],
                   "error: steps must be >= 1"),
    "OSError": (lambda tmp_path, _: ["verify", "--manifest", str(tmp_path / "missing.json")],
                "io error: [Errno 2] No such file or directory"),
}


@pytest.mark.parametrize("row", cli_io.EXIT_TABLE, ids=lambda row: row[0].__name__)
def test_each_exit_table_row_ends_a_command_with_one_line(row, solved_dir, tmp_path,
                                                          monkeypatch, capsys):
    error, code, prefix = row
    make_argv, start = _EXIT_CASES[error.__name__]
    argv = make_argv(tmp_path, solved_dir)
    monkeypatch.chdir(tmp_path)  # solve's default --out is ./out
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = run_command(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (code, "")
    assert err.splitlines()[-1].startswith(f"{prefix}: ")
    assert err.splitlines()[-1].startswith(start), err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_bounds_without_a_frequency_exits_one_with_one_line(capsys):
    rc = run_command(["bounds", "--quartic", "1"])
    assert rc == 1
    assert capsys.readouterr() == ("", "bounds: supply --omega or --omega2\n")


def _error_classes():
    """Every exception class the package defines, warnings excepted."""
    modules = [importlib.import_module(f"breather_forge.{info.name}")
               for info in pkgutil.iter_modules(breather_forge.__path__)]
    return {cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, Exception)
            and not issubclass(cls, Warning) and cls.__module__.startswith("breather_forge")}


def test_every_error_the_package_defines_has_an_exit_table_row():
    names = {cls.__name__ for cls in _error_classes()}
    assert {"ConfigError", "ResonanceError", "BlowUpError", "WeightOverflowError"} <= names
    assert sorted(cls.__name__ for cls in _error_classes()
                  if not any(issubclass(cls, row[0]) for row in cli_io.EXIT_TABLE)) == []
    # first match wins, so a row below one of its base classes could never match
    rows = [row[0] for row in cli_io.EXIT_TABLE]
    assert [(a.__name__, b.__name__) for i, a in enumerate(rows) for b in rows[i + 1:]
            if issubclass(b, a)] == []


def test_readme_exit_table_matches_the_program():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (\d) \| `([^`]+)` \|", readme, re.M)
    assert rows == [(error.__name__, str(code), prefix)
                    for error, code, prefix in cli_io.EXIT_TABLE]


def test_solve_refuses_a_gap_below_the_resonance_floor(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_command(["solve", "--omega", "2.0000000001", "--quartic", "1", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        "warning: omega^2 = 4 does not clear the phonon band edge 4; "
        "solving will fail with a resonance error",
        "resonance: omega^2 = 4 does not clear the phonon band edge 4"]
    assert not out.exists()


def test_verify_fails_a_sweep_record_below_the_resonance_floor(tmp_path, capsys):
    out = tmp_path / "sw"
    rc = run_command(["sweep", "--omega-from", "2.0000000001", "--omega-to", "2.0000000001",
                      "--steps", "1", "--quartic", "1", "--n-sites", "32", "--harmonics", "8",
                      "--out", str(out)])
    assert rc == 0
    manifest = out / "point_000" / "manifest.json"
    assert load_manifest(str(manifest))["result"]["status"] == "resonance"
    capsys.readouterr()
    rc = run_command(["verify", "--manifest", str(manifest)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert [line for line in lines if ": FAIL" in line] == [
        "CHECK boundary_floor: FAIL (nan vs limit 1e-10)",
        "CHECK operator_norm_bound: FAIL "
        "(omega^2 = 4 does not clear the phonon band edge 4)"]


def test_bounds_at_a_frequency_whose_square_overflows_prints_inf_radii(capsys):
    rc = run_command(["bounds", "--omega", "1e200", "--quartic", "1"])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert out.splitlines() == ["r_max = inf", "r_crit = inf", "nonres0_ok = True",
                                "nonres_ok = True"]


@pytest.mark.parametrize("omega", ["1e77", "1e100", "1e160"])
def test_solve_refuses_a_frequency_whose_x2_weight_overflows(omega, tmp_path, capsys):
    # in-process: the suite makes any RuntimeWarning of numpy's an error
    out = tmp_path / "out"
    rc = run_command(["solve", "--omega", omega, "--quartic", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert "X2 weight" in captured.err
    assert not out.exists()


def test_sweep_refuses_an_endpoint_whose_x2_weight_overflows_before_any_solve(
        monkeypatch, tmp_path, capsys):
    def no_solve(config, initial=None):
        raise AssertionError("a point was solved before the endpoints were checked")

    monkeypatch.setattr(solver, "solve", no_solve)
    out = tmp_path / "sw"
    rc = run_command(["sweep", "--omega-from", "2.6", "--omega-to", "1e100", "--steps", "2",
                      "--quartic", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "X2 weight" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--omega", "2.2"],
    ["sweep", "--omega-from", "2.2", "--omega-to", "2.05", "--steps", "3"],
], ids=["solve", "sweep_endpoint"])
def test_a_weight_whose_x2_weight_overflows_is_refused_before_any_solve(
        argv, monkeypatch, tmp_path, capsys):
    # lambda N/2 = 697.6 passes the site weight's guard; times (omega M)^4 it overflows
    def no_solve(config, initial=None, predicted=None):
        raise AssertionError("a point was solved before the weight was checked")

    if argv[0] == "sweep":
        monkeypatch.setattr(solver, "solve", no_solve)
    out = tmp_path / "out"
    rc = run_command([*argv, "--quartic", "1", "--lambda", "21.8", "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err.startswith("error: weight overflow: the X2 weight ")
    assert captured.err.count("\n") == 1
    assert "lambda = 21.8, omega = 2.2, N = 64, M = 16" in captured.err
    assert not out.exists()


def test_solve_from_a_seed_whose_norm_overflows_writes_its_diverged_record(tmp_path):
    # a process of its own: numpy's overflow warnings, which the suite makes errors,
    # are warnings to the command
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "breather_forge.cli_io", "solve",
                           "--omega", "2.2", "--quartic", "1", "--seed-amplitude", "1e200",
                           "--out", str(out)],
                          capture_output=True, text=True, env=_program_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert proc.stdout.startswith("status = diverged\n")
    assert "x0_norm = inf\n" in proc.stdout
    manifest = load_manifest(str(out / "manifest.json"))
    assert manifest["result"]["status"] == "diverged"
    assert manifest["bounds"] is None


def test_bounds_with_a_norm_prints_ring_membership(capsys):
    rc = run_command(["bounds", "--omega", "4", "--quartic", "1", "--x0-norm", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[-1] == "in_ring = False"


def test_solve_whose_trajectory_blows_up_writes_a_record_without_one(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_command(["solve", "--omega", "2.2", "--quartic", "1", "--max-iter", "1",
                      "--seed-amplitude", "30", "--integrate-periods", "1",
                      "--steps-per-period", "64", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "trajectory blow-up: non-finite state after 1 periods\n"
    assert load_manifest(str(out / "manifest.json"))["trajectory"] is None


def _counting(monkeypatch, counts, module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_a_solve_makes_one_check_and_the_record_writer_makes_the_rest(monkeypatch, tmp_path,
                                                                     capsys):
    counts = {}
    for name in ("strong_residual", "fit_decay_profile", "bounds_report", "parity_deviation"):
        _counting(monkeypatch, counts, validation, name)
    result = solver.hybrid_solve(flagship_config("odd"))
    assert result.status == "converged"
    assert counts == {"strong_residual": 1}  # the convergence gate
    counts.clear()
    for module in (cli_io, validation):
        _counting(monkeypatch, counts, module, "max_amplitude_profile")
    path, _ = cli_io.emit_outputs(result, str(tmp_path))
    assert counts["max_amplitude_profile"] == 1 and counts["fit_decay_profile"] == 1
    monkeypatch.undo()
    assert run_command(["verify", "--manifest", path]) == 0
    rows = dict(re.findall(r"CHECK (\w+): PASS \((\S+) vs limit", capsys.readouterr().out))
    record = load_manifest(path)["result"]
    assert record["strong_residual"] == float(rows["strong_residual"])
    assert record["parity_deviation"] == float(rows["parity_relation"])


def test_sweep_refuses_omega(tmp_path, capsys):
    out = tmp_path / "sw"
    rc = run_command(["sweep", "--omega", "1.5", "--omega-from", "2.6", "--omega-to", "2.5",
                      "--steps", "2", "--quartic", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "--omega-from" in err and "--omega-to" in err
    assert not out.exists()


def test_omega_from_overrides_a_config_files_omega(tmp_path, capsys):
    conf = tmp_path / "sw.conf"
    conf.write_text("omega = 1.5\n")
    out = tmp_path / "sw"
    rc = run_command(["sweep", "--config", str(conf), "--omega-from", "2.6",
                      "--omega-to", "2.5", "--steps", "2", "--quartic", "1",
                      "--n-sites", "32", "--harmonics", "8", "--seed-amplitude", "0.8",
                      "--out", str(out)])
    assert rc == 0 and capsys.readouterr().err == ""
    echo = load_manifest(str(out / "point_000" / "manifest.json"))["config_echo"]
    assert "grid.omega = 2.6\n" in echo


@pytest.mark.parametrize("omega_to", ["inf", "nan", "-3", "0"])
def test_sweep_refuses_an_endpoint_before_any_solve(omega_to, monkeypatch, tmp_path, capsys):
    def no_solve(config, initial=None):
        raise AssertionError("a point was solved before the endpoints were checked")

    monkeypatch.setattr(solver, "solve", no_solve)
    out = tmp_path / "sw"
    rc = run_command(["sweep", "--omega-from", "2.6", "--omega-to", omega_to, "--steps", "2",
                      "--quartic", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: omega_to = {float(omega_to)!r} must be positive and finite\n"
    assert not out.exists()


def test_two_runs_are_file_identical(tmp_path):
    conf = tmp_path / "small.conf"
    conf.write_text("omega = 2.6\ngrid.n_sites = 32\ngrid.n_harmonics = 8\n"
                    "potential.quartic = 1.0\nsolver.seed_amplitude = 0.8\n")
    assert run_command(["solve", "--config", str(conf), "--out", str(tmp_path / "a")]) == 0
    assert run_command(["solve", "--config", str(conf), "--out", str(tmp_path / "b")]) == 0
    for name in os.listdir(tmp_path / "a"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


@pytest.mark.parametrize("argv", [
    ["sweep", "--omega-from", "2.6", "--omega-to", "2.4", "--steps", "0",
     "--quartic", "1"],
    ["solve", "--omega", "2.6", "--quartic", "1", "--n-sites", "32", "--harmonics", "8",
     "--integrate-periods", "2", "--steps-per-period", "32"],
    ["solve", "--omega", "2.6", "--quartic", "1", "--n-sites", "32", "--lambda", "50"],
    ["integrate", "--manifest", "MANIFEST", "--periods", "0"],
], ids=["sweep_steps", "solve_steps_per_period", "solve_weight_overflow",
        "integrate_periods"])
def test_out_of_range_arguments_exit_one_with_one_error_line(argv, solved_dir, tmp_path,
                                                            capsys):
    argv = [str(solved_dir / "manifest.json") if arg == "MANIFEST" else arg
            for arg in argv]
    rc = run_command([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--integrate-periods", "2", "--steps-per-period", "32"],
    ["--integrate-periods", "-1"],
], ids=["steps_per_period", "periods"])
def test_bad_integration_arguments_fail_before_the_solve(argv, monkeypatch, tmp_path,
                                                        capsys):
    def no_solve(config):
        raise AssertionError("solve ran before the integration arguments were checked")

    monkeypatch.setattr(cli_io, "solve", no_solve)
    out = tmp_path / "out"
    rc = run_command(["solve", "--omega", "2.6", "--quartic", "1", "--n-sites", "32",
                      "--harmonics", "8", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def _program_env() -> dict:
    src = str(Path(breather_forge.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_runs_as_a_command():
    proc = subprocess.run([sys.executable, "-m", "breather_forge.cli_io", "bounds",
                           "--omega", "2.5", "--quartic", "1"],
                          capture_output=True, text=True, env=_program_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "r_max =" in proc.stdout


def test_importing_the_program_loads_no_scipy():
    # every CLI call pays this import before any work; scipy alone costs more than numpy
    code = ("import sys, breather_forge, breather_forge.cli_io; "
            "print(sorted(name for name in sys.modules if name.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_program_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_nu_table_cells_are_plain_floats(solved_dir):
    config = parse_config(load_manifest(str(solved_dir / "manifest.json"))["config_echo"])
    table = Multiplier.build(config.grid).table
    lines = (solved_dir / "nu_table.csv").read_text().splitlines()
    assert lines[0] == "m,j,nu"
    m, j, nu = zip(*(line.split(",") for line in lines[1:]))
    n_m, n_j = table.shape
    assert [int(v) for v in m] == [mi for mi in range(1, n_m + 1) for _ in range(n_j)]
    assert [int(v) for v in j] == list(range(n_j)) * n_m
    assert np.array([float(v) for v in nu]).tobytes() == table.tobytes()


def _reference_csv(header, *columns) -> str:
    """csv.writer with floats at repr precision: the writer's contract."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buffer.getvalue()


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5,
                   -4.840000000000001]
_CELLS = {
    "float": st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
    "int": st.integers(-2**40, 2**40),
    "status": st.sampled_from([solver.STATUS_CONVERGED, solver.STATUS_COLLAPSED,
                               solver.STATUS_DIVERGED, solver.STATUS_MAX_ITER,
                               solver.STATUS_RESONANCE]),
}


@given(st.data(), st.integers(0, 12),
       st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_csv_text_matches_csv_writer(data, n_rows, kinds):
    cells = [data.draw(st.lists(_CELLS[kind], min_size=n_rows, max_size=n_rows))
             for kind in kinds]
    # numeric columns arrive as arrays from emit_outputs and as lists from sweep
    columns = [np.array(column) if kind != "status" and data.draw(st.booleans())
               else column for kind, column in zip(kinds, cells)]
    header = [f"c{i}" for i in range(len(columns))]
    assert _csv_text(header, *columns) == _reference_csv(header, *cells)


@seed(20261021)
@given(st.data(), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_csv_text_formats_repeated_cells_as_csv_writer_does(data, n_rows):
    # columns drawn from a few values each, so most take the format-once route
    values = {"special": st.sampled_from([*_SPECIAL_FLOATS, 2.5e-310]),
              "float": st.floats(), "int": st.integers(-2**40, 2**40)}
    cells = []
    for kind in ("special", "float", "int"):
        pool = data.draw(st.lists(values[kind], min_size=1, max_size=4))
        cells.append(data.draw(st.lists(st.sampled_from(pool), min_size=n_rows,
                                        max_size=n_rows)))
    header = ["special", "float", "int"]
    assert _csv_text(header, *map(np.array, cells)) == _reference_csv(header, *cells)


def test_csv_text_keeps_a_negative_zero_beside_zero():
    text = _csv_text(["im"], np.array([0.0, -0.0, 0.0, 0.0, 0.0]))
    assert text == "im\r\n0.0\r\n-0.0\r\n0.0\r\n0.0\r\n0.0\r\n"


def test_csv_text_of_an_empty_trace_is_its_header():
    assert _csv_text(_TRACE_HEADER, *zip(*[])) == "iter,fp_residual,x0_norm\r\n"


def test_csv_text_of_a_sweep_row_with_a_nan_residual():
    header = ["omega", "status", "x0_norm", "fp_residual"]
    columns = [2.05], [solver.STATUS_DIVERGED], [0.5633484542080208], [math.nan]
    text = _csv_text(header, *columns)
    assert text == _reference_csv(header, *columns)
    assert text == ("omega,status,x0_norm,fp_residual\r\n"
                    "2.05,diverged,0.5633484542080208,nan\r\n")
