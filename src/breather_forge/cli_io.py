"""Config parsing, command dispatch, and machine-readable outputs.

Config files are flat ``section.key = value`` lines with ``#`` comments.
The solve manifest is a single JSON document that echoes the fully resolved
configuration, so any run can be reproduced bit-identically from its
manifest alone; numeric tables go to RFC-4180-style CSV files next to it.

Exit codes: 0 converged/complete, 1 usage/parse/verification errors,
2 solver finished without a nontrivial solution (collapse, divergence,
iteration budget), 3 resonance or precondition failures (see ``EXIT_TABLE``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import warnings
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from . import validation
from .lattice_model import MixedPotentialError, PotentialSpec
# probe_operator_norm, synthesize, x2_norm: unused here, but bench/tracing.py's _TARGETS wrap them
from .operators import Multiplier, ResonanceError, band_gap, probe_operator_norm
from .solver import (BreatherResult, SolverConfig, STATUS_CONVERGED, UnsupportedPotentialError,
                     continuation_sweep, solve)
from .spectral_field import (PARITIES, GridSpec, SpectralField, WeightSpec, max_amplitude_profile,
                             parity_center, synthesize, x0_norm, x2_norm)

SCHEMA_VERSION = 1
_TRACE_HEADER = ["iter", "fp_residual", "x0_norm"]
# BreatherResult fields a manifest's result object holds, in its order
_RESULT_KEYS = ("status", "omega", "iterations", "fp_residual", "strong_residual",
                "x0_norm", "x2_norm", "parity_deviation", "decay_fit", "parity")


class ConfigError(ValueError):
    """Config rejected; message carries per-key line diagnostics."""


class ConfigWarning(UserWarning):
    pass


@dataclass(frozen=True)
class ConfigKey:
    """One config key: its file spelling and default, its CLI flag, and the
    place its resolved value takes in a SolverConfig."""

    key: str
    dest: str  # argparse dest, and the name build_config reads the value by
    type: type | None  # int or float; None for a string from ``choices``
    default: object  # None: required (grid.omega) or 'auto'
    flag: str | None  # None: set in a config file only
    help: str
    get: Callable[[SolverConfig], object]
    choices: tuple[str, ...] | None = None
    auto: bool = False  # a config file may write 'auto'

    def parse(self, raw: str):
        if self.auto and raw == "auto":
            return None
        if self.choices is not None and raw not in self.choices:
            raise ValueError(raw)
        return raw if self.type is None else self.type(raw)


# Row order is the order of config_echo, and so part of every manifest's bytes.
CONFIG_KEYS = (
    ConfigKey("grid.n_sites", "n_sites", int, 64, "--n-sites",
              "lattice sites N, even and >= 8", lambda c: c.grid.n_sites),
    ConfigKey("grid.n_harmonics", "harmonics", int, 16, "--harmonics",
              "stored time harmonics M", lambda c: c.grid.n_harmonics),
    ConfigKey("grid.n_time_samples", "time_samples", int, None, "--time-samples",
              "collocation samples per period (a file may write 'auto')",
              lambda c: c.grid.n_time_samples, auto=True),
    ConfigKey("grid.omega", "omega", float, None, "--omega",
              "breather frequency (> 2 needed)", lambda c: c.grid.omega),
    ConfigKey("weight.lambda", "lam", float, 0.0, "--lambda",
              "weight decay rate", lambda c: c.weight.lam),
    ConfigKey("potential.cubic", "cubic", float, 0.0, "--cubic",
              "cubic force coefficient; solve and sweep reject a nonzero value "
              "(exit 3), because both parity classes map u to -u and project this "
              "even term out (the m=0 DC strain mode is not represented)",
              lambda c: c.potential.cubic),
    ConfigKey("potential.quartic", "quartic", float, 0.0, "--quartic",
              "quartic force coefficient", lambda c: c.potential.quartic),
    ConfigKey("solver.parity", "parity", None, "odd", "--parity",
              "odd: site-centred, even: bond-centred", lambda c: c.parity,
              choices=PARITIES),
    ConfigKey("solver.tol_residual", "tol_residual", float, 1e-10, "--tol-residual",
              "relative fixed-point residual to converge at", lambda c: c.tol_residual),
    ConfigKey("solver.max_iter", "max_iter", int, 500, "--max-iter",
              "outer iteration budget", lambda c: c.max_iter),
    ConfigKey("solver.seed_amplitude", "seed_amplitude", float, None, "--seed-amplitude",
              "seed scale (a file may write 'auto': the amplitude on the seed's own "
              "fixed-point ray, ||S(seed)|| = ||seed||)",
              lambda c: c.seed[0], auto=True),
    ConfigKey("solver.seed_width", "seed_width", float, 1.0, "--seed-width",
              "seed width in sites", lambda c: c.seed[1]),
)

_BY_KEY = {row.key: row for row in CONFIG_KEYS}
# Keys earlier versions wrote: the value every manifest of theirs echoes, which
# the reader ignores, and why the key went.  Any other value is a ConfigError.
RETIRED_KEYS = {
    "solver.strategy": ("hybrid", "as every solve runs Picard then Newton"),
    "solver.damping": ("0.5", "as Picard's damping is the constant solver.PICARD_DAMPING"),
    "solver.accel_depth": ("5", "as Anderson's depth is the constant solver.ANDERSON_DEPTH"),
    "solver.tol_zero": ("1e-08", "as the collapse norm is the constant solver.COLLAPSE_NORM"),
}
_TYPE_NAMES = {int: "an integer", float: "a number"}


def _parse_lines(text: str) -> dict[str, object]:
    """Parsed values by key; each diagnostic names its line."""
    entries: dict[str, tuple[str, int]] = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "omega":
            key = "grid.omega"  # bare alias for the one required key
        if key not in _BY_KEY and key not in RETIRED_KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")
        elif key in entries:
            problems.append(f"line {lineno}: duplicate key {key!r}")
        else:
            entries[key] = (value, lineno)
    values = {}
    for key, (value, lineno) in entries.items():
        if key in RETIRED_KEYS:
            echoed, reason = RETIRED_KEYS[key]
            if value != echoed:
                problems.append(f"line {lineno}: {key} was removed, {reason}; got {value!r}")
            continue
        row = _BY_KEY[key]
        try:
            values[key] = row.parse(value)
        except ValueError:
            expected = (_TYPE_NAMES[row.type] if row.choices is None
                        else "one of " + ", ".join(row.choices))
            problems.append(f"line {lineno}: {key} must be {expected}, got {value!r}")
    if problems:
        raise ConfigError("; ".join(problems))
    return values


def build_config(values: dict[str, object]) -> SolverConfig:
    """Construct the solver config from parsed values by key; defaults fill
    the rest.  Range checks are the constructors', raised as ConfigError."""
    if "grid.omega" not in values:
        raise ConfigError("missing required key grid.omega (or bare 'omega')")
    v = SimpleNamespace(**{row.dest: values.get(row.key, row.default)
                           for row in CONFIG_KEYS})
    try:
        config = SolverConfig(
            grid=(GridSpec.with_dealiasing(v.n_sites, v.harmonics, v.omega)
                  if v.time_samples is None
                  else GridSpec(v.n_sites, v.harmonics, v.time_samples, v.omega)),
            weight=WeightSpec.for_parity(v.lam, v.parity),
            potential=PotentialSpec(cubic=v.cubic, quartic=v.quartic),
            parity=v.parity,
            tol_residual=v.tol_residual,
            max_iter=v.max_iter,
            seed=(v.seed_amplitude, v.seed_width),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        band_gap(config.grid.omega)
    except ResonanceError as exc:
        warnings.warn(f"{exc}; solving will fail with a resonance error",
                      ConfigWarning, stacklevel=2)
    return config


def parse_config(text: str) -> SolverConfig:
    """Parse a flat config document; unknown keys and bad ranges are errors."""
    return build_config(_parse_lines(text))


def _format_value(value) -> str:
    if value is None:
        return "auto"
    return value if isinstance(value, str) else repr(value)


def serialize_config(config: SolverConfig) -> str:
    """Canonical flat text for a resolved config; parse round-trips exactly."""
    return "".join(f"{row.key} = {_format_value(row.get(config))}\n"
                   for row in CONFIG_KEYS)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _atomic_write(path: str, data: str):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _cells(column) -> Iterable[str]:
    """One column's cells: floats by repr (shortest round trip), integers
    formatted once per distinct value, strings as they are.  Other cells are
    made as the lines are joined, so a column's strings are never all held."""
    values = np.asarray(column)
    if values.dtype.kind == "i":
        distinct, where = np.unique(values, return_inverse=True)
        return np.array(list(map(str, distinct.tolist())), dtype=object)[where].tolist()
    return map(repr if values.dtype.kind == "f" else str, values.tolist())


def _csv_text(header: list[str], *columns) -> str:
    """CSV text of equal-length columns, byte for byte what csv.writer's excel
    dialect writes for these cells, which never need quoting: comma-separated,
    every line ended by \\r\\n."""
    lines = [",".join(header), *map(",".join, zip(*map(_cells, columns)))]
    return "\r\n".join(lines) + "\r\n"


def build_manifest(result: BreatherResult, config_text: str,
                   artifact_paths: list[str], trajectory=None) -> dict:
    return _json_safe({
        "schema_version": SCHEMA_VERSION,
        "config_echo": config_text,
        "result": {key: getattr(result, key) for key in _RESULT_KEYS},
        "bounds": asdict(result.bounds) if result.bounds is not None else None,
        "trajectory": asdict(trajectory) if trajectory is not None else None,
        "artifact_paths": artifact_paths,
    })


def decay_columns(amp: np.ndarray, sites: np.ndarray, parity: str):
    """(abs_n, log_amp, fit_line) columns of the decay file, nearest site first,
    from the max-amplitude profile ``amp`` over ``sites``."""
    center = parity_center(parity)
    dist = np.abs(sites - center)
    with np.errstate(divide="ignore"):
        logs = np.log(amp)
    try:
        lam_eff, _ = validation.fit_decay_profile(amp, center)
        mask = validation.tail_mask(amp)
        intercept = float(np.mean(logs[mask] + lam_eff * dist[mask]))
        fit = intercept - lam_eff * dist
    except ValueError:  # InsufficientTailError among them
        fit = np.full_like(dist, float("nan"))
    order = np.argsort(dist, kind="stable")
    return dist[order], logs[order], fit[order]


def _index_grid(outer: np.ndarray, inner: np.ndarray):
    """(outer, inner) index columns in row-major order, the order of ravel()."""
    return np.repeat(outer, inner.size), np.tile(inner, outer.size)


def emit_outputs(result: BreatherResult, out_dir: str, config_text: str,
                 trajectory=None, dump_nu: bool = False) -> str:
    """Write the manifest and CSV artifacts; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    grid = result.field.grid
    sites = grid.sites
    artifacts = []

    def write(name: str, header: list[str], *columns):
        _atomic_write(os.path.join(out_dir, name), _csv_text(header, *columns))
        artifacts.append(name)

    write("trace.csv", _TRACE_HEADER, *zip(*result.trace))
    amp = max_amplitude_profile(result.field)  # profile and decay files read this
    with np.errstate(divide="ignore"):
        log_amp = np.log(amp)
    write("profile.csv", ["n", "max_abs_amplitude", "log_amplitude"], sites, amp, log_amp)
    coeffs = result.field.coeffs.ravel()
    write("spectrum.csv", ["n", "m", "re", "im"],
          *_index_grid(sites, grid.harmonics), coeffs, np.zeros_like(coeffs))
    write("decay.csv", ["abs_n", "log_amp", "fit_line"],
          *decay_columns(amp, sites, result.parity))
    if dump_nu:
        write("nu_table.csv", ["m", "j", "nu"],
              *_index_grid(grid.harmonics, np.arange(grid.n_sites)),
              Multiplier.build(grid).table.ravel())

    manifest = build_manifest(result, config_text, artifacts, trajectory)
    path = os.path.join(out_dir, "manifest.json")
    _atomic_write(path, json.dumps(manifest, indent=2, allow_nan=False) + "\n")
    return path


def load_manifest(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def field_from_spectrum_csv(path: str, grid: GridSpec) -> SpectralField:
    """The field in a spectrum file, which must hold every site n of the grid
    and harmonic m in 1..M exactly once, in any order, with every ``im`` cell
    zero; else a ValueError that names the file."""
    n_sites, n_harm = grid.n_sites, grid.n_harmonics
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader, None)
        try:
            n, m, re_part, im_part = list(zip(*reader, strict=True)) or [()] * 4
            row = np.array(n, dtype=int) + n_sites // 2
            col = np.array(m, dtype=int) - 1
            values, sine = (np.array(part, dtype=float) for part in (re_part, im_part))
            if np.any(sine):
                raise ValueError(f"{np.count_nonzero(sine)} nonzero im cells; "
                                 "a field is a cosine series")
        except ValueError as exc:  # a row of another length, a cell not a number, a sine
            raise ValueError(f"{path}: {exc}") from None
    inside = (row >= 0) & (row < n_sites) & (col >= 0) & (col < n_harm)
    flat = row * n_harm + col
    held = np.count_nonzero(np.bincount(flat[inside], minlength=n_sites * n_harm))
    if held != flat.size or held != n_sites * n_harm:
        raise ValueError(
            f"{path}: expected one row for each site n in {-(n_sites // 2)}.."
            f"{n_sites // 2 - 1} and harmonic m in 1..{n_harm}; "
            f"{n_sites * n_harm - held} missing, {flat.size - held} out of range or repeated")
    coeffs = np.empty(n_sites * n_harm)
    coeffs[flat] = values
    return SpectralField(grid, coeffs.reshape(n_sites, n_harm))


def _read_config_text(args) -> str:
    if getattr(args, "config", None):
        with open(args.config) as handle:
            return handle.read()
    return ""


def _config_from_args(args) -> SolverConfig:
    """The config file overlaid with the flags given; warnings go to stderr."""
    values = _parse_lines(_read_config_text(args))
    for row in CONFIG_KEYS:
        value = getattr(args, row.dest, None)
        if row.flag is not None and value is not None:
            values[row.key] = value
    return _printing_warnings(build_config, values)


def _printing_warnings(build: Callable[..., SolverConfig], source) -> SolverConfig:
    """``build(source)`` with each ConfigWarning printed as one stderr line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConfigWarning)
        config = build(source)
    for item in caught:
        print(f"warning: {item.message}", file=sys.stderr)
    return config


def _cmd_solve(args) -> int:
    config = _config_from_args(args)
    if args.integrate_periods:
        validation.check_integration_args(args.integrate_periods, args.steps_per_period)
    result = solve(config)
    trajectory = None
    if args.integrate_periods:
        try:
            trajectory = validation.integrate_trajectory(
                result.field, config.potential, args.integrate_periods,
                args.steps_per_period)
        except validation.BlowUpError as exc:
            print(f"trajectory blow-up: {exc}", file=sys.stderr)
    manifest_path = emit_outputs(result, args.out, serialize_config(config),
                                 trajectory, dump_nu=args.dump_nu)
    print(f"status = {result.status}")
    for key in ("iterations", "fp_residual", "x0_norm", "decay_fit"):
        print(f"{key} = {getattr(result, key)!r}")
    if result.bounds is not None:
        print(f"r_max = {result.bounds.r_max!r}")
        print(f"r_crit = {result.bounds.r_crit!r}")
    print(f"manifest = {manifest_path}")
    return 0 if result.status == STATUS_CONVERGED else 2  # a resonance raises instead


def _cmd_sweep(args) -> int:
    if args.omega is not None:
        raise ValueError("sweep takes --omega-from and --omega-to, not --omega")
    args.omega = args.omega_from
    config = _config_from_args(args)
    results = continuation_sweep(config, args.omega_from, args.omega_to, args.steps)
    os.makedirs(args.out, exist_ok=True)
    for idx, res in enumerate(results):
        point_dir = os.path.join(args.out, f"point_{idx:03d}")
        emit_outputs(res, point_dir, serialize_config(config.with_omega(res.omega)))
        print(f"omega = {res.omega:.6f}  status = {res.status}  x0_norm = {res.x0_norm!r}")
    _atomic_write(os.path.join(args.out, "sweep.csv"), _csv_text(
        ["omega", "status", "x0_norm", "fp_residual"],
        *zip(*((res.omega, res.status, res.x0_norm, res.fp_residual) for res in results))))
    return 0


def _is_number(value) -> bool:
    """A JSON number: int or float, but not bool (an int subclass)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_solution(manifest_path: str):
    """(manifest, its directory, config, stored field) of a solve's output."""
    manifest = load_manifest(manifest_path)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config_echo"), str):
        raise ValueError(f"{manifest_path}: no string 'config_echo' in the manifest")
    if not isinstance(manifest.get("result"), dict) or "x0_norm" not in manifest["result"]:
        raise ValueError(f"{manifest_path}: no 'result' object with 'x0_norm' in the manifest")
    stored = manifest["result"]["x0_norm"]
    if stored is not None and not _is_number(stored):
        raise ValueError(f"{manifest_path}: 'result' key 'x0_norm' is not a number or null")
    bounds = manifest.get("bounds")
    if bounds is not None and not (isinstance(bounds, dict) and all(
            _is_number(bounds.get(key)) for key in ("r_max", "r_crit"))):
        raise ValueError(f"{manifest_path}: 'bounds' is not an object with numeric "
                         "'r_max' and 'r_crit'")
    manifest_dir = os.path.dirname(os.path.abspath(manifest_path))
    config = _printing_warnings(parse_config, manifest["config_echo"])
    field = field_from_spectrum_csv(os.path.join(manifest_dir, "spectrum.csv"), config.grid)
    return manifest, manifest_dir, config, field


def _verify_checks(manifest: dict, manifest_dir: str, config: SolverConfig,
                   field: SpectralField):
    """Yield (name, ok, detail) per check; a numeric row's detail is '<value> vs limit <limit>'."""
    grid = config.grid

    yield "schema_version", manifest.get("schema_version") == SCHEMA_VERSION, \
        f"schema_version = {manifest.get('schema_version')}"

    norm0 = x0_norm(field, config.weight)
    stored = manifest["result"]["x0_norm"]
    rows = [("x0_norm_matches", math.inf if stored is None else abs(norm0 - stored),
             validation.X0_NORM_RTOL * max(1.0, abs(stored or 0.0))),
            *validation.solution_checks(field, config)]
    if manifest.get("bounds") is not None:
        report = validation.bounds_report(grid.omega, config.weight,
                                          config.potential, norm0)
        got = np.array([report.r_max, report.r_crit])
        held = np.array([manifest["bounds"]["r_max"], manifest["bounds"]["r_crit"]])
        errors = np.abs(got - held) / np.maximum(1.0, got)  # np.max keeps a nan, max may not
        rows.append(("bounds_arithmetic", float(np.max(errors)), validation.BOUNDS_RTOL))
    for name, value, limit in rows:
        yield name, value <= limit, f"{value!r} vs limit {limit!r}"

    try:  # ||M^{-1}|| on X0 is 1 / min |nu| over the grid's (m, k) table
        gap, min_nu = band_gap(grid.omega), float(np.min(np.abs(Multiplier.build(grid).table)))
        ok, detail = min_nu >= gap, f"min |nu| {min_nu!r} vs omega^2 - 4 {gap!r}"
    except ResonanceError as exc:
        ok, detail = False, str(exc)
    yield "operator_norm_bound", ok, detail

    try:
        trace = solve(config).trace
    except ResonanceError:
        trace = []  # what a sweep records for a point inside the band
    with open(os.path.join(manifest_dir, "trace.csv"), newline="") as handle:
        stored = handle.read()
    resolved = _csv_text(_TRACE_HEADER, *zip(*trace))
    yield "reproducible_trace", stored == resolved, \
        (f"{len(trace)} iterates compared bit-identically" if stored == resolved
         else _trace_mismatch(stored, resolved))


def _trace_mismatch(stored: str, resolved: str) -> str:
    """The first differing row of two trace files, and the row counts if they differ."""
    old, new = stored.splitlines()[1:], resolved.splitlines()[1:]
    parts = [f"first differing row iter {i}: stored {a!r}, re-solved {b!r}"
             for i, (a, b) in enumerate(zip(old, new)) if a != b][:1]
    if len(old) != len(new):
        parts.append(f"{len(old)} stored rows, {len(new)} re-solved")
    return "; ".join(parts) or "the header or line endings differ"


def _cmd_verify(args) -> int:
    all_ok = True
    for name, ok, detail in _verify_checks(*_read_solution(args.manifest)):
        all_ok &= ok
        print(f"CHECK {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return 0 if all_ok else 1


def _cmd_integrate(args) -> int:
    _, manifest_dir, config, field = _read_solution(args.manifest)
    report = validation.integrate_trajectory(field, config.potential,
                                             args.periods, args.steps_per_period)
    out_dir = args.out or manifest_dir
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "trajectory.json"),
                  json.dumps(_json_safe(asdict(report)), indent=2) + "\n")
    for key in ("period_return_error", "energy_drift", "momentum_drift"):
        print(f"{key} = {getattr(report, key)!r}")
    return 0


def _cmd_bounds(args) -> int:
    if args.omega2 is not None and not args.omega2 > 0.0:
        raise ValueError("--omega2 must be positive")
    omega = math.sqrt(args.omega2) if args.omega2 is not None else args.omega
    if omega is None:
        print("bounds: supply --omega or --omega2", file=sys.stderr)
        return 1
    potential = PotentialSpec(cubic=args.cubic or 0.0,
                              quartic=args.quartic if args.quartic is not None else args.beta or 0.0)
    report = validation.bounds_report(omega, WeightSpec(args.lam or 0.0),
                                      potential, args.x0_norm or 0.0)
    for key in ("r_max", "r_crit", "nonres0_ok", "nonres_ok"):
        print(f"{key} = {getattr(report, key)!r}")
    if args.x0_norm is not None:
        print(f"in_ring = {report.in_ring}")
    return 0


def _add_config_flags(parser):
    parser.add_argument("--config", help="flat key = value config file")
    for row in CONFIG_KEYS:
        if row.flag is not None:
            parser.add_argument(row.flag, dest=row.dest, type=row.type,
                                choices=row.choices, help=row.help)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="breather-forge",
        description="Spectral fixed-point solver and verifier for lattice breathers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve for a breather and emit artifacts")
    _add_config_flags(p_solve)
    p_solve.add_argument("--out", default="out")
    p_solve.add_argument("--dump-nu", action="store_true",
                         help="also dump the multiplier table CSV")
    p_solve.add_argument("--integrate-periods", type=int, default=0,
                         help="follow up with a trajectory integration")
    p_solve.add_argument("--steps-per-period", type=int, default=512)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="frequency continuation sweep")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--omega-from", type=float, required=True)
    p_sweep.add_argument("--omega-to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", default="out")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="re-check a manifest from a prior solve")
    p_verify.add_argument("--manifest", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_int = sub.add_parser("integrate", help="symplectic integration of a stored solution")
    p_int.add_argument("--manifest", required=True)
    p_int.add_argument("--periods", type=int, default=10)
    p_int.add_argument("--steps-per-period", type=int, default=512)
    p_int.add_argument("--out")
    p_int.set_defaults(func=_cmd_integrate)

    p_bounds = sub.add_parser("bounds", help="print the existence bound arithmetic")
    p_bounds.add_argument("--omega", type=float)
    p_bounds.add_argument("--omega2", type=float, help="squared frequency")
    p_bounds.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_bounds.add_argument("--cubic", "--alpha", dest="cubic", type=float)
    p_bounds.add_argument("--quartic", type=float)
    p_bounds.add_argument("--beta", type=float, help="alias for --quartic")
    p_bounds.add_argument("--x0-norm", dest="x0_norm", type=float,
                          help="report ring membership for this norm")
    p_bounds.set_defaults(func=_cmd_bounds)
    return parser


# (error, exit code, stderr prefix); the first row an error is an instance of wins
EXIT_TABLE = (
    (ConfigError, 1, "config error"),
    (ResonanceError, 3, "resonance"),
    (UnsupportedPotentialError, 3, "precondition"),
    (MixedPotentialError, 3, "bounds"),
    (validation.BlowUpError, 3, "trajectory blow-up"),
    (ValueError, 1, "error"),  # out-of-range values outside the config, such as sweep --steps 0
    (OSError, 1, "io error"),
)


def run_command(argv) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except tuple(row[0] for row in EXIT_TABLE) as exc:
        code, prefix = next(row[1:] for row in EXIT_TABLE if isinstance(exc, row[0]))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
