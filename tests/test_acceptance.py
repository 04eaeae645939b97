"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
Two assertions are stricter than the underlying mathematics permits and fail
by design with a quantified analysis in their messages: the N=32 oracle
comparison (the oracle's own periodization floor is ~1.5e-6, measured
against an N=48 oracle the solver agrees to ~1e-9) and the upper norm bound
r_max (every nontrivial fixed point of the map provably sits at or above
r_max, never below).
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from breather_forge import (GridSpec, WeightSpec, apply_M, apply_M_inverse, apply_N,
                            apply_S, bounds_report, decay_rate_fit, integrate_trajectory,
                            project_even, project_odd, random_field, synthesize,
                            x0_norm, max_amplitude_profile)
from breather_forge.cli_io import load_manifest, run_command

from conftest import QUARTIC, FLAGSHIP_OMEGA, flagship_config
from oracles import central_block, multiplier_apply_m, plane_wave_field, profile_at_t0

FLAT = WeightSpec(0.0)


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_spectral_operator_identities():
    grid = GridSpec(64, 16, 130, 3.0)
    rng = np.random.default_rng(101)
    worst_inv = worst_eig = 0.0
    for _ in range(100):
        u = random_field(grid, rng)
        scale = x0_norm(u, FLAT)
        inv = apply_M(apply_M_inverse(u))
        worst_inv = max(worst_inv, x0_norm(
            u.with_coeffs(inv.coeffs - u.coeffs), FLAT) / scale)
        stencil = apply_M(u)
        multiplier = multiplier_apply_m(u)
        worst_eig = max(worst_eig, x0_norm(
            u.with_coeffs(stencil.coeffs - multiplier.coeffs), FLAT)
            / x0_norm(stencil, FLAT))
    for j, m in [(0, 1), (16, 2), (32, 1), (48, 9)]:
        mode = plane_wave_field(grid, j, m)
        nu = -9.0 * m * m + 4.0 * math.sin(math.pi * j / 64.0) ** 2
        out = apply_M(mode)
        worst_eig = max(worst_eig, float(np.max(np.abs(out.coeffs - nu * mode.coeffs))
                                         / np.max(np.abs(nu * mode.coeffs))))
    ok = worst_inv <= 1e-12 and worst_eig <= 1e-12
    assert report("1", ok, f"inverse identity {worst_inv:.2e}, "
                           f"eigen-identity {worst_eig:.2e} (tol 1e-12)")


def test_criterion_02_operator_norm_bound():
    rng = np.random.default_rng(202)
    detail = []
    ok = True
    for omega2 in (5.0, 8.0, 12.0):
        grid = GridSpec(64, 16, 130, math.sqrt(omega2))
        exact = 1.0 / (grid.omega**2 - 4.0)
        worst = 0.0
        for _ in range(1000):
            u = random_field(grid, rng)
            worst = max(worst, x0_norm(apply_M_inverse(u), FLAT) / x0_norm(u, FLAT))
        extremal = plane_wave_field(grid, 32, 1)
        attained = x0_norm(apply_M_inverse(extremal), FLAT) / x0_norm(extremal, FLAT)
        ok &= worst <= exact + 1e-12
        ok &= abs(attained - exact) <= 1e-14
        detail.append(f"Om^2={omega2:g}: probes<={worst:.12f} vs {exact:.12f}, "
                      f"extremal gap {abs(attained - exact):.1e}")
    assert report("2", ok, "; ".join(detail))


def test_criterion_03_range_bound_of_N():
    grid = GridSpec(64, 16, 130, 3.0)
    rng = np.random.default_rng(303)
    worst = 0.0
    for lam in (0.0, 0.5):
        w = WeightSpec(lam)
        bound_coeff = 2.0 * 9.0 * (1.0 + math.cosh(lam))
        for radius in (0.1, 0.5, 1.0):
            for _ in range(100):
                u = random_field(grid, rng)
                u = u.with_coeffs(u.coeffs * (radius / x0_norm(u, w)))
                lhs = x0_norm(apply_N(u, QUARTIC), w) ** 2
                worst = max(worst, lhs / (bound_coeff * radius**6))
    ok = worst <= 1.0 + 1e-9
    assert report("3", ok, f"worst ||N(u)||^2 / bound = {worst:.3e} (<= 1 + 1e-9)")


def test_criterion_04_contraction_below_r_crit():
    grid = GridSpec(64, 16, 130, math.sqrt(12.0))
    r_crit = (4.0 / 3.0) ** (1.0 / 3.0)
    rng = np.random.default_rng(404)
    min_margin = math.inf
    for _ in range(100):
        u = random_field(grid, rng)
        u = u.with_coeffs(u.coeffs * (0.9 * r_crit / x0_norm(u, FLAT)))
        min_margin = min(min_margin,
                         x0_norm(u, FLAT) - x0_norm(apply_S(u, QUARTIC), FLAT))
    ok = min_margin >= 1e-6
    assert report("4", ok, f"min contraction margin {min_margin:.6f} (>= 1e-6)")


def test_criterion_05_bound_arithmetic():
    rep = bounds_report(math.sqrt(12.0), WeightSpec(0.0), QUARTIC, 0.0)
    err_max = abs(rep.r_max - (4.0 / 3.0) ** 0.5)
    err_crit = abs(rep.r_crit - (4.0 / 3.0) ** (1.0 / 3.0))
    grid_ok = True
    for omega in np.linspace(2.05, 4.0, 20):
        for lam in np.linspace(0.0, 2.0, 20):
            r = bounds_report(float(omega), WeightSpec(float(lam)), QUARTIC, 0.0)
            grid_ok &= (r.r_crit < r.r_max) == r.nonres_ok
    ok = err_max <= 1e-14 and err_crit <= 1e-14 and grid_ok
    assert report("5", ok, f"r_max err {err_max:.1e}, r_crit err {err_crit:.1e}, "
                           f"20x20 ring-order equivalence {grid_ok}")


def test_criterion_06a_solver_convergence(flagship_result):
    start = time.time()
    # fixture already solved once; re-solve to time the full path honestly
    from breather_forge import hybrid_solve
    res = hybrid_solve(flagship_config("odd"))
    elapsed = time.time() - start
    ok = (res.status == "converged" and res.fp_residual <= 1e-10
          and elapsed < 30.0)
    assert report("6a", ok, f"status {res.status}, fp_residual {res.fp_residual:.2e} "
                            f"(<= 1e-10), runtime {elapsed:.1f}s (< 30s)")


def test_criterion_06b_profile_matches_pinned_oracle(flagship_result,
                                                     oracle32_profile,
                                                     oracle48_profile):
    spectral32 = central_block(profile_at_t0(flagship_result.field), 32)
    rel32 = float(np.linalg.norm(spectral32 - oracle32_profile)
                  / np.linalg.norm(oracle32_profile))
    spectral48 = central_block(profile_at_t0(flagship_result.field), 48)
    rel48 = float(np.linalg.norm(spectral48 - oracle48_profile)
                  / np.linalg.norm(oracle48_profile))
    ok = rel32 <= 1e-6
    report("6b", ok, f"rel l2 vs N=32 oracle {rel32:.3e} (tol 1e-6); "
                     f"vs N=48 oracle {rel48:.3e}")
    assert ok, (
        f"rel l2 vs the pinned N=32 oracle is {rel32:.3e} > 1e-6. This gap is the "
        f"oracle's own truncation floor, not solver error: the mismatch sits at the "
        f"oracle's seam sites where its wrapped tails double (tail rate "
        f"kappa = arccosh((Om^2-2)/2) = 0.887 gives C*exp(-16*kappa) ~ 1.5e-6), and "
        f"a tail-resolving N=48 oracle agrees with the solver to {rel48:.3e}.")


def test_criterion_07a_exponential_localization(flagship_result):
    lam_eff, r2 = decay_rate_fit(flagship_result)
    profile = max_amplitude_profile(flagship_result.field)
    sites = flagship_result.field.grid.sites
    finite = all(math.isfinite(math.sqrt(np.sum(np.exp(lam * np.abs(sites)) * profile**2)))
                 for lam in np.linspace(0.0, 1.8 * lam_eff, 7))
    ok = r2 >= 0.999 and lam_eff > 0.0 and finite
    assert report("7a", ok, f"lambda_eff {lam_eff:.4f} (> 0), r^2 {r2:.6f} "
                            f"(>= 0.999), weighted norms finite below 2*lambda_eff: {finite}")


def test_criterion_07b_norm_within_r_max(flagship_result):
    lam_eff, _ = decay_rate_fit(flagship_result)
    gaps = []
    ok = True
    for lam in np.linspace(0.0, lam_eff, 6):
        w = WeightSpec(float(lam))
        norm = x0_norm(flagship_result.field, w)
        rep = bounds_report(FLAGSHIP_OMEGA, w, QUARTIC, norm)
        if rep.nonres0_ok:
            ok &= norm <= rep.r_max
            gaps.append(f"lam={lam:.2f}: x0={norm:.3f} vs r_max={rep.r_max:.3f}")
    report("7b", ok, "; ".join(gaps))
    assert ok, (
        "x0 norm exceeds r_max at every requested decay rate: " + "; ".join(gaps)
        + ". This is forced by the bound arithmetic itself: combining "
        "||M^-1|| <= 1/(Om^2-4) with the range bound of N gives, at any nonzero "
        "fixed point x = S(x), the inequality R <= R^(alpha+1)/r_max^alpha, i.e. "
        "R >= r_max. Nontrivial solutions therefore sit at or above r_max, and an "
        "upper-bound check below it cannot pass for a correct solver.")


def test_criterion_08_dynamical_validation(flagship_result):
    rep = integrate_trajectory(flagship_result.field, QUARTIC, 10, 512)
    rep_half = integrate_trajectory(flagship_result.field, QUARTIC, 10, 1024)
    ratio = rep.period_return_error / rep_half.period_return_error
    ok = (rep.period_return_error <= 1e-4 and rep.energy_drift <= 1e-8
          and rep.momentum_drift <= 1e-12 and 3.5 <= ratio <= 4.5)
    assert report("8", ok, f"return {rep.period_return_error:.2e} (<= 1e-4), "
                           f"energy {rep.energy_drift:.2e} (<= 1e-8), "
                           f"momentum {rep.momentum_drift:.2e} (<= 1e-12), "
                           f"dt-halving ratio {ratio:.3f} (in [3.5, 4.5])")


def test_criterion_09_symmetry_suite(flagship_result, flagship_even_result):
    grid = flagship_result.field.grid
    rng = np.random.default_rng(909)
    idem = 0.0
    for _ in range(20):
        u = random_field(grid, rng)
        scale = np.max(np.abs(u.coeffs))
        for project in (project_even, project_odd):
            once = project(u)
            idem = max(idem, float(np.max(np.abs(project(once).coeffs - once.coeffs))
                                   / scale))
    u_even = synthesize(flagship_even_result.field)
    rel_even = float(np.max(np.abs(u_even + u_even[::-1, :])) / np.max(np.abs(u_even)))
    u_odd = synthesize(flagship_result.field)
    n, nt = grid.n_sites, grid.n_time_samples
    shifted = u_odd[(n - np.arange(n)) % n, :][:, (np.arange(nt) + nt // 2) % nt]
    rel_odd = float(np.max(np.abs(u_odd + shifted)) / np.max(np.abs(u_odd)))
    means = max(
        float(np.max(np.abs(u_odd.mean(axis=1))) / np.max(np.abs(u_odd))),
        float(np.max(np.abs(u_even.mean(axis=1))) / np.max(np.abs(u_even))))
    ok = idem <= 1e-14 and rel_even <= 1e-12 and rel_odd <= 1e-12 and means <= 1e-13
    assert report("9", ok, f"idempotence {idem:.1e} (<= 1e-14), even relation "
                           f"{rel_even:.1e}, odd relation {rel_odd:.1e} (<= 1e-12), "
                           f"site means {means:.1e} (<= 1e-13 peak)")


def test_criterion_10_reproducibility(tmp_path):
    conf = tmp_path / "repro.conf"
    conf.write_text("omega = 2.5\ngrid.n_sites = 32\ngrid.n_harmonics = 8\n"
                    "potential.quartic = 1.0\nsolver.seed_amplitude = 0.9\n")
    assert run_command(["solve", "--config", str(conf),
                        "--out", str(tmp_path / "one")]) == 0
    manifest = load_manifest(str(tmp_path / "one" / "manifest.json"))
    echo = tmp_path / "echo.conf"
    echo.write_text(manifest["config_echo"])
    assert run_command(["solve", "--config", str(echo),
                        "--out", str(tmp_path / "two")]) == 0
    assert run_command(["solve", "--config", str(echo),
                        "--out", str(tmp_path / "three")]) == 0
    identical = all(
        filecmp.cmp(tmp_path / "two" / name, tmp_path / "three" / name, shallow=False)
        for name in sorted(os.listdir(tmp_path / "two")))
    trace_match = filecmp.cmp(tmp_path / "one" / "trace.csv",
                              tmp_path / "two" / "trace.csv", shallow=False)
    ok = identical and trace_match
    assert report("10", ok, f"manifest-driven reruns file-identical: {identical}, "
                            f"trace matches the original: {trace_match}")
