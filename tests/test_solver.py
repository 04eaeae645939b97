import itertools
import math
import random
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dlartg as scipy_dlartg
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import gmres as scipy_gmres

from breather_forge import (GridSpec, PotentialSpec, ResonanceError,
                            SolverConfig, UnsupportedPotentialError, WeightSpec,
                            bounds_report, continuation_sweep, decay_rate_fit,
                            hybrid_solve, newton_solve, apply_S, picard_solve,
                            project_odd, random_field, refine, solve, strong_residual,
                            synthesize, x0_norm, x2_norm, zero_field)
from breather_forge.cli_io import build_manifest
from breather_forge import solver as solver_module
from breather_forge.solver import (PICARD_COLLAPSE_FRACTION, _picard_phase,
                                    _working_config, build_seed)

from conftest import QUARTIC, flagship_config
from oracles import (AndersonHistory, central_block, profile_at_t0, shooting_orbit,
                     staggered_guess)

EACH_ENTRY_POINT = pytest.mark.parametrize("entry", [picard_solve, newton_solve, hybrid_solve],
                                           ids=["picard", "newton", "hybrid"])


def test_config_validation():
    grid = GridSpec(64, 16, 130, 2.2)
    weight = WeightSpec(0.0)
    with pytest.raises(ValueError):
        SolverConfig(grid=grid, weight=weight, potential=QUARTIC, parity="none")
    with pytest.raises(ValueError):
        SolverConfig(grid=grid, weight=weight, potential=QUARTIC, tol_residual=0.0)


def test_config_refuses_a_weight_centre_of_the_other_parity_class():
    # a record echoes the parity alone and is re-read with that class's centre, so a
    # config holding the other centre would write an X0 norm its own verify refutes
    grid = GridSpec(64, 16, 130, 2.2)
    for parity, other in (("even", 0.0), ("odd", -0.5)):
        with pytest.raises(ValueError, match="centre"):
            SolverConfig(grid=grid, weight=WeightSpec(0.3, other), potential=QUARTIC,
                         parity=parity, seed=(0.8, 1.0))
        assert SolverConfig(grid=grid, weight=WeightSpec.for_parity(0.3, parity),
                            potential=QUARTIC, parity=parity).weight.center != other


@pytest.mark.parametrize("seed", [(-1.0, 1.0), (0.8, 0.0), (None, -1.0), (0.8, math.nan),
                                  (math.inf, 1.0)])
def test_config_rejects_a_seed_that_seed_field_refuses(seed):
    # the config applies seed_field's rule, so a bad seed fails before any work
    with pytest.raises(ValueError, match="seed amplitude"):
        SolverConfig(grid=GridSpec(64, 16, 130, 2.2), weight=WeightSpec(0.0),
                     potential=QUARTIC, seed=seed)


def test_harmonic_potential_collapses():
    cfg = SolverConfig(grid=GridSpec(32, 8, 66, 2.5), weight=WeightSpec(0.0),
                       potential=PotentialSpec(), parity="odd",
                       seed=(0.5, 1.0), max_iter=50)
    result = picard_solve(cfg)
    assert result.status == "collapsed_to_zero"
    assert result.x0_norm <= solver_module.COLLAPSE_NORM


def test_resonant_frequency_raises():
    cfg = SolverConfig(grid=GridSpec(32, 8, 66, 1.5), weight=WeightSpec(0.0),
                       potential=QUARTIC, parity="odd", seed=(0.5, 1.0))
    with pytest.raises(ResonanceError):
        picard_solve(cfg)


@pytest.mark.parametrize("entry", [solve, picard_solve, newton_solve, hybrid_solve],
                         ids=["solve", "picard", "newton", "hybrid"])
@pytest.mark.parametrize("potential", [PotentialSpec(cubic=0.3),
                                       PotentialSpec(cubic=0.3, quartic=1.0)],
                         ids=["cubic", "mixed"])
def test_cubic_potential_is_rejected_before_any_iteration(potential, entry, monkeypatch):
    def no_iteration(*args, **kwargs):
        raise AssertionError("an iteration ran on a cubic potential")

    for name in ("build_seed", "_picard_phase", "_newton_phase"):
        monkeypatch.setattr(solver_module, name, no_iteration)
    cfg = SolverConfig(grid=GridSpec(32, 8, 66, 2.5), weight=WeightSpec(0.0),
                       potential=potential, parity="odd", seed=(0.8, 1.0))
    with pytest.raises(UnsupportedPotentialError, match="cubic") as info:
        entry(cfg)
    # a resonance would be recorded per point; this must end the sweep instead
    assert not isinstance(info.value, ResonanceError)
    with pytest.raises(UnsupportedPotentialError):
        continuation_sweep(cfg, 2.6, 2.4, 3)


def test_picard_collapses_from_inside_seed():
    # the pinned (0.8, 1.0) seed lies radially inside the zero basin: for a
    # homogeneous force the radial direction of S expands at the breather
    # (eigenvalue 3 for a cubic force), so plain accelerated iteration
    # cannot hold the nontrivial fixed point from below
    result = picard_solve(flagship_config("odd"))
    assert result.status == "collapsed_to_zero"


def test_picard_converges_from_outer_seed(flagship_result):
    cfg = replace(flagship_config("odd"), seed=(1.0, 1.0))
    result = picard_solve(cfg)
    assert result.status == "converged"
    assert result.fp_residual <= 1e-10
    # same orbit as the hybrid route, up to the half-period phase (x -> -x)
    ref = flagship_result.field.coeffs
    diff = min(np.max(np.abs(result.field.coeffs - ref)),
               np.max(np.abs(result.field.coeffs + ref)))
    assert diff / np.max(np.abs(ref)) < 1e-9


def test_hybrid_flagship_converges(flagship_result):
    assert flagship_result.status == "converged"
    assert flagship_result.fp_residual <= 1e-10
    assert flagship_result.x0_norm > 1e-8


def test_converged_result_invariants(flagship_result):
    cfg = flagship_config("odd")
    res = flagship_result
    # the numbers a record of this result holds, from the record writer
    record = build_manifest(res, decay_rate_fit(res)[0], [])
    numbers = record["result"]
    assert res.fp_residual <= cfg.tol_residual
    assert numbers["strong_residual"] <= 10.0 * cfg.tol_residual * numbers["x2_norm"]
    assert numbers["parity_deviation"] <= 1e-12
    peak = np.max(np.abs(synthesize(res.field)))
    assert np.max(np.abs(synthesize(res.field).mean(axis=1))) <= 1e-13 * peak
    assert numbers["decay_fit"] > 0.0
    assert record["bounds"] is not None


def test_converged_means_strong_residual_within_limit():
    # Newton's last step from this seed lands at fp_residual 9.8e-11, under
    # tol, while the strong residual is still 1.08 times verify's limit
    cfg = replace(flagship_config("even"), seed=(0.87140064465153, 0.9157754696836321))
    res = hybrid_solve(cfg)
    assert res.status == "converged"
    assert (strong_residual(res.field, cfg.potential, cfg.weight)
            <= 10.0 * cfg.tol_residual * x2_norm(res.field, cfg.weight))


def test_newton_ends_max_iter_once_it_stagnates(monkeypatch):
    # a step of 1e-6 of the residual never halves it: ten rows without progress
    monkeypatch.setattr(solver_module, "gmres", lambda A, b, **kwargs: 1e-6 * b)
    res = newton_solve(flagship_config("odd"))
    assert (res.status, res.iterations, len(res.trace)) == ("max_iter", 10, 11)


@pytest.mark.parametrize("solve_fn, amplitude, iterations, fp_residual", [
    (hybrid_solve, 40.0, 6, math.nan),   # Picard runs away; no iterate is rescuable
    (picard_solve, 40.0, 6, math.nan),
    (newton_solve, 1e7, 0, math.nan),    # the seed itself is past DIVERGENCE_NORM
])
def test_runaway_seed_ends_diverged(solve_fn, amplitude, iterations, fp_residual):
    cfg = replace(flagship_config("odd"), seed=(amplitude, 1.0))
    result = solve_fn(cfg)
    assert result.status == "diverged"
    assert result.iterations == iterations
    assert math.isnan(result.trace[-1][1])
    np.testing.assert_equal(result.fp_residual, fp_residual)


@pytest.mark.parametrize("parity", ["odd", "even"])
@EACH_ENTRY_POINT
def test_solved_fields_lie_in_the_time_reversal_class(entry, parity):
    # the solvers iterate on the real cosine coefficients, u(t) = u(-t)
    result = entry(flagship_config(parity))
    assert np.all(result.field.coeffs.imag == 0.0)
    assert result.field.coeffs.dtype == np.float64


def test_sweep_and_refined_fields_lie_in_the_time_reversal_class(flagship_result):
    sweep = continuation_sweep(flagship_config("odd"), 2.3, 2.2, 3)
    assert [r.status for r in sweep] == ["converged"] * 3
    fields = [r.field for r in sweep] + [refine(flagship_result, 2).field]
    assert all(np.all(fld.coeffs.imag == 0.0) for fld in fields)
    assert all(fld.coeffs.dtype == np.float64 for fld in fields)


def test_odd_flagship_work_counts(monkeypatch):
    # machine-independent cost of the hybrid solve from seed (0.8, 1.0): the
    # Newton iterate's residual comes from the line search, not a second S
    counts = {"apply_S": 0, "gmres": 0, "matvec": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def gmres(op, b, **kwargs):
        counted_op = LinearOperator(op.shape, matvec=counting("matvec", op.matvec),
                                    dtype=op.dtype)
        return real_gmres(counted_op, b, **kwargs)

    real_gmres = solver_module.gmres
    monkeypatch.setattr(solver_module, "apply_S", counting("apply_S", apply_S))
    monkeypatch.setattr(solver_module, "gmres", counting("gmres", gmres))
    result = hybrid_solve(flagship_config("odd"))
    assert result.status == "converged"
    assert (result.iterations, counts["apply_S"], counts["matvec"], counts["gmres"]) == \
        (8, 10, 17, 5)


def test_hybrid_picard_hands_over_at_radial_collapse():
    # the odd flagship's Picard phase slides inward after its best iterate;
    # the hybrid phase stops at the first later row under half the best norm,
    # while a Picard solve runs the same rows on until it collapses to zero
    cfg = flagship_config("odd")
    work = _working_config(cfg)
    trace = []
    out = _picard_phase(work, build_seed(work), 100, trace, handover=True)
    best = min(range(len(trace)), key=lambda i: trace[i][1])
    collapsed = [i for i in range(best + 1, len(trace))
                 if trace[i][2] < PICARD_COLLAPSE_FRACTION * trace[best][2]]
    assert out.status is None and collapsed and collapsed[0] == len(trace) - 1
    assert (out.best_residual, x0_norm(out.best_field, work.weight)) == trace[best][1:]
    picard = picard_solve(cfg)
    assert picard.status == "collapsed_to_zero"
    assert picard.trace[:len(trace)] == trace and len(picard.trace) > len(trace)


def _replay_anderson(monkeypatch, solve_fn, cfg) -> tuple[list[int], AndersonHistory]:
    """Solve, checking every Picard step bit for bit against the restacking
    oracle fed the same iterates, built from the solver's ANDERSON_DEPTH and
    PICARD_DAMPING as they stand at the call; returns each step's column
    count and the oracle's history."""
    history = AndersonHistory(solver_module.ANDERSON_DEPTH, solver_module.PICARD_DAMPING)
    columns = []
    real_step = solver_module._anderson_step

    def checked(x_k, f_k, dx, df, theta):
        new = real_step(x_k, f_k, dx, df, theta)
        expected, expected_columns = history.step(x_k.copy(), f_k.copy())
        assert dx.shape[1] == df.shape[1] == expected_columns
        assert np.array_equal(new, expected)
        columns.append(expected_columns)
        return new

    monkeypatch.setattr(solver_module, "_anderson_step", checked)
    solve_fn(cfg)
    return columns, history


@pytest.mark.parametrize("depth", [0, 1, 5])
@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("solve_fn", [hybrid_solve, picard_solve], ids=["hybrid", "picard"])
def test_anderson_steps_match_the_restacking_oracle(solve_fn, parity, depth, monkeypatch):
    monkeypatch.setattr(solver_module, "ANDERSON_DEPTH", depth)
    columns, history = _replay_anderson(monkeypatch, solve_fn, flagship_config(parity))
    assert columns and max(columns) <= depth
    if solve_fn is picard_solve and depth > 0:
        assert history.trims > 0  # the history ran full and dropped its oldest pair


@pytest.mark.parametrize("parity, seed, damping, depth, cut", [
    ("odd", (40.0, 1.0), 0.5, 5, False),   # the runaway step is the last before divergence
    ("even", (40.0, 1.0), 0.5, 5, False),  # the first step runs away, three follow it
    ("odd", (6.0, 1.0), 1.0, 2, True),     # two columns cut back to one, then regrown
])
def test_anderson_history_resets_after_a_runaway_step(parity, seed, damping, depth, cut,
                                                       monkeypatch):
    monkeypatch.setattr(solver_module, "PICARD_DAMPING", damping)
    monkeypatch.setattr(solver_module, "ANDERSON_DEPTH", depth)
    cfg = replace(flagship_config(parity), seed=seed)
    columns, history = _replay_anderson(monkeypatch, picard_solve, cfg)
    assert history.resets > 0
    assert any(later < earlier for earlier, later in zip(columns, columns[1:])) == cut


def _assert_gmres_matches_scipy(A, b, **kwargs):
    """Bit-for-bit check of one cycle against scipy's first; returns scipy's info."""
    x = solver_module.gmres(A, b, **kwargs)
    x_ref, info_ref = scipy_gmres(A, b, atol=0.0, maxiter=1, **kwargs)
    assert np.array_equal(x, x_ref)
    return info_ref


def _recording_gmres(monkeypatch) -> list[tuple]:
    """Patch the solver's GMRES to record (A, b, kwargs, matvecs) of every call."""
    calls = []
    real_gmres = solver_module.gmres

    def recording(A, b, **kwargs):
        matvecs = [0]

        def matvec(v):
            matvecs[0] += 1
            return A.matvec(v)

        x = real_gmres(LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), b, **kwargs)
        calls.append((A, b.copy(), kwargs, matvecs[0]))
        return x

    monkeypatch.setattr(solver_module, "gmres", recording)
    return calls


def _assert_every_cycle_stops_before_its_cap(calls):
    # gmres runs one cycle: a system that needed a restart would reach the cap
    most = max(matvecs for *_, matvecs in calls)
    assert all(matvecs < min(kwargs["restart"], b.size) for _, b, kwargs, matvecs in calls), \
        f"a GMRES call reached its column cap (most matvecs in one call: {most})"


def test_gmres_matches_scipy_on_the_flagship_newton_systems(monkeypatch):
    calls = _recording_gmres(monkeypatch)
    for parity in ("odd", "even"):
        assert hybrid_solve(flagship_config(parity)).status == "converged"
    monkeypatch.undo()
    _assert_every_cycle_stops_before_its_cap(calls)
    assert len(calls) == 5 + 4  # odd, even
    for A, b, kwargs, _ in calls:
        assert _assert_gmres_matches_scipy(A, b, **kwargs) == 0  # met rtol in one cycle


def test_dlartg_matches_lapack():
    # repr tells the signs of zeros apart and shows nan
    rng = random.Random(21)
    scales = [10.0 ** e for e in range(-300, 301, 25)]
    values = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308,
              math.inf, -math.inf, math.nan]
    # each side of LAPACK's unscaled-branch limits sqrt(safmin) and sqrt(safmax / 2)
    for edge in (math.sqrt(sys.float_info.min), math.sqrt(0.5 / sys.float_info.min)):
        values += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf),
                   -edge, 0.9 * edge, 1.1 * edge]
    pairs = list(itertools.product(values, repeat=2))
    for f_scale, g_scale in itertools.product(scales, repeat=2):
        for _ in range(4):
            pairs.append((rng.choice((-1, 1)) * rng.uniform(1, 10) * f_scale,
                          rng.choice((-1, 1)) * rng.uniform(1, 10) * g_scale))
    for f, g in pairs:
        assert list(map(repr, solver_module.dlartg(f, g))) == \
            list(map(repr, scipy_dlartg(f, g))), (f, g)


def _well_conditioned(n, rng):
    return np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)


@pytest.mark.parametrize("case", ["random_512", "zero_rhs", "breakdown", "column_cap",
                                  "column_cap_tight"])
def test_gmres_matches_scipy(case):
    rng = np.random.default_rng(18)
    n = 512 if case == "random_512" else 40
    b = rng.standard_normal(n)
    A = _well_conditioned(n, rng)
    kwargs = dict(rtol=1e-10, restart=60)
    if case == "zero_rhs":
        b = np.zeros(n)
    elif case == "breakdown":
        A = np.eye(n)
    elif case == "column_cap":
        kwargs.update(restart=4)
    elif case == "column_cap_tight":
        kwargs.update(rtol=1e-14, restart=2)
    matvecs = []
    op = LinearOperator(A.shape, matvec=lambda v: matvecs.append(1) or A @ v, dtype=float)
    solver_module.gmres(op, b, **kwargs)
    stops_at_cap = case.startswith("column_cap")
    assert (len(matvecs) == kwargs["restart"]) == stops_at_cap
    assert _assert_gmres_matches_scipy(op, b, **kwargs) == (1 if stops_at_cap else 0)


def test_newton_from_zero_collapses():
    cfg = flagship_config("odd")
    result = newton_solve(cfg, zero_field(cfg.grid))
    assert result.status == "collapsed_to_zero"


def test_newton_idempotent_on_solution(flagship_result):
    cfg = flagship_config("odd")
    result = newton_solve(cfg, flagship_result.field)
    assert result.status == "converged"
    assert result.iterations <= 2
    assert result.fp_residual <= flagship_result.fp_residual * (1.0 + 1e-9)


def test_newton_from_half_converged_iterate():
    cfg = flagship_config("odd")
    trace = []
    out = _picard_phase(cfg, build_seed(cfg), 6, trace)
    assert out.best_residual < 1.0
    result = newton_solve(cfg, out.best_field)
    assert result.status == "converged"
    assert result.iterations <= 10


def test_deterministic_iterate_sequence(flagship_result):
    rerun = hybrid_solve(flagship_config("odd"))
    assert len(rerun.trace) == len(flagship_result.trace)
    for a, b in zip(rerun.trace, flagship_result.trace):
        assert a == b
    assert np.array_equal(rerun.field.coeffs, flagship_result.field.coeffs)


def _auto_seed_config(quartic: float, omega: float, parity: str, n_sites: int = 64,
                      lam: float = 0.0) -> SolverConfig:
    return SolverConfig(grid=GridSpec.with_dealiasing(n_sites, 16, omega),
                        weight=WeightSpec.for_parity(lam, parity),
                        potential=PotentialSpec(quartic=quartic), parity=parity,
                        seed=(None, 1.0))


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("quartic", [0.5, 1.0, 2.0])
def test_auto_seed_lies_on_its_fixed_point_ray(quartic, parity, lam):
    cfg = _auto_seed_config(quartic, 2.2, parity, lam=lam)
    seed = build_seed(cfg)
    ratio = x0_norm(apply_S(seed, cfg.potential), cfg.weight) / x0_norm(seed, cfg.weight)
    assert abs(ratio - 1.0) <= 1e-12


def test_auto_seed_converges_over_the_band_edge_grid(monkeypatch):
    # lattice long enough for the tail rate kappa to reach 1e-10 at the edge
    calls = _recording_gmres(monkeypatch)
    failed = []
    for quartic in (0.5, 1.0, 2.0):
        for omega in (2.02, 2.05, 2.1, 2.2, 2.35, 2.5, 2.8, 3.2, 3.6):
            kappa = math.acosh((omega**2 - 2.0) / 2.0)
            n_sites = max(64, 2 * math.ceil(math.log(1e10) / kappa + 4))
            for parity in ("odd", "even"):
                res = solve(_auto_seed_config(quartic, omega, parity, n_sites))
                if res.status != "converged":
                    failed.append((quartic, omega, parity, res.status))
    assert failed == []
    _assert_every_cycle_stops_before_its_cap(calls)


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("omega", [2.2, 2.8])
def test_auto_seed_solves_are_quartic_covariant(omega, parity):
    # x = z / sqrt(beta) maps the beta-chain onto the beta = 1 chain, and
    # S(c x) = c**3 S(x) makes the ray seed follow the same map
    results = {quartic: solve(_auto_seed_config(quartic, omega, parity))
               for quartic in (0.01, 1.0, 100.0)}
    assert [res.status for res in results.values()] == ["converged"] * 3
    scaled = [res.x0_norm * math.sqrt(quartic) for quartic, res in results.items()]
    assert scaled == pytest.approx([scaled[1]] * 3, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("amplitude", [0.8, None], ids=["seeded", "auto"])
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_quartic_scaling_maps_the_whole_solve(parity, amplitude):
    # the seed z / sqrt(beta) of the beta-chain is the beta = 1 seed z, so
    # the iteration is the same one: equal status and iteration count
    def run(quartic):
        seed = None if amplitude is None else amplitude / math.sqrt(quartic)
        return solve(replace(flagship_config(parity), potential=PotentialSpec(quartic=quartic),
                             seed=(seed, 1.0)))

    reference = run(1.0)
    assert reference.status == "converged"
    for quartic in (0.25, 4.0):
        res = run(quartic)
        assert (res.status, res.iterations) == (reference.status, reference.iterations)
        assert res.x0_norm * math.sqrt(quartic) == pytest.approx(reference.x0_norm,
                                                                  rel=1e-12, abs=0.0)


@pytest.mark.parametrize("max_iter", [1, 3, 12])
@EACH_ENTRY_POINT
def test_trace_stays_within_max_iter(entry, max_iter):
    cfg = SolverConfig(grid=GridSpec.with_dealiasing(64, 16, 2.5), weight=WeightSpec(0.0),
                       potential=QUARTIC, parity="odd", seed=(0.9, 1.0), max_iter=max_iter)
    assert len(entry(cfg).trace) <= max_iter


def test_ring_membership_at_high_frequency():
    # under the strengthened non-resonance condition the computed breather
    # obeys the rigorous lower bound r_crit; the upper bound r_max is
    # reported (every nontrivial fixed point provably sits at or above it)
    grid = GridSpec(64, 16, 130, math.sqrt(12.0))
    cfg = SolverConfig(grid=grid, weight=WeightSpec(0.0), potential=QUARTIC,
                       parity="odd", seed=(2.0, 1.5),
                       max_iter=400)
    res = hybrid_solve(cfg)
    assert res.status == "converged"
    bounds = bounds_report(grid.omega, cfg.weight, cfg.potential, res.x0_norm)
    assert bounds.nonres_ok
    assert res.x0_norm >= bounds.r_crit
    print(f"ring upper-bound gap: x0 = {res.x0_norm:.6f} vs r_max = "
          f"{bounds.r_max:.6f} (in_ring = {bounds.in_ring})")


def test_sweep_single_step_degenerates_to_solve(flagship_result):
    cfg = flagship_config("odd")
    results = continuation_sweep(cfg, cfg.grid.omega, 2.4, 1)
    assert len(results) == 1
    assert results[0].config == cfg
    assert results[0].status == "converged"
    assert np.array_equal(results[0].field.coeffs, flagship_result.field.coeffs)


def test_sweep_monotone_norms_and_oracle_crosscheck():
    cfg = SolverConfig(grid=GridSpec(64, 16, 130, 2.6), weight=WeightSpec(0.0),
                       potential=QUARTIC, parity="odd",
                       seed=(0.8, 1.0), max_iter=400)
    results = continuation_sweep(cfg, 2.6, 2.1, 10)
    assert all(r.status == "converged" for r in results)
    norms = [r.x0_norm for r in results]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    # independent shooting solves at three interior frequencies
    for idx in (2, 5, 7):
        res = results[idx]
        oracle = shooting_orbit(QUARTIC, res.config.grid.omega, 32,
                                staggered_guess(32, 0.8, 0.9))
        spectral = central_block(profile_at_t0(res.field), 32)
        rel = np.linalg.norm(spectral - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-5


def test_sweep_bisects_a_failed_point(monkeypatch):
    calls = []

    def recorded(cfg, initial=None, predicted=None):
        res = solve(cfg, initial, predicted)
        calls.append((cfg.grid.omega, res.status))
        return res

    monkeypatch.setattr(solver_module, "solve", recorded)
    cfg = SolverConfig(grid=GridSpec.with_dealiasing(64, 8, 2.6), weight=WeightSpec(0.0),
                       potential=QUARTIC, parity="odd", seed=(0.85, 1.05))
    results = continuation_sweep(cfg, 2.6, 2.02, 4)
    assert [r.status for r in results] == ["converged"] * 4
    # the warm start at 2.02 fails, the midpoint converges, the retry succeeds
    omegas = [omega for omega, _ in calls]
    assert [status for _, status in calls] == ["converged"] * 3 + ["max_iter"] + \
        ["converged"] * 2
    assert omegas[3] == omegas[5] == 2.02
    assert omegas[4] == 0.5 * (omegas[2] + 2.02)
    assert results[-1].x0_norm == pytest.approx(0.4399, abs=1e-4)


def test_warm_sweep_points_converge_in_capped_newton_from_the_secant(monkeypatch):
    starts = []

    def recorded(config, initial=None):
        starts.append(initial)
        return newton_solve(config, initial)

    monkeypatch.setattr(solver_module, "newton_solve", recorded)
    cfg = SolverConfig(grid=GridSpec.with_dealiasing(32, 8, 2.6), weight=WeightSpec(0.0),
                       potential=QUARTIC, parity="odd", seed=(0.85, 1.05))
    results = continuation_sweep(cfg, 2.6, 2.4, 3)
    f0, f1 = (res.field.coeffs for res in results[:2])
    w0, w1, w2 = (res.config.grid.omega for res in results)
    # the second point starts from the first's field, the third from the secant
    assert [start.coeffs.tobytes() for start in starts] == [
        f0.tobytes(), (f1 + (w2 - w1) / (w1 - w0) * (f1 - f0)).tobytes()]
    for res in results[1:]:
        cold = hybrid_solve(cfg.with_omega(res.config.grid.omega))
        assert res.status == cold.status == "converged"
        assert res.iterations <= solver_module.WARM_NEWTON_STEPS
        assert res.x0_norm == pytest.approx(cold.x0_norm, rel=1e-10, abs=0.0)


def test_a_warm_solve_that_misses_is_the_hybrid_from_its_start(monkeypatch, flagship_result):
    attempts = []

    def missing(config, initial=None):
        attempts.append((config.max_iter, initial))
        return newton_solve(replace(config, max_iter=1), initial)

    monkeypatch.setattr(solver_module, "newton_solve", missing)
    cfg = flagship_config("odd").with_omega(2.3)
    carry = flagship_result.field
    predicted = carry.with_coeffs(1.01 * carry.coeffs)
    got = solve(cfg, carry, predicted)
    assert [(cap, start is predicted) for cap, start in attempts] == [
        (solver_module.WARM_NEWTON_STEPS, True)]
    want = hybrid_solve(cfg, carry)
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert got.field.coeffs.tobytes() == want.field.coeffs.tobytes()
    assert repr(got.trace) == repr(want.trace)


@pytest.mark.parametrize("ramp", [(2.2, 1.8), (1.8, 2.2)], ids=["descending", "ascending"])
def test_sweep_reports_resonant_points(ramp):
    cfg = SolverConfig(grid=GridSpec(32, 8, 66, 2.2), weight=WeightSpec(0.0),
                       potential=QUARTIC, parity="odd",
                       seed=(0.8, 1.0), max_iter=200)
    results = continuation_sweep(cfg, *ramp, 5)
    assert len(results) == 5
    by_omega = sorted(results, key=lambda r: r.config.grid.omega)
    assert (by_omega[0].status, by_omega[-1].status) == ("resonance", "converged")
    for r in results:
        if r.config.grid.omega**2 <= 4.0:
            assert r.status == "resonance"
    # after resonant points, the first converged point is a cold solve: none came before it
    first = next(r for r in results if r.status == "converged")
    cold = solve(first.config)
    assert repr(first.trace) == repr(cold.trace)
    assert first.field.coeffs.tobytes() == cold.field.coeffs.tobytes()


@pytest.mark.parametrize("ends, named", [((math.inf, 2.4), "omega_from = inf"),
                                         ((2.6, -3.0), "omega_to = -3.0"),
                                         ((2.6, math.nan), "omega_to = nan")])
def test_sweep_refuses_an_endpoint_before_any_solve(ends, named, monkeypatch):
    def no_solve(config, initial=None):
        raise AssertionError("a point was solved before the endpoints were checked")

    monkeypatch.setattr(solver_module, "solve", no_solve)
    cfg = SolverConfig(grid=GridSpec(32, 8, 66, 2.6), weight=WeightSpec(0.0),
                       potential=QUARTIC, parity="odd", seed=(0.8, 1.0))
    with pytest.raises(ValueError, match=f"^{re.escape(named)} must be positive and finite$"):
        continuation_sweep(cfg, *ends, 3)


def test_refine_identity_and_factor_two(flagship_result):
    same = refine(flagship_result, 1)
    assert same.status == "converged"
    assert same.refinement_change < 1e-12
    finer = refine(flagship_result, 2)
    assert finer.status == "converged"
    assert finer.field.grid.n_sites == 128
    assert finer.field.grid.n_harmonics == 32
    assert finer.refinement_change < 1e-8


def test_refine_rejects_unconverged():
    cfg = SolverConfig(grid=GridSpec(32, 8, 66, 2.5), weight=WeightSpec(0.0),
                       potential=PotentialSpec(), parity="odd",
                       seed=(0.5, 1.0), max_iter=20)
    res = picard_solve(cfg)
    with pytest.raises(ValueError):
        refine(res, 2)


def test_solved_field_is_on_the_config_grid_with_even_harmonics_zero(flagship_result,
                                                                     flagship_even_result):
    for result in (flagship_result, flagship_even_result):
        assert result.field.grid == flagship_config(result.config.parity).grid
        assert np.all(result.field.coeffs[:, 1::2] == 0.0)
        assert np.any(result.field.coeffs[:, ::2] != 0.0)


@EACH_ENTRY_POINT
def test_initial_field_is_projected_onto_the_half_wave_class(entry, flagship_result):
    cfg = replace(flagship_config("odd"), max_iter=3)
    noise = project_odd(random_field(cfg.grid, np.random.default_rng(7))).coeffs
    noisy = flagship_result.field.coeffs.copy()
    noisy[:, 1::2] = noise[:, 1::2]  # even harmonics the odd parity projector keeps
    clean, projected = (entry(cfg, flagship_result.field.with_coeffs(c))
                        for c in (flagship_result.field.coeffs, noisy))
    assert projected.trace == clean.trace
    assert np.array_equal(projected.field.coeffs, clean.field.coeffs)


@EACH_ENTRY_POINT
def test_initial_field_wider_than_the_grid_is_refused_by_name(entry):
    cfg = flagship_config("odd")
    wide = zero_field(GridSpec(96, 16, 130, cfg.grid.omega))
    with pytest.raises(ValueError, match="a field of 96 sites on a 64-site grid"):
        entry(cfg, wide)
