import dataclasses
import math

import numpy as np
import pytest

from breather_forge import (BlowUpError, GridSpec, InsufficientTailError,
                            MixedPotentialError, PotentialSpec, SpectralField,
                            TrajectoryReport, WeightSpec, boundary_floor,
                            bounds_report, eval_potential, decay_rate_fit,
                            fit_decay_profile, initial_conditions,
                            integrate_trajectory, lattice_energy,
                            strong_residual, synthesize,
                            weighted_profile_norm, x0_norm, x2_norm, zero_field,
                            max_amplitude_profile)

from conftest import QUARTIC
from oracles import classical_residual


def test_bounds_arithmetic_flagship_point():
    report = bounds_report(math.sqrt(12.0), WeightSpec(0.0), QUARTIC, 0.0)
    # base (12 - 4) / (3 * 2) = 4/3 with exponents 1/2 and 1/3
    assert report.r_max == pytest.approx((4.0 / 3.0) ** 0.5, abs=1e-15)
    assert report.r_crit == pytest.approx((4.0 / 3.0) ** (1.0 / 3.0), abs=1e-15)
    assert report.nonres0_ok and report.nonres_ok
    assert report.r_crit < report.r_max


def test_bounds_weak_frequency_flags():
    report = bounds_report(math.sqrt(8.0), WeightSpec(0.0), QUARTIC, 0.5)
    assert report.nonres0_ok
    assert not report.nonres_ok  # 8 < 4 + 6
    assert report.r_crit > report.r_max
    assert report.in_ring is None


def test_bounds_monotone_in_decay_rate():
    values = [bounds_report(3.0, WeightSpec(lam), QUARTIC, 0.0).r_max
              for lam in np.linspace(0.0, 12.0, 13)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.2 * values[0]


def test_bounds_double_when_coupling_halves():
    # alpha = 1 (cubic): r_max scales like 1/kbar
    big = bounds_report(3.0, WeightSpec(0.0), PotentialSpec(cubic=1.0), 0.0)
    small = bounds_report(3.0, WeightSpec(0.0), PotentialSpec(cubic=0.5), 0.0)
    assert small.r_max == pytest.approx(2.0 * big.r_max, rel=1e-14)


def test_bounds_agree_with_direct_formula_on_grid():
    for omega in np.linspace(2.05, 4.0, 6):
        for lam in np.linspace(0.0, 2.0, 5):
            report = bounds_report(omega, WeightSpec(lam), QUARTIC, 0.0)
            base = (omega**2 - 4.0) / (3.0 * math.sqrt(2.0 * (1.0 + math.cosh(lam))))
            assert report.r_max == pytest.approx(base ** 0.5, rel=1e-14)
            assert report.r_crit == pytest.approx(base ** (1.0 / 3.0), rel=1e-14)


@pytest.mark.parametrize("lam", [709.9, 710.4])
def test_bounds_stay_positive_where_cosh_is_finite(lam):
    # cosh(lam) is finite here, but 2 (1 + cosh(lam)) is not
    assert math.isinf(2.0 * (1.0 + math.cosh(lam)))
    report = bounds_report(2.2, WeightSpec(lam), QUARTIC, 0.0)
    assert 0.0 < report.r_max < math.inf and 0.0 < report.r_crit < math.inf


def test_bounds_reject_mixed_potential():
    with pytest.raises(MixedPotentialError):
        bounds_report(3.0, WeightSpec(0.0), PotentialSpec(cubic=1.0, quartic=1.0), 0.0)


def test_bounds_harmonic_limit_is_unbounded():
    report = bounds_report(3.0, WeightSpec(0.0), PotentialSpec(), 0.0)
    assert math.isinf(report.r_max) and math.isinf(report.r_crit)


def test_decay_fit_exact_exponential():
    sites = np.arange(64) - 32
    amp = np.exp(-0.7 * np.abs(sites))
    lam_eff, intercept, r2 = fit_decay_profile(amp, center=0.0)
    assert lam_eff == pytest.approx(0.7, abs=1e-10)
    assert intercept == pytest.approx(0.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_flat_profile_fails():
    with pytest.raises(InsufficientTailError):
        fit_decay_profile(np.ones(64), center=0.0)


def test_decay_fit_narrow_window_fails():
    sites = np.arange(8) - 4
    with pytest.raises(InsufficientTailError):
        fit_decay_profile(np.exp(-0.1 * np.abs(sites)), center=0.0)


def test_decay_rate_fit_on_flagship(flagship_result):
    lam_eff, r2 = decay_rate_fit(flagship_result)
    assert lam_eff > 0.0
    assert r2 >= 0.999
    # the weighted profile norm stays finite for every lam < 2 * lam_eff
    profile = max_amplitude_profile(flagship_result.field)
    for lam in (0.5 * lam_eff, 1.2 * lam_eff, 1.8 * lam_eff):
        value = weighted_profile_norm(profile, WeightSpec(lam))
        assert math.isfinite(value)
    # direct summation oracle: the tail terms decay geometrically
    sites = np.arange(64) - 32
    terms = np.exp(1.8 * lam_eff * np.abs(sites)) * profile**2
    tail = terms[np.abs(sites) > 20]
    assert np.all(tail[:-1] * np.exp(-0.1) > tail[1:] * 0.0)  # finite, no overflow
    assert float(np.sum(terms)) < math.inf


def test_decay_rate_fit_needs_convergence(flagship_result):
    from dataclasses import replace
    broken = replace(flagship_result, status="max_iter")
    with pytest.raises(ValueError, match="converged"):
        decay_rate_fit(broken)


def test_strong_residual_cases(flagship_result):
    grid = GridSpec(32, 8, 66, 2.5)
    assert strong_residual(zero_field(grid), QUARTIC) == 0.0
    rng = np.random.default_rng(8)
    noise = SpectralField(grid, rng.standard_normal((32, 8)))
    assert strong_residual(noise, QUARTIC) > 0.0
    res = flagship_result
    assert (strong_residual(res.field, QUARTIC, res.config.weight)
            <= 10.0 * 1e-10 * x2_norm(res.field, res.config.weight))


def test_classical_residual_flagship(flagship_result):
    assert classical_residual(flagship_result.field, QUARTIC) <= 1e-8


def test_lattice_energy_cases():
    harmonic = PotentialSpec()
    zero = np.zeros(8)
    assert lattice_energy(zero, zero, QUARTIC) == 0.0
    x = np.zeros(8)
    x[3] = 1.0
    assert lattice_energy(x, zero, harmonic) == 0.5
    # a unit y at one site puts momenta -1 and +1 on its two neighbouring bonds
    y = np.zeros(8)
    y[4] = 1.0
    assert lattice_energy(zero, y, harmonic) == 1.0
    # momenta are differences of y, so a constant shift of y is a gauge
    rng = np.random.default_rng(5)
    x, y = 0.3 * rng.standard_normal(8), rng.standard_normal(8)
    assert lattice_energy(x, y + 2.5, QUARTIC) == pytest.approx(
        lattice_energy(x, y, QUARTIC), rel=1e-14)


def test_initial_conditions_solve_velocity_relation(flagship_result):
    field = flagship_result.field
    x0, y0 = initial_conditions(field)
    # x(0) equals the synthesized sample row at t = 0
    assert np.allclose(x0, synthesize(field)[:, 0], atol=1e-13)
    # y reproduces xdot via the canonical coupling at t = 0
    grid = field.grid
    m = grid.harmonics
    xdot0 = 2.0 * np.sum(np.real(1j * grid.omega * m[None, :] * field.coeffs), axis=1)
    relation = 2.0 * y0 - np.roll(y0, -1) - np.roll(y0, 1)
    assert np.allclose(relation, xdot0, atol=1e-12)


@pytest.mark.parametrize("which", ["flagship_result", "flagship_even_result"])
def test_initial_conditions_start_at_rest(which, request):
    # a cosine field has x'(0) = 0, so y(0) is its gauge value, zero
    field = request.getfixturevalue(which).field
    x0, y0 = initial_conditions(field)
    assert np.all(y0 == 0.0)
    assert np.allclose(x0, synthesize(field)[:, 0], rtol=0.0, atol=1e-13)


def test_integrate_zero_field_has_zero_drifts():
    report = integrate_trajectory(zero_field(GridSpec(32, 8, 66, 2.5)),
                                  QUARTIC, 2, 128)
    assert report.energy_drift == 0.0
    assert report.momentum_drift == 0.0
    assert report.period_return_error == 0.0
    assert report.dt * 128 == pytest.approx(2.0 * math.pi / 2.5, rel=1e-15)


def test_integrate_rejects_coarse_grids():
    with pytest.raises(ValueError):
        integrate_trajectory(zero_field(GridSpec(32, 8, 66, 2.5)), QUARTIC, 1, 32)


def test_integrator_order_on_phonon_standing_wave():
    # band-edge standing wave of the harmonic lattice: x_n = (-1)^n a cos(2t)
    grid = GridSpec(32, 8, 66, 2.0)
    coeffs = np.zeros((32, 8))
    coeffs[:, 0] = 0.05 * (-1.0) ** np.abs(grid.sites) / 2.0
    field = SpectralField(grid, coeffs)
    harmonic = PotentialSpec()
    coarse = integrate_trajectory(field, harmonic, 1, 128)
    fine = integrate_trajectory(field, harmonic, 1, 256)
    ratio = coarse.period_return_error / fine.period_return_error
    assert 3.5 <= ratio <= 4.5
    assert fine.period_return_error < coarse.period_return_error < 1e-2


def _textbook_verlet(field, spec, periods, steps_per_period) -> TrajectoryReport:
    """Velocity-Verlet as written in textbooks: two force evaluations a step."""
    x, y = initial_conditions(field)
    dt = field.grid.period / steps_per_period

    def energy(x, y):
        p = y - np.roll(y, -1)
        return float(np.sum(0.5 * p**2 + eval_potential(spec, x).V))

    e0, p0 = energy(x, y), float(np.sum(y - np.roll(y, -1)))
    z0 = np.concatenate([x, y])
    energy_drift = momentum_drift = return_error = 0.0
    for period in range(periods):
        for _ in range(steps_per_period):
            y = y - 0.5 * dt * eval_potential(spec, x).Vp
            x = x + dt * (2.0 * y - np.roll(y, -1) - np.roll(y, 1))
            y = y - 0.5 * dt * eval_potential(spec, x).Vp
        energy_drift = max(energy_drift, abs(energy(x, y) - e0) / abs(e0))
        momentum_drift = max(momentum_drift, abs(float(np.sum(y - np.roll(y, -1))) - p0))
        if period == 0:
            return_error = float(np.linalg.norm(np.concatenate([x, y]) - z0)
                                 / np.linalg.norm(z0))
    return TrajectoryReport(energy_drift, momentum_drift, return_error, periods, dt)


@pytest.mark.parametrize("periods, steps", [(2, 128), (3, 256)])
@pytest.mark.parametrize("result", ["flagship_result", "flagship_even_result"])
def test_integrator_matches_textbook_verlet(result, periods, steps, request):
    # one force evaluation per step and in-place slice updates change no arithmetic
    field = request.getfixturevalue(result).field
    fast = integrate_trajectory(field, QUARTIC, periods, steps)
    slow = _textbook_verlet(field, QUARTIC, periods, steps)
    for name, value in dataclasses.asdict(slow).items():
        assert getattr(fast, name) == value, name


def test_long_run_drifts_stay_bounded(flagship_result):
    # 100 periods at fixed dt: symplectic energy error stays bounded at the
    # dt^2 scale instead of growing secularly; momentum telescopes to
    # round-off regardless
    report = integrate_trajectory(flagship_result.field, QUARTIC, 100, 256)
    assert report.energy_drift <= 1e-6
    assert report.momentum_drift <= 1e-12


def test_trajectory_blow_up_detected():
    # soft quartic potential is unbounded below; a large kick escapes
    grid = GridSpec(32, 8, 66, 2.5)
    coeffs = np.zeros((32, 8))
    coeffs[16, 0] = 4.0
    field = SpectralField(grid, coeffs)
    with pytest.raises(BlowUpError):
        integrate_trajectory(field, PotentialSpec(quartic=-1.0), 5, 128)


def test_boundary_floor(flagship_result):
    assert boundary_floor(flagship_result.field) <= 1e-10
    # edge/peak is undefined without a peak, and a nan row fails the check table
    assert math.isnan(boundary_floor(zero_field(GridSpec(32, 8, 66, 2.5))))
