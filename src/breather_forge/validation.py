"""Independent verification: the check table, bounds, decay fits, time integration.

Everything here checks a computed field by a route that does not share code
with the fixed-point iteration: the check table, closed-form bound arithmetic,
least-squares tail fits, and symplectic integration of the lattice equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice_model import PotentialSpec, eval_potential, force, growth_bound
from .operators import apply_M, apply_N
from .spectral_field import (SpectralField, WeightOverflowError, WeightSpec, max_amplitude_profile,
                             parity_center, parity_projector, synthesize, x0_norm, x2_norm)

X0_NORM_RTOL = 1e-12  # verify's limits on a stored X0 norm, and on stored r_max and r_crit
BOUNDS_RTOL = 1e-14


class InsufficientTailError(ValueError):
    """Too few resolvable tail sites to fit a decay rate."""


class BlowUpError(RuntimeError):
    """Trajectory left the finite range; the initial data is not a breather."""


@dataclass(frozen=True)
class BoundsReport:
    """Existence-theorem bound arithmetic for a pure power-law potential.

    r_max and r_crit share the base (Om^2 - 4) / (kbar * sqrt(2 (1 + cosh lam)))
    with exponents 1/alpha and 1/(1+alpha).  nonres0_ok is the plain band
    condition Om^2 > 4; nonres_ok the strengthened one that orders
    r_crit < r_max and localises nontrivial solutions in the ring.
    """

    r_max: float
    r_crit: float
    nonres0_ok: bool
    nonres_ok: bool
    in_ring: bool | None
    x0_norm: float


@dataclass(frozen=True)
class TrajectoryReport:
    energy_drift: float
    momentum_drift: float
    period_return_error: float
    periods_integrated: int
    dt: float


def bounds_report(omega: float, weight: WeightSpec, potential: PotentialSpec,
                  x0_norm_value: float) -> BoundsReport:
    """Evaluate the bound formulas at (omega, lambda, potential).

    Ring membership is only decided under the strengthened non-resonance
    condition; otherwise r_crit >= r_max and the flag stays None.
    """
    if not 0.0 < omega < math.inf:
        raise ValueError("omega must be positive and finite")
    if not 0.0 <= x0_norm_value < math.inf:
        raise ValueError("x0_norm must be finite and >= 0")
    kbar, alpha = growth_bound(potential)
    omega2 = omega * omega  # inf above 1.34e154, where **2 raises OverflowError
    nonres0 = omega2 > 4.0
    if kbar == 0.0:
        # harmonic limit: the envelope constant vanishes and both radii diverge
        return BoundsReport(math.inf, math.inf, nonres0, nonres0, None, x0_norm_value)
    try:
        # sqrt(2 (1 + cosh)) to the bit, but 2 (1 + cosh) overflows where cosh does not
        coupling = kbar * (2.0 * math.sqrt(0.5 * (1.0 + math.cosh(weight.lam))))
    except OverflowError:
        raise WeightOverflowError(f"weight overflow: cosh(lambda) exceeds the double range "
                                  f"at lambda = {weight.lam!r}") from None
    nonres = omega2 > 4.0 + coupling
    base = (omega2 - 4.0) / coupling
    r_max = base ** (1.0 / alpha) if base > 0.0 else 0.0
    r_crit = base ** (1.0 / (1.0 + alpha)) if base > 0.0 else 0.0
    in_ring = (r_crit <= x0_norm_value <= r_max) if nonres else None
    return BoundsReport(r_max, r_crit, nonres0, nonres, in_ring, x0_norm_value)


def tail_mask(amplitudes: np.ndarray) -> np.ndarray:
    """Sites whose amplitude lies in [1e-12, 1e-2] of the peak: the decay
    tail, clear of both the nonlinear core and the round-off floor."""
    peak = float(np.max(amplitudes))
    return (amplitudes >= 1e-12 * peak) & (amplitudes <= 1e-2 * peak)


def fit_decay_profile(amplitudes: np.ndarray, center: float) -> tuple[float, float]:
    """Least-squares decay rate of log max-amplitude against distance.

    Fits log(amp_n) = a - lambda_eff * |n - center| over the sites of
    ``tail_mask``; the profile is in storage order, site 0 at len//2.
    """
    amp = np.asarray(amplitudes, dtype=float)
    half = amp.size // 2
    if float(np.max(amp)) <= 0.0:
        raise InsufficientTailError("profile is identically zero")
    mask = tail_mask(amp)
    if np.count_nonzero(mask) < 4:
        raise InsufficientTailError(
            f"only {np.count_nonzero(mask)} usable tail sites, need at least 4")
    dist = np.abs(np.arange(amp.size) - half - center)[mask]
    logs = np.log(amp[mask])
    slope, intercept = np.polyfit(dist, logs, 1)
    fitted = intercept + slope * dist
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return -float(slope), r_squared


def decay_rate_fit(result) -> tuple[float, float]:
    """Decay rate and goodness of fit for a converged solve result."""
    if result.status != "converged":
        raise ValueError(f"decay fit needs a converged result, got {result.status!r}")
    return fit_decay_profile(max_amplitude_profile(result.field), parity_center(result.parity))


def parity_deviation(field: SpectralField, parity: str, weight: WeightSpec,
                     norm0: float) -> float:
    """||u - P u||_X0 / ||u||_X0 for the class's projector P; norm0 is ||u||_X0."""
    projected = parity_projector(parity)(field)
    dev = x0_norm(field.with_coeffs(field.coeffs - projected.coeffs), weight)
    return dev / norm0 if norm0 > 0.0 else dev


def strong_residual(field: SpectralField, spec: PotentialSpec,
                    weight: WeightSpec = WeightSpec(0.0)) -> float:
    """Residual ||M(u) - N(u)||_X0 of the second-order equation; zero at solutions."""
    diff = apply_M(field).coeffs - apply_N(field, spec).coeffs
    return x0_norm(field.with_coeffs(diff), weight)


def boundary_floor(field: SpectralField) -> float:
    """Edge-to-peak amplitude ratio, nan for a field with no peak; the lattice must be
    long enough that this stays below 1e-10 for a trustworthy periodic truncation."""
    amp = max_amplitude_profile(field)
    peak = float(np.max(amp))
    return float(max(amp[0], amp[-1]) / peak) if peak > 0.0 else math.nan


def strong_residual_check(field: SpectralField, config) -> tuple[str, float, float]:
    """solution_checks' strong-form row: the strong residual against 10 tol ||u||_X2."""
    return ("strong_residual", strong_residual(field, config.potential, config.weight),
            10.0 * config.tol_residual * x2_norm(field, config.weight))


def solution_checks(field: SpectralField, config) -> list[tuple[str, float, float]]:
    """The check table's (name, value, limit) rows that read only a field and its
    SolverConfig; a row passes when value <= limit, so a nan value fails."""
    samples = synthesize(field)
    peak = float(np.max(np.abs(samples))) or 1.0  # the time means' scale
    rel_dev = parity_deviation(field, config.parity, config.weight, x0_norm(field, config.weight))
    return [("parity_relation", rel_dev, 1e-12),
            ("zero_time_mean", float(np.max(np.abs(samples.mean(axis=1)))), 1e-13 * peak),
            strong_residual_check(field, config),
            ("boundary_floor", boundary_floor(field), 1e-10)]


def _periodic_momenta(y: np.ndarray) -> np.ndarray:
    return y - np.roll(y, -1)


def lattice_energy(x: np.ndarray, y: np.ndarray, spec: PotentialSpec) -> float:
    """Ring energy sum_n p_n^2/2 + V(x_n) with momenta p_n = y_n - y_{n+1}."""
    p = _periodic_momenta(y)
    return float(np.sum(0.5 * p**2 + eval_potential(spec, x).V))


def initial_conditions(field: SpectralField) -> tuple[np.ndarray, np.ndarray]:
    """Extract (x(0), y(0)) from a spectral solution.

    x(0) = 2 sum_m a_m.  A time-reversal-symmetric field starts at rest, so
    x' = 2 y_n - y_{n+1} - y_{n-1} = 0 leaves y(0) constant: gauge, set to 0."""
    return 2.0 * np.sum(field.coeffs, axis=1), np.zeros(field.grid.n_sites)


def check_integration_args(periods: int, steps_per_period: int):
    """Reject run lengths ``integrate_trajectory`` refuses, before any work."""
    if steps_per_period < 64:
        raise ValueError("steps_per_period must be >= 64")
    if periods < 1:
        raise ValueError("periods must be >= 1")


def integrate_trajectory(x0_field: SpectralField, spec: PotentialSpec,
                         periods: int, steps_per_period: int) -> TrajectoryReport:
    """Velocity-Verlet integration of the canonical lattice equations.

    The Hamiltonian splits into a quadratic part in y and the on-bond
    potential in x, so the half-kick / drift / half-kick scheme is symplectic
    and second order.  V' is evaluated once per step: the force of a step's
    closing half-kick is the next step's opening one.  Drifts are sampled at
    period boundaries, where a symplectic method's bounded energy oscillation
    cancels; the return error compares the state after the first exact
    period with the initial state in plain l2.
    """
    check_integration_args(periods, steps_per_period)
    grid = x0_field.grid
    x, y0 = initial_conditions(x0_field)
    dt = grid.period / steps_per_period
    n = grid.n_sites
    # y lives in ybuf[1:n+1]; ghost cells ybuf[0] = y[n-1] and ybuf[n+1] = y[0]
    ybuf = np.zeros(n + 2)
    y = ybuf[1:n + 1]
    y[:] = y0

    e0 = lattice_energy(x, y, spec)
    p0 = float(np.sum(_periodic_momenta(y)))
    z0 = np.concatenate([x, y])
    z0_norm = float(np.linalg.norm(z0))

    energy_drift = 0.0
    momentum_drift = 0.0
    return_error = 0.0
    right, left = ybuf[2:], ybuf[:n]  # y_{n+1} and y_{n-1}
    xdot = np.empty(n)
    # 0-d arrays, not floats: numpy converts a Python float operand on every call
    two, step, half = np.array(2.0), np.array(dt), np.array(0.5 * dt)
    coeffs = PotentialSpec(np.array(spec.cubic), np.array(spec.quartic))
    wp = np.empty(n)  # W'(x), written in place each step
    kick = x + force(coeffs, x, wp)
    kick *= half  # the half-kick dt/2 V'(x), with V'(x) = x + W'(x)
    for period in range(periods):
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(steps_per_period):
                y -= kick
                ybuf[0] = ybuf[n]
                ybuf[n + 1] = ybuf[1]
                # x' = 2 y_n - y_{n+1} - y_{n-1} on the ring, summed in that order
                np.multiply(y, two, xdot)
                xdot -= right
                xdot -= left
                xdot *= step
                x += xdot
                # the closing half-kick's force opens the next step: the same kick
                # is subtracted twice, never once doubled, which would round apart
                np.add(x, force(coeffs, x, wp), kick)
                kick *= half
                y -= kick
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise BlowUpError(f"non-finite state after {period + 1} periods")
        e = lattice_energy(x, y, spec)
        scale = abs(e0) if e0 != 0.0 else 1.0
        energy_drift = max(energy_drift, abs(e - e0) / scale)
        momentum_drift = max(momentum_drift, abs(float(np.sum(_periodic_momenta(y))) - p0))
        if period == 0:
            z = np.concatenate([x, y])
            return_error = float(np.linalg.norm(z - z0)) / (z0_norm if z0_norm > 0.0 else 1.0)
    return TrajectoryReport(energy_drift, momentum_drift, return_error, periods, dt)
