"""Fixed-point solvers for breather fields: Picard/Anderson, Newton, sweeps.

Zero is always a fixed point of S and, for homogeneous anharmonic forces,
the radial direction at a nontrivial fixed point is expanding (S scales like
amplitude**(alpha+1)), so plain damped iteration cannot settle on a breather
by itself.  The hybrid strategy therefore runs damped Picard with optional
Anderson-type residual acceleration to lock in the profile shape, then
finishes with a matrix-free Newton iteration on F(x) = x - S(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from . import validation
from .lattice_model import PotentialSpec
from .operators import apply_S, linearize_S, ResonanceError
from .spectral_field import (PARITIES, GridSpec, SpectralField, WeightSpec,
                             dealiased_sample_count, parity_projector,
                             seed_field, x0_norm, x2_norm, zero_field)
from .validation import BoundsReport

DIVERGENCE_NORM = 1e6
PICARD_TO_NEWTON_RESIDUAL = 1e-4

STATUS_CONVERGED = "converged"
STATUS_COLLAPSED = "collapsed_to_zero"
STATUS_DIVERGED = "diverged"
STATUS_MAX_ITER = "max_iter"
STATUS_RESONANCE = "resonance"

STRATEGIES = ("picard", "newton", "hybrid")


class UnsupportedPotentialError(ValueError):
    """A cubic force: both parity classes map u to -u, so their projector
    removes it, and the m=0 strain mode it drives is not represented."""


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec
    weight: WeightSpec
    potential: PotentialSpec
    parity: str = "odd"
    strategy: str = "hybrid"
    damping: float = 0.5
    accel_depth: int = 5
    tol_residual: float = 1e-10
    tol_zero: float = 1e-8
    max_iter: int = 500
    seed: tuple[float | None, float] = (None, 1.0)

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not (0.0 < self.tol_residual < math.inf and 0.0 < self.tol_zero < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not all(math.isfinite(value) for value in self.seed if value is not None):
            raise ValueError("seed amplitude and width must be finite")
        if self.accel_depth < 0:
            raise ValueError("accel_depth must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.parity not in PARITIES:
            raise ValueError(f"unknown parity {self.parity!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def with_omega(self, omega: float) -> "SolverConfig":
        """This config at another frequency."""
        return replace(self, grid=replace(self.grid, omega=omega))


@dataclass
class BreatherResult:
    field: SpectralField
    omega: float
    iterations: int
    fp_residual: float
    strong_residual: float
    x0_norm: float
    x2_norm: float
    parity_deviation: float
    decay_fit: float
    bounds: BoundsReport | None
    status: str
    parity: str
    weight: WeightSpec
    potential: PotentialSpec
    trace: list[tuple[int, float, float]] = dataclass_field(default_factory=list)
    refinement_change: float | None = None


def _as_field(grid: GridSpec, vec: np.ndarray) -> SpectralField:
    return SpectralField(grid, vec.reshape(grid.n_sites, grid.n_harmonics))


def build_seed(config: SolverConfig) -> SpectralField:
    """The sech seed; an 'auto' amplitude puts it on its own fixed-point ray."""
    amplitude, width = config.seed
    if amplitude is not None:
        return seed_field(config.grid, config.parity, amplitude, width)
    return _radial_rescale(config, seed_field(config.grid, config.parity, 1.0, width))


@dataclass
class _Outcome:
    """How a Picard or Newton phase ended.

    A None status means the phase stopped at a handover point, a stall or its
    budget; a solve that ends there reports ``max_iter``.  ``best_field`` is
    Picard's lowest-residual iterate, which a hybrid solve hands to Newton.
    """

    status: str | None
    field: SpectralField
    fp_residual: float
    best_field: SpectralField | None = None
    best_residual: float = float("inf")


def _finalize(config: SolverConfig, out: _Outcome, trace: list) -> BreatherResult:
    fld = out.field
    norm0 = x0_norm(fld, config.weight)
    bounds = (validation.bounds_report(config.grid.omega, config.weight, config.potential, norm0)
              if config.potential.has_growth_pair else None)
    status = out.status if out.status is not None else STATUS_MAX_ITER
    result = BreatherResult(
        field=fld, omega=config.grid.omega, iterations=len(trace) - 1 if trace else 0,
        fp_residual=out.fp_residual,
        strong_residual=validation.strong_residual(fld, config.potential, config.weight),
        x0_norm=norm0, x2_norm=x2_norm(fld, config.weight),
        parity_deviation=validation.parity_deviation(fld, config.parity,
                                                     config.weight, norm0),
        decay_fit=float("nan"), bounds=bounds, status=status,
        parity=config.parity, weight=config.weight, potential=config.potential,
        trace=list(trace))
    if status == STATUS_CONVERGED:
        try:
            result.decay_fit, _ = validation.decay_rate_fit(result)
        except validation.InsufficientTailError:
            pass
    return result


def _residual(config: SolverConfig, fld: SpectralField) -> SpectralField:
    """P S(x) - x for an iterate x, P the parity projector."""
    project = parity_projector(config.parity)
    return fld.with_coeffs(project(apply_S(fld, config.potential)).coeffs - fld.coeffs)


def _evaluate(config: SolverConfig, fld: SpectralField, trace: list,
              res_field: SpectralField | None = None):
    """(status, residual, fp_residual) of an iterate; appends its trace row.

    The status is collapse or divergence by the X0 norm (no residual then,
    and a nan row), converged, or None while iteration should go on.  A
    converged field also meets the strong-residual limit ``verify`` applies
    (``validation.strong_residual_limit``): a fixed-point residual below tol
    does not always imply it, because the two norms weigh the harmonics
    differently, and a Newton step that lands just under tol has been
    measured at 11 times tol in the strong form.  ``res_field`` is the
    iterate's residual when the caller has computed it already.
    """
    norm = x0_norm(fld, config.weight)
    if norm <= config.tol_zero or norm > DIVERGENCE_NORM:
        trace.append((len(trace), float("nan"), norm))
        status = STATUS_COLLAPSED if norm <= config.tol_zero else STATUS_DIVERGED
        return status, None, float("nan")
    if res_field is None:
        res_field = _residual(config, fld)
    fp_res = x0_norm(res_field, config.weight) / norm
    trace.append((len(trace), fp_res, norm))
    converged = (fp_res <= config.tol_residual
                 and validation.strong_residual(fld, config.potential, config.weight)
                 <= validation.strong_residual_limit(config.tol_residual,
                                                     x2_norm(fld, config.weight)))
    return (STATUS_CONVERGED if converged else None), res_field, fp_res


def _anderson_step(x_hist: list, f_hist: list, theta: float) -> np.ndarray:
    """Damped Anderson mixing over the residual history.

    With an empty difference history this reduces to the damped Picard
    update x + theta * f; otherwise the least-squares combination of past
    residual differences is removed first (regularised normal equations keep
    the step deterministic).
    """
    x_k, f_k = x_hist[-1], f_hist[-1]
    depth = len(x_hist) - 1
    if depth == 0:
        return x_k + theta * f_k
    dx = np.stack([x_hist[i + 1] - x_hist[i] for i in range(depth)], axis=1)
    df = np.stack([f_hist[i + 1] - f_hist[i] for i in range(depth)], axis=1)
    a = df.T @ df
    reg = 1e-12 * max(np.trace(a) / depth, 1e-30)
    gamma = np.linalg.solve(a + reg * np.eye(depth), df.T @ f_k)
    return x_k + theta * f_k - (dx + theta * df) @ gamma


def _picard_phase(config: SolverConfig, start: SpectralField, budget: int,
                  trace: list, stall_window: int = 8,
                  handover_residual: float | None = None) -> _Outcome:
    """Damped/accelerated fixed-point iteration.

    A None status means a handover point was reached (residual below the
    handover threshold, stall, or budget); the best iterate seen is carried
    along so a hybrid caller can pass it to Newton.
    """
    project = parity_projector(config.parity)
    x_field = project(start)
    x_hist: list[np.ndarray] = []
    f_hist: list[np.ndarray] = []
    best_field, best_res = x_field, float("inf")
    since_best = 0
    for _ in range(budget):
        status, res_field, fp_res = _evaluate(config, x_field, trace)
        if fp_res < best_res:
            best_field, best_res, since_best = x_field, fp_res, 0
        else:
            since_best += 1
        if (status is not None or since_best >= stall_window
                or (handover_residual is not None and fp_res <= handover_residual)):
            return _Outcome(status, x_field, fp_res, best_field, best_res)
        x_vec = x_field.coeffs.ravel()
        x_hist.append(x_vec)
        f_hist.append(res_field.coeffs.ravel())
        if len(x_hist) > config.accel_depth + 1:
            x_hist.pop(0)
            f_hist.pop(0)
        new_vec = _anderson_step(x_hist, f_hist, config.damping)
        if not np.all(np.isfinite(new_vec)) or \
                np.linalg.norm(new_vec) > 1e3 * max(1.0, np.linalg.norm(x_vec)):
            # runaway extrapolation: fall back to the plain damped step
            new_vec = x_vec + config.damping * f_hist[-1]
            x_hist, f_hist = [x_vec], [f_hist[-1]]
        x_field = project(_as_field(config.grid, new_vec))
    return _Outcome(None, best_field, best_res, best_field, best_res)


def _newton_phase(config: SolverConfig, start: SpectralField, outer_budget: int,
                  trace: list) -> _Outcome:
    """Matrix-free Newton on F(x) = x - P S(x), P the parity projector.

    GMRES applies the exact Jacobian J w = P w - P DS(x) P w, with the
    derivative DS(x) w = M^{-1} Delta (W''(u) w) linearised once per outer
    step at the iterate's samples u, so a matvec costs about half an S
    evaluation and carries no differencing error.  Each linear solve runs
    to a loose 1e-3 relative tolerance, which is enough for
    quadratic-looking outer convergence in practice.
    """
    project = parity_projector(config.parity)
    grid = config.grid
    x_field = project(start)
    res_field = None  # the line search's residual of the accepted step, if any
    best_res = float("inf")
    since_best = 0
    for _ in range(outer_budget):
        status, res_field, fp_res = _evaluate(config, x_field, trace, res_field)
        if status is not None:
            return _Outcome(status, x_field, fp_res)
        if fp_res < 0.5 * best_res:
            best_res, since_best = fp_res, 0
        else:
            since_best += 1
            if since_best >= 10:
                # no factor-2 progress in ten steps: stagnated
                return _Outcome(None, x_field, fp_res)
        jvp = linearize_S(x_field, config.potential)

        def matvec(w: np.ndarray) -> np.ndarray:
            w_field = project(_as_field(grid, w))
            return w_field.coeffs.ravel() - project(jvp(w_field)).coeffs.ravel()

        r_vec = res_field.coeffs.ravel()  # -F(x)
        op = LinearOperator((r_vec.size, r_vec.size), matvec=matvec, dtype=float)
        # restart length bounds the matvec count per outer step
        delta, _ = gmres(op, r_vec, rtol=1e-3, atol=0.0, restart=60, maxiter=3)
        if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) == 0.0:
            return _Outcome(None, x_field, fp_res)
        r_norm = np.linalg.norm(r_vec)
        x_vec = x_field.coeffs.ravel()
        for halvings in range(5):
            candidate = project(_as_field(grid, x_vec + delta))
            # halve the step, at most four times, until the residual does not grow
            res_field = None if halvings == 4 else _residual(config, candidate)
            if res_field is None or np.linalg.norm(res_field.coeffs) <= r_norm:
                break
            delta = 0.5 * delta
        x_field = candidate
    return _Outcome(None, x_field, fp_res)


def _check_supported(config: SolverConfig) -> None:
    """Raise UnsupportedPotentialError on a nonzero cubic coefficient; every
    strategy calls this before its first iteration."""
    if config.potential.cubic != 0.0:
        raise UnsupportedPotentialError(
            f"potential.cubic = {config.potential.cubic!r} is not supported: both parity "
            "classes map u to -u and project the cubic force out, and the m=0 (DC strain) "
            "mode it drives is not represented; solve with potential.cubic = 0")


def picard_solve(config: SolverConfig, initial: SpectralField | None = None) -> BreatherResult:
    """Damped/accelerated Picard iteration from the configured seed.

    Terminates with one of the four statuses; a converged result is
    nontrivial by construction (collapse to the zero fixed point is reported
    separately).
    """
    _check_supported(config)
    trace: list[tuple[int, float, float]] = []
    start = initial if initial is not None else build_seed(config)
    return _finalize(config, _picard_phase(config, start, config.max_iter, trace,
                                           stall_window=config.max_iter), trace)


def newton_solve(config: SolverConfig, initial: SpectralField | None = None) -> BreatherResult:
    """Matrix-free Newton iteration on F(x) = x - S(x) from ``initial``."""
    _check_supported(config)
    trace: list[tuple[int, float, float]] = []
    start = initial if initial is not None else build_seed(config)
    return _finalize(config, _newton_phase(config, start, min(config.max_iter, 60), trace),
                     trace)


def _radial_rescale(config: SolverConfig, fld: SpectralField) -> SpectralField:
    """Rebalance a shape's amplitude onto its own fixed-point ray.

    For a force of homogeneity degree p, scaling a field by c scales S(x)
    by c**p, so the radius where the ray balances, ||S(cx)|| = ||cx||, is
    c* = (||x|| / ||S(x)||)**(1/(p-1)).  This sets the amplitude of an
    'auto' seed, and of the iterate a hybrid solve hands to Newton, which
    keeps Newton out of the zero root's basin after Picard has slid inward.
    """
    p = config.potential.wprime_degree
    if p < 2:
        return fld
    x_norm = x0_norm(fld, config.weight)
    s_norm = x0_norm(apply_S(fld, config.potential), config.weight)
    if x_norm == 0.0 or s_norm == 0.0:
        return fld
    return fld.with_coeffs(fld.coeffs * (x_norm / s_norm) ** (1.0 / (p - 1)))


def hybrid_solve(config: SolverConfig, initial: SpectralField | None = None) -> BreatherResult:
    """Picard to lock the shape, Newton to polish.

    Picard hands over once its residual is below 1e-4, stalls, or exhausts
    a fraction of the iteration budget; Newton then starts from the best
    iterate seen, radially rebalanced onto its own fixed-point ray.
    """
    _check_supported(config)
    trace: list[tuple[int, float, float]] = []
    start = initial if initial is not None else build_seed(config)
    picard_budget = min(config.max_iter, max(10, min(100, config.max_iter // 2)))
    out = _picard_phase(config, start, picard_budget, trace,
                        handover_residual=PICARD_TO_NEWTON_RESIDUAL)
    # Picard sliding into the zero basin or running away does not end a
    # hybrid solve: Newton is attempted from the best iterate whenever that
    # iterate still carries a nontrivial shape (a strict residual below 1
    # excludes the exact-collapse case where S is identically zero) and
    # the budget of max_iter trace rows has some left.
    outer = min(60, config.max_iter - len(trace))
    if (out.status != STATUS_CONVERGED and out.best_residual < 1.0 and outer > 0
            and x0_norm(out.best_field, config.weight) > config.tol_zero):
        out = _newton_phase(config, _radial_rescale(config, out.best_field), outer, trace)
    return _finalize(config, out, trace)


def solve(config: SolverConfig, initial: SpectralField | None = None) -> BreatherResult:
    """Dispatch on the configured strategy."""
    if config.strategy == "picard":
        return picard_solve(config, initial)
    if config.strategy == "newton":
        return newton_solve(config, initial)
    return hybrid_solve(config, initial)


def _interpolate(field: SpectralField, grid: GridSpec) -> SpectralField:
    """Embed a field into a finer grid: zero-pad sites outward and harmonics up."""
    pad = (grid.n_sites - field.grid.n_sites) // 2  # both counts are even
    return SpectralField(grid, np.pad(field.coeffs, (
        (pad, pad), (0, grid.n_harmonics - field.grid.n_harmonics))))


def refine(result: BreatherResult, factor: int) -> BreatherResult:
    """Re-solve on a grid with ``factor`` times the sites and harmonics.

    The X0-norm change against the input is recorded on the returned result
    as a discretisation-error estimate.  The re-solve starts from the
    zero-padded field, so a well-resolved input converges in a step or two.
    """
    if result.status != STATUS_CONVERGED:
        raise ValueError("refine needs a converged result")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    old_grid = result.field.grid
    n_harm = old_grid.n_harmonics * factor
    n_t = max(old_grid.n_time_samples * factor,
              dealiased_sample_count(n_harm, result.potential.wprime_degree))
    grid = GridSpec(old_grid.n_sites * factor, n_harm, n_t, old_grid.omega)
    config = SolverConfig(grid=grid, weight=result.weight, potential=result.potential,
                          parity=result.parity, strategy="newton")
    refined = newton_solve(config, _interpolate(result.field, grid))
    refined.refinement_change = abs(refined.x0_norm - result.x0_norm)
    return refined


def continuation_sweep(config: SolverConfig, omega_from: float, omega_to: float,
                       steps: int) -> list[BreatherResult]:
    """Solve along a frequency ramp, seeding each point from the last success.

    A failed point is bisected once: the midpoint between the last good
    frequency and the failure is solved first and, if it converges, the
    failed point is retried from its field.  Points inside the phonon band
    are reported with a resonance status instead of raising.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    omegas = np.linspace(omega_from, omega_to, steps)
    results: list[BreatherResult] = []
    carry: SpectralField | None = None
    last_good_omega: float | None = None  # set whenever carry is
    for omega in omegas:
        cfg = config.with_omega(float(omega))
        try:
            res = solve(cfg, None if carry is None else _interpolate(carry, cfg.grid))
        except ResonanceError:
            results.append(_resonance_placeholder(cfg))
            continue
        if res.status != STATUS_CONVERGED and carry is not None:
            # no ResonanceError: the midpoint lies above a frequency that cleared
            # the band check, and min |nu| = Omega^2 - 4 grows with Omega
            mid_cfg = config.with_omega(0.5 * (last_good_omega + float(omega)))
            mid = solve(mid_cfg, _interpolate(carry, mid_cfg.grid))
            if mid.status == STATUS_CONVERGED:
                res = solve(cfg, _interpolate(mid.field, cfg.grid))
        results.append(res)
        if res.status == STATUS_CONVERGED:
            carry, last_good_omega = res.field, float(omega)
    return results


def _resonance_placeholder(config: SolverConfig) -> BreatherResult:
    fld = zero_field(config.grid)
    return BreatherResult(
        field=fld, omega=config.grid.omega, iterations=0,
        fp_residual=float("nan"), strong_residual=0.0, x0_norm=0.0,
        x2_norm=0.0, parity_deviation=0.0, decay_fit=float("nan"),
        bounds=None, status=STATUS_RESONANCE, parity=config.parity,
        weight=config.weight, potential=config.potential, trace=[])
