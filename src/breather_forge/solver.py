"""Fixed-point solvers for breather fields: Picard/Anderson, Newton, sweeps.

Zero is always a fixed point of S and, for homogeneous anharmonic forces,
the radial direction at a nontrivial fixed point is expanding (S scales like
amplitude**(alpha+1)), so plain damped iteration cannot settle on a breather
by itself.  A cold solve therefore runs damped Picard with Anderson
residual acceleration to lock in the profile shape, then matrix-free Newton
on F(x) = x - S(x), whose linear systems the module's own ``gmres`` solves
in one Arnoldi cycle with scipy's arithmetic.  A warm solve, from a
neighbouring solution, tries a few Newton rows alone first.  ``picard_solve``
and ``newton_solve`` run one phase alone, for the library and the tests.  Each
iterates on its config's half-wave grid (``_working_config``) and returns
what the solve produced; the one check it makes is the convergence gate.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field as dataclass_field, replace
from types import SimpleNamespace

import numpy as np

from . import validation
from .lattice_model import PotentialSpec
from .operators import apply_S, linearize_S, ResonanceError
# x2_norm: unused here, but bench/tracing.py's _TARGETS wrap it
from .spectral_field import (PARITIES, GridSpec, SpectralField, WeightSpec,
                             check_x2_weights, dealiased_sample_count, parity_center,
                             parity_projector, seed_field, x0_norm, x2_norm, zero_field)

DIVERGENCE_NORM = 1e6
COLLAPSE_NORM = 1e-8  # an X0 norm at or below this has collapsed to zero
PICARD_DAMPING = 0.5  # theta of Picard's step x + theta * (P S(x) - x)
ANDERSON_DEPTH = 5  # difference pairs in Anderson's history
_EPS = float(np.finfo(float).eps)
PICARD_TO_NEWTON_RESIDUAL = 1e-4
PICARD_STALL_ROWS = 8  # rows without a new best before a hybrid solve hands over
# S(cx) = c**3 S(x) for the quartic force, so an iterate at half the norm of
# Picard's best one is pulled further inward: a hybrid solve hands over there.
PICARD_COLLAPSE_FRACTION = 0.5
# Rows of a warm solve's Newton attempt.  Over 40 seeds of the 12-point sweep
# 2.6 -> 2.05 on N = 96, no warm point took more than 5 rows; a coarse step
# toward the band edge (N = 64, M = 8, 2.6 -> 2.02 in 4 points) lets uncapped
# Newton wander for 23 rows into a state that fills the lattice.
WARM_NEWTON_STEPS = 8

STATUS_CONVERGED = "converged"
STATUS_COLLAPSED = "collapsed_to_zero"
STATUS_DIVERGED = "diverged"
STATUS_MAX_ITER = "max_iter"
STATUS_RESONANCE = "resonance"


class UnsupportedPotentialError(ValueError):
    """A cubic force: both parity classes map u to -u, so their projector
    removes it, and the m=0 strain mode it drives is not represented."""


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec
    weight: WeightSpec
    potential: PotentialSpec
    parity: str = "odd"
    tol_residual: float = 1e-10
    max_iter: int = 500
    seed: tuple[float | None, float] = (None, 1.0)

    def __post_init__(self):
        if not 0.0 < self.tol_residual < math.inf:
            raise ValueError("tol_residual must be positive and finite")
        amplitude, width = self.seed  # seed_field's rule, checked before any work
        if not ((amplitude is None or 0.0 <= amplitude < math.inf) and 0.0 < width < math.inf):
            raise ValueError("seed amplitude must be finite and >= 0, and width finite and > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.parity not in PARITIES:
            raise ValueError(f"unknown parity {self.parity!r}")
        if self.weight.center != parity_center(self.parity):
            # a record echoes the parity alone, and is re-read with its class's centre
            raise ValueError(f"weight.center = {self.weight.center!r} is not the {self.parity} "
                             f"class's centre {parity_center(self.parity)!r}")

    def with_omega(self, omega: float) -> "SolverConfig":
        """This config at another frequency."""
        return replace(self, grid=replace(self.grid, omega=omega))


@dataclass
class BreatherResult:
    """What a solve produced on ``config``, the caller's config (not the half-wave working
    one); ``cli_io.build_manifest`` echoes that config and checks the field."""

    field: SpectralField
    config: SolverConfig
    iterations: int
    fp_residual: float
    x0_norm: float
    status: str
    trace: list[tuple[int, float, float]] = dataclass_field(default_factory=list)
    refinement_change: float | None = None


def _as_field(grid: GridSpec, vec: np.ndarray) -> SpectralField:
    return SpectralField(grid, vec.reshape(grid.shape))


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
    fld = _interpolate(out.field, config.grid)  # m the solve did not store are 0.0
    return BreatherResult(
        field=fld, config=config, iterations=len(trace) - 1 if trace else 0,
        fp_residual=out.fp_residual, x0_norm=x0_norm(fld, config.weight),
        status=out.status if out.status is not None else STATUS_MAX_ITER,
        trace=list(trace))


def _residual(config: SolverConfig, fld: SpectralField) -> SpectralField:
    """P S(x) - x for an iterate x, P the parity projector."""
    project = parity_projector(config.parity)
    return fld.with_coeffs(project(apply_S(fld, config.potential)).coeffs - fld.coeffs)


def _evaluate(config: SolverConfig, fld: SpectralField, trace: list,
              res_field: SpectralField | None = None):
    """(status, residual, fp_residual) of an iterate; appends its trace row.

    The status is collapse or divergence by the X0 norm (no residual then,
    and a nan row), converged, or None while iteration should go on.  A
    converged field also passes ``validation.strong_residual_check``, the
    row ``verify`` prints as ``strong_residual``: a fixed-point residual below
    tol does not always imply it, because the two norms weigh the harmonics
    differently, and a Newton step that lands just under tol has been
    measured at 11 times tol in the strong form.  ``res_field`` is the
    iterate's residual when the caller has computed it already.
    """
    norm = x0_norm(fld, config.weight)
    if norm <= COLLAPSE_NORM or norm > DIVERGENCE_NORM:
        trace.append((len(trace), float("nan"), norm))
        status = STATUS_COLLAPSED if norm <= COLLAPSE_NORM else STATUS_DIVERGED
        return status, None, float("nan")
    if res_field is None:
        res_field = _residual(config, fld)
    fp_res = x0_norm(res_field, config.weight) / norm
    trace.append((len(trace), fp_res, norm))
    if fp_res <= config.tol_residual:
        _, strong, limit = validation.strong_residual_check(fld, config)
        return (STATUS_CONVERGED if strong <= limit else None), res_field, fp_res
    return None, res_field, fp_res


def _anderson_step(x_k: np.ndarray, f_k: np.ndarray, dx: np.ndarray, df: np.ndarray,
                   theta: float) -> np.ndarray:
    """Damped Anderson mixing over the residual history.

    ``dx`` and ``df`` hold the iterate and residual differences as columns,
    oldest first.  With no columns this reduces to the damped Picard update
    x + theta * f; otherwise the least-squares combination of past residual
    differences is removed first (regularised normal equations keep the step
    deterministic).
    """
    depth = dx.shape[1]
    if depth == 0:
        return x_k + theta * f_k
    a = df.T @ df
    reg = 1e-12 * max(np.trace(a) / depth, 1e-30)
    gamma = np.linalg.solve(a + reg * np.eye(depth), df.T @ f_k)
    return x_k + theta * f_k - (dx + theta * df) @ gamma


def _picard_phase(config: SolverConfig, start: SpectralField, budget: int,
                  trace: list, handover: bool = False) -> _Outcome:
    """Fixed-point iteration damped by ``PICARD_DAMPING`` and Anderson-accelerated
    over the last ``ANDERSON_DEPTH`` difference pairs, both read at each call.

    A None status means the budget ran out or, with ``handover``, a handover
    point was reached: a residual at or below ``PICARD_TO_NEWTON_RESIDUAL``, a
    stall of ``PICARD_STALL_ROWS`` rows without a new best, or radial collapse,
    the first row after the best iterate whose X0 norm is below
    ``PICARD_COLLAPSE_FRACTION`` of the best one's.  The best iterate seen is
    carried along so a hybrid caller can pass it to Newton.
    """
    project = parity_projector(config.parity)
    x_field = project(start)
    history = deque(maxlen=ANDERSON_DEPTH)  # (dx, df) difference pairs, oldest first
    x_prev = f_prev = None
    best_field, best_res, best_norm = x_field, float("inf"), 0.0
    since_best = 0
    for _ in range(budget):
        status, res_field, fp_res = _evaluate(config, x_field, trace)
        norm = trace[-1][2]
        if fp_res < best_res:
            best_field, best_res, best_norm, since_best = x_field, fp_res, norm, 0
        else:
            since_best += 1
        if status is not None or (handover and (
                fp_res <= PICARD_TO_NEWTON_RESIDUAL or since_best >= PICARD_STALL_ROWS
                or norm < PICARD_COLLAPSE_FRACTION * best_norm)):
            return _Outcome(status, x_field, fp_res, best_field, best_res)
        x_vec, f_vec = x_field.coeffs.ravel(), res_field.coeffs.ravel()
        if x_prev is not None:
            history.append((x_vec - x_prev, f_vec - f_prev))
        # stacked C-contiguous each row: BLAS takes a strided matrix by another route
        dx, df = ((np.stack(cols, axis=1) for cols in zip(*history)) if history
                  else (np.empty((x_vec.size, 0)),) * 2)
        new_vec = _anderson_step(x_vec, f_vec, dx, df, PICARD_DAMPING)
        x_prev, f_prev = x_vec, f_vec
        if not np.all(np.isfinite(new_vec)) or \
                np.linalg.norm(new_vec) > 1e3 * max(1.0, np.linalg.norm(x_vec)):
            # runaway extrapolation: fall back to the plain damped step
            new_vec = x_vec + PICARD_DAMPING * f_vec
            history.clear()
        x_field = project(_as_field(config.grid, new_vec))
    return _Outcome(None, best_field, best_res, best_field, best_res)


def _norm(v: np.ndarray) -> float:
    """l2 norm as ``np.linalg.norm`` computes it for a real vector: sqrt(v . v)."""
    return math.sqrt(v.dot(v))


_SAFMIN = sys.float_info.min  # LAPACK's dsafmin, 2**-1022
_SAFMAX = 1.0 / _SAFMIN
_RTMIN = math.sqrt(_SAFMIN)
_RTMAX = math.sqrt(_SAFMAX / 2)


def dlartg(f: float, g: float) -> tuple[float, float, float]:
    """Plane rotation (c, s, r) with [c s; -s c] [f; g] = [r; 0], as LAPACK's DLARTG.

    The formula of LAPACK 3.10 and later (E. Anderson, "Algorithm 978: Safe
    Scaling in the Level 1 BLAS", ACM TOMS 44, 2017), branch for branch in
    double precision, so it has the bits of ``scipy.linalg.lapack.dlartg``.
    """
    f1, g1 = abs(f), abs(g)
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), g1
    if _RTMIN < f1 < _RTMAX and _RTMIN < g1 < _RTMAX:
        d = math.sqrt(f * f + g * g)
        r = math.copysign(d, f)
        return f1 / d, g / r, r
    u = min(_SAFMAX, max(_SAFMIN, f1, g1))
    fs, gs = f / u, g / u
    d = math.sqrt(fs * fs + gs * gs)
    r = math.copysign(d, f)
    return abs(fs) / d, gs / r, r * u


def gmres(A, b: np.ndarray, *, rtol: float, restart: int) -> np.ndarray:
    """One GMRES cycle for A x = b from x0 = 0, without preconditioner, on real float64.

    At most ``restart`` Krylov columns; the cycle stops once the rotated residual
    is within ``rtol ||b||`` or at breakdown.  Step for step the arithmetic of
    scipy 1.17's ``scipy.sparse.linalg.gmres`` in that case, so ``x`` has the bits
    of its first cycle: modified Gram-Schmidt by ``np.dot``, Givens rotations by
    LAPACK's formula (``dlartg``) and back substitution on the rotated Hessenberg
    matrix.
    ``A`` is anything with a ``matvec``.  A system that misses the tolerance
    gets the cycle's minimal-residual x; the caller judges it.
    """
    matvec = A.matvec
    n = len(b)
    bnrm2 = _norm(b)
    atol = rtol * bnrm2
    if bnrm2 == 0:
        return b.copy()
    x = np.zeros(n)
    if bnrm2 < atol:
        return x
    restart = min(restart, n)
    ptol = bnrm2 * min(1.0, atol / bnrm2)
    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart + 1))  # h[col] holds Hessenberg column col
    v[0] = b
    v[0] *= 1 / bnrm2
    s_rhs = [0.0] * (restart + 1)  # right-hand side of the Hessenberg problem
    s_rhs[0] = bnrm2
    givens = []  # (c, s) of each column's rotation
    breakdown = False
    for col in range(restart):
        w = matvec(v[col])
        h0 = _norm(w)
        column = [0.0] * (col + 2)
        for k in range(col + 1):
            tmp = np.dot(v[k], w)
            column[k] = tmp
            w -= tmp * v[k]
        h1 = _norm(w)
        column[col + 1] = h1
        v[col + 1] = w
        if h1 <= _EPS * h0:  # exact solution in the Krylov space
            column[col + 1] = 0.0
            breakdown = True
        else:
            v[col + 1] *= 1 / h1
        for k, (c, s) in enumerate(givens):
            n0, n1 = column[k], column[k + 1]
            column[k] = c * n0 + s * n1
            column[k + 1] = -s * n0 + c * n1
        c, s, column[col] = dlartg(column[col], column[col + 1])
        column[col + 1] = 0.0
        givens.append((c, s))
        h[col, :col + 2] = column
        tmp = -s * s_rhs[col]
        s_rhs[col] = c * s_rhs[col]
        s_rhs[col + 1] = tmp
        if abs(tmp) <= ptol or breakdown:
            break
    if h[col, col] == 0:
        s_rhs[col] = 0.0
    y = np.array(s_rhs[:col + 1])
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= h[k, k]
            tmp = y[k]
            y[:k] -= tmp * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    x += y @ v[:col + 1]  # onto zeros: a -0.0 entry of the product becomes 0.0
    return x


def _newton_phase(config: SolverConfig, start: SpectralField, outer_budget: int,
                  trace: list) -> _Outcome:
    """Matrix-free Newton on F(x) = x - P S(x), P the parity projector.

    GMRES applies the exact Jacobian J w = P w - P DS(x) P w, with the
    derivative DS(x) w = M^{-1} Delta (W''(u) w) linearised once per outer
    step at the iterate's samples u, so a matvec costs about half an S
    evaluation and carries no differencing error.  Each linear solve is one
    GMRES cycle of at most 60 columns to a loose 1e-3 relative tolerance,
    which is enough for quadratic-looking outer convergence in practice; a
    cycle that misses it still gives a step, and the line search and the
    stagnation exit judge that step by the true nonlinear residual.  The
    solve is the module-level ``gmres``, looked up at each call, on an
    operator object with ``shape``, ``dtype`` and ``matvec``.
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
        op = SimpleNamespace(shape=(r_vec.size, r_vec.size), dtype=np.dtype(float),
                             matvec=matvec)
        # one cycle of at most 60 columns bounds the matvec count per outer step
        delta = gmres(op, r_vec, rtol=1e-3, restart=60)
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


def _working_config(config: SolverConfig) -> SolverConfig:
    """The config on its half-wave grid; raises UnsupportedPotentialError on a cubic
    force and WeightOverflowError on an X2 weight that overflows, before any iteration.
    With W' odd, S maps the class u(t + T/2) = -u(t) into itself (Flach & Gorbach,
    Phys. Rep. 467 (2008), section 2)."""
    check_x2_weights(config.grid, config.weight)
    if config.potential.cubic != 0.0:
        raise UnsupportedPotentialError(
            f"potential.cubic = {config.potential.cubic!r} is not supported: both parity "
            "classes map u to -u and project the cubic force out, and the m=0 (DC strain) "
            "mode it drives is not represented; solve with potential.cubic = 0")
    return replace(config, grid=replace(config.grid, half_wave=True))


def _start(config: SolverConfig, initial: SpectralField | None) -> SpectralField:
    """The first iterate: ``initial`` on the working grid (even m dropped), or the seed."""
    return build_seed(config) if initial is None else _interpolate(initial, config.grid)


def picard_solve(config: SolverConfig, initial: SpectralField | None = None) -> BreatherResult:
    """Damped/accelerated Picard iteration from the configured seed.

    Terminates with one of the four statuses; a converged result is
    nontrivial by construction (collapse to the zero fixed point is reported
    separately).  It runs without handover, so without a stall exit.
    """
    work = _working_config(config)
    trace: list[tuple[int, float, float]] = []
    return _finalize(config, _picard_phase(work, _start(work, initial), config.max_iter,
                                           trace), trace)


def newton_solve(config: SolverConfig, initial: SpectralField | None = None) -> BreatherResult:
    """Matrix-free Newton iteration on F(x) = x - S(x) from ``initial``."""
    work = _working_config(config)
    trace: list[tuple[int, float, float]] = []
    return _finalize(config, _newton_phase(work, _start(work, initial),
                                           min(config.max_iter, 60), trace), trace)


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

    Picard runs with ``handover``: it hands over at a residual of 1e-4 or
    less, a stall (8 rows without a new best) or radial collapse (a later
    row's X0 norm below half the best iterate's), or after a fraction of the
    iteration budget; Newton then starts from the best iterate seen,
    radially rebalanced onto its own fixed-point ray.
    """
    work = _working_config(config)
    trace: list[tuple[int, float, float]] = []
    picard_budget = min(config.max_iter, max(10, min(100, config.max_iter // 2)))
    out = _picard_phase(work, _start(work, initial), picard_budget, trace, handover=True)
    # Picard sliding into the zero basin or running away does not end a
    # hybrid solve: Newton is attempted from the best iterate whenever that
    # iterate still carries a nontrivial shape (a strict residual below 1
    # excludes the exact-collapse case where S is identically zero, and is
    # finite only at an X0 norm above COLLAPSE_NORM) and the budget of
    # max_iter trace rows has some left.
    outer = min(60, config.max_iter - len(trace))
    if out.status != STATUS_CONVERGED and out.best_residual < 1.0 and outer > 0:
        out = _newton_phase(work, _radial_rescale(work, out.best_field), outer, trace)
    return _finalize(config, out, trace)


def solve(config: SolverConfig, initial: SpectralField | None = None,
          predicted: SpectralField | None = None) -> BreatherResult:
    """The route of every command.  A cold solve is ``hybrid_solve``, Picard then Newton:
    it converges on all 154 flagship and grid seeds of ``scripts/solve_census.py``,
    where Picard alone converges on 75 and Newton alone on 124.

    A warm solve, one given a start field ``initial``, first runs Newton alone for at
    most ``WARM_NEWTON_STEPS`` rows from ``predicted`` (``initial`` if None) and keeps
    the result, with ``config`` rather than the capped one, if it converged; otherwise it
    is ``hybrid_solve(config, initial)``, whose trace holds only the hybrid's rows.
    """
    if initial is not None:
        capped = replace(config, max_iter=min(config.max_iter, WARM_NEWTON_STEPS))
        warm = newton_solve(capped, initial if predicted is None else predicted)
        if warm.status == STATUS_CONVERGED:
            return replace(warm, config=config)
    return hybrid_solve(config, initial)


def _interpolate(field: SpectralField, grid: GridSpec) -> SpectralField:
    """The field on a grid of at least as many sites: sites zero-padded outward, each m
    both grids store copied, the grid's other m 0.0, and m it does not store dropped."""
    if grid.n_sites < field.grid.n_sites:
        raise ValueError(f"a field of {field.grid.n_sites} sites on a {grid.n_sites}-site grid")
    pad = (grid.n_sites - field.grid.n_sites) // 2  # both counts are even
    _, old, new = np.intersect1d(field.grid.harmonics, grid.harmonics, return_indices=True)
    coeffs = np.zeros(grid.shape)
    coeffs[pad:grid.n_sites - pad, new] = field.coeffs[:, old]
    return SpectralField(grid, coeffs)


def refine(result: BreatherResult, factor: int) -> BreatherResult:
    """Re-solve on a grid with ``factor`` times the sites and harmonics.

    The X0-norm change against the input is recorded on the returned result
    as a discretisation-error estimate.  The re-solve starts from the input
    zero-padded, so a well-resolved input converges in a step or two.
    """
    if result.status != STATUS_CONVERGED:
        raise ValueError("refine needs a converged result")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    old_grid = result.field.grid
    n_harm = old_grid.n_harmonics * factor
    old = result.config
    n_t = max(old_grid.n_time_samples * factor,
              dealiased_sample_count(n_harm, old.potential.wprime_degree))
    grid = GridSpec(old_grid.n_sites * factor, n_harm, n_t, old_grid.omega)
    config = SolverConfig(grid, old.weight, old.potential, old.parity)
    refined = newton_solve(config, result.field)
    refined.refinement_change = abs(refined.x0_norm - result.x0_norm)
    return refined


def continuation_sweep(config: SolverConfig, omega_from: float, omega_to: float,
                       steps: int) -> list[BreatherResult]:
    """Solve along a frequency ramp, seeding each point from the last success.

    Each point after the first is a warm ``solve`` from the last converged field;
    its Newton attempt starts from the secant through the last two converged
    points, f2 + (Om - Om2) / (Om2 - Om1) (f2 - f1), once there are two at
    different frequencies (Allgower & Georg, Introduction to Numerical
    Continuation Methods, ch. 2).  A failed point is bisected once: the midpoint
    between the last good frequency and the failure is solved first and, if it
    converges, the failed point is retried from its field; both are warm solves
    without a predictor.  Endpoints, their grids and their X2
    weights are checked first; points ``band_gap`` refuses get a resonance status,
    not an error.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    for name, end in (("omega_from", omega_from), ("omega_to", omega_to)):
        if not 0.0 < end < math.inf:
            raise ValueError(f"{name} = {end!r} must be positive and finite")
        # GridSpec's range rules; the X2 weight grows with omega, so its ends bound it
        check_x2_weights(config.with_omega(end).grid, config.weight)
    omegas = np.linspace(omega_from, omega_to, steps)
    results: list[BreatherResult] = []
    good: list[BreatherResult] = []  # the converged points, in ramp order
    for omega in omegas:
        cfg = config.with_omega(float(omega))
        carry = good[-1].field if good else None
        predicted = None
        # the secant through the last two converged points, if their frequencies differ
        if len(good) > 1:
            (omega_1, f1), (omega_2, f2) = ((r.config.grid.omega, r.field) for r in good[-2:])
            if omega_1 != omega_2:
                step = (float(omega) - omega_2) / (omega_2 - omega_1)
                predicted = f2.with_coeffs(f2.coeffs + step * (f2.coeffs - f1.coeffs))
        try:
            res = solve(cfg, carry, predicted)
        except ResonanceError:
            results.append(_finalize(cfg, _Outcome(STATUS_RESONANCE, zero_field(cfg.grid),
                                                   math.nan), []))
            continue
        if res.status != STATUS_CONVERGED and good:
            # no ResonanceError: the midpoint lies above a frequency that cleared
            # the band check, and min |nu| = Omega^2 - 4 grows with Omega
            mid_cfg = config.with_omega(0.5 * (good[-1].config.grid.omega + float(omega)))
            mid = solve(mid_cfg, carry)
            if mid.status == STATUS_CONVERGED:
                res = solve(cfg, mid.field)
        results.append(res)
        if res.status == STATUS_CONVERGED:
            good.append(res)
    return results
