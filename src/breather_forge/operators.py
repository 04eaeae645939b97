"""Linear wave operator M, its spectral inverse, nonlinear coupling N, map S.

M(u)_n = u''_n - [u_{n+1} - 2 u_n + u_{n-1}] acts diagonally on space-time
Fourier modes with eigenvalue nu_m(k) = -Om^2 m^2 + 4 sin^2(k/2).  Above the
phonon band (Om^2 > 4) every eigenvalue is negative and bounded away from
zero by Om^2 - 4, so M inverts by spectral division.  N applies the
second-difference stencil to W'(u) on a dealiased collocation grid, and the
breather fixed-point map is S = M^{-1} o N.

The stencil is diagonal on spatial Fourier modes too, with eigenvalue
-4 sin^2(k/2), so S applies one symbol sigma_m(k) = -4 sin^2(k/2) / nu_m(k)
to the stored harmonics of W'(u).  ``apply_S`` and its derivative
``linearize_S`` take that fused route; ``apply_N`` and ``apply_M_inverse``
stay separate as the reference route for S and for the strong residual.

Each axis of S has one transform.  Time: synthesis and analysis of the
cosine series are products with real matrices that ``spectral_field`` caches
per (M, N_t).  Sites: every symbol here is real and even in k, so it acts on
real coefficients through one real FFT pair, ``_site_filter``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice_model import PotentialSpec, dispersion, eval_potential, force, stiffness
from .spectral_field import GridSpec, SpectralField, analyze, synthesize, x0_norm, \
    WeightSpec, dealiased_sample_count, random_field

RESONANCE_FLOOR = 1e-9


class ResonanceError(ValueError):
    """Frequency at or inside the phonon band; M is not safely invertible."""


@dataclass(frozen=True)
class Multiplier:
    """Eigenvalue table nu[m-1, j] = -Om^2 m^2 + 4 sin^2(k_j / 2), k_j = 2 pi j / N."""

    omega: float
    table: np.ndarray

    @classmethod
    def build(cls, grid: GridSpec) -> "Multiplier":
        m = grid.harmonics
        table = -(grid.omega * m[:, None]) ** 2 + dispersion(_wavenumbers(grid))[None, :]
        return cls(grid.omega, table)


def _wavenumbers(grid: GridSpec) -> np.ndarray:
    return 2.0 * np.pi * np.arange(grid.n_sites) / grid.n_sites


def _site_filter(coeffs: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Multiply each spatial Fourier mode of real coefficients by a real
    symbol even in k, given at the N/2+1 frequencies k_0..k_{N/2} of the real FFT."""
    return np.fft.irfft(np.fft.rfft(coeffs, axis=0) * symbol, n=coeffs.shape[0], axis=0)


def _symbols(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(nu, sigma) at the real-FFT site frequencies, (N/2+1, M), resonance-checked.

    Built once per GridSpec instance and kept on it; GridSpec is frozen, so
    the pair goes into the instance dict directly.  Equal grids built
    separately each build their own; only the time-axis cosine matrices of
    ``spectral_field`` are shared process-wide.
    """
    cached = grid.__dict__.get("_symbols")
    if cached is None:
        if grid.omega**2 <= 4.0:
            raise ResonanceError(
                f"omega^2 = {grid.omega**2:.6g} does not clear the phonon band edge 4")
        rows = grid.n_sites // 2 + 1
        nu = np.ascontiguousarray(Multiplier.build(grid).table.T[:rows])
        if np.min(np.abs(nu)) < RESONANCE_FLOOR:
            raise ResonanceError("multiplier magnitude below resonance floor")
        sigma = -dispersion(_wavenumbers(grid)[:rows])[:, None] / nu
        cached = grid.__dict__["_symbols"] = (nu, sigma)
    return cached


def apply_M(field: SpectralField) -> SpectralField:
    """Stencil route: -Om^2 m^2 c minus the periodic discrete Laplacian."""
    c = field.coeffs
    m = field.grid.harmonics
    lap = np.roll(c, -1, axis=0) - 2.0 * c + np.roll(c, 1, axis=0)
    return field.with_coeffs(-((field.grid.omega * m[None, :]) ** 2) * c - lap)


def apply_M_via_multiplier(field: SpectralField) -> SpectralField:
    """Multiplier route: the site filter by nu_m(k), defined inside the band too."""
    table = Multiplier.build(field.grid).table.T[:field.grid.n_sites // 2 + 1]
    return field.with_coeffs(_site_filter(field.coeffs, table))


def apply_M_inverse(field: SpectralField) -> SpectralField:
    """Invert M by spectral division; requires Om^2 > 4 (non-resonance)."""
    nu, _ = _symbols(field.grid)
    return field.with_coeffs(_site_filter(field.coeffs, 1.0 / nu))


def _collocation_count(field: SpectralField, spec: PotentialSpec) -> int:
    """Samples per period for W' on this field: the dealiasing rule, or N_t if larger."""
    grid = field.grid
    return max(grid.n_time_samples, dealiased_sample_count(grid.n_harmonics, spec.wprime_degree))


def apply_N(field: SpectralField, spec: PotentialSpec) -> SpectralField:
    """Nonlinear coupling N(u)_n = W'(u_{n+1}) + W'(u_{n-1}) - 2 W'(u_n).

    W' is evaluated pointwise on a collocation grid oversampled by the
    dealiasing rule of ``GridSpec.with_dealiasing``, which keeps the
    truncated result an exact restriction of the continuous operator; the
    zero-mean projection is part of the transform back.
    """
    if spec.wprime_degree == 0:
        return field.with_coeffs(np.zeros_like(field.coeffs))
    u = synthesize(field, n_time_samples=_collocation_count(field, spec))
    wp = eval_potential(spec, u).Wp
    stencil = np.roll(wp, -1, axis=0) + np.roll(wp, 1, axis=0) - 2.0 * wp
    return analyze(field.grid, stencil)


def _apply_symbol(field: SpectralField, samples: np.ndarray) -> SpectralField:
    """M^{-1} of the second difference of collocation samples, via sigma."""
    _, sigma = _symbols(field.grid)
    return field.with_coeffs(_site_filter(analyze(field.grid, samples).coeffs, sigma))


def apply_S(field: SpectralField, spec: PotentialSpec) -> SpectralField:
    """Fixed-point map S = M^{-1} o N; breathers are its nontrivial fixed points.

    Equal to ``apply_M_inverse(apply_N(field, spec))`` up to round-off, with
    the second difference folded into the symbol instead of taken on the
    samples.
    """
    u = synthesize(field, n_time_samples=_collocation_count(field, spec))
    return _apply_symbol(field, force(spec, u))


def linearize_S(field: SpectralField, spec: PotentialSpec):
    """Derivative of S at ``field``: the map w -> M^{-1} Delta (W''(u) w).

    u and W''(u) are sampled once here; each call of the returned map costs
    one synthesis and one application of the symbol.  W''(u) w has the
    degree of W'(u), so the same collocation count stays alias-free.
    """
    nt = _collocation_count(field, spec)
    curvature = stiffness(spec, synthesize(field, n_time_samples=nt))

    def jvp(w: SpectralField) -> SpectralField:
        return _apply_symbol(w, curvature * synthesize(w, n_time_samples=nt))

    return jvp


def probe_operator_norm(omega: float, grid: GridSpec, trials: int,
                        seed: int = 0) -> tuple[float, float]:
    """Randomised estimate of ||M^{-1}|| on X0 against the exact supremum.

    Returns (max probed ratio, 1/(omega^2 - 4)).  The supremum is attained
    on the (m = 1, k = pi) mode; random probes stay at or below it.
    """
    grid = GridSpec(grid.n_sites, grid.n_harmonics, grid.n_time_samples, omega)
    if omega**2 <= 4.0:
        raise ResonanceError("operator norm probe needs omega^2 > 4")
    rng = np.random.default_rng(seed)
    flat = WeightSpec(0.0)
    best = 0.0
    for _ in range(trials):
        u = random_field(grid, rng)
        denom = x0_norm(u, flat)
        if denom == 0.0:
            continue
        best = max(best, x0_norm(apply_M_inverse(u), flat) / denom)
    return best, 1.0 / (omega**2 - 4.0)
