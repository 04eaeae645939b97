"""Independent oracle routes used by the test suite.

Nothing here shares code with the solver paths it checks: the transform
oracles take the cosine series through numpy's real FFT, the norm oracle
integrates in the time domain, the dealiasing oracle evaluates the force by
direct trigonometric summation on a heavily oversampled grid, and the
periodic-orbit oracle is classical shooting (high-order ODE integration plus
dense Newton on the half-period return map).
"""

import numpy as np
from scipy.integrate import solve_ivp

from breather_forge import GridSpec, SpectralField, WeightSpec, analyze, weights


def fft_synthesize(coeffs: np.ndarray, n_time_samples: int) -> np.ndarray:
    """FFT route for the samples of u_n(t) = 2 sum_m a[n, m] cos(m Om t)."""
    spectrum = np.zeros((coeffs.shape[0], n_time_samples // 2 + 1), dtype=complex)
    spectrum[:, 1:coeffs.shape[1] + 1] = coeffs * n_time_samples
    return np.fft.irfft(spectrum, n=n_time_samples, axis=1)


def fft_analyze(samples: np.ndarray, n_harmonics: int) -> np.ndarray:
    """FFT route for the cosine coefficients 1..M: real part of the scaled rfft."""
    return (np.fft.rfft(samples, axis=1)[:, 1:n_harmonics + 1] / samples.shape[1]).real


def x0_norm_time_quadrature(field: SpectralField, w: WeightSpec) -> float:
    """Time-domain route for the X0 norm: sample, square, average."""
    grid = field.grid
    t = grid.period * np.arange(grid.n_time_samples) / grid.n_time_samples
    phases = np.exp(1j * grid.omega * np.outer(grid.harmonics, t))
    samples = 2.0 * np.real(field.coeffs @ phases)
    wn = weights(grid, w)
    return float(np.sqrt(np.sum(wn[:, None] * samples**2) / grid.n_time_samples))


def apply_n_oversampled(field: SpectralField, spec, oversample: int = 4) -> SpectralField:
    """Direct-summation route for the nonlinear coupling on a denser grid."""
    grid = field.grid
    nt = oversample * (2 * (max(spec.wprime_degree, 1) + 1) * grid.n_harmonics + 2)
    t = grid.period * np.arange(nt) / nt
    phases = np.exp(1j * grid.omega * np.outer(grid.harmonics, t))
    u = 2.0 * np.real(field.coeffs @ phases)
    wp = spec.cubic * u**2 + spec.quartic * u**3
    stencil = np.roll(wp, -1, axis=0) + np.roll(wp, 1, axis=0) - 2.0 * wp
    return analyze(grid, stencil)


def lattice_acceleration(x: np.ndarray, spec) -> np.ndarray:
    """Periodic second difference of V' for the relative-variable system."""
    vp = x + spec.cubic * x**2 + spec.quartic * x**3
    return np.roll(vp, -1) + np.roll(vp, 1) - 2.0 * vp


def half_period_velocity(x0: np.ndarray, spec, t_half: float) -> np.ndarray:
    """Velocity after half a period, starting from rest (time-reversible data)."""
    n = x0.size

    def rhs(_, z):
        return np.concatenate([z[n:], lattice_acceleration(z[:n], spec)])

    sol = solve_ivp(rhs, (0.0, t_half), np.concatenate([x0, np.zeros(n)]),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    return sol.y[n:, -1]


def staggered_guess(n_sites: int, amplitude: float, width: float) -> np.ndarray:
    sites = np.arange(n_sites) - n_sites // 2
    return (-1.0) ** np.abs(sites) * amplitude / np.cosh(width * sites)


def shooting_orbit(spec, omega: float, n_sites: int, x0_guess: np.ndarray,
                   tol: float = 1e-11, max_iter: int = 30) -> np.ndarray:
    """Newton shooting for a time-reversible T-periodic orbit.

    Starting from rest, a second rest point at T/2 closes the orbit, so the
    residual is v(T/2; x0).  The Jacobian is built column by column from
    central differences.  Uniform strain is a zero mode of the lattice
    (constant profiles feel no force), so the zero-spatial-mean constraint
    is appended to keep Newton off that solution family.
    """
    t_half = np.pi / omega
    n = n_sites
    x0 = x0_guess - np.mean(x0_guess)
    x0 = 0.5 * (x0 + x0[(n - np.arange(n)) % n])
    constraint = np.ones((1, n)) * n
    for _ in range(max_iter):
        g = half_period_velocity(x0, spec, t_half)
        if np.max(np.abs(g)) <= tol:
            return x0
        jac = np.empty((n, n))
        h = 1e-7 * max(1.0, float(np.max(np.abs(x0))))
        for j in range(n):
            step = np.zeros(n)
            step[j] = h
            jac[:, j] = (half_period_velocity(x0 + step, spec, t_half)
                         - half_period_velocity(x0 - step, spec, t_half)) / (2.0 * h)
        aug = np.vstack([jac, constraint])
        delta = np.linalg.lstsq(aug, np.concatenate([-g, [0.0]]), rcond=None)[0]
        g_norm = np.max(np.abs(g))
        scale = 1.0
        while scale > 1.0 / 64 and np.max(np.abs(
                half_period_velocity(x0 + scale * delta, spec, t_half))) > g_norm:
            scale *= 0.5
        x0 = x0 + scale * delta
    raise RuntimeError("shooting oracle did not converge")


def profile_at_t0(field: SpectralField) -> np.ndarray:
    """t = 0 samples straight from the coefficients."""
    return 2.0 * np.sum(field.coeffs.real, axis=1)


def central_block(profile: np.ndarray, n_out: int) -> np.ndarray:
    half = profile.size // 2
    return profile[half - n_out // 2: half + n_out // 2]


def single_mode_field(grid: GridSpec, site: int, m: int, value: float) -> SpectralField:
    coeffs = np.zeros((grid.n_sites, grid.n_harmonics))
    coeffs[site + grid.n_sites // 2, m - 1] = value
    return SpectralField(grid, coeffs)


def plane_wave_field(grid: GridSpec, j: int, m: int, scale: float = 0.5) -> SpectralField:
    """Spatial standing wave cos(k_j n) in harmonic m.

    It shares the eigenvalues of the plane waves exp(+-i k_j n), which are
    even in k.
    """
    k = 2.0 * np.pi * j / grid.n_sites
    coeffs = np.zeros((grid.n_sites, grid.n_harmonics))
    coeffs[:, m - 1] = scale * np.cos(k * grid.sites)
    return SpectralField(grid, coeffs)
