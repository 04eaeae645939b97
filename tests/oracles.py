"""Independent oracle routes used by the test suite.

Nothing here shares code with the solver paths it checks: the transform
oracles take the cosine series through numpy's real FFT, the norm oracle
integrates in the time domain, the dealiasing oracle evaluates the force by
direct trigonometric summation on a heavily oversampled grid, the
classical residual samples the field through the FFT route, and the
periodic-orbit oracle is classical shooting (high-order ODE integration of
the orbit and its variational equation, dense Newton on the half-period
return map), and the Anderson oracle rebuilds its difference matrices from
the whole iterate history on every step.
"""

import numpy as np
from scipy.integrate import solve_ivp

from breather_forge import GridSpec, SpectralField, WeightSpec, analyze


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
    wn = np.exp(w.lam * np.abs(grid.sites - w.center))
    return float(np.sqrt(np.sum(wn[:, None] * samples**2) / grid.n_time_samples))


def second_difference(a: np.ndarray) -> np.ndarray:
    """Periodic lattice second difference a_{n+1} + a_{n-1} - 2 a_n along axis 0."""
    return np.roll(a, -1, axis=0) + np.roll(a, 1, axis=0) - 2.0 * a


def apply_n_oversampled(field: SpectralField, spec, oversample: int = 4) -> SpectralField:
    """Direct-summation route for the nonlinear coupling on a denser grid."""
    grid = field.grid
    nt = oversample * (2 * (max(spec.wprime_degree, 1) + 1) * grid.n_harmonics + 2)
    t = grid.period * np.arange(nt) / nt
    phases = np.exp(1j * grid.omega * np.outer(grid.harmonics, t))
    u = 2.0 * np.real(field.coeffs @ phases)
    return analyze(grid, second_difference(spec.cubic * u**2 + spec.quartic * u**3))


def lattice_acceleration(x: np.ndarray, spec) -> np.ndarray:
    """Periodic second difference of V' for the relative-variable system."""
    return second_difference(x + spec.cubic * x**2 + spec.quartic * x**3)


def classical_residual(field: SpectralField, spec) -> float:
    """FFT route for the pointwise residual of the second-order lattice equation.

    Compares the spectral second time derivative with the second difference
    of V'(u) on the field's sample grid (harmonics 1..M stored); returns the
    max deviation relative to the max acceleration.
    """
    grid = field.grid
    m = np.arange(1, field.coeffs.shape[1] + 1)
    accel = fft_synthesize(-(grid.omega * m) ** 2 * field.coeffs, grid.n_time_samples)
    rhs = lattice_acceleration(fft_synthesize(field.coeffs, grid.n_time_samples), spec)
    return float(np.max(np.abs(accel - rhs)) / np.max(np.abs(accel)))


def half_period_flow(x0: np.ndarray, spec, t_half: float) -> tuple[np.ndarray, np.ndarray]:
    """Velocity after half a period from rest, and its Jacobian in x0.

    The variational equation d2/dt2 dX = Delta(V''(x) dX), started from
    dX = I at rest, rides along with the orbit in one integration, so
    dV(T/2) is the Jacobian of v(T/2) with respect to x0.
    """
    n = x0.size

    def rhs(_, z):
        x, dx = z[:n], z[2 * n:2 * n + n * n].reshape(n, n)
        vpp = 1.0 + 2.0 * spec.cubic * x + 3.0 * spec.quartic * x**2
        return np.concatenate([z[n:2 * n], lattice_acceleration(x, spec),
                               z[2 * n + n * n:],
                               second_difference(vpp[:, None] * dx).ravel()])

    z0 = np.concatenate([x0, np.zeros(n), np.eye(n).ravel(), np.zeros(n * n)])
    sol = solve_ivp(rhs, (0.0, t_half), z0, method="DOP853", rtol=1e-12, atol=1e-14)
    z = sol.y[:, -1]
    return z[n:2 * n], z[2 * n + n * n:].reshape(n, n)


def staggered_guess(n_sites: int, amplitude: float, width: float) -> np.ndarray:
    sites = np.arange(n_sites) - n_sites // 2
    return (-1.0) ** np.abs(sites) * amplitude / np.cosh(width * sites)


def shooting_orbit(spec, omega: float, n_sites: int, x0_guess: np.ndarray,
                   tol: float = 1e-11, max_iter: int = 30) -> np.ndarray:
    """Newton shooting for a time-reversible T-periodic orbit.

    Starting from rest, a second rest point at T/2 closes the orbit, so the
    residual is v(T/2; x0), and ``half_period_flow`` gives it together with
    its Jacobian.  Uniform strain is a zero mode of the lattice (constant
    profiles feel no force), so the zero-spatial-mean constraint is
    appended to keep Newton off that solution family.  The backtracking
    line search halves the step down to 1/64; the flow at the accepted
    point is the next Newton step's.
    """
    t_half = np.pi / omega
    n = n_sites
    x0 = x0_guess - np.mean(x0_guess)
    x0 = 0.5 * (x0 + x0[(n - np.arange(n)) % n])
    constraint = np.ones((1, n)) * n
    g, jac = half_period_flow(x0, spec, t_half)
    for _ in range(max_iter):
        g_norm = np.max(np.abs(g))
        if g_norm <= tol:
            return x0
        aug = np.vstack([jac, constraint])
        delta = np.linalg.lstsq(aug, np.concatenate([-g, [0.0]]), rcond=None)[0]
        scale = 1.0
        while True:
            trial = x0 + scale * delta
            g, jac = half_period_flow(trial, spec, t_half)
            if scale <= 1.0 / 64 or np.max(np.abs(g)) <= g_norm:
                break
            scale *= 0.5
        x0 = trial
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


def anderson_step(x_hist: list, f_hist: list, theta: float) -> np.ndarray:
    """Restacking route for damped Anderson mixing over an iterate history.

    The difference columns are stacked afresh from the stored iterates and
    residuals, oldest first; with one stored pair this is the damped Picard
    update x + theta * f.
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


class AndersonHistory:
    """Picard's history kept as whole iterates: at most depth + 1 pairs, cut
    back to the newest pair after a runaway step (non-finite, or a norm above
    1e3 times max(1, ||x||)), with counts of both events."""

    def __init__(self, depth: int, theta: float):
        self.depth, self.theta = depth, theta
        self.x_hist: list = []
        self.f_hist: list = []
        self.trims = self.resets = 0

    def step(self, x_k: np.ndarray, f_k: np.ndarray) -> tuple[np.ndarray, int]:
        """The oracle's step from (x_k, f_k) and the difference columns it used."""
        self.x_hist.append(x_k)
        self.f_hist.append(f_k)
        if len(self.x_hist) > self.depth + 1:
            del self.x_hist[0], self.f_hist[0]
            self.trims += 1
        new = anderson_step(self.x_hist, self.f_hist, self.theta)
        columns = len(self.x_hist) - 1
        if not np.all(np.isfinite(new)) or \
                np.linalg.norm(new) > 1e3 * max(1.0, np.linalg.norm(x_k)):
            self.x_hist, self.f_hist = [x_k], [f_k]
            self.resets += 1
        return new, columns
