"""Space-time Fourier fields on a periodic lattice, weighted norms, parity.

A field u_n(t) is T-periodic, time-reversal symmetric (u(t) = u(-t)) and of
zero time mean per site, so it is a cosine series: it is stored as real
coefficients a[i, j] of the j-th harmonic m in ``GridSpec.harmonics`` (1..M, or
the odd m <= M), with u_n(t) = 2 sum_m a[n, m] cos(m Om t).
Storage row i corresponds to physical site n = i - N/2, i.e. the lattice
circle is laid out left to right with the origin at the centre.
The parity class (names, reflection centre, projector) is defined here only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class WeightOverflowError(ValueError):
    """Exponential weight exceeds double range for this lattice size."""


def dealiased_sample_count(n_harmonics: int, wprime_degree: int) -> int:
    """The dealiasing rule: N_t >= 2*(deg+1)*M + 1 samples, rounded up to even.

    A degree-deg polynomial of an M-harmonic field carries harmonics up to
    deg*M; with this many samples none of them aliases onto 1..M.
    """
    return 2 * (max(1, wprime_degree) + 1) * n_harmonics + 2


@dataclass(frozen=True)
class GridSpec:
    """Discretisation: N lattice sites, harmonics up to M, N_t samples per period.
    A half-wave grid stores only odd m: the class u(t + T/2) = -u(t)."""

    n_sites: int
    n_harmonics: int
    n_time_samples: int
    omega: float
    half_wave: bool = False

    def __post_init__(self):
        if self.n_sites < 8 or self.n_sites % 2 != 0:
            raise ValueError("n_sites must be even and >= 8")
        if self.n_harmonics < 1:
            raise ValueError("n_harmonics must be >= 1")
        if self.n_time_samples % 2 != 0 or self.n_time_samples < 2 * self.n_harmonics + 2:
            raise ValueError("n_time_samples must be even and > 2*n_harmonics")
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")
        top = self.omega * self.n_harmonics  # products: ** raises OverflowError
        if not math.isfinite(top * top * top * top):
            raise ValueError(f"omega = {self.omega!r} is too large for {self.n_harmonics} "
                             "harmonics: the X2 weight (omega * m)^4 overflows at m = M")

    @classmethod
    def with_dealiasing(cls, n_sites: int, n_harmonics: int, omega: float) -> "GridSpec":
        """Grid whose collocation rule resolves the quartic potential's cubic force
        without aliasing (see ``dealiased_sample_count``)."""
        return cls(n_sites, n_harmonics, dealiased_sample_count(n_harmonics, 3), omega)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def sites(self) -> np.ndarray:
        """Physical site indices -N/2 .. N/2-1 in storage order."""
        return np.arange(self.n_sites) - self.n_sites // 2

    @property
    def fold(self) -> int:
        """Stride of the stored harmonics, and 1 / the part of a period sampled: 2 on a
        half-wave grid, whose second half period is the first with its sign flipped."""
        return 2 if self.half_wave else 1

    @property
    def harmonics(self) -> np.ndarray:
        return np.arange(1, self.n_harmonics + 1, self.fold)

    @functools.cached_property
    def shape(self) -> tuple[int, int]:
        """(sites, stored harmonics), the shape of a field's coefficients."""
        return self.n_sites, (self.n_harmonics + self.fold - 1) // self.fold


@dataclass(frozen=True)
class WeightSpec:
    """Exponential weight exp(lam * |n - center|) on physical site indices.

    center = 0 matches site-centred (odd parity) profiles, center = -1/2
    bond-centred (even parity) ones, keeping the weighted norm symmetric
    under the matching reflection.
    """

    lam: float = 0.0
    center: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("weight decay rate must be finite and >= 0")

    @classmethod
    def for_parity(cls, lam: float, parity: str) -> "WeightSpec":
        return cls(lam, parity_center(parity))


@dataclass(frozen=True)
class SpectralField:
    """Cosine field: coeffs[i, j] is the real coefficient of the j-th stored m at
    site i.  A complex array is refused, never cast, so no sine part is dropped."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = self.coeffs
        if type(c) is not np.ndarray or c.dtype != np.float64:
            # anything but the float64 arrays the operators build is checked, then cast
            if np.iscomplexobj(c):
                raise ValueError("coefficients must be real: a field is a cosine series")
            c = np.asarray(c, dtype=float)
            object.__setattr__(self, "coeffs", c)
        if c.shape != self.grid.shape:
            raise ValueError(f"coefficient array must have shape {self.grid.shape}")

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coeffs)


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape))


def random_field(grid: GridSpec, rng: np.random.Generator) -> SpectralField:
    """Gaussian coefficients, useful as probe input for operator tests."""
    return SpectralField(grid, rng.standard_normal(grid.shape))


@functools.lru_cache(maxsize=32)
def _cosine_matrices(n_harmonics: int, n_time_samples: int, fold: int = 1):
    """Read-only (synthesis, analysis) pair of the cosine series on the first n = N_t/fold
    of N_t samples per period, for m = 1, 1 + fold, ... <= M (see ``GridSpec.fold``).

    synthesis[i, j] = 2 cos(m_i 2 pi j / N_t) and analysis = synthesis.T / (2 n), so
    ``coeffs @ synthesis`` samples the series and ``samples @ analysis`` is the discrete
    cosine coefficient integral.  The phase index m*j is reduced mod N_t first.
    """
    if n_time_samples < 2 * n_harmonics + 2:
        raise ValueError("sample count under the Nyquist bound for this field")
    m = np.arange(1, n_harmonics + 1, fold)
    taken = n_time_samples // fold
    phase = 2.0 * np.pi * (np.outer(m, np.arange(taken)) % n_time_samples)
    synthesis = 2.0 * np.cos(phase / n_time_samples)
    analysis = np.ascontiguousarray(synthesis.T) / (2.0 * taken)
    synthesis.flags.writeable = analysis.flags.writeable = False
    return synthesis, analysis


def synthesize(field: SpectralField, n_time_samples: int | None = None) -> np.ndarray:
    """Samples u[i, j] at t_j = j*T/N_t, j < N_t/fold, of the cosine series."""
    grid = field.grid
    nt = grid.n_time_samples if n_time_samples is None else n_time_samples
    return field.coeffs @ _cosine_matrices(grid.n_harmonics, nt, grid.fold)[0]


def analyze(grid: GridSpec, samples: np.ndarray) -> SpectralField:
    """The field of real cosine coefficients of the grid's harmonics of samples taken
    as ``synthesize`` takes them, which on a half-wave grid must be of the class.  The
    mean, sine parts and other m are discarded: the discrete cosine integral."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != grid.n_sites:
        raise ValueError("site count mismatch")
    analysis = _cosine_matrices(grid.n_harmonics, samples.shape[1] * grid.fold, grid.fold)[1]
    return SpectralField(grid, samples @ analysis)


@functools.lru_cache(maxsize=32)
def _site_weights(n_sites: int, w: WeightSpec) -> np.ndarray:
    """Read-only exp(lam*|n - center|) at sites n = -N/2 .. N/2-1; guards overflow."""
    if w.lam * (n_sites / 2) > 700.0:
        raise WeightOverflowError("weight overflow: lam * N/2 exceeds 700")
    wn = np.exp(w.lam * np.abs(np.arange(n_sites) - n_sites // 2 - w.center))
    wn.flags.writeable = False
    return wn


@functools.lru_cache(maxsize=32)
def _x2_weights(grid: GridSpec, w: WeightSpec) -> np.ndarray:
    """Read-only 2 w_n (1 + (Om m)^2 + (Om m)^4) per site and stored m, for ``x2_norm``."""
    om2 = (grid.omega * grid.harmonics) ** 2
    fac = 1.0 + om2 + om2**2
    table = _site_weights(grid.n_sites, w)[:, None] * 2.0 * fac[None, :]
    table.flags.writeable = False
    return table


def check_x2_weights(grid: GridSpec, w: WeightSpec) -> None:
    """Raise WeightOverflowError if an X2 weight of the grid overflows a double.

    The grid bounds (Om M)^4 and ``_site_weights`` bounds w_n, each alone; this bounds
    their product.  The largest entry of ``_x2_weights`` is at m = M and at the first
    or last site, whichever lies farther from the centre, and is computed here as it
    is there, in Python floats, which overflow to inf without a warning.
    """
    top = grid.omega * grid.n_harmonics
    om2 = top * top
    wn = _site_weights(grid.n_sites, w)
    if not math.isfinite(float(max(wn[0], wn[-1])) * 2.0 * (1.0 + om2 + om2 * om2)):
        raise WeightOverflowError(
            f"weight overflow: the X2 weight 2 exp(lambda |n - c|) (1 + (omega m)^2 + "
            f"(omega m)^4) exceeds the double range at lambda = {w.lam!r}, "
            f"omega = {grid.omega!r}, N = {grid.n_sites}, M = {grid.n_harmonics}")


def x0_norm(field: SpectralField, w: WeightSpec) -> float:
    """Time-averaged weighted l2 norm, computed spectrally.

    Parseval in time turns (1/T) * integral of ||u(t)||_w^2 into
    2 * sum_n w_n * sum_m a_nm^2.
    """
    c = field.coeffs
    return math.sqrt(2.0 * np.add.reduce(_site_weights(field.grid.n_sites, w)
                                         * np.add.reduce(c * c, axis=1)))


def x2_norm(field: SpectralField, w: WeightSpec) -> float:
    """As x0_norm but with two time derivatives: factor 1 + (Om*m)^2 + (Om*m)^4."""
    c = field.coeffs
    return math.sqrt(np.add.reduce(_x2_weights(field.grid, w) * (c * c), axis=None))


def project_even(field: SpectralField) -> SpectralField:
    """Enforce the bond-centred relation u_n = -u_{-(n+1)} by averaging.

    In storage order the index map n -> -(n+1) is plain row reversal, so the
    projector is (c - c[::-1]) / 2.  Idempotent and orthogonal in plain l2.
    """
    c = field.coeffs
    return field.with_coeffs(0.5 * (c - c[::-1, :]))


def project_odd(field: SpectralField) -> SpectralField:
    """Enforce the site-centred half-period relation u_n(t) = -u_{-n}(t + T/2).

    The half-period shift multiplies harmonic m by (-1)^m, so fixed points
    satisfy c_{n,m} = -(-1)^m c_{-n,m}; the projector averages accordingly.
    """
    c = field.coeffs
    flip = np.concatenate((c[:1], c[:0:-1]))  # row of n -> row of -n
    grid = field.grid
    return field.with_coeffs(0.5 * (c - _odd_signs(grid.n_harmonics, grid.fold) * flip))


@functools.lru_cache(maxsize=32)
def _odd_signs(n_harmonics: int, fold: int) -> np.ndarray:
    """Read-only (-1)^m of the stored harmonics m = 1, 1 + fold, ... <= M."""
    sgn = (-1.0) ** np.arange(1, n_harmonics + 1, fold)
    sgn.flags.writeable = False
    return sgn


PARITIES = ("even", "odd")


def parity_center(parity: str) -> float:
    """Reflection centre of a parity class: bond -1/2 (even) or site 0 (odd)."""
    return -0.5 if parity == "even" else 0.0


def parity_projector(parity: str):
    if parity == "even":
        return project_even
    if parity == "odd":
        return project_odd
    raise ValueError(f"unknown parity {parity!r}")


def seed_field(grid: GridSpec, parity: str, amplitude: float, width: float) -> SpectralField:
    """Localised first-harmonic seed with a sech envelope and cos(Om*t) motion.

    The envelope is centred on the parity centre n_c (site 0, or bond -1/2).
    Even-parity fields are antisymmetric about the bond, so a symmetric
    envelope would be annihilated by the projector; the even seed therefore
    carries a sign flip across the bond.  The matching projector is applied
    last so the seed satisfies its symmetry exactly.
    """
    if amplitude < 0.0 or width <= 0.0:
        raise ValueError("seed amplitude must be >= 0 and width > 0")
    center = parity_center(parity)
    with np.errstate(over="ignore"):  # cosh = inf far out: the seed's exact limit 0.0
        profile = amplitude / np.cosh(width * (grid.sites - center))
    if parity == "even":
        profile = profile * np.sign(grid.sites - center)
    coeffs = np.zeros(grid.shape)
    coeffs[:, 0] = profile / 2.0
    return parity_projector(parity)(SpectralField(grid, coeffs))


def max_amplitude_profile(field: SpectralField) -> np.ndarray:
    """max_t |u_n(t)| per site, from the collocation samples."""
    return np.max(np.abs(synthesize(field)), axis=1)
