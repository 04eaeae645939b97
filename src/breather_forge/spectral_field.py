"""Space-time Fourier fields on a periodic lattice, weighted norms, parity.

A field u_n(t) is T-periodic, time-reversal symmetric (u(t) = u(-t)) and of
zero time mean per site, so it is a cosine series: it is stored as real
coefficients a[i, j] for harmonics m = j+1 in 1..M, with
u_n(t) = 2 sum_m a[n, m] cos(m Om t).
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
    """Discretisation: N lattice sites, M harmonics, N_t samples per period."""

    n_sites: int
    n_harmonics: int
    n_time_samples: int
    omega: float

    def __post_init__(self):
        if self.n_sites < 8 or self.n_sites % 2 != 0:
            raise ValueError("n_sites must be even and >= 8")
        if self.n_harmonics < 1:
            raise ValueError("n_harmonics must be >= 1")
        if self.n_time_samples % 2 != 0 or self.n_time_samples < 2 * self.n_harmonics + 2:
            raise ValueError("n_time_samples must be even and > 2*n_harmonics")
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")

    @classmethod
    def with_dealiasing(cls, n_sites: int, n_harmonics: int, omega: float,
                        wprime_degree: int = 3) -> "GridSpec":
        """Grid whose collocation rule resolves a degree-``wprime_degree`` force
        without aliasing (see ``dealiased_sample_count``)."""
        return cls(n_sites, n_harmonics,
                   dealiased_sample_count(n_harmonics, wprime_degree), omega)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def sites(self) -> np.ndarray:
        """Physical site indices -N/2 .. N/2-1 in storage order."""
        return np.arange(self.n_sites) - self.n_sites // 2

    @property
    def harmonics(self) -> np.ndarray:
        return np.arange(1, self.n_harmonics + 1)


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
    """Cosine field: coeffs[i, j] is the real m = j+1 coefficient at site i.
    A complex array is refused, never cast, so no sine part is dropped."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.coeffs):
            raise ValueError("coefficients must be real: a field is a cosine series")
        expected = (self.grid.n_sites, self.grid.n_harmonics)
        if np.shape(self.coeffs) != expected:
            raise ValueError(f"coefficient array must have shape {expected}")
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coeffs)


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros((grid.n_sites, grid.n_harmonics)))


def random_field(grid: GridSpec, rng: np.random.Generator) -> SpectralField:
    """Gaussian coefficients, useful as probe input for operator tests."""
    return SpectralField(grid, rng.standard_normal((grid.n_sites, grid.n_harmonics)))


@functools.lru_cache(maxsize=32)
def _cosine_matrices(n_harmonics: int, n_time_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (synthesis, analysis) pair of the cosine series on N_t samples.

    synthesis[m-1, j] = 2 cos(m 2 pi j / N_t) and analysis = synthesis.T / (2 N_t),
    so ``coeffs @ synthesis`` samples the series and ``samples @ analysis`` is the
    discrete cosine coefficient integral.  The phase index m*j is reduced mod N_t
    first, so every entry is a cosine of an angle in [0, 2 pi).
    """
    if n_time_samples < 2 * n_harmonics + 2:
        raise ValueError("sample count under the Nyquist bound for this field")
    m = np.arange(1, n_harmonics + 1)
    phase = 2.0 * np.pi * (np.outer(m, np.arange(n_time_samples)) % n_time_samples)
    synthesis = 2.0 * np.cos(phase / n_time_samples)
    analysis = np.ascontiguousarray(synthesis.T) / (2.0 * n_time_samples)
    synthesis.flags.writeable = analysis.flags.writeable = False
    return synthesis, analysis


def synthesize(field: SpectralField, n_time_samples: int | None = None) -> np.ndarray:
    """Samples u[i, j] at t_j = j*T/N_t of the cosine series."""
    grid = field.grid
    nt = grid.n_time_samples if n_time_samples is None else n_time_samples
    return field.coeffs @ _cosine_matrices(grid.n_harmonics, nt)[0]


def analyze(grid: GridSpec, samples: np.ndarray) -> SpectralField:
    """The field of real cosine coefficients of harmonics 1..M of samples over
    one period.  The time mean (m = 0), the sine parts and harmonics above M
    are discarded: the discrete zero-average cosine coefficient integral."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != grid.n_sites:
        raise ValueError("site count mismatch")
    return SpectralField(grid, samples @ _cosine_matrices(grid.n_harmonics, samples.shape[1])[1])


def _site_weights(n_sites: int, w: WeightSpec) -> np.ndarray:
    """exp(lam*|n - center|) at sites n = -N/2 .. N/2-1; guards against overflow."""
    if w.lam * (n_sites / 2) > 700.0:
        raise WeightOverflowError("weight overflow: lam * N/2 exceeds 700")
    return np.exp(w.lam * np.abs(np.arange(n_sites) - n_sites // 2 - w.center))


def weights(grid: GridSpec, w: WeightSpec) -> np.ndarray:
    """Per-site weights exp(lam*|n - center|) of the grid's sites."""
    return _site_weights(grid.n_sites, w)


def weighted_profile_norm(profile: np.ndarray, w: WeightSpec) -> float:
    """sqrt(sum_n exp(lam*|n - center|) * |u_n|^2) over a site profile.

    The profile is indexed in storage order, centre at len//2.
    """
    profile = np.asarray(profile, dtype=float)
    return float(np.sqrt(np.sum(_site_weights(profile.size, w) * profile**2)))


def x0_norm(field: SpectralField, w: WeightSpec) -> float:
    """Time-averaged weighted l2 norm, computed spectrally.

    Parseval in time turns (1/T) * integral of ||u(t)||_w^2 into
    sum_n w_n * 2 * sum_m a_nm^2.
    """
    wn = weights(field.grid, w)
    return float(np.sqrt(np.sum(wn * 2.0 * np.sum(field.coeffs**2, axis=1))))


def x2_norm(field: SpectralField, w: WeightSpec) -> float:
    """As x0_norm but with two time derivatives: factor 1 + (Om*m)^2 + (Om*m)^4."""
    wn = weights(field.grid, w)
    om2 = (field.grid.omega * field.grid.harmonics) ** 2
    fac = 1.0 + om2 + om2**2
    return float(np.sqrt(np.sum(wn[:, None] * 2.0 * fac[None, :] * field.coeffs**2)))


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
    n = field.grid.n_sites
    flip = field.coeffs[(n - np.arange(n)) % n, :]
    sgn = (-1.0) ** field.grid.harmonics
    return field.with_coeffs(0.5 * (field.coeffs - sgn[None, :] * flip))


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
    profile = amplitude / np.cosh(width * (grid.sites - center))
    if parity == "even":
        profile = profile * np.sign(grid.sites - center)
    coeffs = np.zeros((grid.n_sites, grid.n_harmonics))
    coeffs[:, 0] = profile / 2.0
    return parity_projector(parity)(SpectralField(grid, coeffs))


def time_means(field: SpectralField) -> np.ndarray:
    """Per-site means of the synthesized samples; zero up to round-off."""
    return synthesize(field).mean(axis=1)


def max_amplitude_profile(field: SpectralField) -> np.ndarray:
    """max_t |u_n(t)| per site, from the collocation samples."""
    return np.max(np.abs(synthesize(field)), axis=1)
