"""Interaction potential family, phonon dispersion, and variable transforms.

The lattice is a chain of unit-mass particles with nearest-neighbour
interaction potential

    V(x) = x**2 / 2 + W(x),      W(x) = cubic * x**3 / 3 + quartic * x**4 / 4.

W carries the anharmonicity; its curvature obeys a power-law envelope
|W''(x)| <= kbar * |x|**alpha for pure cubic or pure quartic potentials.
The solver works in relative (bond strain) variables x_n = q_n - q_{n-1}
with conjugate y_n defined through p_n = y_n - y_{n+1}.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np


class MixedPotentialError(ValueError):
    """No single global power-law envelope exists for cubic + quartic mixes."""


@dataclass(frozen=True)
class PotentialSpec:
    """Coefficients of the anharmonic part W(x) = cubic*x^3/3 + quartic*x^4/4."""

    cubic: float = 0.0
    quartic: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.cubic) and math.isfinite(self.quartic)):
            raise ValueError("potential coefficients must be finite")

    @property
    def is_harmonic(self) -> bool:
        return self.cubic == 0.0 and self.quartic == 0.0

    @property
    def is_pure(self) -> bool:
        """True when at most one anharmonic coefficient is nonzero."""
        return self.cubic == 0.0 or self.quartic == 0.0

    @property
    def has_growth_pair(self) -> bool:
        """Pure and anharmonic: ``growth_bound`` has a global pair with kbar > 0."""
        return self.is_pure and not self.is_harmonic

    @property
    def wprime_degree(self) -> int:
        """Polynomial degree of W', used to size dealiased collocation grids."""
        if self.quartic != 0.0:
            return 3
        if self.cubic != 0.0:
            return 2
        return 0


PotentialValues = namedtuple("PotentialValues", "V Vp Vpp W Wp Wpp")


def eval_potential(spec: PotentialSpec, x) -> PotentialValues:
    """Evaluate V, W and their first two derivatives at x (scalar or array).

    Identities V = x^2/2 + W, Vp = x + Wp and Vpp = 1 + Wpp hold exactly;
    W(0) = W'(0) = W''(0) = 0 so the harmonic stiffness is always 1.
    """
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else x
    x2 = x * x
    W = x2 * x * (spec.cubic / 3.0 + spec.quartic / 4.0 * x)
    Wp = force(spec, x)
    Wpp = stiffness(spec, x)
    return PotentialValues(0.5 * x2 + W, x + Wp, 1.0 + Wpp, W, Wp, Wpp)


def force(spec: PotentialSpec, x):
    """W'(x) = x^2 (cubic + quartic x), in Horner form.

    Products instead of powers: numpy's general ``x**3`` costs tens of
    times more than a multiply, and W' is the innermost kernel of S.
    """
    return x * x * (spec.cubic + spec.quartic * x)


def stiffness(spec: PotentialSpec, x):
    """W''(x) = x (2 cubic + 3 quartic x), the linearisation of ``force``."""
    return x * (2.0 * spec.cubic + 3.0 * spec.quartic * x)


def growth_bound(spec: PotentialSpec, cap: float | None = None,
                 alpha: float | None = None) -> tuple[float, float]:
    """Power-law envelope (kbar, alpha) with |W''(x)| <= kbar * |x|**alpha.

    For pure potentials the pair is exact and tight: kbar = 2|cubic| with
    alpha = 1, or kbar = 3|quartic| with alpha = 2.  A harmonic potential
    returns (0, 0).  Mixed potentials have no global pair; the caller must
    supply an amplitude ``cap`` and exponent ``alpha``, and receives the
    local bound sup_{|x| <= cap} |W''(x)| / |x|**alpha from a dense grid.

    Raises
    ------
    MixedPotentialError
        If both coefficients are nonzero and no cap/alpha was provided.
    """
    if spec.is_harmonic:
        return 0.0, 0.0
    if spec.quartic == 0.0:
        return 2.0 * abs(spec.cubic), 1.0
    if spec.cubic == 0.0:
        return 3.0 * abs(spec.quartic), 2.0
    if cap is None or alpha is None:
        raise MixedPotentialError(
            "mixed cubic+quartic potential has no global growth pair; "
            "supply an amplitude cap and exponent for a local bound")
    if cap <= 0.0:
        raise ValueError("amplitude cap must be positive")
    x = np.linspace(-cap, cap, 20001)
    x = x[x != 0.0]
    wpp = np.abs(2.0 * spec.cubic * x + 3.0 * spec.quartic * x**2)
    return float(np.max(wpp / np.abs(x) ** alpha)), float(alpha)


def dispersion(k):
    """Squared phonon frequency 4*sin(k/2)^2 of the linearised chain.

    Even in k and bounded by the band edge value 4, attained at k = +-pi.
    """
    return 4.0 * np.sin(np.asarray(k, dtype=float) / 2.0) ** 2 if not np.isscalar(k) \
        else 4.0 * math.sin(k / 2.0) ** 2


@dataclass
class PhysicalState:
    """Displacements q, momenta p, and the net deformation carried by the strain."""

    q: np.ndarray
    p: np.ndarray
    deformation: float = 0.0

    @classmethod
    def from_qp(cls, q, p) -> "PhysicalState":
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        # anchored chain: the site left of the edge is held at zero
        return cls(q=q, p=p, deformation=float(q[-1]))


def to_relative(state: PhysicalState, momentum_tol: float = 1e-12):
    """Map (q, p) to relative variables (x, y).

    x_n = q_n - q_{n-1} with the left edge anchored (q before the chain is 0),
    and y accumulates -p from the left edge with y_0 = 0, the finite-chain
    analogue of y vanishing far to the left.  Requires zero total momentum,
    otherwise the right edge of y cannot close consistently.
    """
    q = np.asarray(state.q, dtype=float)
    p = np.asarray(state.p, dtype=float)
    total = momentum(p)
    if abs(total) > momentum_tol * max(1.0, float(np.sum(np.abs(p)))):
        raise ValueError(f"nonzero total momentum {total!r}; cannot anchor y")
    x = np.empty_like(q)
    x[0] = q[0]
    x[1:] = np.diff(q)
    y = np.zeros_like(p)
    y[1:] = -np.cumsum(p)[:-1]
    return x, y


def from_relative(x, y) -> PhysicalState:
    """Invert the relative-variable map: q = cumsum(x), p_n = y_n - y_{n+1}."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    q = np.cumsum(x)
    p = y - np.append(y[1:], 0.0)
    return PhysicalState(q=q, p=p, deformation=float(np.sum(x)))


def energy_sum(p: np.ndarray, v: np.ndarray) -> float:
    """Lattice energy sum_n p_n^2/2 + V(x_n) from momenta p and values V(x)."""
    return float(np.sum(0.5 * p**2 + v))


def hamiltonian(x, y, spec: PotentialSpec) -> float:
    """Chain energy in relative variables, sum of (y_n - y_{n+1})^2/2 + V(x_n)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return energy_sum(y - np.append(y[1:], 0.0), eval_potential(spec, x).V)


def momentum(p) -> float:
    """Total momentum, the conserved sum of p_n."""
    return float(np.sum(np.asarray(p, dtype=float)))
