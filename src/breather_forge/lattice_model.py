"""Interaction potential family and phonon dispersion.

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
    def has_growth_pair(self) -> bool:
        """Pure and anharmonic: ``growth_bound`` has a global pair with kbar > 0."""
        return (self.cubic == 0.0 or self.quartic == 0.0) and not self.is_harmonic

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


def force(spec: PotentialSpec, x, out=None):
    """W'(x) = x^2 (cubic + quartic x), in Horner form.

    Products instead of powers: numpy's general ``x**3`` costs tens of
    times more than a multiply, and W' is the innermost kernel of S.  A
    scalar ``x`` gives a float.  With an ``out`` array the same products
    are written into it, one temporary instead of three, and it is returned.
    """
    if out is None:
        return x * x * (spec.cubic + spec.quartic * x)
    np.multiply(spec.quartic, x, out)
    np.add(spec.cubic, out, out)
    return np.multiply(x * x, out, out)


def stiffness(spec: PotentialSpec, x):
    """W''(x) = x (2 cubic + 3 quartic x), the linearisation of ``force``."""
    return x * (2.0 * spec.cubic + 3.0 * spec.quartic * x)


def growth_bound(spec: PotentialSpec) -> tuple[float, float]:
    """Power-law envelope (kbar, alpha) with |W''(x)| <= kbar * |x|**alpha.

    For pure potentials the pair is exact and tight: kbar = 2|cubic| with
    alpha = 1, or kbar = 3|quartic| with alpha = 2.  A harmonic potential
    returns (0, 0).

    Raises
    ------
    MixedPotentialError
        If both coefficients are nonzero: no global pair exists.
    """
    if spec.is_harmonic:
        return 0.0, 0.0
    if spec.quartic == 0.0:
        return 2.0 * abs(spec.cubic), 1.0
    if spec.cubic == 0.0:
        return 3.0 * abs(spec.quartic), 2.0
    raise MixedPotentialError("mixed cubic+quartic potential has no global growth pair")


def dispersion(k):
    """Squared phonon frequency 4*sin(k/2)^2 of the linearised chain.

    Even in k and bounded by the band edge value 4, attained at k = +-pi.
    """
    return 4.0 * np.sin(np.asarray(k, dtype=float) / 2.0) ** 2 if not np.isscalar(k) \
        else 4.0 * math.sin(k / 2.0) ** 2
