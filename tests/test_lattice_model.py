import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from breather_forge import (MixedPotentialError, PotentialSpec, dispersion,
                            eval_potential, growth_bound)
from breather_forge.lattice_model import force, stiffness

finite_floats = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


def test_eval_potential_harmonic_limit():
    spec = PotentialSpec()
    vals = eval_potential(spec, 1.5)
    assert vals.V == 1.125
    assert vals.Wp == 0.0
    assert stiffness(spec, 1.5) == 0.0


def test_eval_potential_pure_quartic():
    spec = PotentialSpec(quartic=1.0)
    vals = eval_potential(spec, 2.0)
    assert vals.V == 2.0 + 4.0
    assert vals.Wp == 8.0
    assert stiffness(spec, 2.0) == 12.0


def test_eval_potential_pure_cubic():
    spec = PotentialSpec(cubic=1.0)
    vals = eval_potential(spec, -1.0)
    assert vals.V == pytest.approx(0.5 - 1.0 / 3.0, abs=1e-15)
    assert vals.Wp == 1.0
    assert stiffness(spec, -1.0) == -2.0


def test_force_into_a_buffer_has_the_same_bits():
    spec = PotentialSpec(cubic=0.3, quartic=-1.7)
    x = np.random.default_rng(19).standard_normal(64) * 3.0
    out = np.empty_like(x)
    assert force(spec, x, out) is out
    assert np.array_equal(out, force(spec, x))
    assert type(force(spec, 1.5)) is float


@given(finite_floats, finite_floats, finite_floats)
def test_potential_values_match_the_power_forms(cubic, quartic, x):
    # V = x^2/2 + W with W = cubic x^3/3 + quartic x^4/4, W' and W'' its derivatives,
    # each written here by powers; the bound is rounding at the size of the terms
    spec = PotentialSpec(cubic=cubic, quartic=quartic)
    vals = eval_potential(spec, x)
    size = 1.0 + x * x + abs(cubic) * abs(x) ** 3 + abs(quartic) * x**4
    assert vals.V == pytest.approx(0.5 * x**2 + cubic * x**3 / 3.0 + quartic * x**4 / 4.0,
                                   rel=1e-12, abs=1e-14 * size)
    assert vals.Wp == force(spec, x)
    assert vals.Wp == pytest.approx(cubic * x**2 + quartic * x**3, rel=1e-12, abs=1e-14 * size)
    assert stiffness(spec, x) == pytest.approx(2.0 * cubic * x + 3.0 * quartic * x**2,
                                               rel=1e-12, abs=1e-14 * size)


@pytest.mark.parametrize("spec, expected", [
    (PotentialSpec(quartic=1.0), (3.0, 2.0)),
    (PotentialSpec(cubic=2.0), (4.0, 1.0)),
    (PotentialSpec(), (0.0, 0.0)),
])
def test_growth_bound_pure(spec, expected):
    assert growth_bound(spec) == expected


@pytest.mark.parametrize("spec", [PotentialSpec(quartic=0.7), PotentialSpec(cubic=-1.3)])
def test_growth_bound_is_tight_envelope(spec):
    kbar, alpha = growth_bound(spec)
    x = np.linspace(-10.0, 10.0, 4001)
    wpp = np.abs(stiffness(spec, x))
    envelope = kbar * np.abs(x) ** alpha
    assert np.all(wpp <= envelope * (1.0 + 1e-12))
    # pure powers make the bound an equality at every grid point
    assert np.allclose(wpp, envelope, rtol=1e-12, atol=1e-300)


def test_growth_bound_mixed_has_no_global_pair():
    with pytest.raises(MixedPotentialError):
        growth_bound(PotentialSpec(cubic=1.0, quartic=1.0))


def test_dispersion_values():
    assert dispersion(0.0) == 0.0
    assert dispersion(math.pi) == pytest.approx(4.0, abs=1e-15)
    assert dispersion(math.pi / 2) == pytest.approx(2.0, abs=1e-15)


@given(st.floats(min_value=-math.pi, max_value=math.pi))
def test_dispersion_even_and_bounded(k):
    assert dispersion(k) == dispersion(-k)
    assert 0.0 <= dispersion(k) <= 4.0
