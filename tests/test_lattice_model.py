import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from breather_forge import (MixedPotentialError, PotentialSpec, dispersion,
                            eval_potential, growth_bound)

finite_floats = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


def test_eval_potential_harmonic_limit():
    vals = eval_potential(PotentialSpec(), 1.5)
    assert vals.V == 1.125
    assert vals.W == 0.0
    assert vals.Vpp == 1.0


def test_eval_potential_pure_quartic():
    vals = eval_potential(PotentialSpec(quartic=1.0), 2.0)
    assert vals.W == 4.0
    assert vals.Wp == 8.0
    assert vals.Wpp == 12.0


def test_eval_potential_pure_cubic():
    vals = eval_potential(PotentialSpec(cubic=1.0), -1.0)
    assert vals.W == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert vals.Wp == 1.0
    assert vals.Wpp == -2.0


@given(finite_floats, finite_floats, finite_floats)
def test_curvature_identity(cubic, quartic, x):
    vals = eval_potential(PotentialSpec(cubic=cubic, quartic=quartic), x)
    # V'' = 1 + W'' holds bit-exactly by construction; the subtracted form
    # is only accurate to rounding when W'' is tiny
    assert vals.Vpp == 1.0 + vals.Wpp
    assert vals.Vpp - vals.Wpp == pytest.approx(1.0, abs=1e-15 * max(1.0, abs(vals.Wpp)))
    assert vals.V == pytest.approx(0.5 * x * x + vals.W, rel=1e-12, abs=1e-12)
    assert vals.Vp == pytest.approx(x + vals.Wp, rel=1e-12, abs=1e-12)


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
    wpp = np.abs(eval_potential(spec, x).Wpp)
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
