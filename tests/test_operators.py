import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breather_forge import (GridSpec, Multiplier, PotentialSpec,
                            ResonanceError, WeightSpec, apply_M,
                            apply_M_inverse, apply_M_via_multiplier, apply_N,
                            apply_S, linearize_S, probe_operator_norm,
                            project_even, project_odd, random_field,
                            seed_field, x0_norm, zero_field)

from oracles import apply_n_oversampled, plane_wave_field

GRID = GridSpec(64, 16, 130, 3.0)
QUARTIC = PotentialSpec(quartic=1.0)
FLAT = WeightSpec(0.0)
seeds = st.integers(0, 2**32 - 1)


def test_multiplier_table_formula():
    mult = Multiplier.build(GRID)
    k = 2.0 * np.pi * np.arange(64) / 64
    for m in (1, 7, 16):
        expected = -9.0 * m * m + 4.0 * np.sin(k / 2.0) ** 2
        assert np.array_equal(mult.table[m - 1], expected)
    # above the band every entry is negative, smallest magnitude at (1, pi)
    assert np.all(mult.table < 0.0)
    assert np.min(np.abs(mult.table)) == pytest.approx(9.0 - 4.0, abs=1e-12)


def test_plane_wave_eigen_identity():
    for j, m in [(0, 1), (5, 1), (32, 1), (17, 3), (40, 16)]:
        field = plane_wave_field(GRID, j, m)
        nu = -9.0 * m * m + 4.0 * math.sin(math.pi * j / 64) ** 2
        out = apply_M(field)
        err = np.max(np.abs(out.coeffs - nu * field.coeffs)) / np.max(np.abs(nu * field.coeffs))
        assert err < 1e-12


def test_apply_M_zero_field():
    assert np.all(apply_M(zero_field(GRID)).coeffs == 0.0)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_stencil_and_multiplier_routes_agree(seed):
    field = random_field(GRID, np.random.default_rng(seed))
    a = apply_M(field)
    b = apply_M_via_multiplier(field)
    err = x0_norm(a.with_coeffs(a.coeffs - b.coeffs), FLAT) / x0_norm(a, FLAT)
    assert err < 1e-12


@pytest.mark.parametrize("omega", [1.5, 2.0])
def test_multiplier_route_is_defined_inside_the_band(omega):
    # M itself needs no non-resonance: only its inverse does
    field = random_field(GridSpec(64, 16, 130, omega), np.random.default_rng(7))
    a = apply_M(field)
    b = apply_M_via_multiplier(field)
    assert x0_norm(a.with_coeffs(a.coeffs - b.coeffs), FLAT) / x0_norm(a, FLAT) < 1e-12


def test_apply_M_inverse_extremal_mode():
    # (m = 1, k = pi) divides by nu = -(9 - 4) = -5
    field = plane_wave_field(GRID, 32, 1)
    out = apply_M_inverse(field)
    assert np.allclose(out.coeffs, field.coeffs / -5.0, atol=1e-15)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_inverse_identity_both_ways(seed):
    field = random_field(GRID, np.random.default_rng(seed))
    norm = x0_norm(field, FLAT)
    forward = apply_M(apply_M_inverse(field))
    assert x0_norm(field.with_coeffs(forward.coeffs - field.coeffs), FLAT) / norm < 1e-12
    backward = apply_M_inverse(apply_M(field))
    assert x0_norm(field.with_coeffs(backward.coeffs - field.coeffs), FLAT) / norm < 1e-12


def test_resonance_error_inside_band():
    grid = GridSpec(64, 16, 130, 1.9)
    field = random_field(grid, np.random.default_rng(0))
    with pytest.raises(ResonanceError):
        apply_M_inverse(field)
    for spec in (QUARTIC, PotentialSpec()):
        with pytest.raises(ResonanceError):
            apply_S(field, spec)


def test_apply_N_harmonic_is_zero():
    field = random_field(GRID, np.random.default_rng(1))
    out = apply_N(field, PotentialSpec())
    assert np.all(out.coeffs == 0.0)


def test_static_stencil_arithmetic():
    # single-site force a at site 0 spreads as (+1, -2, +1) over the bonds
    wp = np.zeros(8)
    wp[4] = 2.5
    stencil = np.roll(wp, -1) + np.roll(wp, 1) - 2.0 * wp
    assert stencil[4] == -5.0
    assert stencil[3] == 2.5 and stencil[5] == 2.5
    assert np.all(stencil[[0, 1, 2, 6, 7]] == 0.0)


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_apply_N_matches_oversampled_oracle(seed):
    field = random_field(GRID, np.random.default_rng(seed))
    field = field.with_coeffs(field.coeffs / x0_norm(field, FLAT))
    fast = apply_N(field, QUARTIC)
    slow = apply_n_oversampled(field, QUARTIC, oversample=4)
    err = x0_norm(fast.with_coeffs(fast.coeffs - slow.coeffs), FLAT) / x0_norm(fast, FLAT)
    assert err < 1e-12


def test_apply_S_trivial_fixed_point():
    out = apply_S(zero_field(GRID), QUARTIC)
    assert np.all(out.coeffs == 0.0)
    harmonic = apply_S(random_field(GRID, np.random.default_rng(2)), PotentialSpec())
    assert np.all(harmonic.coeffs == 0.0)


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_apply_S_bounded_by_inverse_norm(seed):
    field = random_field(GRID, np.random.default_rng(seed))
    field = field.with_coeffs(field.coeffs / x0_norm(field, FLAT))
    s_norm = x0_norm(apply_S(field, QUARTIC), FLAT)
    n_norm = x0_norm(apply_N(field, QUARTIC), FLAT)
    assert s_norm <= n_norm / (9.0 - 4.0) * (1.0 + 1e-12)


@pytest.mark.parametrize("spec, kbar, alpha", [
    (PotentialSpec(quartic=1.0), 3.0, 2.0),
    (PotentialSpec(cubic=1.0), 2.0, 1.0),
])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_range_bound_on_random_fields(spec, kbar, alpha, lam):
    rng = np.random.default_rng(99)
    w = WeightSpec(lam)
    for radius in (0.1, 0.5, 1.0):
        for _ in range(10):
            u = random_field(GRID, rng)
            u = u.with_coeffs(u.coeffs * (radius / x0_norm(u, w)))
            lhs = x0_norm(apply_N(u, spec), w) ** 2
            rhs = 2.0 * kbar**2 * (1.0 + math.cosh(lam)) * radius ** (2.0 * (alpha + 1.0))
            assert lhs <= rhs * (1.0 + 1e-9)


def test_parity_equivariance_of_S():
    rng = np.random.default_rng(11)
    for parity, project in (("even", project_even), ("odd", project_odd)):
        field = project(random_field(GRID, rng))
        field = field.with_coeffs(field.coeffs / x0_norm(field, FLAT))
        left = project(apply_S(field, QUARTIC))
        right = apply_S(project(field), QUARTIC)
        err = x0_norm(left.with_coeffs(left.coeffs - right.coeffs), FLAT)
        assert err <= 1e-12 * max(1.0, x0_norm(right, FLAT))


def test_probe_operator_norm():
    probe, exact = probe_operator_norm(3.0, GRID, trials=50, seed=5)
    assert exact == pytest.approx(0.2, abs=1e-16)
    assert probe <= 0.2 + 1e-12
    # the extremal plane wave attains the bound
    field = plane_wave_field(GRID, 32, 1)
    attained = x0_norm(apply_M_inverse(field), FLAT) / x0_norm(field, FLAT)
    assert attained == pytest.approx(0.2, abs=1e-14)
    _, exact8 = probe_operator_norm(math.sqrt(8.0), GRID, trials=1, seed=0)
    assert exact8 == pytest.approx(0.25, rel=1e-12)


def test_probe_operator_norm_needs_nonresonant_frequency():
    with pytest.raises(ResonanceError):
        probe_operator_norm(1.5, GRID, trials=1)


def test_seeded_parity_fields_are_S_compatible():
    # parity projection commutes with S on actual seeds too
    for parity, project in (("even", project_even), ("odd", project_odd)):
        field = seed_field(GRID, parity, 0.5, 1.0)
        image = apply_S(field, QUARTIC)
        err = np.max(np.abs(project(image).coeffs - image.coeffs))
        assert err <= 1e-13


POTENTIALS = [QUARTIC, PotentialSpec(cubic=1.0), PotentialSpec(cubic=0.3, quartic=1.0)]


def _rel_x0(a, b) -> float:
    return x0_norm(a.with_coeffs(a.coeffs - b.coeffs), FLAT) / x0_norm(b, FLAT)


def _unit_random(grid, rng):
    field = random_field(grid, rng)
    return field.with_coeffs(field.coeffs / x0_norm(field, FLAT))


@pytest.mark.parametrize("spec", POTENTIALS)
def test_fused_S_matches_composed_route(spec):
    rng = np.random.default_rng(31)
    for grid in (GRID, GridSpec(32, 8, 18, 2.2)):  # the second one needs oversampling
        for _ in range(5):
            field = _unit_random(grid, rng)
            assert _rel_x0(apply_S(field, spec), apply_M_inverse(apply_N(field, spec))) <= 1e-13


@pytest.mark.parametrize("spec", POTENTIALS)
def test_exact_jvp_matches_central_difference(spec):
    rng = np.random.default_rng(47)
    field, w = _unit_random(GRID, rng), _unit_random(GRID, rng)
    jvp = linearize_S(field, spec)(w)
    h = 1e-5
    plus = apply_S(field.with_coeffs(field.coeffs + h * w.coeffs), spec)
    minus = apply_S(field.with_coeffs(field.coeffs - h * w.coeffs), spec)
    central = w.with_coeffs((plus.coeffs - minus.coeffs) / (2.0 * h))
    assert _rel_x0(jvp, central) <= 1e-7


@pytest.mark.parametrize("spec", POTENTIALS)
def test_exact_jvp_is_linear(spec):
    rng = np.random.default_rng(53)
    jvp = linearize_S(_unit_random(GRID, rng), spec)
    v, w = _unit_random(GRID, rng), _unit_random(GRID, rng)
    a, b = 0.7, -2.3
    combined = jvp(v.with_coeffs(a * v.coeffs + b * w.coeffs))
    separate = v.with_coeffs(a * jvp(v).coeffs + b * jvp(w).coeffs)
    assert _rel_x0(combined, separate) <= 1e-13
    assert np.all(jvp(zero_field(GRID)).coeffs == 0.0)


def test_symbol_built_once_per_grid_instance(monkeypatch):
    builds = []
    original = Multiplier.build

    def counting(grid):
        builds.append(grid)
        return original(grid)

    monkeypatch.setattr(Multiplier, "build", staticmethod(counting))
    grid = GridSpec(32, 8, 66, 2.5)
    field = random_field(grid, np.random.default_rng(3))
    apply_S(field, QUARTIC)
    apply_M_inverse(field)
    linearize_S(field, QUARTIC)(field)
    assert len(builds) == 1
    # an equal grid built separately does not share the first one's tables
    apply_S(random_field(GridSpec(32, 8, 66, 2.5), np.random.default_rng(3)), QUARTIC)
    assert len(builds) == 2
