import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breather_forge import (GridSpec, Multiplier, PotentialSpec,
                            ResonanceError, SpectralField, WeightSpec, apply_M,
                            apply_M_inverse, apply_N,
                            apply_S, band_gap, linearize_S, probe_operator_norm,
                            project_even, project_odd, random_field,
                            seed_field, x0_norm, zero_field)

from oracles import apply_n_oversampled, multiplier_apply_m, plane_wave_field

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
    b = multiplier_apply_m(field)
    err = x0_norm(a.with_coeffs(a.coeffs - b.coeffs), FLAT) / x0_norm(a, FLAT)
    assert err < 1e-12


@pytest.mark.parametrize("omega", [1.5, 2.0])
def test_multiplier_route_is_defined_inside_the_band(omega):
    # M itself needs no non-resonance: only its inverse does
    field = random_field(GridSpec(64, 16, 130, omega), np.random.default_rng(7))
    a = apply_M(field)
    b = multiplier_apply_m(field)
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


@pytest.mark.parametrize("omega", [2.2, 2.0 + 1e-9, math.sqrt(8.0), 1e100])
def test_band_gap_is_the_square_less_four(omega):
    assert band_gap(omega) == omega**2 - 4.0


def test_band_gap_of_a_frequency_whose_square_overflows_is_inf():
    with pytest.raises(OverflowError):
        1e160**2
    assert band_gap(1e160) == math.inf


@pytest.mark.parametrize("omega", [1.5, 2.0, 2.0000000001, math.nan])
def test_band_gap_refuses_a_gap_below_the_floor(omega):
    with pytest.raises(ResonanceError, match=r"^omega\^2 = .* does not clear the phonon "
                                             r"band edge 4$"):
        band_gap(omega)


@pytest.mark.parametrize("n_sites, n_harm, half_wave", [(8, 3, False), (32, 8, True),
                                                        (64, 16, False), (96, 16, True)])
@pytest.mark.parametrize("omega", [2.0 + 1e-9, 2.05, 2.2, 3.0])
def test_band_gap_is_the_least_multiplier_magnitude_of_every_grid(n_sites, n_harm,
                                                                  half_wave, omega):
    # N is even, so k = pi is a mode: the floor on min |nu| and on the gap agree
    grid = GridSpec(n_sites, n_harm, 4 * n_harm + 2, omega, half_wave=half_wave)
    assert float(np.min(np.abs(Multiplier.build(grid).table))) == band_gap(omega)


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
    with pytest.raises(ResonanceError, match="does not clear the phonon band edge 4"):
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


@pytest.mark.parametrize("grid", [GridSpec.with_dealiasing(32, 8, 2.2), GridSpec(32, 8, 18, 2.2),
                                  GridSpec(32, 8, 130, 2.2)], ids=["dealiased", "18", "130"])
@pytest.mark.parametrize("parity, project", [("even", project_even), ("odd", project_odd)])
def test_half_wave_grid_gives_the_odd_columns_of_the_full_grid(grid, parity, project):
    rng = np.random.default_rng(16)
    half = replace(grid, half_wave=True)
    u_full, w_full = (project(random_field(grid, rng)) for _ in range(2))
    for fld in (u_full, w_full):
        fld.coeffs[:, 1::2] = 0.0  # the half-wave class
    u_half, w_half = (SpectralField(half, fld.coeffs[:, ::2]) for fld in (u_full, w_full))
    for full, on_half in ((apply_S(u_full, QUARTIC), apply_S(u_half, QUARTIC)),
                          (linearize_S(u_full, QUARTIC)(w_full),
                           linearize_S(u_half, QUARTIC)(w_half))):
        odd = SpectralField(half, full.coeffs[:, ::2])
        assert on_half.grid == half
        assert _rel_x0(on_half, odd) <= 1e-14
