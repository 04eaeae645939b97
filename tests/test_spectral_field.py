import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breather_forge import spectral_field
from breather_forge import (GridSpec, SpectralField, WeightOverflowError, WeightSpec, analyze,
                            project_even, project_odd, random_field,
                            seed_field, synthesize, time_means,
                            weighted_profile_norm, weights, x0_norm, x2_norm,
                            zero_field)

from oracles import fft_analyze, fft_synthesize, single_mode_field, x0_norm_time_quadrature

GRID = GridSpec(64, 16, 130, 3.0)
seeds = st.integers(0, 2**32 - 1)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(6, 16, 130, 3.0)
    with pytest.raises(ValueError):
        GridSpec(63, 16, 130, 3.0)
    with pytest.raises(ValueError):
        GridSpec(64, 0, 130, 3.0)
    with pytest.raises(ValueError):
        GridSpec(64, 16, 32, 3.0)
    with pytest.raises(ValueError):
        GridSpec(64, 16, 130, 0.0)


def test_dealiasing_rule():
    grid = GridSpec.with_dealiasing(64, 16, 3.0, wprime_degree=3)
    assert grid.n_time_samples >= 2 * 4 * 16 + 1
    assert grid.n_time_samples % 2 == 0


def test_field_refuses_complex_coefficients():
    # a field is a cosine series; an imaginary part is refused, never dropped
    coeffs = np.zeros((GRID.n_sites, GRID.n_harmonics), dtype=complex)
    with pytest.raises(ValueError, match="real"):
        SpectralField(GRID, coeffs)
    with pytest.raises(ValueError, match="real"):
        zero_field(GRID).with_coeffs(coeffs + 1j)
    assert SpectralField(GRID, coeffs.real).coeffs.dtype == np.float64


def test_field_casts_real_input_to_float64():
    ints = [[1] * GRID.n_harmonics for _ in range(GRID.n_sites)]
    assert SpectralField(GRID, ints).coeffs.dtype == np.float64
    single = np.ones(GRID.shape, dtype=np.float32)
    field = SpectralField(GRID, single)
    assert field.coeffs.dtype == np.float64 and np.all(field.coeffs == 1.0)


@pytest.mark.parametrize("coeffs", [np.zeros((64, 15)), np.zeros(64 * 16),
                                    np.zeros((64, 15), dtype=np.float32), [[0.0] * 16]],
                         ids=["float64", "flat", "float32", "list"])
def test_field_refuses_wrong_shape(coeffs):
    with pytest.raises(ValueError, match="shape"):
        SpectralField(GRID, coeffs)


def test_synthesize_single_mode_is_cosine():
    field = single_mode_field(GRID, 0, 1, 0.5)
    samples = synthesize(field)
    t = GRID.period * np.arange(GRID.n_time_samples) / GRID.n_time_samples
    center = GRID.n_sites // 2
    assert np.allclose(samples[center], np.cos(GRID.omega * t), atol=1e-14)
    others = np.delete(samples, center, axis=0)
    assert np.max(np.abs(others)) == 0.0


def test_synthesize_zero_field():
    assert np.all(synthesize(zero_field(GRID)) == 0.0)


def test_analyze_discards_mean_and_high_harmonics():
    constant = np.ones((GRID.n_sites, GRID.n_time_samples))
    assert np.max(np.abs(analyze(GRID, constant).coeffs)) < 1e-15
    t = GRID.period * np.arange(GRID.n_time_samples) / GRID.n_time_samples
    samples = np.zeros((GRID.n_sites, GRID.n_time_samples))
    samples[3] = np.cos(2.0 * GRID.omega * t)
    field = analyze(GRID, samples)
    assert field.coeffs[3, 1] == pytest.approx(0.5, abs=1e-14)
    mask = np.ones_like(field.coeffs, dtype=bool)
    mask[3, 1] = False
    assert np.max(np.abs(field.coeffs[mask])) < 1e-15


def _relative_error(value: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))


@pytest.mark.parametrize("n_sites, n_harmonics, n_time_samples",
                         [(64, 16, 130), (96, 16, 130), (32, 8, 66), (32, 8, 130)])
def test_transforms_match_the_fft_oracle(n_sites, n_harmonics, n_time_samples):
    grid = GridSpec(n_sites, n_harmonics, n_time_samples, 2.2)
    rng = np.random.default_rng(n_sites + n_harmonics + n_time_samples)
    field = random_field(grid, rng)
    assert _relative_error(synthesize(field),
                           fft_synthesize(field.coeffs, n_time_samples)) <= 1e-13
    samples = rng.standard_normal((n_sites, n_time_samples))
    assert _relative_error(analyze(grid, samples).coeffs,
                           fft_analyze(samples, n_harmonics)) <= 1e-13
    # the sine part of a sample row is dropped, not folded into the cosines;
    # the phase m*j is reduced mod N_t so that the samples are sines to round-off
    phase = np.outer(np.arange(n_sites) % n_harmonics + 1, np.arange(n_time_samples))
    sines = np.sin(2.0 * np.pi * (phase % n_time_samples) / n_time_samples)
    assert np.max(np.abs(analyze(grid, sines).coeffs)) <= 1e-15


def test_cosine_matrices_are_cached_per_harmonics_and_sample_count():
    field = random_field(GRID, np.random.default_rng(5))
    m = GRID.n_harmonics
    for nt in (130, 2 * m + 2, 130):
        assert _relative_error(synthesize(field, n_time_samples=nt),
                               fft_synthesize(field.coeffs, nt)) <= 1e-13
    synthesis, analysis = spectral_field._cosine_matrices(m, 130)
    assert spectral_field._cosine_matrices(m, 130)[0] is synthesis
    for matrix in (synthesis, analysis):
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
    with pytest.raises(ValueError, match="Nyquist"):
        synthesize(field, n_time_samples=2 * m)
    with pytest.raises(ValueError, match="Nyquist"):
        analyze(GRID, np.ones((GRID.n_sites, 2 * m)))


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_round_trip_identity(seed):
    field = random_field(GRID, np.random.default_rng(seed))
    back = analyze(GRID, synthesize(field))
    err = np.max(np.abs(back.coeffs - field.coeffs)) / np.max(np.abs(field.coeffs))
    assert err < 1e-13


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_zero_time_mean_after_analyze(seed):
    field = random_field(GRID, np.random.default_rng(seed))
    amp = np.max(np.abs(synthesize(field)))
    assert np.max(np.abs(time_means(field))) <= 1e-13 * amp


def test_weighted_profile_norm_examples():
    profile = np.zeros(64)
    profile[32] = 1.0  # physical site 0
    assert weighted_profile_norm(profile, WeightSpec(0.7)) == 1.0
    profile = np.zeros(64)
    profile[32 + 5] = 1.0
    assert weighted_profile_norm(profile, WeightSpec(0.2)) == pytest.approx(
        math.exp(0.5), rel=1e-15)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_weighted_profile_norm_flat_weight_is_l2(seed):
    profile = np.random.default_rng(seed).standard_normal(32)
    assert weighted_profile_norm(profile, WeightSpec(0.0)) == pytest.approx(
        float(np.linalg.norm(profile)), rel=1e-14)


def test_weight_overflow_guard():
    with pytest.raises(WeightOverflowError):
        weights(GridSpec(4096, 4, 16, 3.0), WeightSpec(0.5))
    with pytest.raises(WeightOverflowError):
        x0_norm(zero_field(GridSpec(4096, 4, 16, 3.0)), WeightSpec(0.5))


def test_x0_norm_single_mode():
    field = single_mode_field(GRID, 0, 1, 0.5)
    assert x0_norm(field, WeightSpec(0.0)) == pytest.approx(1.0 / math.sqrt(2.0),
                                                            rel=1e-15)
    assert x0_norm(zero_field(GRID), WeightSpec(0.3)) == 0.0


@given(seeds, st.sampled_from([0.0, 0.2]))
@settings(max_examples=20, deadline=None)
def test_x0_norm_two_routes_agree(seed, lam):
    field = random_field(GRID, np.random.default_rng(seed))
    w = WeightSpec(lam)
    spectral = x0_norm(field, w)
    quadrature = x0_norm_time_quadrature(field, w)
    assert spectral == pytest.approx(quadrature, rel=1e-12)


def test_x2_norm_single_mode():
    field = single_mode_field(GRID, 0, 1, 0.5)
    assert x2_norm(field, WeightSpec(0.0)) ** 2 == pytest.approx(45.5, rel=1e-14)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_x2_dominates_x0(seed):
    field = random_field(GRID, np.random.default_rng(seed))
    assert x2_norm(field, WeightSpec(0.1)) >= x0_norm(field, WeightSpec(0.1))


def test_project_even_two_site_pair():
    field = single_mode_field(GRID, 0, 1, 1.0)
    projected = project_even(field)
    half = GRID.n_sites // 2
    assert projected.coeffs[half, 0] == 0.5        # site 0
    assert projected.coeffs[half - 1, 0] == -0.5   # site -1
    mask = np.ones_like(projected.coeffs, dtype=bool)
    mask[half, 0] = mask[half - 1, 0] = False
    assert np.max(np.abs(projected.coeffs[mask])) == 0.0


def test_project_odd_center_site_signs():
    odd_mode = project_odd(single_mode_field(GRID, 0, 1, 1.0))
    half = GRID.n_sites // 2
    assert odd_mode.coeffs[half, 0] == 1.0  # odd harmonic survives at the centre
    even_mode = project_odd(single_mode_field(GRID, 0, 2, 1.0))
    assert even_mode.coeffs[half, 1] == 0.0  # even harmonics vanish there


HALF_WAVE_GRID = GridSpec(64, 16, 130, 3.0, half_wave=True)


@pytest.mark.parametrize("grid", [GRID, HALF_WAVE_GRID], ids=["full", "half_wave"])
@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_norms_and_projectors_equal_their_plain_formulas(grid, lam, parity):
    # the cached tables reorder no operation: results are equal, not close
    c = np.random.default_rng(7).standard_normal(grid.shape)
    field = SpectralField(grid, c)
    w = WeightSpec.for_parity(lam, parity)
    wn = weights(grid, w)
    assert x0_norm(field, w) == float(np.sqrt(np.sum(wn * 2.0 * np.sum(c**2, axis=1))))
    om2 = (grid.omega * grid.harmonics) ** 2
    fac = 1.0 + om2 + om2**2
    assert x2_norm(field, w) == float(np.sqrt(np.sum(wn[:, None] * 2.0 * fac[None, :] * c**2)))
    sgn = (-1.0) ** grid.harmonics
    flip = np.concatenate((c[:1], c[:0:-1]))
    assert np.array_equal(project_odd(field).coeffs, 0.5 * (c - sgn[None, :] * flip))
    assert np.array_equal(project_even(field).coeffs, 0.5 * (c - c[::-1, :]))


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_projectors_idempotent(seed):
    field = random_field(GRID, np.random.default_rng(seed))
    scale = np.max(np.abs(field.coeffs))
    for project in (project_even, project_odd):
        once = project(field)
        twice = project(once)
        assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-14 * scale


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_projectors_nonincreasing_in_matching_norm(seed):
    field = random_field(GRID, np.random.default_rng(seed))
    for parity, project in (("even", project_even), ("odd", project_odd)):
        w = WeightSpec.for_parity(0.4, parity)
        assert x0_norm(project(field), w) <= x0_norm(field, w) * (1.0 + 1e-12)


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_norm_invariant_under_matching_reflection(seed):
    field = random_field(GRID, np.random.default_rng(seed))
    n = GRID.n_sites
    # site reflection with sign flip, in each parity's own centred weight
    odd_image = field.with_coeffs(-field.coeffs[(n - np.arange(n)) % n, :])
    w_odd = WeightSpec.for_parity(0.3, "odd")
    assert x0_norm(odd_image, w_odd) == pytest.approx(x0_norm(field, w_odd), rel=1e-12)
    even_image = field.with_coeffs(-field.coeffs[::-1, :])
    w_even = WeightSpec.for_parity(0.3, "even")
    assert x0_norm(even_image, w_even) == pytest.approx(x0_norm(field, w_even), rel=1e-12)


def test_seed_zero_amplitude_gives_zero_field():
    field = seed_field(GRID, "odd", 0.0, 1.0)
    assert np.max(np.abs(field.coeffs)) == 0.0


def test_seed_odd_is_projector_fixed_point():
    field = seed_field(GRID, "odd", 0.8, 1.0)
    projected = project_odd(field)
    assert np.max(np.abs(projected.coeffs - field.coeffs)) <= 1e-14


def test_seed_even_pair_structure():
    field = seed_field(GRID, "even", 0.8, 1.0)
    half = GRID.n_sites // 2
    c0 = field.coeffs[half, 0]
    cm1 = field.coeffs[half - 1, 0]
    assert c0.real > 0.0
    assert cm1 == -c0
    projected = project_even(field)
    assert np.max(np.abs(projected.coeffs - field.coeffs)) <= 1e-14
