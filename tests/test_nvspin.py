import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldarm import lsq, nvspin
from fieldarm.errors import DegenerateFit, FitDiverged, InsufficientData, ZeroMagnitude
from fieldarm.lsq import least_squares
from fieldarm.nvspin import (
    GAMMA_E_DEFAULT,
    NVParams,
    OdmrSpectrum,
    characteristic_roots,
    field_polar_angle,
    fit_orientation,
    fit_resonances,
    hamiltonian,
    normalize_splittings,
    nv_frame_rotation,
    odmr_spectrum,
    resonances,
    splitting_from_cubic,
    world_to_nv_frame,
)

D_ANCHOR = 2.8704e9
PI_ANCHOR = 1.8515e6


def _field_nv(B_mag, polar, azimuth):
    return B_mag * np.array([
        math.sin(polar) * math.cos(azimuth),
        math.sin(polar) * math.sin(azimuth),
        math.cos(polar),
    ])


def test_zero_field_splitting_is_two_pi():
    p = NVParams(D=D_ANCHOR, Pi=PI_ANCHOR)
    pair = resonances(p, [0.0, 0.0, 0.0])
    assert math.isclose(pair.splitting, 2.0 * PI_ANCHOR, abs_tol=1.0)
    assert math.isclose(pair.splitting, 3.7030e6, abs_tol=1.0)


def test_secular_limit_aligned_field():
    p = NVParams(D=D_ANCHOR, Pi=0.0)
    B = 2e-3
    pair = resonances(p, [0.0, 0.0, B])
    assert math.isclose(pair.splitting, 2.0 * p.gamma_e * B, rel_tol=1e-9)


def test_cubic_matches_eigensolver_at_bisecting_azimuth():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        D = rng.uniform(2.5e9, 3.2e9)
        Pi = rng.uniform(0.0, 20e6)
        B = rng.uniform(0.0, 10e-3)
        gamma_angle = rng.uniform(0.0, np.pi)
        p = NVParams(D=D, Pi=Pi)
        # azimuth pi/4 bisects the strain axes: the cubic is exact there
        H = hamiltonian(p, _field_nv(B, gamma_angle, np.pi / 4.0))
        evals = np.sort(np.linalg.eigvalsh(H))
        roots = characteristic_roots(D, Pi, p.gamma_e * B, gamma_angle) + 2.0 * D / 3.0
        worst = max(worst, np.max(np.abs(roots - evals)) / np.max(np.abs(evals)))
    assert worst < 1e-6


def test_splitting_matches_eigensolver_to_rounding():
    # The close pair's difference, where the unpolished Viete roots lose up
    # to 1e-11 of it; eigvalsh's own rounding is about 2e-13 of it here.
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        D = rng.uniform(2.5e9, 3.2e9)
        Pi = rng.uniform(0.5e6, 20e6)
        B = rng.uniform(0.1e-3, 10e-3)
        gamma_angle = rng.uniform(0.0, np.pi)
        p = NVParams(D=D, Pi=Pi)
        evals = np.sort(np.linalg.eigvalsh(hamiltonian(p, _field_nv(B, gamma_angle, np.pi / 4.0))))
        nu = splitting_from_cubic(D, Pi, p.gamma_e * B, gamma_angle)
        worst = max(worst, abs(nu - (evals[2] - evals[1])) / (evals[2] - evals[1]))
    assert worst < 1e-12


def test_cubic_broadcasts():
    roots = characteristic_roots(D_ANCHOR, PI_ANCHOR, np.linspace(0, 1e8, 5),
                                 np.linspace(0, np.pi, 5))
    assert roots.shape == (5, 3)
    nu = splitting_from_cubic(D_ANCHOR, PI_ANCHOR, 1e7, 0.3)
    r = characteristic_roots(D_ANCHOR, PI_ANCHOR, 1e7, 0.3)
    assert math.isclose(nu, (r[2] - r[0]) - (r[1] - r[0]), rel_tol=1e-12)


@given(st.floats(1e3, 1e12), st.sampled_from([1.0, -1.0]), st.floats(0.0, 1e10),
       st.floats(0.0, 1e12), st.floats(-1e307, 1e307))
@settings(max_examples=300, deadline=None)
def test_cubic_roots_are_real_for_every_finite_input(D_abs, sign, Pi, beta, gamma_angle):
    """The cubic is the characteristic polynomial of a Hermitian matrix, so no
    finite input leaves its trigonometric roots complex. (The angle is bounded
    only so that cos(2 gamma) has a finite argument.)"""
    D = sign * D_abs
    roots = characteristic_roots(D, Pi, beta, gamma_angle)
    assert roots.shape == (3,)
    assert np.all(np.isfinite(roots))
    assert roots[0] <= roots[1] <= roots[2]
    p = D * D / 3.0 + Pi * Pi + beta * beta
    assert abs(roots.sum()) <= 1e-12 * math.sqrt(p)


def test_splitting_monotone_in_field_when_aligned():
    betas = GAMMA_E_DEFAULT * np.linspace(0.0, 10e-3, 30)
    nus = splitting_from_cubic(D_ANCHOR, PI_ANCHOR, betas, 0.0)
    assert np.all(np.diff(nus) >= -1e-6)


@given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_normalize_splittings_equal_magnitudes_invariant(nu_MHz):
    nu = np.asarray(nu_MHz) * 1e6
    B = np.full(len(nu), 2.5e-3)
    assert np.allclose(normalize_splittings(nu, B), nu)


def test_normalize_splittings_scales_to_max():
    nu = np.array([1e6, 2e6])
    B = np.array([1e-3, 2e-3])
    out = normalize_splittings(nu, B)
    assert np.allclose(out, [2e6, 2e6])
    with pytest.raises(ZeroMagnitude):
        normalize_splittings(nu, np.array([1e-3, 0.0]))


def test_field_polar_angle_formula():
    g = field_polar_angle(0.3, 0.5, 0.1, 0.2)
    expected = math.acos(abs(math.cos(0.5 - 0.2) * math.cos(0.3 - 0.1)))
    assert math.isclose(float(g), expected, rel_tol=1e-12)
    assert float(field_polar_angle(0.4, 0.9, 0.4, 0.9)) == 0.0


def test_world_to_nv_frame_preserves_norm_and_axis():
    p = NVParams(D=D_ANCHOR, Pi=PI_ANCHOR, axis_alpha_y=0.7, axis_alpha_z=-0.4)
    rng = np.random.default_rng(3)
    for _ in range(20):
        B = rng.normal(size=3) * 1e-3
        B_nv = world_to_nv_frame(B, p)
        assert math.isclose(np.linalg.norm(B_nv), np.linalg.norm(B), rel_tol=1e-12)
    R = nv_frame_rotation(p)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)


def test_world_to_nv_frame_axis_aligned_case():
    p = NVParams(D=D_ANCHOR, Pi=0.0, axis_alpha_y=0.0, axis_alpha_z=0.0)
    B_nv = world_to_nv_frame([2e-3, 0.0, 0.0], p)
    assert math.isclose(B_nv[2], 2e-3, rel_tol=1e-12)
    assert abs(B_nv[0]) < 1e-15 and abs(B_nv[1]) < 1e-15


def test_resonances_gauge_invariant():
    p = NVParams(D=D_ANCHOR, Pi=0.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        B = rng.uniform(0.5e-3, 5e-3)
        polar = rng.uniform(0.0, np.pi / 2)
        az1, az2 = rng.uniform(0.0, 2 * np.pi, 2)
        p1 = resonances(p, _field_nv(B, polar, az1))
        p2 = resonances(p, _field_nv(B, polar, az2))
        assert math.isclose(p1.splitting, p2.splitting, rel_tol=1e-9)


def test_odmr_round_trip_noise_free():
    p = NVParams(D=D_ANCHOR, Pi=PI_ANCHOR)
    B_nv = _field_nv(3e-3, 0.4, np.pi / 4)
    pair = resonances(p, B_nv)
    grid = np.linspace(2.70e9, 3.05e9, 4001)
    spectrum = odmr_spectrum(p, B_nv, linewidth=4e6, contrast_depth=0.02, grid=grid)
    fitted = fit_resonances(spectrum)
    spacing = grid[1] - grid[0]
    assert abs(fitted.f_minus - pair.f_minus) < spacing / 10
    assert abs(fitted.f_plus - pair.f_plus) < spacing / 10


def test_odmr_noisy_fit_within_uncertainty():
    p = NVParams(D=D_ANCHOR, Pi=PI_ANCHOR)
    B_nv = _field_nv(3e-3, 0.4, np.pi / 4)
    pair = resonances(p, B_nv)
    grid = np.linspace(2.70e9, 3.05e9, 2001)
    rng = np.random.default_rng(7)
    spectrum = odmr_spectrum(p, B_nv, linewidth=4e6, contrast_depth=0.02, grid=grid,
                             noise_sigma=0.002, rng=rng)
    fitted = fit_resonances(spectrum)
    assert abs(fitted.f_minus - pair.f_minus) < 3 * max(fitted.f_minus_err, 1e4)
    assert abs(fitted.f_plus - pair.f_plus) < 3 * max(fitted.f_plus_err, 1e4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fit_resonances_needs_more_points_than_parameters(n):
    contrast = np.ones(n)
    contrast[1:-1] = 0.98
    spectrum = OdmrSpectrum(np.linspace(2.80e9, 2.95e9, n), contrast)
    with pytest.raises(InsufficientData):
        fit_resonances(spectrum)


def test_odmr_merged_dips_flag():
    p = NVParams(D=D_ANCHOR, Pi=0.0)
    grid = np.linspace(2.80e9, 2.95e9, 2001)
    spectrum = odmr_spectrum(p, [0.0, 0.0, 0.0], linewidth=5e6, contrast_depth=0.02,
                             grid=grid)
    fitted = fit_resonances(spectrum)
    assert fitted.merged
    assert fitted.f_minus == fitted.f_plus


NV_AXIS = (np.deg2rad(97.6), np.deg2rad(64.1))
TRAJ_AY = np.deg2rad([75.0, 95.0, 115.0, 135.0, 85.0, 125.0])
TRAJ_AZ = np.deg2rad(np.linspace(52.0, 77.0, 6))


def make_trajectory(B_mag=3e-3, noise=0.0, rng=None):
    gammas = field_polar_angle(TRAJ_AY, TRAJ_AZ, *NV_AXIS)
    nu = splitting_from_cubic(D_ANCHOR, PI_ANCHOR, GAMMA_E_DEFAULT * B_mag, gammas)
    if noise > 0:
        nu = nu + rng.normal(0.0, noise, nu.shape)
    return np.column_stack([TRAJ_AY, TRAJ_AZ, nu])


def test_fit_orientation_noise_free_recovery():
    fit = fit_orientation(make_trajectory(), D_ANCHOR, PI_ANCHOR)
    assert abs(fit.alpha_y_nv - NV_AXIS[0]) < np.deg2rad(0.1)
    assert abs(fit.alpha_z_nv - NV_AXIS[1]) < np.deg2rad(0.1)
    assert fit.residual_rms < 1e3


def test_fit_orientation_refines_its_starts_as_one_stack():
    stacks = []

    def record(fun, x0, **kwargs):
        stacks.append(np.shape(x0))
        return least_squares(fun, x0, **kwargs)
    with mock.patch.object(lsq, "least_squares", record):
        fit_orientation(make_trajectory(), D_ANCHOR, PI_ANCHOR)
    assert stacks == [(nvspin.FIT_REFINE_STARTS, 3)]


def test_fit_orientation_without_a_finite_start_diverges():
    # Pi^2 overflows: every grid start's residuals are NaN, so none is refined
    with pytest.raises(FitDiverged):
        fit_orientation(make_trajectory(), D_ANCHOR, 1e306)


def _two_deepest_minima_loop(f, c):
    """The loop form of nvspin._two_deepest_minima, as the reference."""
    win = max(3, len(c) // 200)
    cs = np.convolve(c, np.ones(win) / win, mode="same")
    min_separation = (f.max() - f.min()) / 20.0
    minima = []
    for i in range(1, len(cs) - 1):
        if cs[i] <= cs[i - 1] and cs[i] <= cs[i + 1]:
            minima.append((cs[i], f[i]))
    minima.sort()
    picked = []
    for _, freq in minima:
        if all(abs(freq - other) >= min_separation for other in picked):
            picked.append(freq)
        if len(picked) == 2:
            break
    return picked


@given(levels=st.lists(st.integers(0, 3), min_size=3, max_size=300),
       freqs=st.sampled_from(["grid", "shuffled", "repeated"]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_two_deepest_minima_is_the_loop(levels, freqs, seed):
    # few contrast levels, so smoothed values tie and the frequency breaks ties
    rng = np.random.default_rng(seed)
    c = 1.0 - 0.01 * np.array(levels, dtype=float)
    f = np.linspace(2.7e9, 3.05e9, len(c))
    if freqs == "shuffled":
        f = rng.permutation(f)
    elif freqs == "repeated":
        f = rng.choice(f[:3], len(c))
    got = nvspin._two_deepest_minima(f, c)
    want = _two_deepest_minima_loop(f, c)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_fit_orientation_requires_enough_rows():
    with pytest.raises(InsufficientData):
        fit_orientation(make_trajectory()[:3], D_ANCHOR, PI_ANCHOR)


def test_fit_orientation_degenerate_on_constant_gamma():
    # same commanded angles in every row: gamma never varies
    traj = make_trajectory()
    traj[:, 0] = traj[0, 0]
    traj[:, 1] = traj[0, 1]
    traj[:, 2] = traj[0, 2]
    with pytest.raises(DegenerateFit):
        fit_orientation(traj, D_ANCHOR, PI_ANCHOR)


def test_odmr_spectrum_validation():
    p = NVParams(D=D_ANCHOR, Pi=PI_ANCHOR)
    grid = np.linspace(2.8e9, 2.95e9, 100)
    with pytest.raises(ValueError):
        odmr_spectrum(p, [0, 0, 0], linewidth=-1.0, contrast_depth=0.02, grid=grid)
    with pytest.raises(ValueError):
        odmr_spectrum(p, [0, 0, 0], linewidth=4e6, contrast_depth=1.5, grid=grid)


def test_odmr_noise_needs_an_rng():
    # noise from an unseeded generator would escape --seed
    p = NVParams(D=D_ANCHOR, Pi=PI_ANCHOR)
    grid = np.linspace(2.8e9, 2.95e9, 100)
    with pytest.raises(ValueError, match="rng"):
        odmr_spectrum(p, [0, 0, 0], linewidth=4e6, contrast_depth=0.02, grid=grid,
                      noise_sigma=1e-3)
