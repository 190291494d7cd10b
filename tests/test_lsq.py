"""The numpy Levenberg-Marquardt solver against scipy.optimize as the oracle."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit
from scipy.optimize import least_squares as scipy_least_squares

from fieldarm import alignment, nvspin
from fieldarm.errors import ComplexRoots, DegenerateFit
from fieldarm.kinematics import magnet_pose_for_field_direction
from fieldarm.lsq import least_squares
from fieldarm.magnetostatics import cylinder_field, default_magnet_spec
from fieldarm.nvspin import (
    GAMMA_E_DEFAULT,
    NVParams,
    field_polar_angle,
    fit_orientation,
    fit_resonances,
    odmr_spectrum,
    resonances,
    splitting_from_cubic,
)

from conftest import SAMPLE, STANDOFF

D_ANCHOR = 2.8704e9
PI_ANCHOR = 1.8515e6
# The cost of fit_orientation's residual carries its own evaluation noise:
# within 1e-12 relative of a minimiser it spans up to 4.5e-9 of the cost
# (the characteristic cubic's arccos near -1), and about 1e-9 Hz^2 on a
# noise-free trajectory, so two solvers at one minimum differ by that much.
# The offset calibration's floor is about 1e-11 of the cost.
CALIBRATE_COST_RTOL = 1e-9
ORIENTATION_COST_RTOL = 1e-8
ORIENTATION_COST_ATOL = 1e-6  # Hz^2


def _rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def _with_oracle(module, calls):
    """Patch module.least_squares so every solve also runs scipy's from x0."""
    def both(fun, x0, **kwargs):
        ours = least_squares(fun, x0, **kwargs)
        try:
            theirs = scipy_least_squares(fun, x0, **kwargs)
        except (ComplexRoots, ValueError):
            theirs = None
        calls.append((ours, theirs))
        return ours
    return mock.patch.object(module, "least_squares", both)


def test_rosenbrock_minimum():
    sol = least_squares(_rosenbrock, [-1.2, 1.0], xtol=1e-14, ftol=1e-14, gtol=1e-14)
    assert sol.success
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-10, rtol=0)
    assert sol.cost < 1e-20
    assert sol.cost == 0.5 * float(sol.fun @ sol.fun)
    # the Jacobian is taken at the returned x
    assert np.allclose(sol.jac, [[-20.0 * sol.x[0], 10.0], [-1.0, 0.0]], atol=1e-6)


def test_nfev_counts_residual_calls_outside_the_jacobian():
    calls = []

    def counted(x):
        calls.append(x)
        return _rosenbrock(x)

    sol = least_squares(counted, [-1.2, 1.0])
    jacobians = (len(calls) - sol.nfev) / 2
    assert sol.nfev >= 2 and jacobians == int(jacobians) and jacobians >= 1


def test_evaluation_limit_reports_failure():
    # exp(-x) has no minimiser: every step lowers the cost until the limit
    sol = least_squares(lambda x: np.exp(-x), [0.0])
    assert not sol.success
    assert sol.nfev == 100


def test_non_finite_start_raises():
    with pytest.raises(ValueError):
        least_squares(lambda x: np.array([np.nan, x[0]]), [1.0])


def test_non_finite_trial_step_is_rejected():
    # the first Gauss-Newton step from x = 1 lands near x = -0.8, where sqrt is NaN
    trials = []

    def residual(x):
        trials.append(x[0])
        with np.errstate(invalid="ignore"):
            return np.sqrt(x) - 0.1

    sol = least_squares(residual, [1.0], xtol=1e-14, ftol=1e-14, gtol=1e-14)
    assert min(trials) < 0
    assert sol.success
    assert math.isclose(sol.x[0], 0.01, rel_tol=1e-12)


@given(d_ay=st.floats(-20.0, 20.0), d_az=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3),
       noise=st.sampled_from([0.0, 1e-6, 1e-5, 1e-4]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_calibrate_matches_scipy(d_ay, d_az, noise, seed):
    spec = default_magnet_spec()
    rng = np.random.default_rng(seed)
    rows = []
    for mass, dz in enumerate(np.deg2rad(d_az)):
        for _ in range(8):
            a = rng.uniform(np.deg2rad(20), np.deg2rad(80))
            z = rng.uniform(np.deg2rad(5), np.deg2rad(85))
            pose = magnet_pose_for_field_direction(SAMPLE, a + np.deg2rad(d_ay), z + dz, STANDOFF)
            B = cylinder_field(spec, pose.position, pose.axis, SAMPLE) + rng.normal(0.0, noise, 3)
            rows.append((a, z, mass, B))
    calls = []
    with _with_oracle(alignment, calls):
        result = alignment.calibrate_offsets(rows, spec, SAMPLE, STANDOFF)
    (ours, theirs), = calls
    assert ours.cost <= theirs.cost * (1.0 + CALIBRATE_COST_RTOL) + 1e-30
    # At 0.1 mT noise (7% of the field at this standoff) the minimum is so flat
    # that stopping at ftol = 1e-14 leaves ~1e-5 deg between any two solvers;
    # up to the benchmark's 0.01 mT the offsets agree within 1e-5 deg.
    assume(noise <= 1e-5)
    offsets = np.concatenate([[result.delta_alpha_y], result.delta_alpha_z])
    assert np.max(np.abs(np.rad2deg(offsets - theirs.x))) <= 1e-5


@given(axis=st.tuples(st.floats(60.0, 140.0), st.floats(30.0, 100.0)),
       rows=st.integers(6, 10), B_mT=st.floats(1.0, 8.0),
       noise_kHz=st.sampled_from([0.0, 10.0, 50.0]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_fit_orientation_matches_scipy(axis, rows, B_mT, noise_kHz, seed):
    rng = np.random.default_rng(seed)
    ay_B = rng.uniform(np.deg2rad(60), np.deg2rad(140), rows)
    az_B = rng.uniform(np.deg2rad(40), np.deg2rad(90), rows)
    gammas = field_polar_angle(ay_B, az_B, *np.deg2rad(axis))
    nu = splitting_from_cubic(D_ANCHOR, PI_ANCHOR, GAMMA_E_DEFAULT * B_mT * 1e-3, gammas)
    nu = nu + rng.normal(0.0, noise_kHz * 1e3, rows)
    calls = []
    with _with_oracle(nvspin, calls):
        try:
            fit = fit_orientation(np.column_stack([ay_B, az_B, nu]), D_ANCHOR, PI_ANCHOR)
        except DegenerateFit:
            assume(False)
    ours = min((c[0] for c in calls), key=lambda sol: sol.cost)
    theirs = min((c[1] for c in calls if c[1] is not None), key=lambda sol: sol.cost)
    assert ours.cost <= theirs.cost * (1.0 + ORIENTATION_COST_RTOL) + ORIENTATION_COST_ATOL
    # The same minimum: angles modulo pi (the axis sign is free), the same |B|.
    # Checked where the fit recovers the axis (criterion 08's 1.5 deg): in a
    # large-residual valley far from it, scipy's own starts scatter by 2e-4 deg.
    truth = np.angle(np.exp(2j * (np.array([fit.alpha_y_nv, fit.alpha_z_nv])
                                  - np.deg2rad(axis)))) / 2
    assume(np.max(np.abs(np.rad2deg(truth))) < 1.5)
    gap = np.angle(np.exp(2j * (np.array([fit.alpha_y_nv, fit.alpha_z_nv]) - theirs.x[:2]))) / 2
    assert np.max(np.abs(np.rad2deg(gap))) <= 1e-5
    assert math.isclose(fit.B_fit, abs(theirs.x[2]), rel_tol=1e-6)


@pytest.mark.parametrize("seed", range(6))
def test_fit_resonances_matches_curve_fit(seed):
    rng = np.random.default_rng(seed)
    p = NVParams(D=D_ANCHOR, Pi=PI_ANCHOR)
    B = rng.uniform(1e-3, 5e-3)
    polar = rng.uniform(0.0, 1.2)
    B_nv = B * np.array([math.sin(polar) * math.cos(np.pi / 4),
                         math.sin(polar) * math.sin(np.pi / 4), math.cos(polar)])
    grid = np.linspace(2.70e9, 3.05e9, 2001)
    spectrum = odmr_spectrum(p, B_nv, linewidth=4e6, contrast_depth=0.02, grid=grid,
                             noise_sigma=0.002, rng=rng)
    fitted = fit_resonances(spectrum)
    pair = resonances(p, B_nv)

    def double(x, f1, f2, w, d1, d2, base):
        return (base - d1 * nvspin._lorentzian_dip(x, f1, w)
                - d2 * nvspin._lorentzian_dip(x, f2, w))

    depth0 = 1.0 - spectrum.contrast.min()
    p0 = [*sorted(nvspin._two_deepest_minima(grid, spectrum.contrast)), 17.5e6,
          depth0, depth0, 1.0]
    popt, pcov = curve_fit(double, grid, spectrum.contrast, p0=p0, maxfev=20000)
    order = np.argsort(popt[:2])
    errs = np.sqrt(np.diag(pcov))[:2][order]
    assert np.allclose([fitted.f_minus, fitted.f_plus], popt[:2][order], rtol=0,
                       atol=1e-3 * errs.max())
    assert np.allclose([fitted.f_minus_err, fitted.f_plus_err], errs, rtol=1e-3)
    assert abs(fitted.f_minus - pair.f_minus) < 5 * fitted.f_minus_err
