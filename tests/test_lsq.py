"""The numpy Levenberg-Marquardt solver against scipy.optimize as the oracle,
and a stack of starts against the one-start solver of `lsq_oracle`."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit
from scipy.optimize import least_squares as scipy_least_squares

from fieldarm import alignment, lsq, nvspin
from fieldarm.errors import DegenerateFit
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

import lsq_oracle
from conftest import SAMPLE, STANDOFF

D_ANCHOR = 2.8704e9
PI_ANCHOR = 1.8515e6
# The cost of fit_orientation's residual carries its own evaluation noise:
# within 1e-12 relative of a minimiser it spans up to 1e-10 of the cost
# (4.5e-9 from the unpolished Viete roots), and about 1e-6 Hz^2 on a
# noise-free trajectory, so two solvers at one minimum differ by that much.
# The offset calibration's floor is about 1e-11 of the cost.
CALIBRATE_COST_RTOL = 1e-9
ORIENTATION_COST_RTOL = 1e-8
ORIENTATION_COST_ATOL = 1e-6  # Hz^2


def _rosenbrock(x):
    return np.stack([10.0 * (x[..., 1] - x[..., 0] ** 2), 1.0 - x[..., 0]], axis=-1)


def _with_oracle(module, calls):
    """Patch module.least_squares so every solve also runs scipy's from each
    row of x0; calls gets one (ours, scipy's) pair per start."""
    def both(fun, x0, tol=1e-8):  # lsq's default tolerance, and scipy's
        ours = least_squares(fun, x0, tol=tol)
        for sol, start in zip(ours if np.ndim(x0) == 2 else [ours], np.atleast_2d(x0)):
            try:
                theirs = scipy_least_squares(fun, start, xtol=tol, ftol=tol, gtol=tol)
            except ValueError:
                theirs = None
            calls.append((sol, theirs))
        return ours
    return mock.patch.object(module, "least_squares", both)


def test_rosenbrock_minimum():
    sol = least_squares(_rosenbrock, [-1.2, 1.0], tol=1e-14)
    assert sol.success
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-10, rtol=0)
    assert sol.cost < 1e-20
    assert sol.cost == 0.5 * float(sol.fun @ sol.fun)
    # the Jacobian is taken at the returned x
    assert np.allclose(sol.jac, [[-20.0 * sol.x[0], 10.0], [-1.0, 0.0]], atol=1e-6)


def test_nfev_counts_residual_calls_outside_the_jacobian():
    calls = []

    def counted(x):
        calls.append(x.shape)
        return _rosenbrock(x)

    sol = least_squares(counted, [-1.2, 1.0])
    # a Jacobian is one call on the (1, 2, 2) stack x + diag(h)
    assert calls.count((1, 2)) == sol.nfev >= 2
    assert calls.count((1, 2, 2)) == len(calls) - sol.nfev >= 1


def test_evaluation_limit_reports_failure():
    # exp(-x) has no minimiser: every step lowers the cost until the limit
    sol = least_squares(lambda x: np.exp(-x), [0.0])
    assert not sol.success
    assert sol.nfev == 100


def test_non_finite_start_raises():
    with pytest.raises(ValueError):
        least_squares(lambda x: np.stack([np.full_like(x[..., 0], np.nan), x[..., 0]], axis=-1),
                      [1.0])


def test_non_finite_trial_step_is_rejected():
    # the first Gauss-Newton step from x = 1 lands near x = -0.8, where sqrt is NaN
    trials = []

    def residual(x):
        trials.extend(x.ravel())
        with np.errstate(invalid="ignore"):
            return np.sqrt(x) - 0.1

    sol = least_squares(residual, [1.0], tol=1e-14)
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
    with _with_oracle(lsq, calls):
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
# 1 mT and 50 kHz noise: a flat minimum, which the splitting's rounding in the
# Viete roots alone moved by 1.1e-5 deg
@example(axis=(60.0, 30.0), rows=6, B_mT=1.0, noise_kHz=50.0, seed=11608)
@settings(max_examples=20, deadline=None)
def test_fit_orientation_matches_scipy(axis, rows, B_mT, noise_kHz, seed):
    rng = np.random.default_rng(seed)
    ay_B = rng.uniform(np.deg2rad(60), np.deg2rad(140), rows)
    az_B = rng.uniform(np.deg2rad(40), np.deg2rad(90), rows)
    gammas = field_polar_angle(ay_B, az_B, *np.deg2rad(axis))
    nu = splitting_from_cubic(D_ANCHOR, PI_ANCHOR, GAMMA_E_DEFAULT * B_mT * 1e-3, gammas)
    nu = nu + rng.normal(0.0, noise_kHz * 1e3, rows)
    calls = []
    with _with_oracle(lsq, calls):
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


# ---------------------------------------------------------------------------
# A stack of starts against the one-start solver, bit for bit

WALL_Y = -0.2  # the walled Rosenbrock's residuals are NaN below this x[1]


def _walled_rosenbrock(x):
    """Rosenbrock with NaN residuals where x[1] < WALL_Y. From (-1.2, 1) the
    first trial step lands near (-0.47, -0.31), in the wall, and is rejected."""
    return np.where(x[..., 1:] < WALL_Y, np.nan, _rosenbrock(x))


def _captured(module, call):
    """(residual, x0) of the first solve that call() hands module.least_squares."""
    seen = []

    def record(fun, x0, **kwargs):
        seen.append((fun, np.array(x0, dtype=float, ndmin=2)[0]))
        return least_squares(fun, x0, **kwargs)
    with mock.patch.object(module, "least_squares", record):
        call()
    return seen[0]


def _calibrate_problem():
    spec = default_magnet_spec()
    rng = np.random.default_rng(3)
    offsets = np.deg2rad([4.0, 2.0, -3.0])  # alpha_y, then alpha_z per mass
    rows = []
    for mass in range(2):
        for a, z in rng.uniform(np.deg2rad([20.0, 5.0]), np.deg2rad([80.0, 85.0]), (6, 2)):
            pose = magnet_pose_for_field_direction(SAMPLE, a + offsets[0],
                                                   z + offsets[1 + mass], STANDOFF)
            B = cylinder_field(spec, pose.position, pose.axis, SAMPLE) + rng.normal(0, 1e-5, 3)
            rows.append((a, z, mass, B))
    fun, x0 = _captured(lsq, lambda: alignment.calibrate_offsets(rows, spec, SAMPLE,
                                                                         STANDOFF))
    return fun, x0, np.full(3, 0.05)


def _orientation_problem():
    rng = np.random.default_rng(4)
    ay_B = np.deg2rad(np.linspace(75.0, 135.0, 8))
    az_B = np.deg2rad(np.linspace(52.0, 77.0, 8))
    gammas = field_polar_angle(ay_B, az_B, *np.deg2rad([97.6, 64.1]))
    nu = splitting_from_cubic(D_ANCHOR, PI_ANCHOR, GAMMA_E_DEFAULT * 3e-3, gammas)
    trajectory = np.column_stack([ay_B, az_B, nu + rng.normal(0.0, 20e3, 8)])
    fun, x0 = _captured(lsq, lambda: fit_orientation(trajectory, D_ANCHOR, PI_ANCHOR))
    return fun, x0, np.array([0.2, 0.2, 3e-4])


def _dip_problem():
    rng = np.random.default_rng(5)
    B_nv = 3e-3 * np.array([0.3, 0.3, math.sqrt(0.82)])
    spectrum = odmr_spectrum(NVParams(D=D_ANCHOR, Pi=PI_ANCHOR), B_nv, 4e6, 0.02,
                             np.linspace(2.70e9, 3.05e9, 701), noise_sigma=0.002, rng=rng)
    fun, x0 = _captured(lsq, lambda: fit_resonances(spectrum))
    return fun, x0, np.array([2e6, 2e6, 2e6, 3e-3, 3e-3, 2e-3])


PROBLEMS = {
    # no minimiser, and NaN past x = 30: the steps lengthen, then shorten
    # against the wall until the evaluation limit ends the start
    "exponential": lambda: (lambda x: np.where(x > 30.0, np.nan, np.exp(-x)), np.zeros(1),
                            np.ones(1)),
    "rosenbrock": lambda: (_rosenbrock, np.array([-1.2, 1.0]), np.full(2, 0.5)),
    "walled rosenbrock": lambda: (_walled_rosenbrock, np.array([-1.2, 1.0]), np.full(2, 0.3)),
    "calibrate": _calibrate_problem,
    "fit_orientation": _orientation_problem,
    "fit_resonances": _dip_problem,
}


@functools.cache
def _problem(name):
    return PROBLEMS[name]()


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _stack_against_oracle(problem, k, seed, tol, nan_row):
    """Solve k starts drawn about the problem's x0 as one stack and one by one
    through lsq_oracle, and assert that every start's results agree bit for
    bit. A start of NaNs goes in at index nan_row when that is < k: the stack
    must then raise ValueError, as the oracle does for that start alone, and
    the other starts are stacked again without it. Returns the oracle's
    results (None for a start it refused) and every row the residual saw."""
    fun, x0, scale = _problem(problem)
    rows = []

    def seen(x):
        r = np.asarray(fun(x), dtype=float)
        rows.extend(r.reshape(-1, r.shape[-1]))
        return r

    starts = x0 + scale * np.random.default_rng(seed).standard_normal((k, x0.size))
    if nan_row < k:
        starts[nan_row] = np.nan
    expected = []
    for start in starts:
        try:
            expected.append(lsq_oracle.least_squares(seen, start, xtol=tol, ftol=tol, gtol=tol))
        except ValueError:
            expected.append(None)
    kept = [e is not None for e in expected]
    if not all(kept):
        with pytest.raises(ValueError):
            least_squares(fun, starts, tol=tol)
    got = least_squares(fun, starts[kept], tol=tol) if any(kept) else []
    assert len(got) == sum(kept)
    for ours, theirs in zip(got, [e for e in expected if e is not None]):
        for field in ("x", "fun", "jac", "cost"):
            assert _bits(getattr(ours, field)) == _bits(getattr(theirs, field)), field
        assert np.shape(ours.jac) == np.shape(theirs.jac)
        assert type(ours.nfev) is int and ours.nfev == theirs.nfev
        assert ours.success == theirs.success
    return expected, rows


# each @example reaches one edge of the solver; the test below checks that it does
EDGES = {
    "evaluation limit": dict(problem="exponential", k=3, seed=1, tol=1e-8, nan_row=9),
    "rejected non-finite trial": dict(problem="walled rosenbrock", k=3, seed=2, tol=1e-14,
                                      nan_row=9),
    "non-finite start": dict(problem="calibrate", k=3, seed=3, tol=1e-14, nan_row=1),
}


@given(problem=st.sampled_from(sorted(PROBLEMS)), k=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([0.0, 1e-14, 1e-8]),
       nan_row=st.integers(0, 9))
@settings(max_examples=30, deadline=None)
@example(**EDGES["evaluation limit"])
@example(**EDGES["rejected non-finite trial"])
@example(**EDGES["non-finite start"])
def test_stacked_starts_match_one_start_solves(problem, k, seed, tol, nan_row):
    _stack_against_oracle(problem, k, seed, tol, nan_row)


def test_oracle_examples_reach_the_solver_edges():
    expected, _ = _stack_against_oracle(**EDGES["evaluation limit"])
    assert any(not e.success and e.nfev == 100 for e in expected)
    _, rows = _stack_against_oracle(**EDGES["rejected non-finite trial"])
    assert any(not np.all(np.isfinite(r)) for r in rows)
    expected, _ = _stack_against_oracle(**EDGES["non-finite start"])
    assert expected[1] is None and expected[0] is not None
