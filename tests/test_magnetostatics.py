import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ellipe, ellipk

from fieldarm.errors import ObserverInsideMaterial, ZeroDistance
from fieldarm.kinematics import Pose
from fieldarm.magnetostatics import (
    MU0,
    MagnetSpec,
    cel,
    cylinder_field,
    default_magnet_spec,
    dipole_field,
    equivalent_dipole,
    inverse_dipole,
)

import field_oracle


# --- surface-charge quadrature oracle -------------------------------------
# An axially magnetised cylinder carries bound surface charge sigma = +-M on
# its two end faces only. The field is the Coulomb-like integral over both
# annular faces, evaluated with Gauss-Legendre (radius) x trapezoid (angle).

def surface_charge_field(spec, magnet_pose, observer, n_r=48, n_phi=128):
    R = magnet_pose.rotation()
    axis = R[:, 0]
    e1 = R[:, 1]
    e2 = R[:, 2]
    centre = magnet_pose.position
    obs = np.asarray(observer, dtype=float)

    x_gl, w_gl = np.polynomial.legendre.leggauss(n_r)
    rho = 0.5 * (spec.outer_radius - spec.inner_radius) * x_gl \
        + 0.5 * (spec.outer_radius + spec.inner_radius)
    w_rho = 0.5 * (spec.outer_radius - spec.inner_radius) * w_gl
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    w_phi = 2.0 * math.pi / n_phi

    RHO, PHI = np.meshgrid(rho, phi, indexing="ij")
    W = (w_rho[:, None] * w_phi * RHO).ravel()
    ring = (np.cos(PHI).ravel()[:, None] * e1 + np.sin(PHI).ravel()[:, None] * e2) \
        * RHO.ravel()[:, None]

    B = np.zeros(3)
    for sign in (1.0, -1.0):
        pts = centre + sign * (spec.length / 2.0) * axis + ring
        d = obs - pts
        r3 = np.linalg.norm(d, axis=1) ** 3
        B += sign * spec.magnetisation * np.sum(W[:, None] * d / r3[:, None], axis=0)
    return MU0 / (4.0 * math.pi) * B


def test_cel_reduces_to_legendre_integrals():
    for m in (0.1, 0.35, 0.72, 0.95):
        kc = math.sqrt(1.0 - m)
        assert math.isclose(float(cel(kc, 1.0, 1.0, 1.0)[0]), float(ellipk(m)), rel_tol=1e-12)
        assert math.isclose(float(cel(kc, 1.0, 1.0, kc * kc)[0]), float(ellipe(m)), rel_tol=1e-12)


def test_cel_rejects_zero_modulus():
    with pytest.raises(ValueError):
        cel(0.0, 1.0, 1.0, 1.0)


def test_on_axis_field_matches_textbook_formula():
    spec = MagnetSpec(0.015, 0.0, 0.06, 1.0e6)
    pose = Pose(0, 0, 0)  # axis along world x
    b = spec.length / 2.0
    a = spec.outer_radius
    for z in (0.05, 0.08, 0.15):
        B = cylinder_field(spec, pose.position, pose.axis, [z, 0.0, 0.0])
        expected = (MU0 * spec.magnetisation / 2.0) * (
            (z + b) / math.hypot(z + b, a) - (z - b) / math.hypot(z - b, a)
        )
        assert math.isclose(B[0], expected, rel_tol=1e-10)
        assert abs(B[1]) < 1e-15 and abs(B[2]) < 1e-15


def test_cylinder_field_matches_surface_charge_oracle():
    spec = default_magnet_spec()
    pose = Pose(0.03, -0.02, 0.05, 0.0, 0.35, -1.1)
    rng = np.random.default_rng(42)
    for _ in range(40):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        obs = pose.position + rng.uniform(0.06, 0.3) * direction
        B = cylinder_field(spec, pose.position, pose.axis, obs)
        B_ref = surface_charge_field(spec, pose, obs)
        assert np.linalg.norm(B - B_ref) < 1e-4 * np.linalg.norm(B_ref)


def test_far_field_approaches_equivalent_dipole():
    spec = default_magnet_spec()
    pose = Pose(0, 0, 0)
    m = equivalent_dipole(spec) * np.array([1.0, 0.0, 0.0])
    rng = np.random.default_rng(1)
    for _ in range(30):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r = rng.uniform(10, 25) * 2.0 * spec.outer_radius * direction
        B_cyl = cylinder_field(spec, pose.position, pose.axis, r)
        B_dip = dipole_field(m, r)
        assert np.linalg.norm(B_cyl - B_dip) < 0.01 * np.linalg.norm(B_cyl)


def test_hollow_cylinder_is_outer_minus_inner():
    solid_outer = MagnetSpec(0.015, 0.0, 0.06, 1.0e6)
    solid_inner = MagnetSpec(0.002, 0.0, 0.06, 1.0e6)
    hollow = MagnetSpec(0.015, 0.002, 0.06, 1.0e6)
    pose = Pose(0.01, 0.02, -0.01, 0.0, 0.5, 0.9)
    obs = np.array([0.1, -0.05, 0.07])
    B = cylinder_field(hollow, pose.position, pose.axis, obs)
    B_super = (cylinder_field(solid_outer, pose.position, pose.axis, obs)
               - cylinder_field(solid_inner, pose.position, pose.axis, obs))
    assert np.allclose(B, B_super, atol=1e-15)


def test_bore_point_is_valid_but_material_raises():
    spec = default_magnet_spec()
    pose = Pose(0, 0, 0)
    B = cylinder_field(spec, pose.position, pose.axis, [0.0, 0.0005, 0.0])  # inside the bore
    assert np.all(np.isfinite(B))
    with pytest.raises(ObserverInsideMaterial):
        cylinder_field(spec, pose.position, pose.axis, [0.0, 0.01, 0.0])


def test_rigid_rotation_consistency():
    spec = default_magnet_spec()
    pose = Pose(0, 0, 0, 0.0, 0.3, 0.8)
    obs = np.array([0.12, 0.04, -0.06])
    B = cylinder_field(spec, pose.position, pose.axis, obs)
    rot = Pose(0, 0, 0, 0.4, -0.2, 1.3).rotation()
    pose_r = Pose.from_matrix(
        np.block([[rot @ pose.rotation(), np.zeros((3, 1))], [np.zeros((1, 3)), np.ones((1, 1))]])
    )
    B_r = cylinder_field(spec, pose_r.position, pose_r.axis, rot @ obs)
    assert np.allclose(B_r, rot @ B, atol=1e-14)


def test_magnet_spec_validation_and_volume():
    with pytest.raises(ValueError):
        MagnetSpec(0.01, 0.02, 0.05, 1e6)
    with pytest.raises(ValueError):
        MagnetSpec(0.01, 0.0, -0.05, 1e6)
    spec = MagnetSpec(0.015, 0.002, 0.06, 1e6)
    assert math.isclose(spec.volume, math.pi * (0.015**2 - 0.002**2) * 0.06, rel_tol=1e-12)
    assert math.isclose(equivalent_dipole(spec), 1e6 * spec.volume, rel_tol=1e-12)
    spec2 = MagnetSpec.from_remanence(0.015, 0.002, 0.06, 1.4)
    assert math.isclose(spec2.remanence, 1.4, rel_tol=1e-12)


finite3 = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


@given(finite3, finite3)
@settings(max_examples=100, deadline=None)
def test_inverse_dipole_round_trip(B_mT, r_raw):
    B = np.asarray(B_mT) * 1e-3
    r = np.asarray(r_raw) * 0.2 + np.array([0.3, 0.0, 0.0])
    m = inverse_dipole(B, r)
    B_back = dipole_field(m, r)
    assert np.allclose(B_back, B, atol=1e-12 + 1e-10 * np.linalg.norm(B))


def test_inverse_dipole_is_linear_in_field():
    r = np.array([0.1, -0.05, 0.2])
    B1 = np.array([1e-3, 2e-3, -0.5e-3])
    B2 = np.array([-2e-3, 0.3e-3, 1e-3])
    m = inverse_dipole(2.0 * B1 + 3.0 * B2, r)
    assert np.allclose(m, 2.0 * inverse_dipole(B1, r) + 3.0 * inverse_dipole(B2, r),
                       rtol=1e-12)


def test_zero_distance_raises():
    with pytest.raises(ZeroDistance):
        dipole_field([1, 0, 0], [0, 0, 0])
    with pytest.raises(ZeroDistance):
        inverse_dipole([1e-3, 0, 0], [0, 0, 0])


unit_box = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
field_rows = st.lists(st.tuples(unit_box, unit_box, unit_box, st.floats(0.05, 0.5)),
                      min_size=1, max_size=8)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@given(field_rows, st.integers(0, 7))
@settings(max_examples=100, deadline=None)
def test_batch_matches_row_by_row(rows, bad_row):
    spec = default_magnet_spec()
    assume(all(np.linalg.norm(a) > 0.1 and np.linalg.norm(d) > 0.1 for _, a, d, _ in rows))
    centres = np.array([0.1 * np.asarray(c) for c, _, _, _ in rows])
    axes = np.array([_unit(a) for _, a, _, _ in rows])
    observers = np.array([c + r * _unit(d) for c, (_, _, d, r) in zip(centres, rows)])
    B = cylinder_field(spec, centres, axes, observers)
    assert B.shape == (len(rows), 3)
    for i in range(len(rows)):
        B_row = cylinder_field(spec, centres[i], axes[i], observers[i])
        assert np.linalg.norm(B[i] - B_row) <= 1e-12 * np.linalg.norm(B_row)

    # one observer moved into the material, half-way between bore and rim
    k = bad_row % len(rows)
    side = np.cross(axes[k], [1.0, 0.0, 0.0])
    if np.linalg.norm(side) < 0.1:
        side = np.cross(axes[k], [0.0, 1.0, 0.0])
    observers[k] = centres[k] + 0.011 * _unit(side)
    with pytest.raises(ObserverInsideMaterial):
        cylinder_field(spec, centres, axes, observers)


ORACLE_SPECS = {"solid": MagnetSpec(0.015, 0.0, 0.06, 1.0e6), "hollow": default_magnet_spec()}
axial_points = st.lists(st.tuples(st.floats(0.0, 0.1), st.floats(-0.1, 0.1),
                                  st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=12)
Z_AXIS = [0.0, 0.0, 1.0]


@given(st.sampled_from(sorted(ORACLE_SPECS)), axial_points, unit_box, unit_box)
@example("solid", [(0.0, 0.05, 0.0)], [0.0, 0.0, 0.0], Z_AXIS)           # on the axis
@example("hollow", [(0.0, -0.05, 0.0)], [0.0, 0.0, 0.0], Z_AXIS)
@example("hollow", [(0.001, 0.004, 0.0)], [0.0, 0.0, 0.0], Z_AXIS)       # in the bore
@example("solid", [(0.015, 0.04, 0.0)], [0.0, 0.0, 0.0], Z_AXIS)         # rho = radius
@example("hollow", [(0.02, -0.03, 0.0), (0.002, 0.03, 0.0)], [0.0, 0.0, 0.0], Z_AXIS)
@settings(max_examples=100, deadline=None)
def test_field_matches_eight_call_oracle(name, points, centre_raw, axis_raw):
    """One cel pass gives the bits of one cel call per integral.

    At rho = radius beyond an end face gamma = 0, so p = 0 takes cel's
    p <= 0 branch.
    """
    spec = ORACLE_SPECS[name]
    assume(np.linalg.norm(axis_raw) > 0.1)
    n = _unit(axis_raw)
    e1 = _unit(np.cross(n, [1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.cross(n, [0.0, 1.0, 0.0]))
    e2 = np.cross(n, e1)
    margin = 1e-6  # clear of the material, beyond the library's boundary tolerance
    points = [(rho, z, phi) for rho, z, phi in points
              if not (abs(z) <= spec.length / 2.0 + margin
                      and spec.inner_radius - margin <= rho <= spec.outer_radius + margin)]
    assume(points)
    centre = 0.1 * np.asarray(centre_raw)
    obs = np.array([centre + z * n + rho * (math.cos(phi) * np.asarray(e1) + math.sin(phi) * e2)
                    for rho, z, phi in points])
    assert np.array_equal(cylinder_field(spec, centre, n, obs),
                          field_oracle.cylinder_field(spec, centre, n, obs))
    assert np.array_equal(cylinder_field(spec, centre, n, obs[0]),
                          field_oracle.cylinder_field(spec, centre, n, obs[0]))
