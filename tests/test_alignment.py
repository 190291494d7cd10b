import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fieldarm.environment
from fieldarm import alignment
from fieldarm.alignment import (
    BISECT_LEVELS,
    amplitude_schedule,
    bisect_decreasing,
    angular_error,
    calibrate_offsets,
    replace_forbidden_pose,
    similarity,
    sphere_segment_scan,
)
from fieldarm.environment import FeasibilityStatus, PoseFeasibility
from fieldarm.errors import (
    FinalPoseForbidden,
    InsufficientData,
    NoReachableDisplacement,
    ObserverInsideMaterial,
    TargetUnreachable,
    ZeroField,
)
from fieldarm.kinematics import (
    Pose,
    angles_for_direction,
    default_dh_table,
    magnet_pose_for_field_direction,
    unit_normal,
)
from fieldarm.magnetostatics import MAX_DISTANCE_M, MagnetSpec, cylinder_field, inverse_dipole
from fieldarm.rotations import row_dot

from fieldarm.cli import main

from conftest import CONFIG_DIR, SAMPLE, STANDOFF


def test_scan_single_point_geometry(spec):
    scan = sphere_segment_scan(SAMPLE, [0.0], [0.0], STANDOFF, spec)
    assert scan.frames.shape == (1, 4, 4)
    # magnet sits on the -x side of the sample; field at the sample is +x dominant
    assert scan.positions[0, 0] < SAMPLE[0]
    B = scan.fields[0]
    assert B[0] > 0 and B[0] > 10 * abs(B[1]) and B[0] > 10 * abs(B[2])


def test_scan_meander_order_and_bijection(spec):
    ay = np.linspace(0.2, 1.0, 5)
    az = np.linspace(0.1, 1.2, 4)
    scan = sphere_segment_scan(SAMPLE, ay, az, STANDOFF, spec)
    assert all(len(column) == 20 for column in scan)
    seen = {(round(a, 12), round(z, 12)) for a, z in zip(scan.alpha_y, scan.alpha_z)}
    assert len(seen) == 20  # bijective onto the grid
    for k in range(5):
        row = scan.alpha_z[k * 4:(k + 1) * 4]
        expected = list(az) if k % 2 == 0 else list(az[::-1])
        assert np.allclose(row, expected)


def test_scan_constant_magnitude(spec):
    ay = np.linspace(0.0, np.pi / 2, 7)
    az = np.linspace(0.0, np.pi / 2, 7)
    mags = np.linalg.norm(sphere_segment_scan(SAMPLE, ay, az, STANDOFF, spec).fields, axis=1)
    assert (mags.max() - mags.min()) / mags.mean() < 0.01


def test_scan_rejects_bad_inputs(spec):
    with pytest.raises(ValueError):
        sphere_segment_scan(SAMPLE, [0.1], [0.1], -1.0, spec)
    with pytest.raises(ValueError):
        sphere_segment_scan(SAMPLE, [], [0.1], STANDOFF, spec)


def test_angular_error_examples():
    assert angular_error([1, 0, 0], [1, 0, 0]) == 0.0
    assert math.isclose(angular_error([1, 0, 0], [0, 1, 0]), math.pi / 2)
    assert math.isclose(angular_error([1, 1, 0], [1, 0, 0]), math.pi / 4)
    with pytest.raises(ZeroField):
        angular_error([0, 0, 0], [1, 0, 0])


def _angular_error_one(B, n):
    """angular_error's one-pair form: norms and the dot product as vector products."""
    nb = np.linalg.norm(B)
    return float(np.arccos(np.clip((B @ n) / (nb * np.linalg.norm(n)), -1.0, 1.0)))


@given(k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), zero_row=st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_angular_error_batch_is_the_one_pair_form_bit_for_bit(k, seed, zero_row):
    rng = np.random.default_rng(seed)
    B = rng.normal(0.0, 1e-3, (k, 3)) * rng.integers(0, 2, (k, 3))  # some zero components
    B[np.all(B == 0.0, axis=1), 0] = 1e-3
    n = unit_normal(rng.uniform(-4.0, 4.0, k), rng.uniform(-4.0, 4.0, k))
    n[rng.random(k) < 0.2] = B[0] / np.linalg.norm(B[0])  # cosines at +-1
    want = np.array([_angular_error_one(b, m) for b, m in zip(B, n)])
    assert angular_error(B, n).tobytes() == want.tobytes()
    assert angular_error(B[0], n[0]) == want[0]
    if zero_row < k:  # one zero field in the batch raises, as it does alone
        B[zero_row] = 0.0
        with pytest.raises(ZeroField):
            angular_error(B, n)


@given(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_field_magnitudes_are_the_one_vector_norm_bit_for_bit(rows):
    """Both magnitude searches take |B| as sqrt(row_dot(B, B)), which rounds
    as the norm of each vector alone; norm(axis=-1) does not always."""
    B = np.array(rows)
    want = np.array([float(np.linalg.norm(b)) for b in B])
    assert np.sqrt(row_dot(B, B)).tobytes() == want.tobytes()


def test_similarity_anchors():
    B = np.array([1e-3, -2e-3, 0.5e-3])
    assert similarity(B, B) == 1.0
    # |delta B| = 3 mT with d = 3 mT -> exp(-1/2)
    assert math.isclose(similarity(B, B + [3e-3, 0, 0]), math.exp(-0.5), rel_tol=1e-12)
    # |delta B| = 0.962 mT -> S ~ 0.95
    assert math.isclose(similarity(B, B + [0.962e-3, 0, 0]), 0.95, abs_tol=2e-4)


@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
       st.lists(st.floats(-5, 5), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_similarity_symmetric_and_bounded(b1, b2):
    B1 = np.asarray(b1) * 1e-3
    B2 = np.asarray(b2) * 1e-3
    s = similarity(B1, B2)
    assert 0.0 < s <= 1.0
    assert math.isclose(s, similarity(B2, B1), rel_tol=1e-12)


def test_similarity_monotone_in_distance():
    B = np.zeros(3)
    values = [similarity(B, [d * 1e-3, 0, 0]) for d in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def _synthetic_calibration_rows(spec, d_ay, d_az_per_mass, noise, rng, n_per_mass=12):
    rows = []
    for mass, d_az in enumerate(d_az_per_mass):
        ay = rng.uniform(np.deg2rad(20), np.deg2rad(80), n_per_mass)
        az = rng.uniform(np.deg2rad(5), np.deg2rad(85), n_per_mass)
        for a, z in zip(ay, az):
            pose = magnet_pose_for_field_direction(SAMPLE, a + d_ay, z + d_az, STANDOFF)
            B = cylinder_field(spec, pose.position, pose.axis, SAMPLE)
            if noise > 0:
                B = B + rng.normal(0.0, noise, 3)
            rows.append((a, z, mass, B))
    return rows


def test_calibration_unbiased_at_zero_noise(spec):
    rng = np.random.default_rng(0)
    rows = _synthetic_calibration_rows(spec, 0.0, [0.0, 0.0], 0.0, rng)
    result = calibrate_offsets(rows, spec, SAMPLE, STANDOFF)
    assert abs(result.delta_alpha_y) < 1e-8
    assert np.all(np.abs(result.delta_alpha_z) < 1e-8)
    assert result.residual_rms < 1e-12


def test_calibration_recovers_injected_offsets(spec):
    rng = np.random.default_rng(1)
    d_ay = np.deg2rad(15.0)
    d_az = np.deg2rad([1.0, 2.0])
    rows = _synthetic_calibration_rows(spec, d_ay, d_az, 0.0, rng)
    result = calibrate_offsets(rows, spec, SAMPLE, STANDOFF)
    assert abs(result.delta_alpha_y - d_ay) < np.deg2rad(1e-6)
    assert np.all(np.abs(result.delta_alpha_z - d_az) < np.deg2rad(1e-6))


def test_calibration_requires_four_points_per_mass(spec):
    rng = np.random.default_rng(2)
    rows = _synthetic_calibration_rows(spec, 0.0, [0.0], 0.0, rng, n_per_mass=3)
    with pytest.raises(InsufficientData):
        calibrate_offsets(rows, spec, SAMPLE, STANDOFF)


def test_amplitude_schedule_exact_grid_distance(spec):
    direction = unit_normal(0.0, 0.0)
    r = 0.2  # already a multiple of the 0.5 mm resolution
    pose = magnet_pose_for_field_direction(SAMPLE, 0.0, 0.0, r)
    target = float(np.linalg.norm(cylinder_field(spec, pose.position, pose.axis, SAMPLE)))
    sched = amplitude_schedule([target], spec, direction, SAMPLE)
    assert math.isclose(sched.distances[0], r, abs_tol=1e-12)
    assert abs(sched.errors[0]) < 1e-9


def test_amplitude_schedule_ramp_properties(spec):
    direction = unit_normal(0.3, 0.5)
    targets = np.linspace(0.5e-3, 10e-3, 20)
    sched = amplitude_schedule(targets, spec, direction, SAMPLE)
    # distances shrink monotonically as the target amplitude grows
    assert np.all(np.diff(sched.distances) < 0)
    assert np.all(np.abs(sched.errors) <= sched.error_bounds + 1e-12)
    assert np.max(np.abs(sched.errors)) < 0.1e-3


def test_amplitude_schedule_bound_is_worst_case(spec):
    # |B|(r) is convex, so the snap error on the near side of the window
    # exceeds the central-difference estimate; the bound must cover it
    rng = np.random.default_rng(0)
    for _ in range(20):
        targets = np.linspace(rng.uniform(0.5e-3, 1e-3), rng.uniform(9e-3, 10e-3), 20)
        direction = unit_normal(rng.uniform(0.0, np.pi / 3), rng.uniform(0.0, np.pi / 2))
        sched = amplitude_schedule(targets, spec, direction, SAMPLE)
        assert np.all(np.abs(sched.errors) <= sched.error_bounds + 1e-15)


def test_amplitude_schedule_unreachable_target(spec):
    direction = unit_normal(0.0, 0.0)
    with pytest.raises(TargetUnreachable):
        amplitude_schedule([10.0], spec, direction, SAMPLE)  # 10 T
    with pytest.raises(TargetUnreachable):
        amplitude_schedule([1e-9], spec, direction, SAMPLE)
    with pytest.raises(ValueError):
        amplitude_schedule([1e-3], spec, direction, SAMPLE, resolution=0.0)


def test_replace_identity_in_empty_environment(spec, arm):
    forbidden = magnet_pose_for_field_direction(SAMPLE, 0.3, 0.4, STANDOFF)
    plan = replace_forbidden_pose(forbidden, SAMPLE, spec, [], arm,
                                  displacement_axis="y")
    assert plan.identity
    assert plan.similarity == 1.0
    assert plan.displaced_pose == forbidden and plan.final_pose == forbidden


def test_replace_walled_pose(spec, arm, wall):
    forbidden = magnet_pose_for_field_direction(
        SAMPLE, np.deg2rad(30.0), np.deg2rad(53.0), STANDOFF
    )
    plan = replace_forbidden_pose(forbidden, SAMPLE, spec, [wall], arm,
                                  displacement_axis="y")
    assert not plan.identity
    assert plan.similarity >= 0.95
    # step (iv) magnitude recovery within 0.5%
    t = np.linalg.norm(plan.target_field)
    a = np.linalg.norm(plan.achieved_field)
    assert abs(a - t) / t < 0.005
    # the displaced pose keeps the forbidden orientation; step (iii) re-orients
    assert plan.displaced_pose.alpha_y == forbidden.alpha_y
    assert plan.rotated_pose.position == pytest.approx(list(plan.displaced_pose.position))


def test_replace_search_exhaustion(spec, arm, wall):
    forbidden = magnet_pose_for_field_direction(
        SAMPLE, np.deg2rad(30.0), np.deg2rad(53.0), STANDOFF
    )
    with pytest.raises((NoReachableDisplacement, FinalPoseForbidden)):
        replace_forbidden_pose(forbidden, SAMPLE, spec, [wall], arm,
                               displacement_axis="y", search_step=1e-4, max_steps=1)
    with pytest.raises(ValueError):
        replace_forbidden_pose(forbidden, SAMPLE, spec, [wall], arm,
                               displacement_axis="x")


def test_replace_final_pose_forbidden(monkeypatch, spec, arm):
    """Every displaced candidate is reachable but no re-aimed pose is."""
    forbidden = magnet_pose_for_field_direction(
        SAMPLE, np.deg2rad(30.0), np.deg2rad(53.0), STANDOFF
    )

    def feasibility(frames, dh, tree, seed, rngs):
        def ok(T):  # a candidate keeps the forbidden pose's rotation; a re-aimed pose does not
            F = forbidden.matrix()
            return not np.array_equal(T, F) and np.array_equal(T[:3, :3], F[:3, :3])
        return [PoseFeasibility(FeasibilityStatus.REACHABLE if ok(T)
                                else FeasibilityStatus.COLLISION, dh.home()) for T in frames]

    monkeypatch.setattr(fieldarm.environment, "feasibility_batch", feasibility)
    with pytest.raises(FinalPoseForbidden):
        replace_forbidden_pose(forbidden, SAMPLE, spec, [], arm, displacement_axis="z",
                               max_steps=3)


def test_transverse_minimum_at_inverse_dipole_angle(spec):
    forbidden = magnet_pose_for_field_direction(
        SAMPLE, np.deg2rad(40.0), np.deg2rad(20.0), STANDOFF
    )
    target = cylinder_field(spec, forbidden.position, forbidden.axis, SAMPLE)
    t_hat = target / np.linalg.norm(target)
    displaced = forbidden.position + np.array([0.0, 0.0, 0.12])
    moment = inverse_dipole(target, SAMPLE - displaced)
    ay_star, az_star = angles_for_direction(moment)

    deltas = np.deg2rad(np.arange(-40.0, 40.0001, 0.05))
    transverse = []
    for d in deltas:
        pose = Pose(*displaced, 0.0, ay_star + d, az_star)
        B = cylinder_field(spec, pose.position, pose.axis, SAMPLE)
        transverse.append(np.linalg.norm(B - (B @ t_hat) * t_hat))
    d_min = deltas[int(np.argmin(transverse))]
    assert abs(np.rad2deg(d_min)) < 1.0


def _bisect_one_level(magnitude, targets, lo, hi, tol):
    """Reference: the loop that bisects every open bracket one level per call."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    while np.any(active := hi - lo > tol):
        mid = (lo + hi) / 2.0
        above = magnitude(mid) > targets
        lo = np.where(active & above, mid, lo)
        hi = np.where(active & ~above, mid, hi)
    return lo, hi


brackets = st.lists(st.tuples(st.floats(0.01, 1.0),
                              st.one_of(st.just(0.0), st.floats(1e-12, 2.0)),
                              st.floats(0.0, 2e3)), min_size=1, max_size=6)


@given(brackets, st.sampled_from([1e-12, 1e-9, 1e-4, 0.3, 5.0]))
@example([(0.1, 0.0, 1.0), (0.1, 1e-9, 1.0)], 1e-9)     # converged before the first call
@example([(0.2, 0.5, 10.0), (0.2, 0.5 * 2.0 ** -7, 10.0)], 1e-3)  # ends mid-block
@example([(0.2, 0.5, 10.0)], 5.0)                      # tolerance wider than the bracket
@example([(0.25, 0.25, 10.0), (0.25, 0.25, 1.0)], 2.0**-5)  # a width reaches tol exactly
@settings(max_examples=100, deadline=None)
def test_block_bisection_matches_one_level_loop(rows, tol):
    lo = np.array([r[0] for r in rows])
    hi = lo + np.array([r[1] for r in rows])
    targets = np.array([r[2] for r in rows])
    calls = []

    def magnitude(r):  # decreasing in r > 0
        calls.append(np.shape(r))
        return 1.0 / r**3

    got = bisect_decreasing(magnitude, targets, lo, hi, tol)
    want = _bisect_one_level(lambda r: 1.0 / r**3, targets, lo, hi, tol)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert all(shape[1] == 2**BISECT_LEVELS - 1 for shape in calls)


def test_replace_batches_its_magnitude_search(monkeypatch, tmp_path):
    calls = []

    def counted(*args):
        calls.append(args)
        return cylinder_field(*args)

    monkeypatch.setattr(alignment, "cylinder_field", counted)
    assert main(["--config", f"{CONFIG_DIR}/walled.yaml", "replace", "--ay", "30", "--az", "53",
                 "--axis", "y", "--standoff-m", "0.16", "--out", str(tmp_path / "plan.json")]) == 0
    assert len(calls) <= 10  # 37 with one field evaluation per bisection level


def _replace_beside(spec, forbidden, axis, steps):
    """replace_forbidden_pose where only `forbidden` collides, so that the first
    candidate, `steps` steps of 5 mm along +y or +z, is the displaced pose.

    Returns the plan, or the TargetUnreachable or ObserverInsideMaterial that
    it raised, and each (magnitude, target, lo, hi) that _bisect_held was given.
    """
    held, brackets = alignment._bisect_held, []

    def recorded(magnitude, target, lo, hi, tol):
        brackets.append((magnitude, target, lo, hi))
        return held(magnitude, target, lo, hi, tol)

    def feasibility(frames, dh, tree, seed, rngs):
        return [PoseFeasibility(FeasibilityStatus.COLLISION if np.array_equal(T, forbidden.matrix())
                                else FeasibilityStatus.REACHABLE, dh.home()) for T in frames]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(alignment, "_bisect_held", recorded)
        patch.setattr(fieldarm.environment, "feasibility_batch", feasibility)
        try:
            return replace_forbidden_pose(forbidden, SAMPLE, spec, [], default_dh_table(), axis,
                                          search_step=steps * 0.005, max_steps=1), brackets
        except (TargetUnreachable, ObserverInsideMaterial) as exc:
            return exc, brackets


# Magnets from the configuration's domain, each with a forbidden pose on its
# axis at a standoff above the half-length, log-uniform up to MAX_DISTANCE_M,
# and a displacement of 1-40 steps along y or z.
replace_draws = dict(
    outer=st.floats(1e-3, 1.0), bore=st.floats(0.0, 0.99), length=st.floats(1e-3, 1.0),
    remanence=st.floats(1e-3, 10.0), ay=st.floats(-math.pi, math.pi),
    az=st.floats(-math.pi, math.pi), u=st.floats(0.0, 1.0, exclude_min=True),
    axis=st.sampled_from("yz"), steps=st.integers(1, 40))


def _replace_drawn(outer, bore, length, remanence, ay, az, u, axis, steps):
    """_replace_beside on one draw of replace_draws; also its spec and forbidden pose."""
    spec = MagnetSpec.from_remanence(outer, bore * outer, length, remanence)
    standoff = length / 2.0 * (2.0 * MAX_DISTANCE_M / length) ** u
    assume(standoff <= MAX_DISTANCE_M)
    forbidden = magnet_pose_for_field_direction(SAMPLE, ay, az, standoff)
    return spec, forbidden, *_replace_beside(spec, forbidden, axis, steps)


@given(**replace_draws)
@settings(max_examples=200, deadline=None)
def test_magnitude_bracket_holds_every_target_on_the_ray(**draw):
    """Stage (iv) bisects [r_clear, MAX_DISTANCE_M], so replace raises
    TargetUnreachable exactly when no distance on that ray gives the target."""
    spec, _, outcome, brackets = _replace_drawn(**draw)
    assume(brackets)  # the forbidden magnet does not enclose the sample
    (magnitude, target, lo, hi), = brackets
    r_clear = spec.length / 2.0 + spec.outer_radius + 1e-6
    assert (lo, hi) == (r_clear, MAX_DISTANCE_M)
    B_clear, B_far = magnitude([r_clear, MAX_DISTANCE_M])
    assert isinstance(outcome, TargetUnreachable) == (not B_far <= target <= B_clear)


@given(**replace_draws)
@example(outer=0.5, bore=0.5, length=0.1, remanence=1.4, ay=-1.0, az=-1.0, u=0.1, axis="z",
         steps=20)  # the re-aimed magnet at the displaced pose encloses the sample
@settings(max_examples=200, deadline=None)
def test_replace_meets_the_material_only_at_the_forbidden_pose(**draw):
    """replace raises ObserverInsideMaterial only when the forbidden pose
    itself puts the sample in the magnet material: after the target field,
    it evaluates the field only beyond the clearance radius."""
    spec, forbidden, outcome, _ = _replace_drawn(**draw)
    try:
        cylinder_field(spec, forbidden.position, forbidden.axis, SAMPLE)
        encloses = False
    except ObserverInsideMaterial:
        encloses = True
    assert isinstance(outcome, ObserverInsideMaterial) == encloses


def test_replace_slides_a_flat_disk_far_out():
    """A flat 1 m disk 35 mm from the sample, displaced 55 mm along y: only
    a distance near 1.04 m on the re-aimed ray gives the target's magnitude."""
    spec = MagnetSpec.from_remanence(1.0, 0.0, 0.03125, 1.0)
    forbidden = magnet_pose_for_field_direction(SAMPLE, 0.0, 0.0, 0.035)
    plan, _ = _replace_beside(spec, forbidden, "y", 11)
    assert abs(np.linalg.norm(SAMPLE - plan.final_pose.position) - 1.04) < 0.005
    achieved, want = np.linalg.norm(plan.achieved_field), np.linalg.norm(plan.target_field)
    assert abs(achieved - want) <= 1e-6 * want
