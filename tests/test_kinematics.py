import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fieldarm.config import load_config
from fieldarm.errors import JointLimitViolation, NoSolution
from fieldarm.kinematics import (
    LIMIT_SLACK,
    POS_TOL,
    ROT_TOL,
    DHTable,
    Pose,
    _dls_solve,
    _jacobian_from_frames,
    _pose_error,
    angles_for_direction,
    default_dh_table,
    fk_matrix,
    forward_kinematics,
    frame_chain,
    has_spherical_wrist,
    inverse_kinematics,
    magnet_pose_for_field_direction,
    quantize_position,
    unit_normal,
)
from fieldarm.rotations import TAU, euler_to_matrix, matrix_to_euler, normalize_angle

from conftest import CONFIG_DIR, ik_branches

BUNDLED_TABLES = {name: load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")).dh
                  for name in ("default", "walled")}
# a joint configuration as fractions of each joint's range, limits included
UNIT6 = st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6).map(np.array)


# the rotation matrices one angle at a time, from math.cos and math.sin
def rot_x(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _in_range(dh, u):
    return dh.q_min + u * (dh.q_max - dh.q_min)


# --- independent matrix-chain oracle: four elementary homogeneous transforms ---

def _h_rz(t):
    T = np.eye(4)
    T[0, 0] = T[1, 1] = math.cos(t)
    T[0, 1] = -math.sin(t)
    T[1, 0] = math.sin(t)
    return T


def _h_rx(t):
    T = np.eye(4)
    T[1, 1] = T[2, 2] = math.cos(t)
    T[1, 2] = -math.sin(t)
    T[2, 1] = math.sin(t)
    return T


def _h_tz(d):
    T = np.eye(4)
    T[2, 3] = d
    return T


def _h_tx(a):
    T = np.eye(4)
    T[0, 3] = a
    return T


def fk_oracle(dh, q):
    T = np.eye(4)
    for i in range(6):
        T = T @ _h_rz(q[i] + dh.theta_offset[i]) @ _h_tz(dh.d[i]) @ _h_tx(dh.a[i]) @ _h_rx(dh.alpha[i])
    return T @ _h_tx(dh.tool_offset)


def test_fk_matches_matrix_chain_oracle():
    dh = default_dh_table()
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = rng.uniform(dh.q_min, dh.q_max)
        assert np.allclose(fk_matrix(dh, q), fk_oracle(dh, q), atol=1e-10, rtol=0)


def test_frame_chain_has_base_joints_and_tcp():
    dh = default_dh_table()
    frames = frame_chain(dh, np.zeros(6))
    assert len(frames) == 8
    assert np.allclose(frames[0], np.eye(4))


def test_forward_kinematics_rejects_limit_violation():
    dh = default_dh_table()
    q = np.zeros(6)
    q[1] = dh.q_max[1] + 0.1
    with pytest.raises(JointLimitViolation):
        forward_kinematics(dh, q)


def test_jacobian_matches_finite_differences():
    dh = default_dh_table()
    rng = np.random.default_rng(3)
    q = rng.uniform(dh.q_min * 0.5, dh.q_max * 0.5)
    J = _jacobian_from_frames(frame_chain(dh, q))
    h = 1e-7
    for i in range(6):
        dq = np.zeros(6)
        dq[i] = h
        Tp = fk_matrix(dh, q + dq)
        Tm = fk_matrix(dh, q - dq)
        v = (Tp[:3, 3] - Tm[:3, 3]) / (2 * h)
        dR = (Tp[:3, :3] - Tm[:3, :3]) / (2 * h) @ fk_matrix(dh, q)[:3, :3].T
        w = np.array([dR[2, 1], dR[0, 2], dR[1, 0]])
        assert np.allclose(J[:3, i], v, atol=1e-5)
        assert np.allclose(J[3:, i], w, atol=1e-5)


def _jacobian_loop(frames):
    """The per-joint loop form of _jacobian_from_frames, as the reference."""
    p_tcp = frames[-1][:3, 3]
    J = np.empty((6, 6))
    for i in range(6):
        zx, zy, zz = frames[i][:3, 2]
        rx, ry, rz = p_tcp - frames[i][:3, 3]
        J[:, i] = [zy * rz - zz * ry, zz * rx - zx * rz, zx * ry - zy * rx, zx, zy, zz]
    return J


@pytest.mark.parametrize("name", sorted(BUNDLED_TABLES))
@given(u=UNIT6)
@settings(max_examples=100, deadline=None)
def test_jacobian_is_the_loop_form_bit_for_bit(name, u):
    dh = BUNDLED_TABLES[name]
    frames = frame_chain(dh, _in_range(dh, u))
    J = _jacobian_from_frames(frames)
    assert J.flags.c_contiguous  # the DLS solve rounds differently on a transposed view
    assert J.tobytes() == _jacobian_loop(frames).tobytes()


def test_ik_round_trip_on_fk_targets():
    dh = default_dh_table()
    rng = np.random.default_rng(11)
    failures = 0
    for _ in range(100):
        q_true = rng.uniform(dh.q_min * 0.8, dh.q_max * 0.8)
        target = forward_kinematics(dh, q_true)
        try:
            q = inverse_kinematics(dh, target, rng=np.random.default_rng(0))
        except NoSolution:
            failures += 1
            continue
        reached = forward_kinematics(dh, q)
        assert np.linalg.norm(reached.position - target.position) <= POS_TOL
        dR = target.rotation() @ reached.rotation().T
        assert abs(np.arccos(np.clip((np.trace(dR) - 1) / 2, -1, 1))) <= ROT_TOL * 1.5
    assert failures <= 1


@pytest.mark.parametrize("name", sorted(BUNDLED_TABLES))
@given(u=UNIT6)
# q1 and q2 on their lower limits, the wrist centre 0.3 mm from the base axis
@example(u=np.array([0.0, 0.0, 0.37890625, 0.0, 0.0, 0.0]))
# the branch with q1 = q_min + pi has its exact q4 6.1e-7 rad below q_min
@example(u=np.array([0.0, 0.796875, 0.681640625, 0.0, 0.83203125, 0.0]))
# q5 = 0, a wrist singularity where q4 + q6 = -3.15 rad: q4 = 0 would put q6
# past its limit, so the free angle is split between them
@example(u=np.array([0.0, 0.0, 0.0, 0.046875, 0.5, 0.4375]))
@settings(max_examples=200, deadline=None)
def test_ik_branches_reach_fk_targets_within_limits(name, u):
    dh = BUNDLED_TABLES[name]
    assert has_spherical_wrist(dh)
    target = forward_kinematics(dh, _in_range(dh, u))
    branches = ik_branches(dh, target)
    assert 1 <= len(branches) <= 8
    for q in branches:
        dh.check_limits(q)
        e = _pose_error(target.matrix(), fk_matrix(dh, q))
        assert np.linalg.norm(e[:3]) <= POS_TOL and np.linalg.norm(e[3:]) <= ROT_TOL
    # The wrist centre, flange and TCP follow from the pose alone: to 1e-9 m
    # for a branch inside its limits. A branch on a limit may hold an angle
    # clipped by up to LIMIT_SLACK, which moves them by up to LIMIT_SLACK
    # times the arm's reach.
    reach = float(np.sum(np.abs(dh.a)) + np.sum(np.abs(dh.d)) + dh.tool_offset)
    origins = [frame_chain(dh, q)[4:, :3, 3] for q in branches]
    on_limit = [bool(np.any((q == dh.q_min) | (q == dh.q_max))) for q in branches]
    reference = next((o for o, lim in zip(origins, on_limit) if not lim), origins[0])
    for o, lim in zip(origins, on_limit):
        assert np.allclose(o, reference, atol=LIMIT_SLACK * reach if lim else 1e-9, rtol=0)


@given(u=UNIT6, start=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_dls_solution_is_an_ik_branch(u, start):
    dh = default_dh_table()
    T = fk_matrix(dh, _in_range(dh, u))
    rng = np.random.default_rng(start)
    for _ in range(10):  # random starts, as ik_solutions' restarts
        q = _dls_solve(dh, T, rng.uniform(dh.q_min, dh.q_max))
        if q is not None:
            break
    assume(q is not None)
    for _ in range(10):  # Gauss-Newton steps polish away the DLS tolerance
        J = _jacobian_from_frames(frame_chain(dh, q))
        q = q + np.linalg.lstsq(J, _pose_error(T, fk_matrix(dh, q)), rcond=None)[0]
    # off singularities, where a solution is isolated, and inside the limits
    assume(np.linalg.cond(_jacobian_from_frames(frame_chain(dh, q))) < 1e4)
    assume(np.all((q >= dh.q_min) & (q <= dh.q_max)))
    branches = ik_branches(dh, Pose.from_matrix(T))
    gap = min(np.max(np.abs(np.angle(np.exp(1j * (q - b))))) for b in branches)
    assert gap <= 1e-6


def test_ik_returns_branch_nearest_seed(dh):
    target = forward_kinematics(dh, np.array([0.3, 0.4, -0.2, 0.1, 0.5, 0.0]))
    branches = ik_branches(dh, target)
    assert len(branches) > 1
    for b in branches:
        q = inverse_kinematics(dh, target, seed=b)
        assert np.array_equal(q, b)


def test_ik_unreachable_target_raises():
    dh = default_dh_table()
    with pytest.raises(NoSolution):
        inverse_kinematics(dh, Pose(5.0, 0.0, 0.0))


def test_dh_table_validation():
    with pytest.raises(ValueError):
        DHTable(a=np.zeros(5), alpha=np.zeros(6), d=np.zeros(6),
                theta_offset=np.zeros(6), q_min=-np.ones(6), q_max=np.ones(6),
                tool_offset=0.0)
    with pytest.raises(ValueError):
        DHTable(a=np.zeros(6), alpha=np.zeros(6), d=np.zeros(6),
                theta_offset=np.zeros(6), q_min=np.ones(6), q_max=-np.ones(6),
                tool_offset=0.0)


def test_pose_matrix_round_trip():
    p = Pose(0.1, -0.2, 0.3, 0.4, -1.1, 2.5)
    p2 = Pose.from_matrix(p.matrix())
    assert np.allclose(p.position, p2.position)
    assert np.allclose(p.rotation(), p2.rotation(), atol=1e-12)


def test_pose_gimbal_lock_round_trip():
    p = Pose(0, 0, 0, 0.3, np.pi / 2, 0.7)
    p2 = Pose.from_matrix(p.matrix())
    assert np.allclose(p.rotation(), p2.rotation(), atol=1e-9)


def test_unit_normal_examples():
    assert np.allclose(unit_normal(0.0, 0.0), [1, 0, 0])
    # worked example: Rz(0.7) Ry(0.3) applied to x-hat
    expected = rot_z(0.7) @ rot_y(0.3) @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(unit_normal(0.3, 0.7), expected)
    assert np.allclose(
        unit_normal(0.3, 0.7),
        [math.cos(0.7) * math.cos(0.3), math.sin(0.7) * math.cos(0.3), -math.sin(0.3)],
    )


def _unit_normal_matrices(ay, az):
    """unit_normal's matrix form for one pair of angles: Rz(az) Ry(ay) x-hat, normalised."""
    n = rot_z(az) @ rot_y(ay) @ np.array([1.0, 0.0, 0.0])
    return n / np.linalg.norm(n)


ANGLE = st.floats(-10.0, 10.0) | st.sampled_from(
    [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 2 * math.pi])


@given(st.lists(st.tuples(ANGLE, ANGLE), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_unit_normal_batch_is_the_matrix_form_bit_for_bit(pairs):
    # bytes, so a zero component must also carry the matrix form's sign
    ay, az = np.array(pairs).T
    want = np.array([_unit_normal_matrices(a, z) for a, z in pairs])
    assert unit_normal(ay, az).tobytes() == want.tobytes()
    assert unit_normal(float(ay[0]), float(az[0])).tobytes() == want[0].tobytes()
    assert unit_normal(ay[:, None], az).shape == (len(pairs), len(pairs), 3)


@given(st.floats(-1.5, 1.5), st.floats(-3.1, 3.1))
@settings(max_examples=100, deadline=None)
def test_angles_for_direction_round_trip(ay, az):
    n = unit_normal(ay, az)
    ay2, az2 = angles_for_direction(n)
    assert np.allclose(unit_normal(ay2, az2), n, atol=1e-12)


@given(st.floats(-50, 50, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_normalize_angle_range_and_equivalence(t):
    n = normalize_angle(t)
    assert -math.pi < n <= math.pi + 1e-12
    assert math.isclose(math.cos(n), math.cos(t), abs_tol=1e-9)
    assert math.isclose(math.sin(n), math.sin(t), abs_tol=1e-9)


def _remainder_angle(a):
    """normalize_angle's scalar form: math.remainder, then -pi moved to +pi."""
    r = math.remainder(float(a), TAU)
    if r <= -math.pi:
        r += TAU
    return r


_PI_NEIGHBOURS = [math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0)]


@given(st.lists(st.floats(-20 * math.pi, 20 * math.pi) | st.floats(-1e6, 1e6), min_size=1,
                max_size=20))
@example([math.pi, -math.pi, *_PI_NEIGHBOURS, *(-x for x in _PI_NEIGHBOURS)])
@example([3 * math.pi, -3 * math.pi, 20 * math.pi, -20 * math.pi, -0.0, 0.0])
@settings(max_examples=300, deadline=None)
def test_normalize_angle_is_the_remainder_form_bit_for_bit(angles):
    want = np.array([_remainder_angle(a) for a in angles])
    assert normalize_angle(np.array(angles)).tobytes() == want.tobytes()
    for a, w in zip(angles, want):
        got = normalize_angle(a)
        assert type(got) is float and np.array(got).tobytes() == w.tobytes()


@given(st.lists(st.tuples(ANGLE, ANGLE, ANGLE), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_euler_to_matrix_batch_is_the_matrix_product_bit_for_bit(triples):
    want = np.array([rot_z(az) @ rot_y(ay) @ rot_x(ax) for ax, ay, az in triples])
    ax, ay, az = np.array(triples).T
    assert euler_to_matrix(ax, ay, az).tobytes() == want.tobytes()
    assert euler_to_matrix(*triples[0]).tobytes() == want[0].tobytes()


def test_euler_matrix_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ax, ay, az = rng.uniform(-np.pi, np.pi, 3)
        R = euler_to_matrix(ax, ay, az)
        R2 = euler_to_matrix(*matrix_to_euler(R))
        assert np.allclose(R, R2, atol=1e-10)


def test_magnet_pose_standoff_geometry():
    sample = np.array([0.2, 0.0, 0.3])
    pose = magnet_pose_for_field_direction(sample, 0.4, 1.0, 0.16)
    assert math.isclose(np.linalg.norm(sample - pose.position), 0.16, abs_tol=1e-12)
    # the magnet axis points from the magnet toward the sample
    axis = pose.rotation() @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(axis, (sample - pose.position) / 0.16, atol=1e-12)
    with pytest.raises(ValueError):
        magnet_pose_for_field_direction(sample, 0.0, 0.0, -0.1)


def test_quantize_position():
    p = quantize_position([0.10024, -0.00026, 0.3], resolution=0.0005)
    assert np.allclose(p, [0.1, -0.0005, 0.3])
