"""Pose algebra and forward/inverse kinematics of a 6-DoF serial arm.

Joint frames follow the classic Denavit-Hartenberg convention
(A_i = Rz(theta) Tz(d) Tx(a) Rx(alpha)); the tool centre point is offset
along the end-effector x-axis.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import JointLimitViolation, NoSolution
from .rotations import euler_to_matrix, matrix_to_euler, normalize_angle, row_dot, rotvec_from_matrix

N_JOINTS = 6


@dataclass(frozen=True)
class Pose:
    """Position (m) and extrinsic x-y-z Euler orientation (rad), world frame."""

    x: float
    y: float
    z: float
    alpha_x: float = 0.0
    alpha_y: float = 0.0
    alpha_z: float = 0.0

    def __post_init__(self):
        for name in ("alpha_x", "alpha_y", "alpha_z"):
            object.__setattr__(self, name, normalize_angle(getattr(self, name)))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def axis(self) -> np.ndarray:
        """Local x-axis in the world frame (a magnet pose's magnetisation axis)."""
        return unit_normal(self.alpha_y, self.alpha_z)

    def rotation(self) -> np.ndarray:
        return euler_to_matrix(self.alpha_x, self.alpha_y, self.alpha_z)

    def matrix(self) -> np.ndarray:
        return pose_frames(self.position, self.alpha_x, self.alpha_y, self.alpha_z)

    @classmethod
    def from_matrix(cls, T: np.ndarray) -> "Pose":
        ax, ay, az = matrix_to_euler(np.asarray(T)[:3, :3])
        return cls(T[0, 3], T[1, 3], T[2, 3], ax, ay, az)

    def with_position(self, p) -> "Pose":
        return Pose(*np.asarray(p, dtype=float), self.alpha_x, self.alpha_y, self.alpha_z)


def pose_frames(positions, alpha_x, alpha_y, alpha_z) -> np.ndarray:
    """Homogeneous matrices (..., 4, 4) of positions (..., 3) and Euler angles (...)."""
    R = euler_to_matrix(alpha_x, alpha_y, alpha_z)
    T = np.zeros(R.shape[:-2] + (4, 4))
    T[..., :3, :3], T[..., :3, 3], T[..., 3, 3] = R, positions, 1.0
    return T


@dataclass(frozen=True)
class DHTable:
    """Denavit-Hartenberg description of the 6-joint arm plus tool offset."""

    a: np.ndarray            # link lengths, m
    alpha: np.ndarray        # link twists, rad
    d: np.ndarray            # link offsets, m
    theta_offset: np.ndarray  # joint-angle offsets, rad
    q_min: np.ndarray        # lower joint limits, rad
    q_max: np.ndarray        # upper joint limits, rad
    tool_offset: float       # TCP offset along end-effector x-axis, m
    link_radii: np.ndarray = field(default=None)  # collision capsule radii, m (7 entries)

    def __post_init__(self):
        for name in ("a", "alpha", "d", "theta_offset", "q_min", "q_max"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (N_JOINTS,):
                raise ValueError(f"DH field '{name}' must have exactly {N_JOINTS} entries")
            object.__setattr__(self, name, arr)
        if self.tool_offset < 0:
            raise ValueError("tool_offset must be >= 0")
        if np.any(self.q_min >= self.q_max):
            raise ValueError("joint limits must satisfy q_min < q_max")
        if self.link_radii is None:
            object.__setattr__(self, "link_radii", np.full(N_JOINTS + 1, 0.04))
        else:
            r = np.asarray(self.link_radii, dtype=float)
            if r.shape != (N_JOINTS + 1,):
                raise ValueError("link_radii must have 7 entries (6 links + tool)")
            if not np.all(r > 0):
                raise ValueError("capsule radii must be > 0")
            object.__setattr__(self, "link_radii", r)

    def check_limits(self, q: np.ndarray):
        q = np.asarray(q, dtype=float)
        bad = np.where((q < self.q_min - 1e-12) | (q > self.q_max + 1e-12))[0]
        if bad.size:
            i = int(bad[0])
            raise JointLimitViolation(
                f"joint {i + 1} at {q[i]:.4f} rad outside [{self.q_min[i]:.4f}, {self.q_max[i]:.4f}]"
            )

    def home(self) -> np.ndarray:
        return np.clip(np.zeros(N_JOINTS), self.q_min, self.q_max)


def default_dh_table() -> DHTable:
    """Nominal 6-joint table with plausible small-arm link lengths.

    These are NOT measured values for any specific robot; they exist so the
    toolkit runs out of the box. Real deployments load their own table.
    """
    lim = np.deg2rad(175.0)
    return DHTable(
        a=np.array([0.021, 0.21, 0.0315, 0.0, 0.0, 0.0]),
        alpha=np.array([np.pi / 2, 0.0, np.pi / 2, -np.pi / 2, np.pi / 2, 0.0]),
        d=np.array([0.183, 0.0, 0.0, 0.235, 0.0, 0.087]),
        theta_offset=np.array([0.0, np.pi / 2, 0.0, 0.0, 0.0, 0.0]),
        q_min=np.array([-lim, -np.deg2rad(120.0), -np.deg2rad(150.0), -lim, -np.deg2rad(135.0), -lim]),
        q_max=np.array([lim, np.deg2rad(120.0), np.deg2rad(150.0), lim, np.deg2rad(135.0), lim]),
        tool_offset=0.04,
    )


def frame_chain(dh: DHTable, q: np.ndarray) -> np.ndarray:
    """All cumulative frames of joint configurations q (..., 6): base, joints
    1..6 and the TCP, as a (..., 8, 4, 4) array (one q gives (8, 4, 4)).

    A_i = Rz(theta) Tz(d) Tx(a) Rx(alpha). Every configuration runs the same
    per-matrix products, so its frames do not depend on the batch it is in.
    """
    q = np.asarray(q, dtype=float)
    theta = q + dh.theta_offset
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = np.cos(dh.alpha), np.sin(dh.alpha)
    A = np.zeros(q.shape + (4, 4))
    A[..., 0, 0] = ct
    A[..., 0, 1] = -st * ca
    A[..., 0, 2] = st * sa
    A[..., 0, 3] = dh.a * ct
    A[..., 1, 0] = st
    A[..., 1, 1] = ct * ca
    A[..., 1, 2] = -ct * sa
    A[..., 1, 3] = dh.a * st
    A[..., 2, 1] = sa
    A[..., 2, 2] = ca
    A[..., 2, 3] = dh.d
    A[..., 3, 3] = 1.0
    frames = np.empty(q.shape[:-1] + (N_JOINTS + 2, 4, 4))
    frames[..., 0, :, :] = np.eye(4)
    frames[..., 1, :, :] = A[..., 0, :, :]
    for i in range(1, N_JOINTS):
        np.matmul(frames[..., i, :, :], A[..., i, :, :], out=frames[..., i + 1, :, :])
    tool = np.eye(4)
    tool[0, 3] = dh.tool_offset
    np.matmul(frames[..., -2, :, :], tool, out=frames[..., -1, :, :])
    return frames


def fk_matrix(dh: DHTable, q: np.ndarray) -> np.ndarray:
    return frame_chain(dh, q)[..., -1, :, :]


def forward_kinematics(dh: DHTable, q: np.ndarray) -> Pose:
    """TCP pose for a joint configuration; raises on joint-limit violation."""
    dh.check_limits(q)
    return Pose.from_matrix(fk_matrix(dh, q))


POS_TOL = 1e-4   # m
ROT_TOL = 1e-3   # rad
LIMIT_SLACK = 1e-6  # rad, closed-form IK angles this far outside a joint limit are clipped
# the damped least-squares (DLS) search of tables without a spherical wrist
DLS_DAMPING = 0.01  # damping of each solve
DLS_MAX_ITER = 500  # iterations per solve
DLS_STALL = 30      # iterations without progress after which a solve fails
DLS_BRANCHES = 6    # solutions the search yields at most
DLS_RESTARTS = 10   # random restarts: DLS_RESTARTS + 1 failed solves in a row end the search


def _pose_error(T_target: np.ndarray, T_current: np.ndarray) -> np.ndarray:
    e = np.empty(6)
    e[:3] = T_target[:3, 3] - T_current[:3, 3]
    e[3:] = rotvec_from_matrix(T_target[:3, :3] @ T_current[:3, :3].T)
    return e


def _jacobian_from_frames(frames) -> np.ndarray:
    """Geometric 6x6 Jacobian (linear on top, angular below) at the TCP."""
    z, o = frames[:N_JOINTS, :3, 2], frames[:N_JOINTS, :3, 3]
    # C order: the DLS solve rounds differently on a transposed view
    return np.ascontiguousarray(np.hstack([np.cross(z, frames[-1, :3, 3] - o), z]).T)


def _dls_solve(dh, T_target, q0):
    """One DLS solve with joint-limit clamping from q0; None if it fails."""
    q = np.clip(np.asarray(q0, dtype=float).copy(), dh.q_min, dh.q_max)
    lam2 = DLS_DAMPING * DLS_DAMPING
    eye6 = np.eye(6)
    best = np.inf
    stall = 0
    for _ in range(DLS_MAX_ITER):
        frames = frame_chain(dh, q)
        e = _pose_error(T_target, frames[-1])
        if np.linalg.norm(e[:3]) <= 0.5 * POS_TOL and np.linalg.norm(e[3:]) <= 0.5 * ROT_TOL:
            return q
        err = np.linalg.norm(e)
        if err < best - 1e-12:
            best = err
            stall = 0
        else:
            stall += 1
            if stall > DLS_STALL:  # clamped into a corner or wrong branch
                return None
        J = _jacobian_from_frames(frames)
        dq = J.T @ np.linalg.solve(J @ J.T + lam2 * eye6, e)
        step = np.linalg.norm(dq)
        if step > 0.5:
            dq *= 0.5 / step
        q = np.clip(q + dq, dh.q_min, dh.q_max)
    e = _pose_error(T_target, fk_matrix(dh, q))
    if np.linalg.norm(e[:3]) <= POS_TOL and np.linalg.norm(e[3:]) <= ROT_TOL:
        return q
    return None


def has_spherical_wrist(dh: DHTable) -> bool:
    """True when Pieper's closed form applies to the table (joints 1-based).

    The wrist axes (joints 4-6) meet in one point: a4 = a5 = d5 = 0,
    alpha4 = -pi/2, alpha5 = +pi/2, alpha6 = 0. The arm (joints 1-3) keeps
    that point in the vertical plane through the base axis at azimuth
    theta1: alpha1 = +-pi/2, alpha2 = 0 and no lateral offset,
    d2 + d3 + d4 cos(alpha3) = 0. Each must hold within 1e-6, since configs
    store pi/2 to 11 digits; a loose test is safe because ik_branch_array keeps
    only branches whose forward kinematics match.
    """
    a, alpha, d = dh.a, dh.alpha, dh.d
    zero = [a[3], a[4], d[4], alpha[5], alpha[1], np.cos(alpha[0]),
            d[1] + d[2] + d[3] * np.cos(alpha[2]), alpha[3] + np.pi / 2, alpha[4] - np.pi / 2]
    return bool(np.all(np.abs(zero) <= 1e-6))


def _arm_joints(q1, q2=0.0, q3=0.0) -> np.ndarray:
    """Joint arrays (..., 6) with the given arm angles and the wrist at zero."""
    q1, q2, q3 = np.broadcast_arrays(q1, q2, q3)
    zero = np.zeros(q1.shape)
    return np.stack([q1, q2, q3, zero, zero, zero], axis=-1)


def ik_branch_array(dh: DHTable, targets) -> tuple[np.ndarray, np.ndarray]:
    """Every IK branch of a spherical-wrist table for a stack of targets (Pieper).

    `targets` is (N, 4, 4), homogeneous TCP matrices. Returns the joints
    (N, 8, 6) and a mask (N, 8) of the branches that exist; slot 4 i + 2 j + k
    holds shoulder i, elbow j, wrist flip k. The wrist centre w follows from
    the target alone. Joint 1 points the arm plane at w (two ways);
    |w - joint-2 origin|^2 = A + B cos q3 + C sin q3, with A, B, C fitted from
    the frame chain at three elbow angles, gives two elbows; q2 is the
    rotation about z1 that carries the wrist onto w. The wrist rotation is
    Rz(q4) Ry(q5) Rz(q6) (plus offsets), which gives two flips. Each angle is
    shifted by 2 pi into the joint limits; a slot is kept only if its forward
    kinematics reach the target within POS_TOL/ROT_TOL and no earlier kept
    slot holds the same joints (within 1e-9 rad). All steps are elementwise
    per target, so a target's branches do not depend on its batch.
    """
    T = np.asarray(targets, dtype=float)
    R = T[:, :3, :3]
    off = dh.theta_offset
    w = T[:, :3, 3] - (dh.tool_offset + dh.a[5]) * R[:, :, 0] - dh.d[5] * R[:, :, 2]
    fit = frame_chain(dh, _arm_joints(0.0, 0.0, np.array([0.0, np.pi / 2, np.pi])))
    f = np.sum((fit[:, 4, :3, 3] - fit[:, 1, :3, 3]) ** 2, axis=-1)
    A = (f[0] + f[2]) / 2.0
    B = (f[0] - f[2]) / 2.0
    C = f[1] - A
    q1 = np.arctan2(w[:, 1], w[:, 0])[:, None] + np.array([0.0, np.pi]) - off[0]  # (N, 2)
    o1 = frame_chain(dh, _arm_joints(q1))[..., 1, :3, 3]
    v = w[:, None, :] - o1
    k = (np.sum(v ** 2, axis=-1) - A) / np.hypot(B, C)
    elbow = np.arccos(np.clip(k, -1.0, 1.0))
    q3 = np.arctan2(C, B) + elbow[..., None] * np.array([1.0, -1.0])  # (N, 2, 2)
    frames = frame_chain(dh, _arm_joints(q1[..., None], 0.0, q3))
    z1 = frames[..., 1, :3, 2]
    u = frames[..., 4, :3, 3] - o1[:, :, None]
    v = np.broadcast_to(v[:, :, None], u.shape)
    u = u - np.sum(u * z1, axis=-1, keepdims=True) * z1
    v = v - np.sum(v * z1, axis=-1, keepdims=True) * z1
    q2 = np.arctan2(np.sum(z1 * np.cross(u, v), axis=-1), np.sum(u * v, axis=-1))
    R3 = frame_chain(dh, _arm_joints(q1[..., None], q2, q3))[..., 3, :3, :3]
    M = np.matmul(np.swapaxes(R3, -1, -2), R[:, None, None])[..., None, :, :]  # (N, 2, 2, 1, 3, 3)
    sign = np.array([1.0, -1.0])
    s5 = sign * np.hypot(M[..., 0, 2], M[..., 1, 2])
    t5 = np.arctan2(s5, M[..., 2, 2])
    # wrist singularity (q5 + offset = 0 or pi, c5 = cos t5 = +-1): M fixes
    # only q6 + c5 q4 = y (wrapped), so take q4 = c5 y / 2 and q6 = y / 2, both
    # within pi / 2 of zero; q4 = 0 would put q6 past a limit for |y| near pi
    c5 = M[..., 2, 2]
    y = np.arctan2(M[..., 1, 0], M[..., 1, 1]) - c5 * off[3] - off[5]
    y = np.arctan2(np.sin(y), np.cos(y))
    t4 = np.where(np.abs(s5) > 1e-12,
                  np.arctan2(sign * M[..., 1, 2], sign * M[..., 0, 2]), off[3] + c5 * y / 2.0)
    c4, s4, c5 = np.cos(t4), np.sin(t4), np.cos(t5)
    # (Rz(t4) Ry(t5))^T M = Rz(theta6): its first column
    t6 = np.arctan2(-s4 * M[..., 0, 0] + c4 * M[..., 1, 0],
                    c4 * c5 * M[..., 0, 0] + s4 * c5 * M[..., 1, 0] - np.sin(t5) * M[..., 2, 0])
    q = np.stack(np.broadcast_arrays(q1[..., None, None], q2[..., None], q3[..., None],
                                     t4 - off[3], t5 - off[4], t6 - off[5]), axis=-1)
    q = q.reshape(-1, 8, N_JOINTS)
    # the 2 pi shift of each angle at or just above q_min; the slack keeps an
    # angle that atan2 puts just outside a limit (q1 lands 8e-9 rad below
    # q_min with the wrist centre 0.3 mm off the base axis), and the FK check
    # below arbitrates
    q = np.remainder(q - dh.q_min + LIMIT_SLACK, 2.0 * np.pi) + dh.q_min - LIMIT_SLACK
    ok = np.repeat(np.abs(k) <= 1.0 + 1e-9, 4, axis=1)
    ok &= np.all(q <= dh.q_max + LIMIT_SLACK, axis=-1)
    q = np.clip(q, dh.q_min, dh.q_max)
    reached = frame_chain(dh, q)[..., -1, :, :]
    pos_err = np.sqrt(np.sum((T[:, None, :3, 3] - reached[..., :3, 3]) ** 2, axis=-1))
    cos_rot = (np.sum(R[:, None] * reached[..., :3, :3], axis=(-2, -1)) - 1.0) / 2.0
    ok &= (pos_err <= POS_TOL) & (np.arccos(np.clip(cos_rot, -1.0, 1.0)) <= ROT_TOL)
    for j in range(1, 8):
        same = np.max(np.abs(q[:, :j] - q[:, j:j + 1]), axis=-1) <= 1e-9
        ok[:, j] &= ~np.any(same & ok[:, :j], axis=1)
    return q, ok


def nearest_first(branches, seed) -> list[int]:
    """Indices of `branches` by distance to `seed`, nearest first (ties keep their order)."""
    return sorted(range(len(branches)), key=lambda j: float(np.linalg.norm(branches[j] - seed)))


def ik_solutions(dh: DHTable, target: np.ndarray, seed: np.ndarray = None, rng=None):
    """Joints reaching the TCP frame `target` (4, 4) within POS_TOL/ROT_TOL, best first.

    A spherical-wrist table yields its ik_branch_array branches, nearest `seed`
    first (`rng` is unused). Any other table runs one seeded DLS search: it
    solves from `seed`, and after every solve draws the next start uniformly
    from `rng` (a Generator, or a seed for np.random.default_rng; default 0).
    It stops after DLS_BRANCHES solutions, or after DLS_RESTARTS + 1 failed
    solves in a row. A target beyond the arm's reach yields nothing.
    """
    if seed is None:
        seed = dh.home()
    dh.check_limits(seed)
    if has_spherical_wrist(dh):
        q, ok = ik_branch_array(dh, target[None])
        branches = q[0, ok[0]]
        yield from (branches[j] for j in nearest_first(branches, seed))
        return
    reach = float(np.sum(np.abs(dh.a)) + np.sum(np.abs(dh.d)) + dh.tool_offset)
    if np.linalg.norm(target[:3, 3]) > reach:
        return
    rng = np.random.default_rng(0 if rng is None else rng)
    q0, found, failed = seed, 0, 0
    while found < DLS_BRANCHES:
        q = _dls_solve(dh, target, q0)
        if q is not None:
            found, failed = found + 1, 0
            yield q
        elif failed == DLS_RESTARTS:
            return
        else:
            failed += 1
        q0 = rng.uniform(dh.q_min, dh.q_max)


def inverse_kinematics(dh: DHTable, target: Pose, seed: np.ndarray = None, rng=None) -> np.ndarray:
    """The first of ik_solutions for the Pose `target`; raises NoSolution when there is none."""
    for q in ik_solutions(dh, target.matrix(), seed, rng):
        return q
    raise NoSolution("no inverse-kinematics solution reaches the pose")


def unit_normal(alpha_y, alpha_z) -> np.ndarray:
    """World x-axis rotated by alpha_y about y, then alpha_z about z.

    Equals (cos az cos ay, sin az cos ay, -sin ay); always unit norm.
    Broadcasts: angle arrays of shape (...) give normals of shape (..., 3).
    """
    ay, az = np.asarray(alpha_y, dtype=float), np.asarray(alpha_z, dtype=float)
    cy = np.cos(ay)
    # the + 0.0 and 0.0 - write a zero component as +0.0, as Rz(az) Ry(ay) e_x does
    n = np.stack(np.broadcast_arrays(np.cos(az) * cy + 0.0, np.sin(az) * cy + 0.0,
                                     0.0 - np.sin(ay)), axis=-1)
    return n / np.sqrt(row_dot(n, n))[..., None]


def magnet_poses(sample, alpha_y, alpha_z, standoff):
    """The magnet poses of field directions: the angles (...) wrapped to (-pi, pi],
    the axes n (..., 3) of the wrapped direction and the positions sample - standoff*n."""
    if standoff <= 0:
        raise ValueError("standoff must be > 0")
    alpha_y, alpha_z = normalize_angle(alpha_y), normalize_angle(alpha_z)
    n = unit_normal(alpha_y, alpha_z)
    return alpha_y, alpha_z, n, np.asarray(sample, dtype=float) - standoff * n


def magnet_pose_for_field_direction(sample, alpha_y: float, alpha_z: float, standoff: float) -> Pose:
    """The Pose of magnet_poses for one direction (position and axis as documented there)."""
    ay, az, _, p = magnet_poses(sample, alpha_y, alpha_z, standoff)
    return Pose(p[0], p[1], p[2], 0.0, ay, az)


def angles_for_direction(n) -> tuple[float, float]:
    """(alpha_y, alpha_z) such that unit_normal(alpha_y, alpha_z) == n-hat."""
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    ay = -np.arcsin(np.clip(n[2], -1.0, 1.0))
    az = np.arctan2(n[1], n[0]) if np.hypot(n[0], n[1]) > 1e-15 else 0.0
    return normalize_angle(float(ay)), normalize_angle(float(az))


def quantize_position(p, resolution: float = 0.0005) -> np.ndarray:
    """Snap a position to the robot's linear resolution grid (default 0.5 mm)."""
    p = np.asarray(p, dtype=float)
    return np.round(p / resolution) * resolution
