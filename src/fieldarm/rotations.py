"""Small rotation helpers shared by the kinematics and field modules.

Euler convention used throughout the package: extrinsic rotations about the
fixed world axes, applied x first, then y, then z, i.e.

    R(ax, ay, az) = Rz(az) @ Ry(ay) @ Rx(ax)
"""

import math

import numpy as np

TAU = 2.0 * math.pi


def normalize_angle(a: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi], ties toward +pi."""
    r = math.remainder(float(a), TAU)
    if r <= -math.pi:
        r += TAU
    return r


def row_dot(a, b) -> np.ndarray:
    """Dot products of the last axes of two broadcasting (..., k) arrays.

    Each row is rounded as `a @ b` rounds one pair of vectors, which
    np.einsum and np.linalg.norm(axis=-1) do not always match.
    """
    return (np.asarray(a)[..., None, :] @ np.asarray(b)[..., :, None])[..., 0, 0]


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_to_matrix(ax: float, ay: float, az: float) -> np.ndarray:
    return rot_z(az) @ rot_y(ay) @ rot_x(ax)


def matrix_to_euler(R: np.ndarray) -> tuple[float, float, float]:
    """Inverse of euler_to_matrix; gimbal singularity resolved with ax = 0."""
    sy = -R[2, 0]
    sy = min(1.0, max(-1.0, sy))
    ay = math.asin(sy)
    if abs(sy) > 1.0 - 1e-12:
        # cos(ay) ~ 0: only az - sign(sy)*ax observable
        ax = 0.0
        az = math.atan2(-R[0, 1], R[1, 1])
    else:
        ax = math.atan2(R[2, 1], R[2, 2])
        az = math.atan2(R[1, 0], R[0, 0])
    return normalize_angle(ax), normalize_angle(ay), normalize_angle(az)


def rotvec_from_matrix(R: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a rotation matrix (angle in [0, pi])."""
    cos_a = (np.trace(R) - 1.0) / 2.0
    cos_a = min(1.0, max(-1.0, cos_a))
    angle = math.acos(cos_a)
    if angle < 1e-10:
        return np.zeros(3)
    if angle > math.pi - 1e-6:
        # near pi: extract axis from the symmetric part
        A = (R + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(A), 0.0))
        # fix signs from off-diagonal terms
        k = int(np.argmax(axis))
        for i in range(3):
            if i != k and A[k, i] < 0:
                axis[i] = -axis[i]
        n = np.linalg.norm(axis)
        return angle * axis / n
    v = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return v * (angle / (2.0 * math.sin(angle)))
