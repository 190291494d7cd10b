"""Small rotation helpers shared by the kinematics and field modules.

Euler convention used throughout the package: extrinsic rotations about the
fixed world axes, applied x first, then y, then z, i.e.

    R(ax, ay, az) = Rz(az) @ Ry(ay) @ Rx(ax)
"""

import math

import numpy as np

TAU = 2.0 * math.pi


def normalize_angle(a):
    """Wrap angles to (-pi, pi], ties toward +pi; an array broadcasts, a scalar gives a float.

    fmod and each 2 pi correction are exact, so each result is math.remainder(a, TAU),
    moved into (-pi, pi], bit for bit."""
    r = np.fmod(a, TAU)
    r = np.where(r > math.pi, r - TAU, np.where(r <= -math.pi, r + TAU, r))
    return float(r) if r.ndim == 0 else r


def row_dot(a, b) -> np.ndarray:
    """Dot products of the last axes of two broadcasting (..., k) arrays.

    Each row is rounded as `a @ b` rounds one pair of vectors, which
    np.einsum and np.linalg.norm(axis=-1) do not always match.
    """
    return (np.asarray(a)[..., None, :] @ np.asarray(b)[..., :, None])[..., 0, 0]


def euler_to_matrix(ax, ay, az) -> np.ndarray:
    """Rz(az) @ Ry(ay) @ Rx(ax); angle arrays of shape (...) give (..., 3, 3)."""
    angles = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (az, ay, ax)))
    R = np.zeros((3,) + angles[0].shape + (3, 3))
    for M, a, (i, j) in zip(R, angles, ((0, 1), (2, 0), (1, 2))):  # the plane each turns
        c, s = np.cos(a), np.sin(a)
        M[..., i, i] = M[..., j, j] = c
        M[..., i, j], M[..., j, i] = -s, s
        M[..., 3 - i - j, 3 - i - j] = 1.0
    return R[0] @ R[1] @ R[2]


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
