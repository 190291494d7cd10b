"""Field-generation algorithms: sphere-segment scans, offset calibration,
amplitude scheduling against the 1/r^3 fall-off, the Gaussian similarity
metric, and replacement of collision-forbidden poses via the inverse dipole
problem.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import (FinalPoseForbidden, FitDiverged, InsufficientData, NoReachableDisplacement,
                     TargetUnreachable, ZeroField)
from .kinematics import Pose, angles_for_direction, has_spherical_wrist, quantize_position, unit_normal
from .magnetostatics import (MAX_DISTANCE_M, SCHEDULE_MAX_DISTANCE_M, MagnetSpec, cylinder_field,
                             inverse_dipole)
from .rotations import row_dot

SIMILARITY_SCALE_MT = 3.0  # Gaussian kernel length scale, millitesla
BISECT_LEVELS = 5  # bisection levels decided per magnitude evaluation
MAGNITUDE_TOL_M = 1e-9  # bisection tolerance of both magnitude searches


class ScanPoint(NamedTuple):
    alpha_y: float
    alpha_z: float
    pose: Pose
    predicted_field: np.ndarray   # T, world frame
    order_index: int


class CalibrationResult(NamedTuple):
    delta_alpha_y: float          # rad, shared across mass configurations
    delta_alpha_z: np.ndarray     # rad, one per mass configuration
    residual_rms: float           # T


class AmplitudeSchedule(NamedTuple):
    targets: np.ndarray      # T
    distances: np.ndarray    # m, quantised to the robot resolution
    achieved: np.ndarray     # T
    errors: np.ndarray       # T, achieved - target
    error_bounds: np.ndarray  # T, worst case of |error| over the snap window


class ReplacementPlan(NamedTuple):
    original_pose: Pose
    displaced_pose: Pose
    rotated_pose: Pose
    final_pose: Pose
    target_field: np.ndarray
    achieved_field: np.ndarray
    similarity: float
    far_field_ok: bool
    identity: bool = False


def sphere_segment_scan(sample, alpha_y_values, alpha_z_values, standoff,
                        spec: MagnetSpec) -> list[ScanPoint]:
    """Enumerate magnet poses over the (alpha_y, alpha_z) grid in meander order.

    Row k (fixed alpha_y) traverses alpha_z ascending when k is even,
    descending when odd. Predicted fields come from the cylinder model.
    """
    if standoff <= 0:
        raise ValueError("standoff must be > 0")
    ay_vals = np.atleast_1d(np.asarray(alpha_y_values, dtype=float))
    az_vals = np.atleast_1d(np.asarray(alpha_z_values, dtype=float))
    if ay_vals.size == 0 or az_vals.size == 0:
        raise ValueError("scan grid must be non-empty")
    sample = np.asarray(sample, dtype=float)
    az_grid = np.tile(az_vals, (ay_vals.size, 1))
    az_grid[1::2] = az_grid[1::2, ::-1]
    ay, az = np.repeat(ay_vals, az_vals.size), az_grid.ravel()
    positions = sample - standoff * unit_normal(ay, az)
    poses = [Pose(*p, 0.0, a, z) for p, a, z in zip(positions, ay, az)]
    # a pose's axis comes from its angles wrapped to (-pi, pi]
    axes = unit_normal([p.alpha_y for p in poses], [p.alpha_z for p in poses])
    fields = cylinder_field(spec, positions, axes, sample)
    return [ScanPoint(float(a), float(z), pose, B, i)
            for i, (a, z, pose, B) in enumerate(zip(ay, az, poses, fields))]


def angular_error(predicted, designed_direction):
    """Angle (rad) between field vectors and designed directions, row by row.

    Broadcasts over (..., 3) arrays; one pair of vectors gives a float.
    Raises ZeroField if any field vector is zero.
    """
    B = np.asarray(predicted, dtype=float)
    n = np.asarray(designed_direction, dtype=float)
    nb = np.sqrt(row_dot(B, B))
    if np.any(nb == 0.0):
        raise ZeroField("angular error undefined for zero field")
    c = row_dot(B, n) / (nb * np.sqrt(row_dot(n, n)))
    err = np.arccos(np.clip(c, -1.0, 1.0))
    return float(err) if err.ndim == 0 else err


def calibrate_offsets(measured, spec: MagnetSpec, sample, standoff) -> CalibrationResult:
    """Fit a shared alpha_y offset and per-mass alpha_z offsets to field data.

    `measured` rows: (commanded alpha_y, commanded alpha_z, mass_index,
    Bx, By, Bz) with fields in tesla. The magnet is the same in every mass
    configuration; only its alpha_z offset differs.
    """
    from .lsq import least_squares  # deferred: of the alignment steps, only calibrate fits
    if standoff <= 0:
        raise ValueError("standoff must be > 0")
    mass = [int(row[2]) for row in measured]
    n_mass = max(mass) + 1
    for m in range(n_mass):  # stops by m = len(mass) / 4, however large an index is
        if mass.count(m) < 4:
            raise InsufficientData(f"mass configuration {m} has fewer than 4 measurements")
    ay, az, B_meas = (np.array([row[i] for row in measured], dtype=float) for i in (0, 1, 3))
    mass = np.array(mass)
    sample = np.asarray(sample, dtype=float)

    def residual(params):
        n = unit_normal(ay + params[..., :1], az + params[..., 1 + mass])
        B = cylinder_field(spec, sample - standoff * n, n, sample)
        return (B - B_meas).reshape(*params.shape[:-1], -1)

    sol = least_squares(residual, np.zeros(1 + n_mass), tol=1e-14)
    if not sol.success or not np.all(np.isfinite(sol.x)):
        raise FitDiverged("offset calibration failed to converge")
    res = sol.fun
    return CalibrationResult(
        delta_alpha_y=float(sol.x[0]),
        delta_alpha_z=sol.x[1:].copy(),
        residual_rms=float(np.sqrt(np.mean(res**2))),
    )


def bisect_decreasing(magnitude, targets, lo, hi, tol):
    """Bisect brackets [lo, hi] of a decreasing magnitude until hi - lo <= tol.

    Where magnitude(mid) > target, `lo` moves up to mid; elsewhere `hi` moves
    down to it. Each call of `magnitude` gets, for every open bracket, the
    2^k - 1 midpoints of the next k = BISECT_LEVELS levels as an (n, 2^k - 1)
    array: a breadth-first tree whose node i has children 2i + 1 (lo = mid)
    and 2i + 2 (hi = mid). Walking the tree takes the decisions, and returns
    the brackets, of a loop that bisects one level per call.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    targets = np.broadcast_to(targets, lo.shape)
    while (open_ := np.flatnonzero(hi - lo > tol)).size:
        l, h = lo[open_], hi[open_]
        tree_lo, tree_hi, mids = l[:, None], h[:, None], []
        for _ in range(BISECT_LEVELS):
            mids.append((tree_lo + tree_hi) / 2.0)
            tree_lo = np.stack([mids[-1], tree_lo], axis=-1).reshape(len(l), -1)
            tree_hi = np.stack([tree_hi, mids[-1]], axis=-1).reshape(len(l), -1)
        mid = np.concatenate(mids, axis=1)
        above = magnitude(mid) > targets[open_, None]
        rows, node = np.arange(len(l)), np.zeros(len(l), dtype=int)
        for _ in range(BISECT_LEVELS):
            live, up, m = h - l > tol, above[rows, node], mid[rows, node]
            l = np.where(live & up, m, l)
            h = np.where(live & ~up, m, h)
            node = 2 * node + 2 - up
        lo[open_], hi[open_] = l, h
    return lo, hi


def _ray_magnitude(spec: MagnetSpec, sample, ray, axis):
    """r (any shape) -> |B| at the sample of the magnet with `axis` at sample - r * ray."""
    def magnitude(r):
        B = cylinder_field(spec, sample - np.asarray(r, dtype=float)[..., None] * ray, axis, sample)
        return np.sqrt(row_dot(B, B))
    return magnitude


def _bisect_held(magnitude, targets, lo, hi, tol):
    """bisect_decreasing, once one magnitude call at both ends shows that each
    bracket [lo, hi] holds its target; else TargetUnreachable for the first.

    Both magnitude searches bracket their ray from the magnet's clearance
    radius and assume that |B| falls along it from there, so a bracket holds
    the targets in [|B|(hi), |B|(lo)]. A thin wide-bore ring breaks that: its
    on-axis |B| still rises beyond the clearance radius, so a target that
    only that rise reaches is refused by replace, as by schedule.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    B_hi, B_lo = (np.broadcast_to(B, targets.shape) for B in magnitude(np.array([lo, hi])))
    unreachable = ~((targets >= B_lo) & (targets <= B_hi))
    if np.any(unreachable):
        i = np.argmax(unreachable)
        raise TargetUnreachable(
            f"target {targets[i]:.4e} T outside achievable [{B_lo[i]:.4e}, {B_hi[i]:.4e}] T"
        )
    return bisect_decreasing(magnitude, targets, np.broadcast_to(lo, targets.shape),
                             np.broadcast_to(hi, targets.shape), tol)


def amplitude_schedule(targets, spec: MagnetSpec, direction, sample,
                       resolution=0.0005) -> AmplitudeSchedule:
    """Pick magnet distances realising each target amplitude on a fixed ray.

    Inverts the monotone |B|(r) curve on [r_min, SCHEDULE_MAX_DISTANCE_M] by
    _bisect_held to MAGNITUDE_TOL_M, snaps each distance to the robot
    resolution grid, and reports the achieved field and signed error. The
    error bound is the worst case over the snap window: with h = resolution / 2,
    max(|B|(max(r_min, r - h)) - t, t - |B|(r + h)), which |error| never
    exceeds because |B|(r) falls monotonically.
    """
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    sample = np.asarray(sample, dtype=float)
    r_min = spec.length / 2.0 + spec.outer_radius  # just clear of the magnet body
    n = unit_normal(*angles_for_direction(direction))
    magnitude = _ray_magnitude(spec, sample, n, n)
    lo, hi = _bisect_held(magnitude, targets, r_min, SCHEDULE_MAX_DISTANCE_M, MAGNITUDE_TOL_M)
    r_exact = (lo + hi) / 2.0
    distances = np.maximum(r_min, quantize_position(r_exact, resolution))
    h = resolution / 2.0
    achieved, near, far = magnitude([distances, np.maximum(r_min, r_exact - h), r_exact + h])
    bounds = np.maximum(near - targets, targets - far)
    return AmplitudeSchedule(targets, distances, achieved, achieved - targets, bounds)


def similarity(B1, B2) -> float:
    """Gaussian kernel similarity in (0, 1]: exp(-||B2-B1||^2 / (2 d^2)).

    Fields in tesla; the norm is evaluated in millitesla with length scale
    d = SIMILARITY_SCALE_MT.
    """
    diff_mT = (np.asarray(B2, dtype=float) - np.asarray(B1, dtype=float)) * 1e3
    return float(math.exp(-float(diff_mT @ diff_mT) / (2.0 * SIMILARITY_SCALE_MT**2)))


FAR_FIELD_DIAMETERS = 8.0
REPLACE_CHUNK = 16  # displacement candidates per feasibility_batch call


def replace_forbidden_pose(forbidden: Pose, sample, spec: MagnetSpec, env, dh,
                           displacement_axis, search_step=0.005, max_steps=40,
                           rng=None) -> ReplacementPlan:
    """Four-stage replacement of a collision-forbidden magnet pose.

    (i) record the target field of the forbidden pose at the sample;
    (ii) translate the magnet centre along the chosen world axis until the
    pose is reachable; (iii) re-orient the magnet along the inverse-dipole
    moment for the new displacement so the field direction is recovered;
    (iv) slide the magnet along the magnet-sample ray to recover the
    magnitude: _bisect_held on the cylinder model over the whole ray from
    the clearance radius to MAX_DISTANCE_M, the rule amplitude_schedule
    applies; a target outside that ray's range raises TargetUnreachable.
    A pose counts as reachable when feasibility_batch says so; the IK seed
    starts at home and `rng` drives its DLS fallback. The displacement
    candidates, in (step, sign) order, are checked REPLACE_CHUNK at a time;
    a table without a spherical wrist checks them one at a time, since its
    DLS search depends on the IK seed that each check passes on.
    """
    # deferred: of the alignment steps, only replace loads the collision layer
    from .environment import FeasibilityStatus, build_trees, feasibility_batch

    if displacement_axis not in ("y", "z"):
        raise ValueError("displacement_axis must be 'y' or 'z'")
    sample = np.asarray(sample, dtype=float)
    tree = build_trees(env)
    seed = dh.home()

    def reachable(poses):  # from the running IK seed, then the last joints found
        nonlocal seed
        results = feasibility_batch(poses, dh, tree, seed, [rng] * len(poses))
        seed = next((r.joints for r in reversed(results) if r.joints is not None), seed)
        return [r.status is FeasibilityStatus.REACHABLE for r in results]

    target = cylinder_field(spec, forbidden.position, forbidden.axis, sample)
    target_mag = float(np.linalg.norm(target))

    if reachable([forbidden])[0]:
        return ReplacementPlan(
            original_pose=forbidden, displaced_pose=forbidden, rotated_pose=forbidden,
            final_pose=forbidden, target_field=target, achieved_field=target,
            similarity=1.0, far_field_ok=True, identity=True,
        )

    axis = np.array([0.0, 1.0, 0.0]) if displacement_axis == "y" else np.array([0.0, 0.0, 1.0])
    r_clear = spec.length / 2.0 + spec.outer_radius + 1e-6

    def plan_for(displaced):
        r_vec = sample - displaced.position
        far_field_ok = bool(np.linalg.norm(r_vec) >= FAR_FIELD_DIAMETERS * 2.0 * spec.outer_radius)
        moment = inverse_dipole(target, r_vec)
        ay, az = angles_for_direction(moment)
        rotated = Pose(displaced.x, displaced.y, displaced.z, 0.0, ay, az)

        r_hat = r_vec / np.linalg.norm(r_vec)
        n = rotated.axis
        magnitude = _ray_magnitude(spec, sample, r_hat, n)
        (lo,), (hi,) = _bisect_held(magnitude, target_mag, r_clear, MAX_DISTANCE_M, MAGNITUDE_TOL_M)
        final = rotated.with_position(sample - ((lo + hi) / 2.0) * r_hat)
        if not reachable([final])[0]:
            return None
        achieved = cylinder_field(spec, final.position, n, sample)
        return ReplacementPlan(
            original_pose=forbidden, displaced_pose=displaced, rotated_pose=rotated,
            final_pose=final, target_field=target, achieved_field=achieved,
            similarity=similarity(target, achieved), far_field_ok=far_field_ok,
        )

    chunk = REPLACE_CHUNK if has_spherical_wrist(dh) else 1
    steps = ((n, sign) for n in range(1, max_steps + 1) for sign in (1.0, -1.0))
    found_displacement = False
    while batch := list(itertools.islice(steps, chunk)):
        candidates = [forbidden.with_position(forbidden.position + sign * n * search_step * axis)
                      for n, sign in batch]
        for candidate, ok in zip(candidates, reachable(candidates)):
            if not ok:
                continue
            found_displacement = True
            plan = plan_for(candidate)
            if plan is not None:
                return plan
    if found_displacement:
        raise FinalPoseForbidden("amplitude-correcting pose is not reachable for any displacement")
    raise NoReachableDisplacement(
        f"no reachable pose within {max_steps} steps of {search_step} m along {displacement_axis}"
    )
