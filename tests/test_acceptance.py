"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import csv
import json
import math
import sys
import time

import numpy as np
import pytest

from fieldarm.alignment import (
    amplitude_schedule,
    angular_error,
    calibrate_offsets,
    replace_forbidden_pose,
    sphere_segment_scan,
)
from fieldarm.cli import main as cli_main
from fieldarm.config import load_config
from fieldarm.environment import FeasibilityStatus, partition_pose_dictionary
from fieldarm.errors import FieldArmError, NoSolution
from fieldarm.kinematics import (
    POS_TOL,
    ROT_TOL,
    Pose,
    angles_for_direction,
    default_dh_table,
    fk_matrix,
    forward_kinematics,
    inverse_kinematics,
    magnet_pose_for_field_direction,
    unit_normal,
)
from fieldarm.magnetostatics import (
    cylinder_field,
    default_magnet_spec,
    dipole_field,
    equivalent_dipole,
    inverse_dipole,
)
from fieldarm.nvspin import (
    GAMMA_E_DEFAULT,
    NVParams,
    characteristic_roots,
    field_polar_angle,
    fit_orientation,
    hamiltonian,
    resonances,
    splitting_from_cubic,
)

from conftest import SAMPLE, STANDOFF
from test_kinematics import fk_oracle
from test_magnetostatics import surface_charge_field

D_ANCHOR = 2.8704e9
PI_ANCHOR = 1.8515e6


def report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {verdict} - {detail}", file=sys.stderr)
    assert ok, detail


def test_criterion_01_cubic_eigensolver_equivalence():
    rng = np.random.default_rng(1)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        D = rng.uniform(2.5e9, 3.2e9)
        Pi = rng.uniform(0.0, 20e6)
        B = rng.uniform(0.0, 10e-3)
        gamma_angle = rng.uniform(0.0, np.pi)
        # transverse azimuth pi/4 bisects the strain axes, where the
        # azimuth-free cubic is the exact characteristic polynomial
        B_nv = B * np.array([
            math.sin(gamma_angle) / math.sqrt(2.0),
            math.sin(gamma_angle) / math.sqrt(2.0),
            math.cos(gamma_angle),
        ])
        evals = np.sort(np.linalg.eigvalsh(hamiltonian(NVParams(D=D, Pi=Pi), B_nv)))
        roots = characteristic_roots(D, Pi, GAMMA_E_DEFAULT * B, gamma_angle) + 2.0 * D / 3.0
        worst = max(worst, float(np.max(np.abs(roots - evals)) / np.max(np.abs(evals))))
    elapsed = time.time() - t0
    report(1, worst < 1e-6 and elapsed < 5.0,
           f"1000 draws, max relative error {worst:.2e} (< 1e-6), {elapsed:.2f} s (< 5 s)")


def test_criterion_02_zero_field_anchor():
    pair = resonances(NVParams(D=D_ANCHOR, Pi=PI_ANCHOR), [0.0, 0.0, 0.0])
    delta = abs(pair.splitting - 3.7030e6)
    report(2, delta <= 1.0,
           f"zero-field splitting {pair.splitting:.6f} Hz vs 3.7030 MHz, |error| {delta:.2e} Hz (<= 1 Hz)")


def test_criterion_03_dipole_inverse_round_trip():
    rng = np.random.default_rng(2)
    t0 = time.time()
    B = rng.uniform(-5e-3, 5e-3, size=(1000, 3))
    r = rng.uniform(-0.3, 0.3, size=(1000, 3))
    r += 0.05 * np.sign(r)  # keep clear of the origin
    m = inverse_dipole(B, r)
    B_back = dipole_field(m, r)
    rel = np.linalg.norm(B_back - B, axis=1) / np.maximum(np.linalg.norm(B, axis=1), 1e-30)
    elapsed = time.time() - t0
    report(3, float(rel.max()) < 1e-10 and elapsed < 1.0,
           f"1000 (B, r) draws, max relative error {rel.max():.2e} (< 1e-10), {elapsed:.2f} s (< 1 s)")


def test_criterion_04_cylinder_field_oracle():
    spec = default_magnet_spec()
    pose = Pose(0.02, -0.03, 0.04, 0.0, 0.5, -0.8)
    rng = np.random.default_rng(3)
    worst_near = 0.0
    for _ in range(200):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        obs = pose.position + rng.uniform(0.055, 0.35) * direction
        B = cylinder_field(spec, pose.position, pose.axis, obs)
        B_ref = surface_charge_field(spec, pose, obs)
        worst_near = max(worst_near, float(
            np.linalg.norm(B - B_ref) / np.linalg.norm(B_ref)
        ))
    m = equivalent_dipole(spec) * (pose.rotation() @ np.array([1.0, 0.0, 0.0]))
    worst_far = 0.0
    for _ in range(100):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r = rng.uniform(10.01, 30.0) * 2.0 * spec.outer_radius * direction
        B = cylinder_field(spec, pose.position, pose.axis, pose.position + r)
        B_dip = dipole_field(m, r)
        worst_far = max(worst_far, float(np.linalg.norm(B - B_dip) / np.linalg.norm(B)))
    report(4, worst_near < 1e-4 and worst_far < 0.01,
           f"200 quadrature points max rel {worst_near:.2e} (< 1e-4); "
           f"far-field vs dipole max rel {worst_far:.2e} (< 1%)")


def test_criterion_05_replacement_algorithm(walled_config_path):
    cfg = load_config(walled_config_path)
    t0 = time.time()
    ay = np.deg2rad(np.linspace(30.0, 85.0, 6))
    az = np.deg2rad(np.linspace(5.0, 85.0, 6))
    scan = sphere_segment_scan(cfg.sample, ay, az, STANDOFF, cfg.magnet)
    parts = partition_pose_dictionary(scan.frames, cfg.dh, cfg.environment)
    forbidden = [Pose(*scan.positions[i], 0.0, scan.alpha_y[i], scan.alpha_z[i])
                 for i, p in enumerate(parts) if p.status is FeasibilityStatus.COLLISION]
    replaced = 0
    for pose in forbidden:
        try:
            plan = replace_forbidden_pose(pose, cfg.sample, cfg.magnet, cfg.environment,
                                          cfg.dh, displacement_axis="y")
        except FieldArmError:
            continue
        if plan.similarity >= 0.95:
            replaced += 1
    fraction = replaced / max(len(forbidden), 1)

    # transverse-minimum mechanism: sweep the rotation +-40 deg around the
    # inverse-dipole prediction and locate the minimum of the transverse field
    forbidden_pose = magnet_pose_for_field_direction(
        cfg.sample, np.deg2rad(40.0), np.deg2rad(20.0), STANDOFF
    )
    target = cylinder_field(cfg.magnet, forbidden_pose.position, forbidden_pose.axis, cfg.sample)
    t_hat = target / np.linalg.norm(target)
    displaced = forbidden_pose.position + np.array([0.0, 0.0, 0.12])
    ay_star, az_star = angles_for_direction(inverse_dipole(target, cfg.sample - displaced))
    deltas = np.deg2rad(np.arange(-40.0, 40.0001, 0.05))
    transverse = []
    for d in deltas:
        pose = Pose(*displaced, 0.0, ay_star + d, az_star)
        B = cylinder_field(cfg.magnet, pose.position, pose.axis, cfg.sample)
        transverse.append(np.linalg.norm(B - (B @ t_hat) * t_hat))
    offset_deg = abs(math.degrees(deltas[int(np.argmin(transverse))]))
    elapsed = time.time() - t0
    report(5, fraction >= 0.95 and offset_deg < 1.0 and elapsed < 60.0,
           f"{replaced}/{len(forbidden)} forbidden poses replaced with S >= 0.95 "
           f"({100 * fraction:.1f}% >= 95%); transverse minimum at {offset_deg:.3f} deg "
           f"from prediction (< 1 deg); {elapsed:.1f} s (< 60 s)")


def test_criterion_06_amplitude_schedule():
    spec = default_magnet_spec()
    direction = unit_normal(0.3, 0.5)
    targets = np.linspace(0.5e-3, 10e-3, 20)
    sched = amplitude_schedule(targets, spec, direction, SAMPLE, resolution=0.0005)
    in_spec = sched.error_bounds < 0.1e-3  # slope x resolution below the bound
    max_err = float(np.max(np.abs(sched.errors[in_spec]))) if np.any(in_spec) else 0.0
    growing = bool(np.all(np.diff(sched.error_bounds) > 0))
    report(6, max_err < 0.1e-3 and growing and np.all(in_spec),
           f"0.5->10 mT ramp at 0.5 mm: max |error| {max_err * 1e3:.4f} mT (< 0.1 mT); "
           f"error bound strictly grows toward the near field: {growing}")


def test_criterion_07_calibration_recovery():
    spec = default_magnet_spec()
    rng = np.random.default_rng(4)
    t0 = time.time()
    d_ay = np.deg2rad(15.0)
    d_az = np.deg2rad([1.0, 2.0, 3.0])
    # close standoff: ~30 mT fields keep the 0.1 mT noise from washing out
    # the per-mass alpha_z offsets
    standoff = 0.065
    rows = []
    for mass, dz in enumerate(d_az):
        for _ in range(40):
            a = rng.uniform(np.deg2rad(20), np.deg2rad(80))
            z = rng.uniform(np.deg2rad(5), np.deg2rad(85))
            pose = magnet_pose_for_field_direction(SAMPLE, a + d_ay, z + dz, standoff)
            B = cylinder_field(spec, pose.position, pose.axis, SAMPLE) + rng.normal(0.0, 0.1e-3, 3)
            rows.append((a, z, mass, B))
    result = calibrate_offsets(rows, spec, SAMPLE, standoff)
    err_ay = abs(np.rad2deg(result.delta_alpha_y) - 15.0)
    err_az = np.abs(np.rad2deg(result.delta_alpha_z) - [1.0, 2.0, 3.0])
    elapsed = time.time() - t0
    worst = max(err_ay, float(err_az.max()))
    report(7, worst < 0.5 and elapsed < 30.0,
           f"15 deg alpha_y offset and 1/2/3 deg alpha_z offsets at 0.1 mT noise "
           f"recovered within {worst:.3f} deg (< 0.5 deg); {elapsed:.1f} s (< 30 s)")


def test_criterion_08_orientation_fit_recovery():
    nv_axis = (np.deg2rad(97.6), np.deg2rad(64.1))
    ay_B = np.deg2rad([75.0, 95.0, 115.0, 135.0, 85.0, 125.0])
    az_B = np.deg2rad(np.linspace(52.0, 77.0, 6))
    gammas = field_polar_angle(ay_B, az_B, *nv_axis)
    nu_clean = splitting_from_cubic(D_ANCHOR, PI_ANCHOR, GAMMA_E_DEFAULT * 3e-3, gammas)

    fit = fit_orientation(np.column_stack([ay_B, az_B, nu_clean]), D_ANCHOR, PI_ANCHOR)
    clean_err = np.rad2deg(max(abs(fit.alpha_y_nv - nv_axis[0]),
                               abs(fit.alpha_z_nv - nv_axis[1])))

    rng = np.random.default_rng(5)
    noisy_err = 0.0
    for _ in range(100):
        nu = nu_clean + rng.normal(0.0, 50e3, nu_clean.shape)
        fit = fit_orientation(np.column_stack([ay_B, az_B, nu]), D_ANCHOR, PI_ANCHOR)
        noisy_err = max(noisy_err, np.rad2deg(max(abs(fit.alpha_y_nv - nv_axis[0]),
                                                  abs(fit.alpha_z_nv - nv_axis[1]))))
    report(8, clean_err < 0.1 and noisy_err < 1.5,
           f"6-pose trajectory, NV axis (97.6, 64.1) deg: noise-free error "
           f"{clean_err:.2e} deg (< 0.1); worst of 100 draws at 50 kHz noise "
           f"{noisy_err:.3f} deg (< 1.5)")


def test_criterion_09_kinematics_round_trip():
    dh = default_dh_table()
    rng = np.random.default_rng(6)
    worst_fk = 0.0
    successes = 0
    n = 1000
    for _ in range(n):
        q_true = rng.uniform(dh.q_min, dh.q_max)
        worst_fk = max(worst_fk, float(np.max(np.abs(fk_matrix(dh, q_true) - fk_oracle(dh, q_true)))))
        target = forward_kinematics(dh, q_true)
        try:
            q = inverse_kinematics(dh, target, rng=np.random.default_rng(0))
        except NoSolution:
            continue
        reached = forward_kinematics(dh, q)
        if np.linalg.norm(reached.position - target.position) <= POS_TOL:
            dR = target.rotation() @ reached.rotation().T
            ang = abs(np.arccos(np.clip((np.trace(dR) - 1) / 2, -1, 1)))
            if ang <= ROT_TOL * 1.5:
                successes += 1
    rate = successes / n
    report(9, rate >= 0.99 and worst_fk < 1e-10,
           f"IK success {successes}/{n} ({100 * rate:.1f}% >= 99%) within tolerance; "
           f"FK vs matrix-chain oracle max |diff| {worst_fk:.2e} (< 1e-10)")


def test_criterion_10_scan_invariants():
    spec = default_magnet_spec()
    ay = np.linspace(0.0, np.pi / 2, 19)
    az = np.linspace(0.0, np.pi / 2, 19)
    scan = sphere_segment_scan(SAMPLE, ay, az, STANDOFF, spec)
    mags = np.array([np.linalg.norm(B) for B in scan.fields])
    spread = float((mags.max() - mags.min()) / mags.mean())
    coords = {(round(a, 12), round(z, 12)) for a, z in zip(scan.alpha_y, scan.alpha_z)}
    bijective = len(coords) == len(scan.fields) == 361
    errors = [angular_error(B, unit_normal(a, z))
              for a, z, B in zip(scan.alpha_y, scan.alpha_z, scan.fields)]
    grid_step = float(ay[1] - ay[0])
    mean_err = float(np.mean(errors))
    report(10, spread < 0.01 and bijective and mean_err <= grid_step,
           f"|B| spread {100 * spread:.3f}% (< 1%); meander bijective over 361 poses: "
           f"{bijective}; mean model-side angular error {np.rad2deg(mean_err):.2e} deg "
           f"<= grid step {np.rad2deg(grid_step):.2f} deg")


def test_criterion_11_cli_determinism(tmp_path, walled_config_path):
    spec = default_magnet_spec()
    cal_csv = tmp_path / "cal.csv"
    rng = np.random.default_rng(0)
    with open(cal_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha_y_deg", "alpha_z_deg", "mass_index", "Bx_mT", "By_mT", "Bz_mT"])
        for _ in range(8):
            a, z = rng.uniform(20, 80), rng.uniform(5, 85)
            pose = magnet_pose_for_field_direction(SAMPLE, np.deg2rad(a), np.deg2rad(z),
                                                   STANDOFF)
            B = cylinder_field(spec, pose.position, pose.axis, SAMPLE) * 1e3
            w.writerow([a, z, 0, B[0], B[1], B[2]])
    traj_csv = tmp_path / "traj.csv"
    nv_axis = (np.deg2rad(97.6), np.deg2rad(64.1))
    ay_B = [75.0, 95.0, 115.0, 135.0, 85.0, 125.0]
    az_B = list(np.linspace(52.0, 77.0, 6))
    gammas = field_polar_angle(np.deg2rad(ay_B), np.deg2rad(az_B), *nv_axis)
    nu = splitting_from_cubic(D_ANCHOR, PI_ANCHOR, GAMMA_E_DEFAULT * 3e-3, gammas)
    with open(traj_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha_yB_deg", "alpha_zB_deg", "f_minus_MHz", "f_plus_MHz", "B_hall_mT"])
        for a, z, s in zip(ay_B, az_B, nu):
            w.writerow([a, z, 2800.0, 2800.0 + s * 1e-6, 3.0])

    grid = ["--ay-start", "30", "--ay-stop", "85", "--ay-steps", "3",
            "--az-start", "5", "--az-stop", "85", "--az-steps", "3"]
    commands = {
        "scan": ["scan"] + grid,
        "calibrate": ["calibrate", "--input", str(cal_csv)],
        "schedule": ["schedule", "--b-start", "0.5", "--b-stop", "10", "--steps", "8"],
        "partition": ["--config", walled_config_path, "partition"] + grid,
        "replace": ["--config", walled_config_path, "replace", "--ay", "30", "--az", "53",
                    "--axis", "y"],
        "odmr": ["odmr", "--bz", "3", "--points", "301", "--noise", "0.002"],
        "fit-nv": ["fit-nv", "--input", str(traj_csv)],
    }
    mismatched = []
    for name, args in commands.items():
        a = tmp_path / f"{name}-a.out"
        b = tmp_path / f"{name}-b.out"
        rc1 = cli_main(args + ["--out", str(a)])
        rc2 = cli_main(args + ["--out", str(b)])
        if rc1 != 0 or rc2 != 0 or a.read_bytes() != b.read_bytes():
            mismatched.append(name)
    report(11, not mismatched,
           "all 7 CLI commands byte-identical across re-runs"
           if not mismatched else f"non-deterministic commands: {mismatched}")
