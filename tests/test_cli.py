import argparse
import csv
import json
import math
import os

import numpy as np
import pytest
import yaml

from fieldarm import alignment, cli, nvspin
from fieldarm.alignment import CalibrationResult
from fieldarm.cli import build_parser, main
from fieldarm.kinematics import Pose, magnet_pose_for_field_direction
from fieldarm.magnetostatics import cylinder_field, default_magnet_spec
from fieldarm.nvspin import GAMMA_E_DEFAULT, characteristic_roots, field_polar_angle

from conftest import CONFIG_DIR, SAMPLE, STANDOFF, run_fresh

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
DEFAULT = os.path.join(CONFIG_DIR, "default.yaml")
WALLED = os.path.join(CONFIG_DIR, "walled.yaml")
WALL_OFF = os.path.join(CONFIG_DIR, "wall.off")
NOT_UTF8 = b"\xb0\xff\x00" * 10


def read_artifact_csv(path):
    header = []
    with open(path) as fh:
        lines = fh.readlines()
    data_lines = []
    for line in lines:
        (header if line.startswith("#") else data_lines).append(line)
    rows = list(csv.DictReader(data_lines))
    return header, rows


def test_scan_single_point(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--ay-start", "0", "--ay-stop", "0", "--ay-steps", "1",
               "--az-start", "0", "--az-stop", "0", "--az-steps", "1",
               "--standoff-m", "0.16", "--out", str(out)])
    assert rc == 0
    header, rows = read_artifact_csv(out)
    assert len(rows) == 1
    assert any(line.startswith("# config ") for line in header)
    assert any(line.startswith("# seed ") for line in header)


def test_scan_mean_error_matches_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--ay-start", "10", "--ay-stop", "80", "--ay-steps", "4",
               "--az-start", "5", "--az-stop", "85", "--az-steps", "4",
               "--out", str(out)])
    assert rc == 0
    _, rows = read_artifact_csv(out)
    assert len(rows) == 16
    assert [int(r["order_index"]) for r in rows] == list(range(16))
    mean_err = np.mean([float(r["angular_error_deg"]) for r in rows])
    reported = capsys.readouterr().err
    assert f"mean angular error {mean_err:.6g}" in reported


def test_scan_rerun_is_byte_identical(tmp_path):
    args = ["scan", "--ay-start", "10", "--ay-stop", "80", "--ay-steps", "3",
            "--az-start", "5", "--az-stop", "85", "--az-steps", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rerun_from_embedded_header_config(tmp_path):
    out1 = tmp_path / "first.csv"
    args = ["scan", "--ay-start", "20", "--ay-stop", "70", "--ay-steps", "3",
            "--az-start", "10", "--az-stop", "60", "--az-steps", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    header, _ = read_artifact_csv(out1)
    embedded = next(l for l in header if l.startswith("# config "))
    resolved = json.loads(embedded[len("# config "):])
    cfg_path = tmp_path / "replay.yaml"
    cfg_path.write_text(yaml.safe_dump(resolved))
    out2 = tmp_path / "second.csv"
    assert main(args + ["--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _write_calibration_csv(path):
    spec = default_magnet_spec()
    rng = np.random.default_rng(0)
    rows = []
    for mass in range(2):
        for _ in range(8):
            ay = rng.uniform(20, 80)
            az = rng.uniform(5, 85)
            pose = magnet_pose_for_field_direction(
                SAMPLE, np.deg2rad(ay), np.deg2rad(az), STANDOFF
            )
            B = cylinder_field(spec, pose.position, pose.axis, SAMPLE) * 1e3
            rows.append((ay, az, mass, B[0], B[1], B[2]))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha_y_deg", "alpha_z_deg", "mass_index", "Bx_mT", "By_mT", "Bz_mT"])
        w.writerows(rows)


def test_calibrate_round_trip(tmp_path):
    path = tmp_path / "cal.csv"
    _write_calibration_csv(path)
    out = tmp_path / "cal.json"
    rc = main(["calibrate", "--input", str(path), "--standoff-m", str(STANDOFF),
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert abs(report["delta_alpha_y_deg"]) < 1e-6
    assert all(abs(v) < 1e-6 for v in report["delta_alpha_z_deg"])


def test_schedule_deterministic(tmp_path):
    args = ["schedule", "--b-start", "0.5", "--b-stop", "10", "--steps", "10"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _, rows = read_artifact_csv(a)
    assert len(rows) == 10
    assert all(abs(float(r["error_mT"])) < 0.1 for r in rows)


def test_partition_walled(tmp_path, walled_config_path):
    out = tmp_path / "partition.csv"
    rc = main(["--config", walled_config_path, "partition",
               "--ay-start", "30", "--ay-stop", "85", "--ay-steps", "3",
               "--az-start", "5", "--az-stop", "85", "--az-steps", "3",
               "--out", str(out)])
    assert rc == 0
    _, rows = read_artifact_csv(out)
    statuses = {r["status"] for r in rows}
    assert "Reachable" in statuses and "Collision" in statuses


def test_partition_rows_do_not_depend_on_seed(tmp_path, walled_config_path):
    # the bundled arm has a spherical wrist: every IK branch is checked, no sampling
    rows = []
    for seed in ("7", "8"):
        out = tmp_path / f"partition-{seed}.csv"
        assert main(["--config", walled_config_path, "--seed", seed, "partition",
                     "--ay-start", "30", "--ay-stop", "85", "--ay-steps", "6",
                     "--az-start", "5", "--az-stop", "85", "--az-steps", "6",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert f"# seed {seed}\n" in text
        rows.append([ln for ln in text.splitlines() if not ln.startswith("#")])
    assert rows[0] == rows[1]


def test_readme_scan_and_partition_build_no_pose(tmp_path, monkeypatch, walled_config_path):
    """The README's scan and partition carry their grid as arrays from scan to
    verdict: main() builds no Pose object for either."""
    built = []
    post_init = Pose.__post_init__

    def counted(pose):
        built.append(pose)
        post_init(pose)

    monkeypatch.setattr(Pose, "__post_init__", counted)
    assert main(["scan", "--ay-start", "0", "--ay-stop", "90", "--ay-steps", "19",
                 "--az-start", "0", "--az-stop", "90", "--az-steps", "19",
                 "--standoff-m", "0.16", "--out", str(tmp_path / "scan.csv")]) == 0
    assert main(["--config", walled_config_path, "partition",
                 "--ay-start", "30", "--ay-stop", "85", "--ay-steps", "6",
                 "--az-start", "5", "--az-stop", "85", "--az-steps", "6",
                 "--out", str(tmp_path / "partition.csv")]) == 0
    assert len(built) == 0


def _split_walled(tmp_path):
    """configs/walled.yaml with its wall as two meshes, one triangle each, in the wall's order."""
    with open(WALL_OFF) as fh:
        header, counts, *rows = fh.read().splitlines()
    n = int(counts.split()[0])
    with open(WALLED) as fh:
        data = yaml.safe_load(fh)
    data["environment"] = []
    for k, face in enumerate(rows[n:]):
        (tmp_path / f"wall-{k}.off").write_text("\n".join([header, f"{n} 1 0", *rows[:n], face]))
        data["environment"].append({"mesh": f"wall-{k}.off"})
    assert len(data["environment"]) == 2
    return _written(tmp_path / "split.yaml", yaml.safe_dump(data).encode())


@pytest.mark.parametrize("command", [
    ["partition", "--ay-start", "30", "--ay-stop", "85", "--ay-steps", "6",
     "--az-start", "5", "--az-stop", "85", "--az-steps", "6"],
    ["replace", "--ay", "30", "--az", "53", "--axis", "y"],
], ids=["partition", "replace"])
def test_wall_split_into_two_meshes_writes_the_same_artefact(tmp_path, command):
    """Two meshes that hold the wall's two triangles plan as the one-mesh wall
    does: the artefacts differ only in the configuration they embed."""
    texts = []
    for config in (WALLED, _split_walled(tmp_path)):
        out = tmp_path / "artefact"
        assert main(["--config", config] + command + ["--out", str(out)]) == 0
        texts.append(out.read_text())
    if command[0] == "partition":
        one, two = ([ln for ln in text.splitlines() if not ln.startswith("# config ")]
                    for text in texts)
        rows = [ln.split(",") for ln in one if not ln.startswith("#")]
        assert {"Reachable", "Collision"} <= {row[rows[0].index("status")] for row in rows[1:]}
    else:
        one, two = ({k: v for k, v in json.loads(text).items() if k != "config"}
                    for text in texts)
        assert not one["identity"]
    assert one == two


def test_replace_identity_without_environment(tmp_path):
    out = tmp_path / "plan.json"
    rc = main(["replace", "--ay", "20", "--az", "30", "--out", str(out)])
    assert rc == 0
    plan = json.loads(out.read_text())
    assert plan["identity"] is True
    assert plan["similarity"] == 1.0


def test_replace_walled_scenario(tmp_path, walled_config_path):
    out = tmp_path / "plan.json"
    rc = main(["--config", walled_config_path, "replace", "--ay", "30", "--az", "53",
               "--axis", "y", "--out", str(out)])
    assert rc == 0
    plan = json.loads(out.read_text())
    assert plan["identity"] is False
    assert plan["similarity"] >= 0.95


def test_replace_search_exhausted_exit_1(tmp_path, walled_config_path):
    out = tmp_path / "plan.json"
    rc = main(["--config", walled_config_path, "replace", "--ay", "30", "--az", "53",
               "--axis", "y", "--step-m", "0.0001", "--max-steps", "1",
               "--out", str(out)])
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["error"] in ("NoReachableDisplacement", "FinalPoseForbidden")


def test_replace_target_out_of_reach_exit_1(tmp_path, capsys, walled_config_path):
    """A pose 2 cm from the sample asks for 378 mT; the magnitude bracket
    reaches 85 mT at most, so replace refuses rather than write a plan."""
    out = tmp_path / "plan.json"
    rc = main(["--config", walled_config_path, "replace", "--ay", "30", "--az", "53",
               "--standoff-m", "0.02", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: TargetUnreachable: target 3.7842e-01 T")
    assert json.loads(out.read_text())["error"] == "TargetUnreachable"


def test_replace_wide_ring_near_the_sample_writes_a_plan(tmp_path):
    """A 10 cm-wide ring 12 mm from the sample: the re-aimed magnet at the
    displaced pose would enclose the sample, but the magnitude search only
    evaluates the field beyond the clearance radius, so replace plans."""
    with open(WALLED) as fh:
        data = yaml.safe_load(fh)
    data["environment"][0]["mesh"] = os.path.abspath(WALL_OFF)
    data["magnet"] = {"outer_radius_m": 0.05, "inner_radius_m": 0.03, "length_m": 0.02,
                      "remanence_T": 1.4}
    config = _written(tmp_path / "wide.yaml", yaml.safe_dump(data).encode())
    out = tmp_path / "plan.json"
    assert main(["--config", config, "replace", "--ay", "30", "--az", "37", "--axis", "y",
                 "--standoff-m", "0.012", "--out", str(out)]) == 0
    plan = json.loads(out.read_text())
    assert plan["identity"] is False
    achieved, want = (np.linalg.norm(plan[k]) for k in ("achieved_field_mT", "target_field_mT"))
    assert abs(achieved - want) <= 1e-6 * want


def test_odmr_state_mixing_too_strong_exit_1(tmp_path, capsys):
    """About 3.7 T at 35 deg from the NV axis leaves no eigenstate mostly ms=0."""
    out = tmp_path / "spectrum.csv"
    assert main(["odmr", "--bx", "3000", "--bz", "2121", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: StateMixingTooStrong: largest ms=0 overlap is 0.343; "
                   "field too strong or transverse"]
    assert json.loads(out.read_text())["error"] == "StateMixingTooStrong"


def test_odmr_spectrum_output(tmp_path):
    out = tmp_path / "odmr.csv"
    rc = main(["odmr", "--bz", "3", "--points", "501", "--out", str(out)])
    assert rc == 0
    _, rows = read_artifact_csv(out)
    assert len(rows) == 501
    contrast = np.array([float(r["contrast"]) for r in rows])
    assert contrast.min() < 0.995  # visible dips


def _write_trajectory_csv(path, ay_deg, az_deg, B_mT=3.0):
    nv_axis = (np.deg2rad(97.6), np.deg2rad(64.1))
    gammas = field_polar_angle(np.deg2rad(ay_deg), np.deg2rad(az_deg), *nv_axis)
    r = characteristic_roots(2.8704e9, 1.8515e6, GAMMA_E_DEFAULT * B_mT * 1e-3, gammas)
    fm, fp = r[..., 1] - r[..., 0], r[..., 2] - r[..., 0]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha_yB_deg", "alpha_zB_deg", "f_minus_MHz", "f_plus_MHz",
                    "B_hall_mT"])
        for a, z, m, p in zip(ay_deg, az_deg, np.atleast_1d(fm), np.atleast_1d(fp)):
            w.writerow([a, z, m * 1e-6, p * 1e-6, B_mT])


def test_fit_nv_recovers_axis(tmp_path):
    path = tmp_path / "traj.csv"
    _write_trajectory_csv(path, [75.0, 95.0, 115.0, 135.0, 85.0, 125.0],
                          list(np.linspace(52.0, 77.0, 6)))
    out = tmp_path / "fit.json"
    rc = main(["fit-nv", "--input", str(path), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert abs(report["alpha_y_nv_deg"] - 97.6) < 1.0
    assert abs(report["alpha_z_nv_deg"] - 64.1) < 1.0


def test_fit_nv_too_few_rows_exit_2(tmp_path):
    path = tmp_path / "short.csv"
    _write_trajectory_csv(path, [75.0, 95.0, 115.0], [52.0, 57.0, 62.0])
    assert main(["fit-nv", "--input", str(path)]) == 2


def test_fit_nv_degenerate_exit_1(tmp_path):
    path = tmp_path / "flat.csv"
    _write_trajectory_csv(path, [75.0] * 6, [52.0] * 6)
    assert main(["fit-nv", "--input", str(path)]) == 1


def test_fit_nv_missing_column_exit_2(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alpha_yB_deg,alpha_zB_deg\n1,2\n")
    assert main(["fit-nv", "--input", str(path)]) == 2


def test_bad_config_path_exit_2(tmp_path):
    assert main(["--config", str(tmp_path / "nope.yaml"), "scan",
                 "--ay-start", "0", "--ay-stop", "0", "--ay-steps", "1",
                 "--az-start", "0", "--az-stop", "0", "--az-steps", "1"]) == 2


def _scan_args(ay_steps="2", standoff="0.16"):
    return ["scan", "--ay-start", "0", "--ay-stop", "10", "--ay-steps", ay_steps,
            "--az-start", "0", "--az-stop", "10", "--az-steps", "2", "--standoff-m", standoff]


SCHEDULE = ["schedule", "--b-start", "0.5", "--b-stop", "10", "--steps", "3"]
BIG = str(10**30)
CALIBRATION = "<calibration csv>"  # the test writes a valid measurement CSV in its place


@pytest.mark.parametrize("argv", [
    _scan_args(ay_steps="0"),
    SCHEDULE[:-1] + ["0"],
    ["odmr", "--points", "0"],
    SCHEDULE + ["--resolution-m", "0"],
    ["odmr", "--linewidth-MHz", "0"],
    _scan_args(standoff="nan"),
    SCHEDULE + ["--ay", "nan"],
    SCHEDULE[:4] + ["inf"] + SCHEDULE[5:],
    ["odmr", "--bz", "nan"],
    _scan_args(standoff="0.01"),
    ["replace", "--ay", "20", "--az", "30", "--standoff-m", "0.01"],
    ["odmr", "--depth", "1.5"],
    ["odmr", "--depth", "0"],
    ["odmr", "--d-GHz", "0"],
    ["odmr", "--pi-MHz", "-1"],
    ["odmr", "--gamma-GHz-per-T", "0"],
    ["--seed", "-1", "odmr", "--points", "11"],
    ["--config", WALLED, "replace", "--ay", "30", "--az", "53", "--step-m", "0"],
    ["--config", WALLED, "replace", "--ay", "30", "--az", "53", "--step-m", "-1"],
    ["--config", WALLED, "replace", "--ay", "30", "--az", "53", "--max-steps", "0"],
    ["odmr", "--noise", "-1"],
    _scan_args() + [f"--ay-steps={BIG}"],
    _scan_args() + [f"--az-steps={BIG}"],
    ["partition"] + _scan_args()[1:] + [f"--ay-steps={BIG}"],
    ["partition"] + _scan_args()[1:] + [f"--az-steps={BIG}"],
    SCHEDULE + [f"--steps={BIG}"],
    ["odmr", f"--points={BIG}"],
    _scan_args() + ["--standoff-m=1e300"],
    ["calibrate", "--input", CALIBRATION, "--standoff-m=1e300"],
    SCHEDULE + ["--resolution-m=1e300"],
    ["odmr", "--linewidth-MHz=1e300"],
    ["odmr", "--d-GHz=1e300"],
    ["odmr", "--gamma-GHz-per-T=1e300"],
    ["odmr", "--pi-MHz=1e300"],
    ["odmr", "--bx=1e300"],
    ["odmr", "--by=1e300"],
    ["odmr", "--bz=1e300"],
    ["--units", "si", "odmr", "--bx=1e300"],
    ["--units", "si", "odmr", "--by=1e300"],
    ["--units", "si", "odmr", "--bz=1e300"],
    ["odmr", "--points", "11", "--bz=1e305"],
    ["odmr", "--points", "3", "--f-start-MHz=1e300", "--f-stop-MHz=-1e300"],
    ["odmr", "--f-start-MHz", "3050", "--f-stop-MHz", "2700"],
    ["odmr", "--f-start-MHz", "2800", "--f-stop-MHz", "2800"],
    ["odmr", "--f-start-MHz=-1"],
    ["odmr", "--points", "11", "--f-stop-MHz=1e303"],
    ["scan", "--ay-start=1e17", "--ay-stop=1e17", "--ay-steps", "1",
     "--az-start", "10", "--az-stop", "10", "--az-steps", "1"],
    ["--config", WALLED, "replace", "--ay", "30", "--az=-3601"],
    ["schedule", "--b-start=-1", "--b-stop", "10", "--steps", "3"],
    ["schedule", "--b-start=0", "--b-stop", "10", "--steps", "3"],
    ["schedule", "--b-start=1e300", "--b-stop", "10", "--steps", "3"],
    ["--units", "si", "schedule", "--b-start", "0.001", "--b-stop=10.000001", "--steps", "3"],
    SCHEDULE + ["--resolution-m=1e-300"],
    SCHEDULE + ["--resolution-m=5e-324"],
    ["--config", WALLED, "replace", "--ay", "30", "--az", "53", "--step-m=1e300"],
], ids=["scan-steps-0", "schedule-steps-0", "odmr-points-0", "schedule-resolution-0",
        "odmr-linewidth-0", "scan-standoff-nan", "schedule-ay-nan", "schedule-b-stop-inf",
        "odmr-bz-nan", "scan-standoff-in-magnet", "replace-standoff-in-magnet",
        "odmr-depth-1.5", "odmr-depth-0", "odmr-d-0", "odmr-pi-negative", "odmr-gamma-0",
        "seed-negative", "replace-step-0", "replace-step-negative", "replace-max-steps-0",
        "odmr-noise-negative", "scan-ay-steps-1e30", "scan-az-steps-1e30",
        "partition-ay-steps-1e30", "partition-az-steps-1e30", "schedule-steps-1e30",
        "odmr-points-1e30", "scan-standoff-1e300", "calibrate-standoff-1e300",
        "schedule-resolution-1e300", "odmr-linewidth-1e300", "odmr-d-1e300",
        "odmr-gamma-1e300", "odmr-pi-1e300", "odmr-bx-1e300", "odmr-by-1e300", "odmr-bz-1e300",
        "odmr-bx-1e300-si", "odmr-by-1e300-si", "odmr-bz-1e300-si", "odmr-bz-1e305",
        "odmr-window-1e300", "odmr-window-backwards", "odmr-window-empty",
        "odmr-f-start-negative", "odmr-f-stop-1e303", "scan-ay-1e17", "replace-az-3601",
        "schedule-b-start-negative", "schedule-b-start-0", "schedule-b-start-1e300",
        "schedule-b-stop-past-10-T-si", "schedule-resolution-1e-300",
        "schedule-resolution-5e-324", "replace-step-1e300"])
def test_out_of_range_argument_exit_2(tmp_path, capsys, argv):
    if CALIBRATION in argv:
        _write_calibration_csv(tmp_path / "cal.csv")
        argv = [str(tmp_path / "cal.csv") if a == CALIBRATION else a for a in argv]
    out = tmp_path / "artefact"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("units, b_stop", [("mT-deg", "10000"), ("si", "10")])
def test_schedule_target_in_range_but_unreachable_exit_1(tmp_path, capsys, units, b_stop):
    """10 T lies in the targets' domain, but no distance of the default magnet gives it."""
    out = tmp_path / "schedule.json"
    assert main(["--units", units, "schedule", "--b-start", b_stop, "--b-stop", b_stop,
                 "--steps", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: TargetUnreachable: ")
    assert json.loads(out.read_text())["error"] == "TargetUnreachable"


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_exit_2(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    assert main(["schedule", "--b-start", "1", "--b-stop", "2", "--steps", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out ")
    assert list(tmp_path.iterdir()) == []


def _write_input_csv(command, path):
    if command == "calibrate":
        _write_calibration_csv(path)
    else:
        _write_trajectory_csv(path, [75.0, 95.0, 115.0, 135.0, 85.0, 125.0],
                              list(np.linspace(52.0, 77.0, 6)))


def _set_cell(column, value):
    def edit(rows):
        rows[1][rows[0].index(column)] = value
        return rows
    return edit


def _swap_resonances(rows):
    i, j = rows[0].index("f_minus_MHz"), rows[0].index("f_plus_MHz")
    rows[1][i], rows[1][j] = rows[1][j], rows[1][i]
    return rows


@pytest.mark.parametrize("command, edit", [
    ("calibrate", _set_cell("Bx_mT", "nan")),
    ("calibrate", _set_cell("mass_index", "0.5")),
    ("calibrate", lambda rows: rows[:1]),
    ("fit-nv", _swap_resonances),
    ("fit-nv", _set_cell("f_plus_MHz", "nan")),
    ("calibrate", _set_cell("Bx_mT", "1e300")),
    ("calibrate", _set_cell("alpha_y_deg", "1e300")),
    ("fit-nv", _set_cell("f_plus_MHz", "1e308")),
    ("fit-nv", _set_cell("alpha_yB_deg", "1e300")),
    ("fit-nv", _set_cell("B_hall_mT", "1e300")),
], ids=["calibrate-field-nan", "calibrate-mass-index-fraction", "calibrate-header-only",
        "fit-nv-swapped-pair", "fit-nv-frequency-nan", "calibrate-field-1e300",
        "calibrate-angle-1e300", "fit-nv-frequency-1e308", "fit-nv-angle-1e300",
        "fit-nv-hall-1e300"])
def test_out_of_domain_csv_exit_2(tmp_path, capsys, command, edit):
    path = tmp_path / "input.csv"
    _write_input_csv(command, path)
    with open(path, newline="") as fh:
        rows = edit(list(csv.reader(fh)))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "artefact"
    assert main([command, "--input", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, cells", [
    ("calibrate", {"alpha_y_deg": "3600", "alpha_z_deg": "-3600"}),
    ("calibrate", {"Bx_mT": "10000", "Bz_mT": "-10000"}),
    ("fit-nv", {"alpha_yB_deg": "3600", "alpha_zB_deg": "-3600"}),
    ("fit-nv", {"f_minus_MHz": "1000000", "f_plus_MHz": "1000000"}),
    ("fit-nv", {"B_hall_mT": "10000"}),
], ids=["calibrate-angles", "calibrate-fields", "fit-nv-angles", "fit-nv-frequencies",
        "fit-nv-hall"])
def test_csv_cells_at_their_domain_edges_exit_0(tmp_path, command, cells):
    path = tmp_path / "input.csv"
    _write_input_csv(command, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for column, value in cells.items():
        rows = _set_cell(column, value)(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "artefact.json"
    assert main([command, "--input", str(path), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("argv", [
    SCHEDULE + ["--resolution-m=1e-9"],
    SCHEDULE + ["--resolution-m=0.6"],
    ["--config", DEFAULT, "replace", "--ay", "30", "--az", "53", "--step-m=10"],
], ids=["schedule-resolution-1e-9", "schedule-resolution-0.6", "replace-step-10"])
def test_length_flags_at_their_edges_exit_0(tmp_path, argv):
    out = tmp_path / "artefact"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("command", ["calibrate", "fit-nv"])
def test_unreadable_input_exit_2(tmp_path, capsys, command):
    binary = tmp_path / "binary.csv"
    binary.write_bytes(NOT_UTF8)
    for path in (tmp_path, binary):  # a directory, and bytes that are not UTF-8
        assert main([command, "--input", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


def _written(path, content: bytes):
    path.write_bytes(content)
    return str(path)


def _walled_with(tmp_path, mesh, **first_joint):
    """configs/walled.yaml with another mesh path and first_joint's fields replaced."""
    with open(WALLED) as fh:
        data = yaml.safe_load(fh)
    data["environment"][0]["mesh"] = mesh
    data["dh"]["joints"][0].update(first_joint)
    return _written(tmp_path / "walled.yaml", yaml.safe_dump(data).encode())


@pytest.mark.parametrize("write_config, command", [
    (lambda tmp: str(tmp), _scan_args()),
    (lambda tmp: _written(tmp / "run.yaml", b"seed: 1\n" + NOT_UTF8), _scan_args()),
    (lambda tmp: _walled_with(tmp, _written(tmp / "wall.off", b"OFF\n" + NOT_UTF8)),
     ["partition"] + _scan_args()[1:]),
    (lambda tmp: _walled_with(tmp, str(tmp)), ["partition"] + _scan_args()[1:]),
    (lambda tmp: _written(tmp / "run.yaml", b"sample_m: [.nan, 0.0, 0.3]\n"), _scan_args()),
    (lambda tmp: _walled_with(tmp, WALL_OFF, a_m=math.nan), ["partition"] + _scan_args()[1:]),
], ids=["config-is-a-directory", "config-not-utf8", "mesh-not-utf8", "mesh-is-a-directory",
        "sample-nan", "first-joint-a-nan"])
def test_unreadable_or_non_finite_config_exit_2(tmp_path, capsys, write_config, command):
    out = tmp_path / "artefact"
    assert main(["--config", write_config(tmp_path)] + command + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("units, inside, beyond", [("mT-deg", "10000", "10000.001"),
                                                   ("si", "10", "10.000001")])
def test_field_flags_share_one_bound_in_both_units(tmp_path, capsys, units, inside, beyond):
    """10 T, as given in mT or in T: at the bound the spectrum is written, beyond it exit 2."""
    for flag in ("--bx", "--by", "--bz"):
        assert "in [-10, 10] T" in SUBCOMMANDS["odmr"]._option_string_actions[flag].help
    out = tmp_path / "artefact"
    odmr = ["--units", units, "odmr", "--points", "11", "--out", str(out)]
    assert main(odmr + ["--bz", inside]) == 0 and out.exists()
    out.unlink()
    assert main(odmr + [f"--bz=-{beyond}"]) == 2 and not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"error: --bz must be in [-10, 10] T, got -{beyond} {'T' if units == 'si' else 'mT'}"]


@pytest.mark.parametrize("units, inside, beyond", [("mT-deg", "3600", "3600.000001"),
                                                   ("si", repr(20 * math.pi), "62.831854")])
def test_angle_flags_share_one_bound_in_both_units(tmp_path, capsys, units, inside, beyond):
    """Ten turns, as given in deg or in rad: at the bound the scan is written,
    beyond it exit 2. Every angle flag holds this one domain."""
    for command in cli.COMMANDS.values():
        for flag in command.flags:
            assert (flag.domain is cli.ANGLE_FLAG) == (flag.unit == "angle"), flag.name
    out = tmp_path / "artefact"
    scan = ["--units", units, "scan", "--ay-steps", "1", "--az-steps", "1", "--out", str(out)]
    grid = ("--ay-start", "--ay-stop", "--az-start", "--az-stop")
    for value in (inside, f"-{inside}"):
        assert main(scan + [f"{flag}={value}" for flag in grid]) == 0 and out.exists()
        out.unlink()
    capsys.readouterr()
    assert main(scan + [f"{flag}=0" for flag in grid[:3]] + [f"--az-stop=-{beyond}"]) == 2
    assert not out.exists()
    unit = "rad" if units == "si" else "deg"
    assert capsys.readouterr().err.splitlines() == [
        f"error: --az-stop must be in [-20pi, 20pi] rad (+-3600 deg), got -{beyond} {unit}"]


def test_non_finite_csv_value_exit_1(tmp_path, capsys, monkeypatch):
    out = tmp_path / "spectrum.csv"
    monkeypatch.setattr(nvspin, "odmr_spectrum",
                        lambda *a, **k: nvspin.OdmrSpectrum([2.8e9, math.inf], [1.0, 1.0]))
    assert main(["odmr", "--points", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "error" in json.loads(out.read_text())


def test_non_finite_json_value_exit_1(tmp_path, monkeypatch):
    path, out = tmp_path / "cal.csv", tmp_path / "cal.json"
    _write_calibration_csv(path)
    monkeypatch.setattr(alignment, "calibrate_offsets",
                        lambda *a: CalibrationResult(math.nan, np.zeros(2), 0.0))
    assert main(["calibrate", "--input", str(path), "--out", str(out)]) == 1
    assert "error" in json.loads(out.read_text())


FUZZ_VALUES = {int: ["0", "-1", BIG], float: ["0", "-1", BIG, "nan", "inf", "-inf", "1e300"]}
SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices


def _numbers(text):
    """Every float in a JSON or CSV artefact, JSON's NaN and Infinity included."""
    found = []
    if text.startswith("{"):
        json.loads(text, parse_float=lambda s: found.append(float(s)),
                   parse_constant=lambda s: found.append(float(s)))
        return found
    for row in csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")):
        for cell in row:
            try:
                found.append(float(cell))
            except ValueError:  # a column name or a status
                pass
    return found


BASE_FLAGS = {  # a command line that keeps every domain and rule, as flags given
    "scan": {"ay_start": "0", "ay_stop": "10", "ay_steps": "2", "az_start": "0", "az_stop": "10",
             "az_steps": "2"},
    "schedule": {"b_start": "0.5", "b_stop": "10", "steps": "3"},
    "replace": {"ay": "20", "az": "30"}, "odmr": {"points": "11"}, "calibrate": {}, "fit-nv": {},
}
BASE_FLAGS["partition"] = BASE_FLAGS["scan"]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_numeric_flags_refuse_or_give_finite_artefacts(command):
    """Each int and float flag has a declared domain. At the edges of every
    domain main exits 2, with one `error:` line and no artefact, exactly when
    the value breaks its domain or rule; otherwise 1, or 0 with a finite
    artefact of the declared columns that a re-run repeats byte for byte."""
    # test_contract imports this module, so it is imported here
    from test_contract import Case, check_contract, input_columns, valid_csv
    declared = {flag.name: flag for flag in cli.COMMON + cli.COMMANDS[command].flags}
    lines = list(valid_csv(command)) if input_columns(command) else None
    for action in SUBCOMMANDS[command]._actions:
        if action.type not in FUZZ_VALUES:
            continue
        assert declared[action.dest].domain is not None, f"{command} {action.dest} has no domain"
        for value in FUZZ_VALUES[action.type]:
            check_contract(Case(command, {**BASE_FLAGS[command], action.dest: value}, csv=lines))


def test_negative_config_seed_exit_2(tmp_path, capsys):
    config = tmp_path / "negative-seed.yaml"
    config.write_text("seed: -1\n")
    out = tmp_path / "artefact"
    assert main(["--config", str(config), "odmr", "--points", "11", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_unknown_units_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["--units", "gauss", "scan", "--ay-start", "0", "--ay-stop", "0",
              "--ay-steps", "1", "--az-start", "0", "--az-stop", "0",
              "--az-steps", "1"])
    assert exc.value.code == 2


def test_fits_import_no_scipy(tmp_path):
    cal, traj = tmp_path / "cal.csv", tmp_path / "traj.csv"
    _write_calibration_csv(cal)
    _write_trajectory_csv(traj, [75.0, 95.0, 115.0, 135.0, 85.0, 125.0],
                          list(np.linspace(52.0, 77.0, 6)))
    script = (
        "import sys\n"
        "from fieldarm.cli import main\n"
        f"assert main(['calibrate', '--input', {str(cal)!r}, '--out', {str(tmp_path / 'c')!r}]) == 0\n"
        f"assert main(['fit-nv', '--input', {str(traj)!r}, '--out', {str(tmp_path / 'f')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert run_fresh(script).strip() == "[]"


NOT_RUN = ("fieldarm.environment", "fieldarm.nvspin", "numpy.random")
NO_FIT = NOT_RUN + ("fieldarm.lsq",)
TRAJECTORY = "<trajectory csv>"  # the test writes a valid trajectory CSV in its place


@pytest.mark.parametrize("argv, absent", [
    ([], NO_FIT + ("fieldarm.alignment",)),
    (["--config", DEFAULT] + _scan_args(), NO_FIT),
    (["--config", DEFAULT] + SCHEDULE, NO_FIT),
    (["--config", DEFAULT, "calibrate", "--input", CALIBRATION], NOT_RUN),
    (["fit-nv", "--input", TRAJECTORY],
     ("fieldarm.alignment", "fieldarm.environment", "numpy.random")),
    (["--config", WALLED, "partition"] + _scan_args()[1:], ("fieldarm.nvspin", "fieldarm.lsq")),
    (["odmr", "--points", "11"],
     ("fieldarm.alignment", "fieldarm.environment", "numpy.random", "fieldarm.lsq")),
], ids=["import-cli", "scan", "schedule", "calibrate", "fit-nv", "partition", "odmr"])
def test_commands_import_only_the_layers_they_run(tmp_path, argv, absent):
    """`import fieldarm.cli`, or one command, in a fresh interpreter: the
    layers it does not run stay out of sys.modules."""
    _write_input_csv("calibrate", tmp_path / "cal.csv")
    _write_input_csv("fit-nv", tmp_path / "traj.csv")
    paths = {CALIBRATION: str(tmp_path / "cal.csv"), TRAJECTORY: str(tmp_path / "traj.csv")}
    argv = [paths.get(a, a) for a in argv] + (["--out", str(tmp_path / "out")] if argv else [])
    script = ("import json, sys\n"
              "import fieldarm.cli\n"
              "argv = json.loads(sys.argv[1])\n"
              "if argv and fieldarm.cli.main(argv) != 0:\n"
              "    sys.exit('the command failed')\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    loaded = set(json.loads(run_fresh(script, json.dumps(argv))))
    assert "fieldarm.cli" in loaded
    assert not loaded.intersection(absent)


BLAS_THREADS = ("import os\n"
                "import fieldarm.kinematics\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
                "import fieldarm.cli\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")


@pytest.mark.parametrize("given, after_library, after_cli", [
    (None, "None", "1"), ("2", "2", "2")], ids=["unset", "caller-sets-2"])
def test_cli_defaults_to_one_blas_thread(given, after_library, after_cli):
    """In a fresh interpreter, only `import fieldarm.cli` sets OPENBLAS_NUM_THREADS,
    and only when the caller has not."""
    out = run_fresh(BLAS_THREADS, env={"OPENBLAS_NUM_THREADS": given})
    assert out.split() == [after_library, after_cli]


GRID_ANGLES = {"--ay-start": "angle", "--ay-stop": "angle", "--az-start": "angle",
               "--az-stop": "angle"}
UNIT_FLAGS = {  # the flags whose unit --units switches
    "scan": GRID_ANGLES, "partition": GRID_ANGLES,
    "schedule": {"--b-start": "field", "--b-stop": "field", "--ay": "angle", "--az": "angle"},
    "replace": {"--ay": "angle", "--az": "angle"},
    "odmr": {"--bx": "field", "--by": "field", "--bz": "field"},
    "calibrate": {}, "fit-nv": {},
}
UNIT_HELP = {"angle": "deg, or rad with --units si", "field": "mT, or T with --units si"}


@pytest.mark.parametrize("command", sorted(UNIT_FLAGS))
def test_unit_flags_name_their_unit_in_help(command):
    declared = {flag.option: flag.unit for flag in cli.COMMANDS[command].flags if flag.unit}
    assert declared == UNIT_FLAGS[command]
    for action in SUBCOMMANDS[command]._actions:
        unit = UNIT_FLAGS[command].get(action.option_strings[0])
        assert (unit is not None) == (action.help or "").endswith(tuple(UNIT_HELP.values()))
        if unit:
            assert action.help.endswith(UNIT_HELP[unit]), action.help


SI_NAMES = {"deg": ("rad", 180.0 / math.pi), "mT": ("T", 1e3)}  # SI label, factor out of SI
TO_SI = {"angle": math.radians, "field": lambda v: v * 1e-3}
SI_CASES = {
    "scan": _scan_args(),
    "schedule": SCHEDULE + ["--ay", "20", "--az", "30"],
    "partition": ["--config", WALLED, "partition", "--ay-start", "30", "--ay-stop", "85",
                  "--ay-steps", "3", "--az-start", "5", "--az-stop", "85", "--az-steps", "3"],
    "replace": ["--config", WALLED, "replace", "--ay", "30", "--az", "53"],
    "odmr": ["odmr", "--bx", "0.5", "--by", "-1", "--bz", "3", "--points", "101"],
    "calibrate": ["calibrate", "--input", CALIBRATION],
    "fit-nv": ["fit-nv", "--input", TRAJECTORY],
}


def _si_name(name):
    """The SI run's name for the default run's name, and the factor that takes
    its SI value to the default run's (None for a name --units leaves alone)."""
    stem, _, label = name.rpartition("_")
    if label not in SI_NAMES:
        return name, None
    return f"{stem}_{SI_NAMES[label][0]}", SI_NAMES[label][1]


def _assert_json_in_si(default, si):
    assert len(si) == len(default)
    for key, value in default.items():
        assert "{" not in key, key  # every tag filled in
        si_key, factor = _si_name(key)
        if isinstance(value, dict):
            _assert_json_in_si(value, si[si_key])
        elif factor is None:
            assert si[si_key] == value, key
        elif isinstance(value, list):
            assert [v * factor for v in si[si_key]] == value, key
        else:
            assert si[si_key] * factor == value, key


def _assert_csv_in_si(command, default, si):
    header, si_header = ([ln for ln in text.splitlines() if ln.startswith("#")]
                         for text in (default, si))
    assert si_header[:3] == header[:3] and si_header[4:] == ["# units si"]
    given, si_given = (json.loads(h[3][len("# args "):]) for h in (header, si_header))
    assert si_given.keys() == given.keys()
    for name, value in given.items():
        unit = UNIT_FLAGS[command].get("--" + name.replace("_", "-"))
        assert si_given[name] == (TO_SI[unit](value) if unit else value), name
    rows, si_rows = (list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
                     for text in (default, si))
    assert "{" not in "".join(rows[0])  # every tag filled in
    names = [_si_name(name) for name in rows[0]]
    assert si_rows[0] == [si_name for si_name, _ in names]
    assert len(si_rows) == len(rows)
    for row, si_row in zip(rows[1:], si_rows[1:]):
        for cell, si_cell, (_, factor) in zip(row, si_row, names):
            if factor is None:
                assert si_cell == cell
            else:  # each written to 10 significant digits
                assert math.isclose(float(si_cell) * factor, float(cell), rel_tol=1e-9)


@pytest.mark.parametrize("command", sorted(SI_CASES))
def test_units_si_writes_the_same_values(tmp_path, command):
    """A run in SI units, given the default run's values in radians and
    tesla, writes the same artefact in SI names and values."""
    _write_input_csv("calibrate", tmp_path / "cal.csv")
    _write_input_csv("fit-nv", tmp_path / "traj.csv")
    paths = {CALIBRATION: str(tmp_path / "cal.csv"), TRAJECTORY: str(tmp_path / "traj.csv")}
    argv = [paths.get(a, a) for a in SI_CASES[command]]
    units = UNIT_FLAGS[command]
    # --units comes last: main converts the flags after parsing all of them
    si_argv = [repr(TO_SI[units[flag]](float(a))) if flag in units else a
               for flag, a in zip([None] + argv, argv)] + ["--units", "si"]
    out, si_out = tmp_path / "default", tmp_path / "si"
    assert main(argv + ["--out", str(out)]) == 0
    assert main(si_argv + ["--out", str(si_out)]) == 0
    assert_same_in_si(command, out.read_text(), si_out.read_text())


def assert_same_in_si(command, default, si):
    """The artefact of a default run, and of the same run in SI units, agree."""
    if command in ("calibrate", "replace", "fit-nv"):
        default, si = json.loads(default), json.loads(si)
        if command == "fit-nv":  # the note names the angle unit in use
            assert default.pop("notes").endswith(" angles reported in [0, 180) deg")
            assert si.pop("notes").endswith(" angles reported in [0, 3.141592654) rad")
        _assert_json_in_si(default, si)
    else:
        _assert_csv_in_si(command, default, si)


def test_readme_lists_the_declared_artefact_columns():
    with open(README) as fh:
        section = fh.read().split("\n## Artefacts\n", 1)[1].split("\n## ", 1)[0]
    csv_commands = {name: c.columns for name, c in cli.COMMANDS.items() if c.columns}
    assert sorted(csv_commands) == ["odmr", "partition", "scan", "schedule"]
    for name, columns in csv_commands.items():
        assert f"- `{name}`: `{','.join(columns)}`" in section, name
