"""Workload definitions: inputs generated from the seed, CLI commands, checks.

A workload is a sequence of `fieldarm` commands. `commands()` yields them one
at a time so later commands can depend on earlier artefacts (replace picks
its poses from the partition CSV). Every command carries a check that reads
its artefact and raises CheckFailed when it disagrees with the known truth
or with geometry computed here.

Sizes fix the amount of work; the seed only varies the inputs.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

import truth

SIZES = {
    # scan/partition grids are N x N; calibrate rows are per mass configuration;
    # mesh is the number of cells per side of the tessellated wall (2 N^2 triangles)
    "full": {"scan": 19, "schedule": 20, "calibrate": 8, "odmr": 1001, "fit_nv": 8,
             "partition": 6, "replace": 2, "mesh": 16},
    "smoke": {"scan": 3, "schedule": 3, "calibrate": 4, "odmr": 301, "fit_nv": 4,
              "partition": 3, "replace": 1, "mesh": 4},
}

N_MASSES = 3
CAL_NOISE_MT = 0.01
FIT_NOISE_HZ = 20e3
FIT_FIELD_MT = 3.0
ODMR_LINEWIDTH_MHZ = 5.0
ODMR_RANGE_MHZ = (2700.0, 3050.0)
PLAN_GRID = (30.0, 85.0, 5.0, 85.0)  # README grid: ay start/stop, az start/stop, deg
STANDOFF_M = 0.16
_SQ2 = 1.0 / math.sqrt(2.0)
MIN_SIMILARITY = 0.95


class CheckFailed(Exception):
    pass


@dataclass
class Command:
    name: str
    args: list
    out: str
    check: Callable[[str], None]


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_csv(path, command):
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    require(lines and lines[0] == f"# fieldarm {command}", f"{command}: missing header")
    return list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))


def read_json(path, command):
    with open(path) as fh:
        payload = json.load(fh)
    require(payload.get("command") == command, f"{command}: wrong or missing command key")
    return payload


def num(x):
    """A float as a CLI argument or CSV field, with all its digits."""
    return repr(float(x))


def floats(row, *keys):
    return np.array([float(row[k]) for k in keys])


def angle_deg(u, v):
    c = (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


class Inputs:
    """Shared state of one workload run: paths, the seed's generator, sizes."""

    def __init__(self, root, work, seed, size):
        self.root = root
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.size = SIZES[size]

    def out(self, name):
        return os.path.join(self.work, name)

    def load(self, config):
        with open(config) as fh:
            return yaml.safe_load(fh)


# ---------------------------------------------------------------------------
# field: scan, schedule, calibrate, odmr, fit-nv on the default config

def field_workload(inp: Inputs):
    config = os.path.join(inp.root, "configs", "default.yaml")
    data = inp.load(config)
    magnet = truth.Magnet(data["magnet"])
    rng = inp.rng
    base = ["--config", config]
    cmds = [
        scan_command(inp, base, magnet, rng),
        schedule_command(inp, base, magnet, rng),
        calibrate_command(inp, base, magnet, rng),
        odmr_command(inp, base, rng),
        fit_nv_command(inp, base, rng),
    ]
    return config, lambda: iter(cmds)


def scan_command(inp, base, magnet, rng):
    n = inp.size["scan"]
    ay0, az0 = rng.uniform(0.0, 5.0, 2)
    ay = np.linspace(ay0, ay0 + 85.0, n)
    az = np.linspace(az0, az0 + 85.0, n)
    standoff = float(rng.uniform(0.14, 0.18))
    out = inp.out("scan.csv")
    args = base + ["scan", "--ay-start", num(ay[0]), "--ay-stop", num(ay[-1]),
                   "--ay-steps", str(n), "--az-start", num(az[0]), "--az-stop", num(az[-1]),
                   "--az-steps", str(n), "--standoff-m", num(standoff), "--out", out]
    b_mag = magnet.axial_field(standoff) * 1e3
    step = float(az[1] - az[0])

    def check(path):
        rows = read_csv(path, "scan")
        require(len(rows) == n * n, f"scan: {len(rows)} rows, expected {n * n}")
        for i, row in enumerate(rows):
            k, j = divmod(i, n)
            want_az = az[j] if k % 2 == 0 else az[n - 1 - j]
            require(int(row["order_index"]) == i, "scan: order_index is not 0..N-1")
            a_y, a_z = floats(row, "alpha_y_deg", "alpha_z_deg")
            require(abs(a_y - ay[k]) < 1e-7 and abs(a_z - want_az) < 1e-7,
                    f"scan: row {i} is not the meander's pose")
            b = floats(row, "Bx_mT", "By_mT", "Bz_mT")
            direction = truth.unit_normal(math.radians(a_y), math.radians(a_z))
            require(np.linalg.norm(b - b_mag * direction) <= 1e-6 * b_mag,
                    f"scan: row {i} field differs from the on-axis field")
            err = angle_deg(b, direction)
            require(err <= step, f"scan: row {i} angular error {err} deg > grid step")
            require(abs(float(row["angular_error_deg"]) - err) < 1e-4,
                    f"scan: row {i} reports the wrong angular error")

    return Command("scan", args, out, check)


def schedule_command(inp, base, magnet, rng):
    n = inp.size["schedule"]
    b_start = float(rng.uniform(0.5, 1.0))
    b_stop = float(rng.uniform(9.0, 10.0))
    ay, az = float(rng.uniform(0.0, 60.0)), float(rng.uniform(0.0, 90.0))
    resolution = 0.0005
    out = inp.out("schedule.csv")
    args = base + ["schedule", "--b-start", num(b_start), "--b-stop", num(b_stop),
                   "--steps", str(n), "--ay", num(ay), "--az", num(az),
                   "--resolution-m", num(resolution), "--out", out]
    targets = np.linspace(b_start, b_stop, n)

    def check(path):
        """Each distance is the grid point nearest the exact one.

        The reported error_bound is a first-order estimate (slope times half
        the resolution) and can fall short of the true worst case by about
        0.02%, so |error| is held to the exact worst case and error_bound
        only has to agree with it within 2%.
        """
        rows = read_csv(path, "schedule")
        require(len(rows) == n, f"schedule: {len(rows)} rows, expected {n}")
        last = math.inf
        for i, row in enumerate(rows):
            t, d, a, e, bound = floats(row, "target_mT", "distance_m", "achieved_mT",
                                       "error_mT", "error_bound_mT")
            exact = magnet.distance_for(t * 1e-3)
            worst = max(abs(magnet.axial_field(exact + h) * 1e3 - t)
                        for h in (-resolution / 2, resolution / 2))
            require(abs(t - targets[i]) < 1e-7, f"schedule: row {i} target")
            require(abs(d - exact) <= resolution / 2 + 1e-9,
                    f"schedule: row {i} distance {d} m is not the grid point nearest {exact} m")
            require(abs(d / resolution - round(d / resolution)) < 1e-6,
                    f"schedule: row {i} distance off the resolution grid")
            require(abs(a - magnet.axial_field(d) * 1e3) <= 1e-6 * a,
                    f"schedule: row {i} achieved field differs from the on-axis field")
            require(abs(e - (a - t)) < 1e-7, f"schedule: row {i} error != achieved - target")
            require(abs(e) <= worst + 1e-9 and abs(e) < 0.1,
                    f"schedule: row {i} |error| {abs(e)} mT exceeds {worst} mT or 0.1 mT")
            require(abs(bound - worst) <= 0.02 * worst,
                    f"schedule: row {i} error bound {bound} mT, worst case {worst} mT")
            require(d < last, "schedule: distances do not fall as targets rise")
            last = d

    return Command("schedule", args, out, check)


def calibrate_command(inp, base, magnet, rng):
    per_mass = inp.size["calibrate"]
    d_ay = float(rng.uniform(-3.0, 3.0))
    d_az = rng.uniform(-3.0, 3.0, N_MASSES)
    b_mag = magnet.axial_field(STANDOFF_M) * 1e3
    csv_path = inp.out("calibrate-input.csv")
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["alpha_y_deg", "alpha_z_deg", "mass_index", "Bx_mT", "By_mT", "Bz_mT"])
        for m in range(N_MASSES):
            for _ in range(per_mass):
                ay, az = float(rng.uniform(20.0, 70.0)), float(rng.uniform(5.0, 85.0))
                b = b_mag * truth.unit_normal(math.radians(ay + d_ay), math.radians(az + d_az[m]))
                b = b + rng.normal(0.0, CAL_NOISE_MT, 3)
                w.writerow([num(ay), num(az), m] + [num(v) for v in b])
    out = inp.out("calibrate.json")
    args = base + ["calibrate", "--input", csv_path, "--standoff-m", num(STANDOFF_M),
                   "--out", out]

    def check(path):
        payload = read_json(path, "calibrate")
        fit_az = payload["delta_alpha_z_deg"]
        require(len(fit_az) == N_MASSES, "calibrate: wrong number of mass offsets")
        require(abs(payload["delta_alpha_y_deg"] - d_ay) <= 0.5,
                f"calibrate: alpha_y offset {payload['delta_alpha_y_deg']} vs {d_ay}")
        for m in range(N_MASSES):
            require(abs(fit_az[m] - d_az[m]) <= 0.5,
                    f"calibrate: mass {m} alpha_z offset {fit_az[m]} vs {d_az[m]}")
        require(payload["residual_rms_mT"] <= 3.0 * CAL_NOISE_MT,
                "calibrate: residual rms far above the injected noise")

    return Command("calibrate", args, out, check)


def odmr_command(inp, base, rng):
    points = inp.size["odmr"]
    mag = rng.uniform(2.0, 4.0)
    theta = math.radians(rng.uniform(0.0, 20.0))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    b_nv = mag * np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                           math.cos(theta)])
    lo, hi = ODMR_RANGE_MHZ
    out = inp.out("odmr.csv")
    args = base + ["--seed", str(inp.seed), "odmr",
                   "--d-GHz", num(truth.NV_D * 1e-9), "--pi-MHz", num(truth.NV_PI * 1e-6),
                   "--gamma-GHz-per-T", num(truth.NV_GAMMA * 1e-9),
                   "--bx", num(b_nv[0]), "--by", num(b_nv[1]), "--bz", num(b_nv[2]),
                   "--f-start-MHz", num(lo), "--f-stop-MHz", num(hi),
                   "--points", str(points), "--linewidth-MHz", num(ODMR_LINEWIDTH_MHZ),
                   "--depth", "0.02", "--noise", "0.002", "--out", out]
    expected = np.array(truth.nv_resonances(b_nv * 1e-3)) * 1e-6
    grid = np.linspace(lo, hi, points)
    step = float(grid[1] - grid[0])

    def check(path):
        rows = read_csv(path, "odmr")
        require(len(rows) == points, f"odmr: {len(rows)} rows, expected {points}")
        f = np.array([float(r["freq_MHz"]) for r in rows])
        c = np.array([float(r["contrast"]) for r in rows])
        require(np.allclose(f, grid, rtol=0, atol=1e-6), "odmr: frequency grid")
        found = sorted(dip_centres(f, 1.0 - c, ODMR_LINEWIDTH_MHZ))
        for want, got in zip(expected, found):
            require(abs(got - want) <= step,
                    f"odmr: dip at {got:.4f} MHz, resonance at {want:.4f} MHz")

    return Command("odmr", args, out, check)


def dip_centres(f, depth, linewidth):
    """Centres of the two strongest Lorentzian dips, by matched filter.

    Correlating with the known line shape averages the noise over the line
    width; a parabola through the three best samples refines to sub-grid.
    """
    step = f[1] - f[0]
    hw = linewidth / 2.0
    offsets = np.arange(-int(5 * hw / step), int(5 * hw / step) + 1) * step
    kernel = hw * hw / (offsets**2 + hw * hw)
    score = np.correlate(depth - np.median(depth), kernel, mode="same")
    centres = []
    blocked = np.zeros(len(f), dtype=bool)
    for _ in range(2):
        i = int(np.argmax(np.where(blocked, -np.inf, score)))
        shift = 0.0
        if 0 < i < len(f) - 1:
            y0, y1, y2 = score[i - 1], score[i], score[i + 1]
            denom = y0 - 2.0 * y1 + y2
            if denom < 0:
                shift = 0.5 * (y0 - y2) / denom
        centres.append(f[i] + shift * step)
        blocked |= np.abs(f - f[i]) < 4.0 * linewidth
    return centres


def fit_nv_command(inp, base, rng):
    n = inp.size["fit_nv"]
    ay_nv = 97.6 + float(rng.uniform(-3.0, 3.0))
    az_nv = 64.1 + float(rng.uniform(-3.0, 3.0))
    ay_b = ay_nv + np.linspace(-22.0, 38.0, n) + rng.uniform(-1.0, 1.0, n)
    az_b = az_nv + np.linspace(-12.0, 13.0, n) + rng.uniform(-1.0, 1.0, n)
    csv_path = inp.out("fit-nv-input.csv")
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["alpha_yB_deg", "alpha_zB_deg", "f_minus_MHz", "f_plus_MHz", "B_hall_mT"])
        for a, z in zip(ay_b, az_b):
            gam = truth.field_polar_angle(*np.radians([a, z, ay_nv, az_nv]))
            # azimuth pi/4 bisects the strain axes, where the paper's cubic is exact
            b = FIT_FIELD_MT * 1e-3 * np.array([math.sin(gam) * _SQ2, math.sin(gam) * _SQ2,
                                                 math.cos(gam)])
            fm, fp = np.array(truth.nv_resonances(b)) + rng.normal(0.0, FIT_NOISE_HZ, 2)
            w.writerow([num(a), num(z), num(fm * 1e-6), num(fp * 1e-6),
                        num(FIT_FIELD_MT)])
    out = inp.out("fit-nv.json")
    args = base + ["fit-nv", "--input", csv_path,
                   "--d-GHz", num(truth.NV_D * 1e-9), "--pi-MHz", num(truth.NV_PI * 1e-6),
                   "--gamma-GHz-per-T", num(truth.NV_GAMMA * 1e-9), "--out", out]

    def check(path):
        payload = read_json(path, "fit-nv")
        for key, want in (("alpha_y_nv_deg", ay_nv), ("alpha_z_nv_deg", az_nv)):
            got = payload[key]
            diff = abs((got - want + 90.0) % 180.0 - 90.0)  # the axis is sign-free
            require(diff <= 1.5, f"fit-nv: {key} {got} vs {want}")

    return Command("fit-nv", args, out, check)


# ---------------------------------------------------------------------------
# plan-wall / plan-mesh: partition over the README grid, then replace

def plan_wall_workload(inp: Inputs):
    config = os.path.join(inp.root, "configs", "walled.yaml")
    return config, plan_commands(inp, config)


def plan_mesh_workload(inp: Inputs):
    walled = os.path.join(inp.root, "configs", "walled.yaml")
    data = inp.load(walled)
    (record,) = data["environment"]
    corners = read_off(os.path.join(os.path.dirname(walled), record["mesh"]))[0]
    write_off(inp.out("wall-mesh.off"), *tessellate(corners, inp.size["mesh"], inp.rng))
    data["environment"] = [dict(record, mesh="wall-mesh.off")]
    config = inp.out("mesh.yaml")
    with open(config, "w") as fh:
        yaml.safe_dump(data, fh)
    return config, plan_commands(inp, config)


def read_off(path):
    with open(path) as fh:
        tokens = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    nv, nf = int(tokens[1][0]), int(tokens[1][1])
    vertices = np.array([[float(v) for v in t[:3]] for t in tokens[2:2 + nv]])
    faces = [[int(v) for v in t[1:]] for t in tokens[2 + nv:2 + nv + nf]]
    return vertices, faces


def write_off(path, vertices, triangles):
    with open(path, "w") as fh:
        fh.write(f"OFF\n{len(vertices)} {len(triangles)} 0\n")
        for v in vertices:
            fh.write(" ".join(num(x) for x in v) + "\n")
        for t in triangles:
            fh.write("3 %d %d %d\n" % tuple(t))


def tessellate(corners, n, rng):
    """Split the parallelogram c0 c1 c2 c3 into 2 n^2 triangles.

    The seed draws each cell's diagonal. The vertices stay on the regular
    grid: jittering them reorders the collision tree and changed the number
    of narrow-phase triangle tests by up to 9% between seeds, while the
    diagonals change it by less than 0.1%.
    """
    require(len(corners) == 4, "wall.off is not a single quadrilateral")
    c0, c1, c2, c3 = corners
    require(np.allclose(c2, c1 + c3 - c0), "wall.off is not a parallelogram")
    u, v = np.meshgrid(np.linspace(0, 1, n + 1), np.linspace(0, 1, n + 1), indexing="ij")
    vertices = c0 + u.reshape(-1, 1) * (c1 - c0) + v.reshape(-1, 1) * (c3 - c0)
    flips = rng.random((n, n)) < 0.5
    triangles = []
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            c, d = b + 1, a + 1
            triangles += [[a, b, c], [a, c, d]] if flips[i, j] else [[a, b, d], [b, c, d]]
    return vertices, triangles


def plan_commands(inp, config):
    data = inp.load(config)
    mesh_path = os.path.join(os.path.dirname(config), data["environment"][0]["mesh"])
    vertices = read_off(mesh_path)[0]
    normal = np.linalg.svd(vertices - vertices.mean(axis=0))[2][-1]
    plane = (normal, float(normal @ vertices[0]))
    require(np.allclose(vertices @ normal, plane[1], atol=1e-9), "wall mesh is not planar")
    sample = np.array(data["sample_m"], dtype=float)
    magnet = truth.Magnet(data["magnet"])
    tool_offset = float(data["dh"]["tool_offset_m"])
    tool_radius = float(data["dh"]["link_radii_m"][-1])
    n = inp.size["partition"]
    ay0, ay1, az0, az1 = PLAN_GRID
    grid = {(round(a, 6), round(z, 6)) for a in np.linspace(ay0, ay1, n)
            for z in np.linspace(az0, az1, n)}
    base = ["--config", config]

    def tool_meets_plane(ay, az):
        axis = truth.unit_normal(math.radians(ay), math.radians(az))
        tip = sample - STANDOFF_M * axis
        sp = normal @ (tip - tool_offset * axis) - plane[1]
        sq = normal @ tip - plane[1]
        return sp * sq <= 0.0 or min(abs(sp), abs(sq)) <= tool_radius

    def check_partition(path):
        rows = read_csv(path, "partition")
        seen = {(round(float(r["alpha_y_deg"]), 6), round(float(r["alpha_z_deg"]), 6))
                for r in rows}
        require(len(rows) == n * n and seen == grid, "partition: does not cover the grid")
        require(sorted(int(r["order_index"]) for r in rows) == list(range(n * n)),
                "partition: order_index is not 0..N-1")
        for r in rows:
            require(r["status"] in ("Reachable", "IkFailure", "Collision"),
                    f"partition: unknown status {r['status']!r}")
            if r["status"] == "Reachable":
                require(not tool_meets_plane(float(r["alpha_y_deg"]), float(r["alpha_z_deg"])),
                        "partition: a Reachable pose puts the magnet through the wall")

    def replace_command(ay, az, i):
        out = inp.out(f"replace-{i}.json")
        args = base + ["replace", "--ay", num(ay), "--az", num(az), "--axis", "y",
                       "--standoff-m", num(STANDOFF_M), "--out", out]
        axis = truth.unit_normal(math.radians(ay), math.radians(az))
        target = magnet.axial_field(STANDOFF_M) * 1e3 * axis

        def check(path):
            p = read_json(path, "replace")
            got_target = np.array(p["target_field_mT"])
            achieved = np.array(p["achieved_field_mT"])
            require(np.linalg.norm(got_target - target) <= 1e-6 * np.linalg.norm(target),
                    "replace: target field is not the forbidden pose's on-axis field")
            require(p["similarity"] >= MIN_SIMILARITY, f"replace: similarity {p['similarity']}")
            require(abs(p["similarity"] - truth.similarity(got_target, achieved)) < 1e-9,
                    "replace: similarity disagrees with the reported fields")
            final = p["final_pose"]
            pos = np.array([final["x_m"], final["y_m"], final["z_m"]])
            moment = magnet.moment() * truth.unit_normal(
                math.radians(final["alpha_y_deg"]), math.radians(final["alpha_z_deg"]))
            dipole = truth.dipole_field(moment, sample - pos) * 1e3
            require(np.linalg.norm(dipole - achieved) <= 0.05 * np.linalg.norm(target),
                    "replace: achieved field is not what the final pose produces")

        return Command("replace", args, out, check)

    def commands():
        part = Command("partition", base + [
            "partition", "--ay-start", num(ay0), "--ay-stop", num(ay1), "--ay-steps", str(n),
            "--az-start", num(az0), "--az-stop", num(az1), "--az-steps", str(n),
            "--standoff-m", num(STANDOFF_M), "--out", inp.out("partition.csv")],
            inp.out("partition.csv"), check_partition)
        yield part
        for i, (ay, az) in enumerate(pick_collisions(part.out, inp.size["replace"])):
            yield replace_command(ay, az, i)

    return commands


def pick_collisions(path, k):
    """k Collision rows spread evenly over the partition's meander order.

    The choice is fixed, not drawn from the seed: replace costs differ up to
    tenfold between poses, so a seed-drawn subset would vary the work.
    """
    try:
        rows = read_csv(path, "partition")
    except (OSError, CheckFailed):
        return []
    hits = sorted((int(r["order_index"]), float(r["alpha_y_deg"]), float(r["alpha_z_deg"]))
                  for r in rows if r["status"] == "Collision")
    return [hits[(2 * i + 1) * len(hits) // (2 * k)][1:] for i in range(min(k, len(hits)))]


WORKLOADS = {
    "field": field_workload,
    "plan-wall": plan_wall_workload,
    "plan-mesh": plan_mesh_workload,
}
