"""Command-line front end.

Subcommands: scan, calibrate, schedule, partition, replace, odmr, fit-nv.
The CLI boundary speaks millitesla and degrees by default (--units si
switches to tesla/radians); everything internal is SI. Output artefacts
embed the resolved configuration and seed in comment headers so a re-run
with identical inputs is byte-identical, and files are written atomically
(temp file + rename). Exit codes: 0 success, 1 runtime/algorithmic
failure, 2 usage or configuration error.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .alignment import (
    amplitude_schedule,
    angular_error,
    calibrate_offsets,
    replace_forbidden_pose,
    sphere_segment_scan,
)
from .config import RunConfig, load_config, config_from_dict
from .environment import partition_pose_dictionary
from .errors import ConfigError, FieldArmError, InsufficientData, ParseError, UsageError
from .kinematics import Pose, magnet_pose_for_field_direction, unit_normal
from .nvspin import (
    GAMMA_E_DEFAULT,
    NVParams,
    fit_orientation,
    normalize_splittings,
    odmr_spectrum,
)

_USAGE_ERRORS = (ConfigError, ParseError, InsufficientData, UsageError)
_STEP_COUNTS = ("ay_steps", "az_steps", "steps", "points", "max_steps")
_POSITIVE = ("resolution_m", "linewidth_MHz", "d_GHz", "gamma_GHz_per_T", "step_m")
_NON_NEGATIVE = ("pi_MHz", "seed", "noise")


def _fmt(x) -> str:
    return format(float(x), ".10g")


class Units:
    """Unit conversion at the CLI boundary: mT/deg (default) or SI."""

    def __init__(self, mode):
        self.mode = mode
        self.boundary = mode == "mT-deg"

    def angle_in(self, v):   # CLI -> rad
        return math.radians(v) if self.boundary else v

    def angle_out(self, v):  # rad -> CLI
        return math.degrees(v) if self.boundary else v

    def field_in(self, v):   # CLI -> T
        return v * 1e-3 if self.boundary else v

    def field_out(self, v):  # T -> CLI
        return np.asarray(v) * 1e3 if self.boundary else np.asarray(v)

    @property
    def angle_label(self):
        return "deg" if self.boundary else "rad"

    @property
    def field_label(self):
        return "mT" if self.boundary else "T"


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fieldarm-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text):
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _header_lines(args, config: RunConfig, command, cmd_args):
    blob = json.dumps(config.resolved, sort_keys=True, separators=(",", ":"))
    cmd_blob = json.dumps(cmd_args, sort_keys=True, separators=(",", ":"))
    return [
        f"# fieldarm {command}",
        f"# config {blob}",
        f"# seed {config.seed}",
        f"# args {cmd_blob}",
        f"# units {args.units}",
    ]


def _csv_text(header_lines, columns, rows):
    buf = io.StringIO()
    for line in header_lines:
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _json_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _read_csv_rows(path, required_columns):
    try:
        with open(path, newline="") as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
    except FileNotFoundError:
        raise ConfigError(f"input file not found: {path}") from None
    reader = csv.DictReader(lines)
    if reader.fieldnames is None:
        raise ParseError(f"{path}: empty CSV", line=1)
    missing = [c for c in required_columns if c not in reader.fieldnames]
    if missing:
        raise ParseError(f"{path}: missing column '{missing[0]}'", line=1)
    rows = []
    for i, rec in enumerate(reader, start=2):
        parsed = {}
        for col in required_columns:
            try:
                parsed[col] = float(rec[col])
            except (TypeError, ValueError):
                raise ParseError(
                    f"{path}: bad value {rec.get(col)!r} in column '{col}'", line=i
                ) from None
        rows.append(parsed)
    return rows


def _pose_dict(pose: Pose, units: Units):
    return {
        "x_m": float(pose.x), "y_m": float(pose.y), "z_m": float(pose.z),
        f"alpha_x_{units.angle_label}": float(units.angle_out(pose.alpha_x)),
        f"alpha_y_{units.angle_label}": float(units.angle_out(pose.alpha_y)),
        f"alpha_z_{units.angle_label}": float(units.angle_out(pose.alpha_z)),
    }


def _grid(args, units: Units):
    ay = np.linspace(units.angle_in(args.ay_start), units.angle_in(args.ay_stop),
                     args.ay_steps)
    az = np.linspace(units.angle_in(args.az_start), units.angle_in(args.az_stop),
                     args.az_steps)
    return ay, az


def cmd_scan(args, config: RunConfig, units: Units) -> int:
    ay, az = _grid(args, units)
    points = sphere_segment_scan(config.sample, ay, az, args.standoff_m, config.magnet)
    rows = []
    errors = []
    for pt in points:
        designed = unit_normal(pt.alpha_y, pt.alpha_z)
        err = angular_error(pt.predicted_field, designed)
        errors.append(err)
        b = units.field_out(pt.predicted_field)
        rows.append([
            _fmt(units.angle_out(pt.alpha_y)), _fmt(units.angle_out(pt.alpha_z)),
            _fmt(b[0]), _fmt(b[1]), _fmt(b[2]),
            _fmt(units.angle_out(err)), pt.order_index,
        ])
    a = units.angle_label
    f = units.field_label
    columns = [f"alpha_y_{a}", f"alpha_z_{a}", f"Bx_{f}", f"By_{f}", f"Bz_{f}",
               f"angular_error_{a}", "order_index"]
    cmd_args = {"ay_start": args.ay_start, "ay_stop": args.ay_stop, "ay_steps": args.ay_steps,
                "az_start": args.az_start, "az_stop": args.az_stop, "az_steps": args.az_steps,
                "standoff_m": args.standoff_m}
    _emit(args, _csv_text(_header_lines(args, config, "scan", cmd_args), columns, rows))
    mean_err = units.angle_out(float(np.mean(errors)))
    max_err = units.angle_out(float(np.max(errors)))
    print(f"scan: {len(rows)} poses, mean angular error {mean_err:.6g} {a}, "
          f"max {max_err:.6g} {a}", file=sys.stderr)
    return 0


def cmd_calibrate(args, config: RunConfig, units: Units) -> int:
    recs = _read_csv_rows(args.input, ["alpha_y_deg", "alpha_z_deg", "mass_index",
                                       "Bx_mT", "By_mT", "Bz_mT"])
    measured = [
        (math.radians(r["alpha_y_deg"]), math.radians(r["alpha_z_deg"]),
         int(r["mass_index"]),
         np.array([r["Bx_mT"], r["By_mT"], r["Bz_mT"]]) * 1e-3)
        for r in recs
    ]
    result = calibrate_offsets(measured, config.magnet, config.sample, args.standoff_m)
    payload = {
        "command": "calibrate",
        "config": config.resolved,
        "seed": config.seed,
        f"delta_alpha_y_{units.angle_label}": float(units.angle_out(result.delta_alpha_y)),
        f"delta_alpha_z_{units.angle_label}": [
            float(units.angle_out(v)) for v in result.delta_alpha_z
        ],
        f"residual_rms_{units.field_label}": float(units.field_out(result.residual_rms)),
    }
    _emit(args, _json_text(payload))
    return 0


def cmd_schedule(args, config: RunConfig, units: Units) -> int:
    targets = np.linspace(units.field_in(args.b_start), units.field_in(args.b_stop),
                          args.steps)
    direction = unit_normal(units.angle_in(args.ay), units.angle_in(args.az))
    sched = amplitude_schedule(targets, config.magnet, direction, config.sample,
                               resolution=args.resolution_m)
    f = units.field_label
    columns = [f"target_{f}", "distance_m", f"achieved_{f}", f"error_{f}", f"error_bound_{f}"]
    rows = [
        [_fmt(units.field_out(sched.targets[i])), _fmt(sched.distances[i]),
         _fmt(units.field_out(sched.achieved[i])), _fmt(units.field_out(sched.errors[i])),
         _fmt(units.field_out(sched.error_bounds[i]))]
        for i in range(len(sched.targets))
    ]
    cmd_args = {"b_start": args.b_start, "b_stop": args.b_stop, "steps": args.steps,
                "ay": args.ay, "az": args.az, "resolution_m": args.resolution_m}
    _emit(args, _csv_text(_header_lines(args, config, "schedule", cmd_args), columns, rows))
    return 0


def cmd_partition(args, config: RunConfig, units: Units) -> int:
    ay, az = _grid(args, units)
    points = sphere_segment_scan(config.sample, ay, az, args.standoff_m, config.magnet)
    results = partition_pose_dictionary(
        [pt.pose for pt in points], config.dh, config.environment, random_seed=config.seed
    )
    a = units.angle_label
    columns = [f"alpha_y_{a}", f"alpha_z_{a}", "status", "order_index"]
    rows = [
        [_fmt(units.angle_out(pt.alpha_y)), _fmt(units.angle_out(pt.alpha_z)),
         res.status.value, pt.order_index]
        for pt, res in zip(points, results)
    ]
    cmd_args = {"ay_start": args.ay_start, "ay_stop": args.ay_stop, "ay_steps": args.ay_steps,
                "az_start": args.az_start, "az_stop": args.az_stop, "az_steps": args.az_steps,
                "standoff_m": args.standoff_m}
    _emit(args, _csv_text(_header_lines(args, config, "partition", cmd_args), columns, rows))
    return 0


def cmd_replace(args, config: RunConfig, units: Units) -> int:
    forbidden = magnet_pose_for_field_direction(
        config.sample, units.angle_in(args.ay), units.angle_in(args.az), args.standoff_m
    )
    plan = replace_forbidden_pose(
        forbidden, config.sample, config.magnet, config.environment, config.dh,
        displacement_axis=args.axis, search_step=args.step_m, max_steps=args.max_steps,
        rng=config.seed,
    )
    f = units.field_label
    payload = {
        "command": "replace",
        "config": config.resolved,
        "seed": config.seed,
        "original_pose": _pose_dict(plan.original_pose, units),
        "displaced_pose": _pose_dict(plan.displaced_pose, units),
        "rotated_pose": _pose_dict(plan.rotated_pose, units),
        "final_pose": _pose_dict(plan.final_pose, units),
        f"target_field_{f}": [float(v) for v in units.field_out(plan.target_field)],
        f"achieved_field_{f}": [float(v) for v in units.field_out(plan.achieved_field)],
        "similarity": float(plan.similarity),
        "far_field_ok": bool(plan.far_field_ok),
        "identity": bool(plan.identity),
    }
    _emit(args, _json_text(payload))
    return 0


def cmd_odmr(args, config: RunConfig, units: Units) -> int:
    params = NVParams(D=args.d_GHz * 1e9, Pi=args.pi_MHz * 1e6,
                      gamma_e=args.gamma_GHz_per_T * 1e9)
    B_nv = np.array([units.field_in(args.bx), units.field_in(args.by),
                     units.field_in(args.bz)])
    grid = np.linspace(args.f_start_MHz * 1e6, args.f_stop_MHz * 1e6, args.points)
    rng = np.random.default_rng(config.seed)
    spectrum = odmr_spectrum(params, B_nv, args.linewidth_MHz * 1e6, args.depth,
                             grid, noise_sigma=args.noise, rng=rng)
    columns = ["freq_MHz", "contrast"]
    rows = [[_fmt(fq * 1e-6), _fmt(c)] for fq, c in zip(spectrum.frequencies, spectrum.contrast)]
    cmd_args = {"d_GHz": args.d_GHz, "pi_MHz": args.pi_MHz,
                "gamma_GHz_per_T": args.gamma_GHz_per_T,
                "bx": args.bx, "by": args.by, "bz": args.bz,
                "f_start_MHz": args.f_start_MHz, "f_stop_MHz": args.f_stop_MHz,
                "points": args.points, "linewidth_MHz": args.linewidth_MHz,
                "depth": args.depth, "noise": args.noise}
    _emit(args, _csv_text(_header_lines(args, config, "odmr", cmd_args), columns, rows))
    return 0


def cmd_fit_nv(args, config: RunConfig, units: Units) -> int:
    recs = _read_csv_rows(args.input, ["alpha_yB_deg", "alpha_zB_deg",
                                       "f_minus_MHz", "f_plus_MHz", "B_hall_mT"])
    if len(recs) < 4:
        raise InsufficientData(f"need >= 4 trajectory rows, got {len(recs)}")
    splittings = np.array([(r["f_plus_MHz"] - r["f_minus_MHz"]) * 1e6 for r in recs])
    magnitudes = np.array([r["B_hall_mT"] * 1e-3 for r in recs])
    nu_n = normalize_splittings(splittings, magnitudes)
    trajectory = [
        (math.radians(r["alpha_yB_deg"]), math.radians(r["alpha_zB_deg"]), nu)
        for r, nu in zip(recs, nu_n)
    ]
    fit = fit_orientation(trajectory, D=args.d_GHz * 1e9, Pi=args.pi_MHz * 1e6,
                          gamma_e=args.gamma_GHz_per_T * 1e9)
    a = units.angle_label
    payload = {
        "command": "fit-nv",
        "config": config.resolved,
        "seed": config.seed,
        f"alpha_y_nv_{a}": float(units.angle_out(fit.alpha_y_nv)),
        f"alpha_z_nv_{a}": float(units.angle_out(fit.alpha_z_nv)),
        f"alpha_y_err_{a}": float(units.angle_out(fit.alpha_y_err)),
        f"alpha_z_err_{a}": float(units.angle_out(fit.alpha_z_err)),
        f"B_fit_{units.field_label}": float(units.field_out(fit.B_fit)),
        f"B_err_{units.field_label}": float(units.field_out(fit.B_err)),
        "residual_rms_Hz": float(fit.residual_rms),
        "notes": "NV axis and its negation are equivalent; angles reported in [0, 180) deg",
    }
    _emit(args, _json_text(payload))
    return 0


def _check_args(args, config: RunConfig):
    """Reject command-line values no command can work with, before any work.

    Every float must be finite, step counts (and replace's --max-steps) at
    least 1, the resolution, linewidth, zero-field splitting, gyromagnetic
    ratio and replace's --step-m positive, the strain term, the noise and
    the seed non-negative, the dip depth in (0, 1), and the standoff must
    put the sample beyond the magnet's end face.
    """
    for name, value in sorted(vars(args).items()):
        flag = "--" + name.replace("_", "-")
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value}")
        if name in _STEP_COUNTS and value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
        if name in _POSITIVE and value <= 0:
            raise UsageError(f"{flag} must be > 0, got {value}")
        if name in _NON_NEGATIVE and value is not None and value < 0:
            raise UsageError(f"{flag} must be >= 0, got {value}")
        if name == "depth" and not 0 < value < 1:
            raise UsageError(f"{flag} must be in (0, 1), got {value}")
    half_length = config.magnet.length / 2.0
    if getattr(args, "standoff_m", math.inf) <= half_length:
        raise UsageError(f"--standoff-m {args.standoff_m} m puts the sample inside the "
                         f"magnet (half-length {half_length} m)")


def _angle_default(units_mode, deg_value):
    return deg_value if units_mode == "mT-deg" else math.radians(deg_value)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="YAML run configuration file")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the configuration seed")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output artefact path (default: stdout)")
    common.add_argument("--units", choices=["mT-deg", "si"], default=argparse.SUPPRESS,
                        help="units at the CLI boundary (default: mT-deg)")
    parser = argparse.ArgumentParser(
        prog="fieldarm",
        description="Robot-carried-magnet field planning and NV-sensor toolkit",
        parents=[common],
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    def add_grid(p):
        p.add_argument("--ay-start", type=float, required=True)
        p.add_argument("--ay-stop", type=float, required=True)
        p.add_argument("--ay-steps", type=int, required=True)
        p.add_argument("--az-start", type=float, required=True)
        p.add_argument("--az-stop", type=float, required=True)
        p.add_argument("--az-steps", type=int, required=True)
        p.add_argument("--standoff-m", type=float, default=0.16)

    p = sub.add_parser("scan", help="sphere-segment scan CSV with angular errors")
    add_grid(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("calibrate", help="fit pose offsets from a measurement CSV")
    p.add_argument("--input", required=True,
                   help="CSV: alpha_y_deg,alpha_z_deg,mass_index,Bx_mT,By_mT,Bz_mT")
    p.add_argument("--standoff-m", type=float, default=0.16)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("schedule", help="amplitude schedule along a fixed ray")
    p.add_argument("--b-start", type=float, required=True, help="first target amplitude")
    p.add_argument("--b-stop", type=float, required=True, help="last target amplitude")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--ay", type=float, default=0.0, help="ray direction angle")
    p.add_argument("--az", type=float, default=0.0, help="ray direction angle")
    p.add_argument("--resolution-m", type=float, default=0.0005)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("partition", help="classify scan poses as reachable/forbidden")
    add_grid(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("replace", help="replace one collision-forbidden pose")
    p.add_argument("--ay", type=float, required=True, help="forbidden pose angle")
    p.add_argument("--az", type=float, required=True, help="forbidden pose angle")
    p.add_argument("--standoff-m", type=float, default=0.16)
    p.add_argument("--axis", choices=["y", "z"], default="y")
    p.add_argument("--step-m", type=float, default=0.005)
    p.add_argument("--max-steps", type=int, default=40)
    p.set_defaults(func=cmd_replace)

    p = sub.add_parser("odmr", help="synthetic ODMR spectrum CSV")
    p.add_argument("--d-GHz", type=float, default=2.8704)
    p.add_argument("--pi-MHz", type=float, default=1.8515)
    p.add_argument("--gamma-GHz-per-T", type=float, default=GAMMA_E_DEFAULT * 1e-9)
    p.add_argument("--bx", type=float, default=0.0, help="NV-frame field component")
    p.add_argument("--by", type=float, default=0.0, help="NV-frame field component")
    p.add_argument("--bz", type=float, default=0.0, help="NV-frame field component")
    p.add_argument("--f-start-MHz", type=float, default=2700.0)
    p.add_argument("--f-stop-MHz", type=float, default=3050.0)
    p.add_argument("--points", type=int, default=1001)
    p.add_argument("--linewidth-MHz", type=float, default=5.0)
    p.add_argument("--depth", type=float, default=0.02)
    p.add_argument("--noise", type=float, default=0.0)
    p.set_defaults(func=cmd_odmr)

    p = sub.add_parser("fit-nv", help="fit NV axis orientation from a trajectory CSV")
    p.add_argument("--input", required=True,
                   help="CSV: alpha_yB_deg,alpha_zB_deg,f_minus_MHz,f_plus_MHz,B_hall_mT")
    p.add_argument("--d-GHz", type=float, default=2.8704)
    p.add_argument("--pi-MHz", type=float, default=1.8515)
    p.add_argument("--gamma-GHz-per-T", type=float, default=GAMMA_E_DEFAULT * 1e-9)
    p.set_defaults(func=cmd_fit_nv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, default in (("config", None), ("seed", None), ("out", None),
                          ("units", "mT-deg")):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        if args.config:
            config = load_config(args.config)
        else:
            config = config_from_dict({})
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed,
                                         resolved={**config.resolved, "seed": args.seed})
        _check_args(args, config)
        units = Units(args.units)
        return args.func(args, config, units)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FieldArmError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if args.out:
            _atomic_write(args.out, _json_text(payload))
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
