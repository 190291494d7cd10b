"""Command-line front end.

Subcommands: scan, calibrate, schedule, partition, replace, odmr, fit-nv.
Output artefacts embed the resolved configuration and seed in comment
headers so a re-run with identical inputs is byte-identical, and files are
written atomically (temp file + rename). Exit codes: 0 success, 1
runtime/algorithmic failure, 2 usage or configuration error.

Every input is declared once, as a Flag in COMMON or COMMANDS (type or
choices, default, help, Domain, Rule; an input CSV's columns as Flags). The
Domains live in `config`, whose tables declare the YAML keys the same way;
`--seed` and the configuration's `seed` share one. A Rule bounds a value by
an earlier flag or column, or by the configuration. The parser and --help,
the one pass of _check_args (out of a domain or rule: exit 2) and a CSV's
`# args` header read these entries. A non-finite artefact value is exit 1.

Units are declared the same way: a Flag's `unit`, or an {angle} or {field}
tag in a CSV column (Command.columns) or JSON key, names its quantity. UNITS
gives each --units mode's label and factors into and out of SI (mT and deg
by default, T and rad with --units si). Commands see and emit SI values.

A subcommand imports only the layers it runs: alignment for all but odmr and
fit-nv, which load nvspin; lsq for calibrate and fit-nv; numpy.random for a
noisy odmr; environment for partition, replace and a config with meshes.
OPENBLAS_NUM_THREADS defaults to 1.

run() is the process entry point (`python -m fieldarm.cli`, the `fieldarm`
script): it freezes the import-time heap, then runs main(). main() does not
freeze, so an in-process caller such as a test keeps its own GC state.
"""

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import sys
import tempfile
from typing import Callable, NamedTuple

# numpy reads it once, on import; arrays of 3x3 to 144x6 never repay a BLAS thread pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .config import (INDEX, MAX_REMANENCE_T, NON_NEGATIVE, REQUIRED, Domain, RunConfig, between,
                     config_from_dict, count, load_config, up_to)
from .errors import ConfigError, FieldArmError, InsufficientData, ParseError, UsageError
from .kinematics import Pose, magnet_pose_for_field_direction, unit_normal
from .magnetostatics import GAMMA_E_DEFAULT, MAX_DISTANCE_M, SCHEDULE_MAX_DISTANCE_M

_USAGE_ERRORS = (ConfigError, ParseError, InsufficientData, UsageError)


class Unit(NamedTuple):
    label: str    # replaces the quantity's tag in a name
    into: float   # given value -> SI
    out: float    # SI -> written value


# math.radians and math.degrees multiply by these same constants
UNITS = {
    "mT-deg": {"angle": Unit("deg", math.pi / 180.0, 180.0 / math.pi),
               "field": Unit("mT", 1e-3, 1e3)},
    "si": {"angle": Unit("rad", 1.0, 1.0), "field": Unit("T", 1.0, 1.0)},
}


class Rule(NamedTuple):
    text: str             # "> other" or ">= other": a --flag or column checked before, or
    of: Callable = None   # RunConfig -> a quantity of the configuration, in SI


class Flag(NamedTuple):
    name: str                # option --name with "_" as "-"; the argparse dest
    kind: object = float     # a type, or a tuple of choices
    default: object = None   # or REQUIRED
    domain: Domain = None    # every int and float flag has one; a unit flag's holds it in SI
    help: str = ""
    columns: tuple = None    # an input CSV: a Flag for each column
    unit: str = None         # "angle" or "field": given in the --units mode's unit
    rule: Rule = None        # held in SI, as the domain is

    @property
    def option(self):
        return "--" + self.name.replace("_", "-")

    @property
    def help_text(self):
        text, limits = self.help, "; ".join(c.text for c in (self.domain, self.rule) if c)
        if limits:
            text = f"{text} ({limits})" if text else limits
        if self.columns:
            text += " with columns " + ", ".join(f"{c.name} ({c.help_text})" for c in self.columns)
        if self.unit:
            text += (f"; {UNITS['mT-deg'][self.unit].label}, "
                     f"or {UNITS['si'][self.unit].label} with --units si")
        return text

    def refusal(self, values, config: RunConfig):
        """How values[name], in SI, breaks the domain or the rule; None if it keeps both."""
        value, rule = values[self.name], self.rule
        if self.domain and value is not None and not self.domain.ok(value):
            return f"must be {self.domain.text}"
        if rule:
            op, other = rule.text.split(" ", 1)
            bound = rule.of(config) if rule.of else values[other.lstrip("-").replace("-", "_")]
            if not (value > bound if op == ">" else value >= bound):
                return f"must be {rule.text} {bound}"


COMMON = (
    Flag("config", str, help="YAML run configuration file"),
    Flag("seed", int, domain=INDEX, help="override the configuration seed"),
    Flag("out", str, help="output artefact path (default: stdout)"),
    Flag("units", tuple(UNITS), "mT-deg", help="units at the CLI boundary (default: mT-deg)"),
)
# ten turns either way, a bound on what a user means by an angle; every pose wraps
# its angles once, and takes its position and axis from the wrapped direction
ANGLE_FLAG = Domain("in [-20pi, 20pi] rad (+-3600 deg)", lambda v: abs(v) <= 20 * math.pi)
STANDOFF = Flag("standoff_m", default=0.16, domain=up_to(MAX_DISTANCE_M), rule=Rule(
    "> the magnet's half-length", lambda config: config.magnet.length / 2.0))
GRID = (
    Flag("ay_start", default=REQUIRED, domain=ANGLE_FLAG, unit="angle"),
    Flag("ay_stop", default=REQUIRED, domain=ANGLE_FLAG, unit="angle"),
    Flag("ay_steps", int, REQUIRED, count(1000)),
    Flag("az_start", default=REQUIRED, domain=ANGLE_FLAG, unit="angle"),
    Flag("az_stop", default=REQUIRED, domain=ANGLE_FLAG, unit="angle"),
    Flag("az_steps", int, REQUIRED, count(1000)),
    STANDOFF,
)
# the upper bounds lie far above any spin defect's and keep the values finite in Hz
NV = (
    Flag("d_GHz", default=2.8704, domain=up_to(1000)),
    Flag("pi_MHz", default=1.8515, domain=between(0, 1e6)),
    Flag("gamma_GHz_per_T", default=GAMMA_E_DEFAULT * 1e-9, domain=up_to(1000)),
)
NV_FIELD = Domain(f"in [-{MAX_REMANENCE_T:g}, {MAX_REMANENCE_T:g}] T",
                  lambda v: abs(v) <= MAX_REMANENCE_T)
TARGET_FIELD = Domain(f"in (0, {MAX_REMANENCE_T:g}] T", lambda v: 0 < v <= MAX_REMANENCE_T)
# up to --d-GHz's own ceiling, as are fit-nv's resonance columns
ODMR_FREQUENCY = between(0, 1e6)
# an input CSV's cells, in the unit each column names, have the flags' bounds for their quantity
ANGLE_COLUMN = between(-3600, 3600)
FIELD_COLUMN = between(-MAX_REMANENCE_T * 1e3, MAX_REMANENCE_T * 1e3)
CALIBRATION_CSV = Flag("input", str, REQUIRED, help="measurement CSV", columns=(
    Flag("alpha_y_deg", domain=ANGLE_COLUMN), Flag("alpha_z_deg", domain=ANGLE_COLUMN),
    Flag("mass_index", domain=INDEX), Flag("Bx_mT", domain=FIELD_COLUMN),
    Flag("By_mT", domain=FIELD_COLUMN), Flag("Bz_mT", domain=FIELD_COLUMN)))
TRAJECTORY_CSV = Flag("input", str, REQUIRED, help="trajectory CSV", columns=(
    Flag("alpha_yB_deg", domain=ANGLE_COLUMN), Flag("alpha_zB_deg", domain=ANGLE_COLUMN),
    Flag("f_minus_MHz", domain=up_to(1e6)),
    Flag("f_plus_MHz", domain=up_to(1e6), rule=Rule(">= f_minus_MHz")),
    Flag("B_hall_mT", domain=up_to(MAX_REMANENCE_T * 1e3))))


def _fmt(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise FieldArmError(f"refusing to write the non-finite value {x}")
    return format(x, ".10g")


def _in_unit(name, units):
    """A name with its tag filled in, and its factor out of SI (None if untagged)."""
    q = next((k for k in units if "{" + k + "}" in name), None)
    return name.format(**{k: unit.label for k, unit in units.items()}), units[q].out if q else None


def _atomic_write(path, text):
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".fieldarm-", suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:  # an --out that cannot be written
        raise UsageError(f"cannot write {path}: {exc}") from None
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(args, text):
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _compact_json(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _emit_csv(args, config: RunConfig, rows):
    """The CSV artefact; its header records the config, seed and flags as given."""
    names, factors = zip(*(_in_unit(c, UNITS[args.units]) for c in COMMANDS[args.command].columns))
    buf = io.StringIO()
    for line in (f"fieldarm {args.command}", f"config {_compact_json(config.resolved)}",
                 f"seed {config.seed}", f"args {_compact_json(args.given)}", f"units {args.units}"):
        buf.write(f"# {line}\n")
    csv.writer(buf, lineterminator="\n").writerows([
        names, *([cell if isinstance(cell, (str, int)) else _fmt(cell * (f or 1.0))
                  for cell, f in zip(row, factors)] for row in rows)])
    _emit(args, buf.getvalue())


def _in_units(payload, units):
    """An SI payload with each tagged key (nested dicts too) named and scaled."""
    converted = {}
    for key, value in payload.items():
        name, f = _in_unit(key, units)
        if isinstance(value, dict):
            value = _in_units(value, units)
        elif f:
            value = [float(v * f) for v in value] if np.ndim(value) else float(value * f)
        converted[name] = value
    return converted


def _json_text(payload):
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise FieldArmError("refusing to write a non-finite value") from None


def _emit_json(args, config: RunConfig, payload):
    _emit(args, _json_text({"command": args.command, "config": config.resolved,
                            "seed": config.seed, **_in_units(payload, UNITS[args.units])}))


def _read_csv_rows(path, columns, config: RunConfig):
    """Data rows as floats, every cell held to its column's domain and rule."""
    try:
        with open(path, newline="") as fh:
            lines = [(i, ln) for i, ln in enumerate(fh, start=1) if not ln.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input file {path}: {exc}") from None
    reader = csv.DictReader(ln for _, ln in lines)
    missing = [c.name for c in columns if c.name not in (reader.fieldnames or ())]
    if missing:
        raise ParseError(f"{path}: missing column '{missing[0]}'", line=lines[0][0] if lines else 1)
    rows = []
    for rec in reader:
        i, parsed = lines[reader.line_num - 1][0], {}  # the file line the row ends on
        for col in columns:
            try:
                parsed[col.name] = float(rec[col.name])
            except (TypeError, ValueError):
                parsed[col.name] = math.nan
            if refusal := col.refusal(parsed, config):
                raise ParseError(f"{path}: column '{col.name}' {refusal}, "
                                 f"got {rec[col.name]!r}", line=i)
        rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows", line=2)
    return rows


def _pose_dict(pose: Pose):
    return {"x_m": float(pose.x), "y_m": float(pose.y), "z_m": float(pose.z),
            "alpha_x_{angle}": pose.alpha_x, "alpha_y_{angle}": pose.alpha_y,
            "alpha_z_{angle}": pose.alpha_z}


def _scan(args, config: RunConfig):
    from .alignment import sphere_segment_scan  # deferred, as in every command that uses it
    ay = np.linspace(args.ay_start, args.ay_stop, args.ay_steps)
    az = np.linspace(args.az_start, args.az_stop, args.az_steps)
    return sphere_segment_scan(config.sample, ay, az, args.standoff_m, config.magnet)


def cmd_scan(args, config: RunConfig):
    from .alignment import angular_error
    scan = _scan(args, config)
    errors = angular_error(scan.fields, scan.axes)
    _emit_csv(args, config, [[ay, az, *B, err, i] for i, (ay, az, B, err)
                             in enumerate(zip(scan.alpha_y, scan.alpha_z, scan.fields, errors))])
    a = UNITS[args.units]["angle"]
    print(f"scan: {len(errors)} poses, mean angular error {float(np.mean(errors)) * a.out:.6g} "
          f"{a.label}, max {float(np.max(errors)) * a.out:.6g} {a.label}", file=sys.stderr)


def cmd_calibrate(args, config: RunConfig):
    from .alignment import calibrate_offsets
    measured = [(math.radians(r["alpha_y_deg"]), math.radians(r["alpha_z_deg"]),
                 int(r["mass_index"]), np.array([r["Bx_mT"], r["By_mT"], r["Bz_mT"]]) * 1e-3)
                for r in args.rows]
    result = calibrate_offsets(measured, config.magnet, config.sample, args.standoff_m)
    _emit_json(args, config, {"delta_alpha_y_{angle}": result.delta_alpha_y,
                              "delta_alpha_z_{angle}": result.delta_alpha_z,
                              "residual_rms_{field}": result.residual_rms})


def cmd_schedule(args, config: RunConfig):
    from .alignment import amplitude_schedule
    sched = amplitude_schedule(np.linspace(args.b_start, args.b_stop, args.steps),
                               config.magnet, unit_normal(args.ay, args.az), config.sample,
                               resolution=args.resolution_m)
    _emit_csv(args, config, zip(*sched))  # the fields are the artefact's columns, in order


def cmd_partition(args, config: RunConfig):
    from .environment import partition_pose_dictionary  # deferred: only partition loads it
    scan = _scan(args, config)
    results = partition_pose_dictionary(scan.frames, config.dh, config.environment,
                                        random_seed=config.seed)
    _emit_csv(args, config, [[ay, az, res.status.value, i] for i, (ay, az, res)
                             in enumerate(zip(scan.alpha_y, scan.alpha_z, results))])


def cmd_replace(args, config: RunConfig):
    from .alignment import replace_forbidden_pose
    forbidden = magnet_pose_for_field_direction(config.sample, args.ay, args.az, args.standoff_m)
    plan = replace_forbidden_pose(
        forbidden, config.sample, config.magnet, config.environment, config.dh,
        displacement_axis=args.axis, search_step=args.step_m, max_steps=args.max_steps,
        rng=config.seed,
    )
    _emit_json(args, config, {
        "original_pose": _pose_dict(plan.original_pose),
        "displaced_pose": _pose_dict(plan.displaced_pose),
        "rotated_pose": _pose_dict(plan.rotated_pose),
        "final_pose": _pose_dict(plan.final_pose),
        "target_field_{field}": plan.target_field,
        "achieved_field_{field}": plan.achieved_field,
        "similarity": float(plan.similarity),
        "far_field_ok": bool(plan.far_field_ok),
        "identity": bool(plan.identity),
    })


def cmd_odmr(args, config: RunConfig):
    from .nvspin import NVParams, odmr_spectrum  # deferred: only odmr and fit-nv load nvspin
    params = NVParams(D=args.d_GHz * 1e9, Pi=args.pi_MHz * 1e6,
                      gamma_e=args.gamma_GHz_per_T * 1e9)
    grid = np.linspace(args.f_start_MHz * 1e6, args.f_stop_MHz * 1e6, args.points)
    # a noise-free spectrum draws nothing, so it leaves numpy.random unloaded
    rng = np.random.default_rng(config.seed) if args.noise > 0 else None
    spectrum = odmr_spectrum(params, np.array([args.bx, args.by, args.bz]),
                             args.linewidth_MHz * 1e6, args.depth, grid,
                             noise_sigma=args.noise, rng=rng)
    _emit_csv(args, config, zip(spectrum.frequencies * 1e-6, spectrum.contrast))


def cmd_fit_nv(args, config: RunConfig):
    from .nvspin import fit_orientation, normalize_splittings  # deferred, as in cmd_odmr
    # subtract in MHz, then scale: scaling first changes the last bits
    splittings = np.array([(r["f_plus_MHz"] - r["f_minus_MHz"]) * 1e6 for r in args.rows])
    magnitudes = np.array([r["B_hall_mT"] * 1e-3 for r in args.rows])
    nu_n = normalize_splittings(splittings, magnitudes)
    trajectory = [(math.radians(r["alpha_yB_deg"]), math.radians(r["alpha_zB_deg"]), nu)
                  for r, nu in zip(args.rows, nu_n)]
    fit = fit_orientation(trajectory, D=args.d_GHz * 1e9, Pi=args.pi_MHz * 1e6,
                          gamma_e=args.gamma_GHz_per_T * 1e9)
    a = UNITS[args.units]["angle"]
    _emit_json(args, config, {
        "alpha_y_nv_{angle}": fit.alpha_y_nv, "alpha_z_nv_{angle}": fit.alpha_z_nv,
        "alpha_y_err_{angle}": fit.alpha_y_err, "alpha_z_err_{angle}": fit.alpha_z_err,
        "B_fit_{field}": fit.B_fit, "B_err_{field}": fit.B_err,
        "residual_rms_Hz": float(fit.residual_rms),
        "notes": "NV axis and its negation are equivalent; angles reported in "
                 f"[0, {_fmt(math.pi * a.out)}) {a.label}",
    })


class Command(NamedTuple):
    run: Callable
    help: str
    flags: tuple
    columns: tuple = None  # a CSV artefact's columns, in order


COMMANDS = {
    "scan": Command(cmd_scan, "sphere-segment scan CSV with angular errors", GRID, (
        "alpha_y_{angle}", "alpha_z_{angle}", "Bx_{field}", "By_{field}", "Bz_{field}",
        "angular_error_{angle}", "order_index")),
    "calibrate": Command(cmd_calibrate, "fit pose offsets from a measurement CSV",
                         (CALIBRATION_CSV, STANDOFF)),
    "schedule": Command(cmd_schedule, "amplitude schedule along a fixed ray", (
        Flag("b_start", float, REQUIRED, TARGET_FIELD, "first target amplitude", unit="field"),
        Flag("b_stop", float, REQUIRED, TARGET_FIELD, "last target amplitude", unit="field"),
        Flag("steps", int, REQUIRED, count(10_000)),
        Flag("ay", default=0.0, domain=ANGLE_FLAG, help="ray direction angle", unit="angle"),
        Flag("az", default=0.0, domain=ANGLE_FLAG, help="ray direction angle", unit="angle"),
        # no finer than the 1e-9 m to which amplitude_schedule bisects
        Flag("resolution_m", default=0.0005, domain=between(1e-9, SCHEDULE_MAX_DISTANCE_M)),
    ), ("target_{field}", "distance_m", "achieved_{field}", "error_{field}", "error_bound_{field}")),
    "partition": Command(cmd_partition, "classify scan poses as reachable/forbidden", GRID,
                         ("alpha_y_{angle}", "alpha_z_{angle}", "status", "order_index")),
    "replace": Command(cmd_replace, "replace one collision-forbidden pose", (
        Flag("ay", default=REQUIRED, domain=ANGLE_FLAG, help="forbidden pose angle", unit="angle"),
        Flag("az", default=REQUIRED, domain=ANGLE_FLAG, help="forbidden pose angle", unit="angle"),
        STANDOFF,
        Flag("axis", ("y", "z"), "y"),
        Flag("step_m", default=0.005, domain=up_to(MAX_DISTANCE_M)),
        Flag("max_steps", int, 40, count(10_000)),
    )),
    "odmr": Command(cmd_odmr, "synthetic ODMR spectrum CSV", NV + (
        Flag("bx", default=0.0, domain=NV_FIELD, help="NV-frame field component", unit="field"),
        Flag("by", default=0.0, domain=NV_FIELD, help="NV-frame field component", unit="field"),
        Flag("bz", default=0.0, domain=NV_FIELD, help="NV-frame field component", unit="field"),
        Flag("f_start_MHz", default=2700.0, domain=ODMR_FREQUENCY),
        Flag("f_stop_MHz", default=3050.0, domain=ODMR_FREQUENCY, rule=Rule("> --f-start-MHz")),
        Flag("points", int, 1001, count(1_000_000)),
        Flag("linewidth_MHz", default=5.0, domain=up_to(10_000)),
        Flag("depth", default=0.02, domain=Domain("in (0, 1)", lambda v: 0 < v < 1)),
        Flag("noise", default=0.0, domain=NON_NEGATIVE),
    ), ("freq_MHz", "contrast")),
    "fit-nv": Command(cmd_fit_nv, "fit NV axis orientation from a trajectory CSV",
                      (TRAJECTORY_CSV,) + NV),
}


def _check_args(args, config: RunConfig):
    """Hold every flag, and each cell of its input CSV, to its domain and rule before any
    work; args keeps the flags as given in `given` and is left in SI, the rows in `rows`."""
    command = COMMANDS[args.command]
    args.given = {flag.name: getattr(args, flag.name) for flag in command.flags}
    if args.out and (os.path.isdir(args.out)
                     or not os.path.isdir(os.path.dirname(os.path.abspath(args.out)))):
        raise UsageError(f"--out {args.out} is a directory, or in a directory that does not exist")
    si = {}
    for flag in COMMON + command.flags:
        value, unit = getattr(args, flag.name), UNITS[args.units].get(flag.unit)
        si[flag.name] = value * unit.into if unit else value
        if refusal := flag.refusal(si, config):
            raise UsageError(f"{flag.option} {refusal}, got {value}"
                             + (f" {unit.label}" if unit else ""))
        if flag.columns:
            args.rows = _read_csv_rows(value, flag.columns, config)
    vars(args).update(si)


def _add_flag(parser, flag: Flag, default):
    kind = {"choices": flag.kind} if isinstance(flag.kind, tuple) else {"type": flag.kind}
    parser.add_argument(flag.option, required=default is REQUIRED, default=default,
                        help=flag.help_text or None, **kind)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for flag in COMMON:
        _add_flag(common, flag, argparse.SUPPRESS)  # main supplies the defaults
    parser = argparse.ArgumentParser(
        prog="fieldarm",
        description="Robot-carried-magnet field planning and NV-sensor toolkit",
        parents=[common],
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            _add_flag(p, flag, flag.default)
    return parser


def main(argv=None) -> int:
    # the common flags' defaults, unless given before or after the subcommand
    defaults = argparse.Namespace(**{flag.name: flag.default for flag in COMMON})
    args = build_parser().parse_args(argv, defaults)
    try:
        config = load_config(args.config) if args.config else config_from_dict({})
        if args.seed is not None:
            config = config._replace(resolved={**config.resolved, "seed": args.seed})
        _check_args(args, config)
        COMMANDS[args.command].run(args, config)
        return 0
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FieldArmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        payload = {"error": type(exc).__name__, "message": str(exc)}
        with contextlib.suppress(UsageError):  # the line above reports the failure
            if args.out:
                _atomic_write(args.out, _json_text(payload))
        return 1


def run() -> int:
    """The process entry point: `python -m fieldarm.cli` and the `fieldarm` script.

    Everything alive here (numpy, PyYAML, fieldarm's tables) lives until
    exit, so gc.freeze() moves it where no collection walks it, the
    collections at interpreter exit included; the objects the command
    creates stay collectable. main() itself does not freeze, so an
    in-process caller keeps its own GC state.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
