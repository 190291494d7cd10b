"""fieldarm benchmark: CLI time-to-artefact, closed loop with one client.

    python3 bench/run.py --workload field --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. Each session runs the workload's commands one
subprocess at a time (`python -m fieldarm.cli ...`), so the import floor is
counted, and checks every artefact afterwards. Sessions repeat until the
next one would overrun --seconds. End-to-end times are wall times scaled to
a reference machine speed measured by a probe around every subprocess (see
PROBE_CODE). The last line of stdout is one JSON object: with --trace 0 the
end-to-end metrics (medians over the run's sessions), with --trace 1 the
per-layer metrics of traced sessions, which run each command under
bench/tracer.py. The lines before it are a human report. `--workload all`
runs every workload untraced and traced and prints it all.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import workloads
from tracer import command_totals

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
COMMAND_TIMEOUT_S = 60  # the slowest command takes about 6 s
COMMANDS = ("scan", "schedule", "calibrate", "odmr", "fit-nv", "partition", "replace")
SETUP_CODE = ("import sys, fieldarm.cli\n"
              "from fieldarm.config import load_config\n"
              "load_config(sys.argv[1])\n")
# Fixed reference work that does not touch fieldarm: interpreter start-up, a numpy
# import and small-matrix arithmetic in a Python loop, like the CLI's own mix. When
# the host is shared, the machine's speed drifts by half within minutes and swings
# within seconds. The probe runs before and after every timed subprocess, and that
# subprocess's time is divided by the mean of the two; bench/README.md gives the
# measured effect on the spread between runs.
PROBE_CODE = ("import numpy as np\n"
              "a = np.eye(3)\n"
              "s = 0.0\n"
              "for i in range(20000):\n"
              "    s += float((a @ a + i)[0, 0])\n")
PROBE_REF_S = 0.2  # end-to-end times are reported at the speed where the probe takes this
MODULES = ("alignment", "kinematics", "environment", "magnetostatics", "nvspin")
LAYERS = ("cli", "config") + MODULES


def median(values):
    return statistics.median(values)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


class Bench:
    def __init__(self, root, workload, seed, size="full", corrupt=None):
        self.root = root
        os.makedirs(os.path.join(root, ".bench_tmp"), exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(root, ".bench_tmp"))
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        inputs = workloads.Inputs(root, self.work, seed, size)
        self.config, self.commands = workloads.WORKLOADS[workload](inputs)
        self.corrupt = corrupt or {}
        self.probes = []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def python(self, args, stderr=subprocess.DEVNULL):
        return subprocess.run([sys.executable] + args, cwd=self.root, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=stderr,
                              timeout=COMMAND_TIMEOUT_S)

    def setup_once(self):
        t0 = time.perf_counter()
        proc = self.python(["-c", SETUP_CODE, self.config], stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode(errors='replace')[-2000:]}")
        return elapsed

    def probe(self):
        t0 = time.perf_counter()
        self.python(["-c", PROBE_CODE])
        self.probes.append(time.perf_counter() - t0)
        return self.probes[-1]

    def bracketed(self, run):
        """Time run() between two probes: (wall seconds, seconds at reference speed).

        The probe after one call is the probe before the next.
        """
        before = self.probes[-1] if self.probes else self.probe()
        t0 = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - t0
        return result, elapsed, elapsed * PROBE_REF_S / ((before + self.probe()) / 2.0)

    def import_times(self):
        """(total, scipy.optimize) seconds spent importing fieldarm.cli."""
        proc = self.python(["-X", "importtime", "-c", "import fieldarm.cli"],
                           stderr=subprocess.PIPE)
        total = scipy_optimize = 0.0
        for line in proc.stderr.decode().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            name = name.strip()
            if depth == 0 and (name == "fieldarm" or name.startswith("fieldarm.")):
                total += int(cumulative) * 1e-6
            if name == "scipy.optimize":
                scipy_optimize = int(cumulative) * 1e-6
        return total, scipy_optimize

    def session(self, traced=False):
        """Run the workload's commands once; returns a session record.

        Session time is the sum of the commands' wall times, which leaves out
        the probes and artefact checks between them.
        """
        t0 = time.perf_counter()
        records = []
        for cmd in self.commands():
            if os.path.exists(cmd.out):
                os.unlink(cmd.out)
            if traced:
                spans = os.path.join(self.work, f"spans-{len(records)}.bin")
                argv = [os.path.join(HERE, "tracer.py"), spans] + cmd.args
            else:
                spans = None
                argv = ["-m", "fieldarm.cli"] + cmd.args
            try:
                proc, seconds, scaled = self.bracketed(
                    lambda: self.python(argv, stderr=subprocess.PIPE))
                rc, stderr = proc.returncode, proc.stderr.decode(errors="replace")
            except subprocess.TimeoutExpired:
                rc, stderr = "timeout", f"killed after {COMMAND_TIMEOUT_S} s"
                seconds = scaled = COMMAND_TIMEOUT_S
            records.append({"cmd": cmd, "rc": rc, "seconds": seconds, "scaled": scaled,
                            "spans": spans, "stderr": stderr})
        failures = []
        for rec in records:
            cmd = rec["cmd"]
            if cmd.name in self.corrupt and os.path.exists(cmd.out):
                self.corrupt[cmd.name](cmd.out)
            if rec["rc"] != 0:
                failures.append(f"{cmd.name}: exit {rec['rc']}: {rec['stderr'].strip()[-300:]}")
                continue
            try:
                cmd.check(cmd.out)
            except Exception as exc:  # any unreadable or wrong artefact is a failed command
                failures.append(f"{cmd.name}: {type(exc).__name__}: {exc}")
        per_command = {name: 0.0 for name in COMMANDS}
        for rec in records:
            per_command[rec["cmd"].name] += rec["scaled"]
        return {"session_s": sum(r["seconds"] for r in records),
                "scaled_s": sum(r["scaled"] for r in records),
                "elapsed_s": time.perf_counter() - t0, "per_command": per_command,
                "attempted": len(records), "failures": failures, "records": records}

    def setup_times(self):
        """(wall, reference-speed) seconds of SETUP_REPEATS set-ups after a warm-up."""
        self.setup_once()  # compiles bytecode and warms the file cache
        runs = [self.bracketed(self.setup_once) for _ in range(SETUP_REPEATS)]
        return [r[1] for r in runs], [r[2] for r in runs]


def repeat(seconds, step, duration):
    """Call step() until the next call would end after `seconds` (at least once)."""
    out = []
    t0 = time.perf_counter()
    while True:
        out.append(step())
        elapsed = time.perf_counter() - t0
        if elapsed + median([duration(r) for r in out]) > seconds:
            return out


# ---------------------------------------------------------------------------
# per-layer metrics from the traced session

def layer_metrics(session, untraced, import_times):
    agg, missing = {}, set()
    by_command = []
    for rec in session["records"]:
        if not rec["spans"] or not os.path.exists(rec["spans"]):
            continue
        totals, miss = command_totals(rec["spans"])
        missing.update(miss)
        by_command.append((rec["cmd"].name, totals))
        for name, t in totals.items():
            a = agg.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0.0, "failed": 0})
            for key in a:
                a[key] += t[key]

    metrics = {}

    def put(name, unit, value):
        metrics[name] = {"value": value, "unit": unit}

    def ratio(a, b):
        return a / b if b else 0.0

    def have(*names):
        return all(n in agg for n in names)

    put("import.total_s", "s", median([t[0] for t in import_times]))
    put("import.scipy_optimize_s", "s", median([t[1] for t in import_times]))
    for name in ("cli.main", "config.load_config", "environment.load_mesh",
                 "environment.build_trees", "magnetostatics.cylinder_field",
                 "alignment.sphere_segment_scan", "alignment.amplitude_schedule",
                 "alignment.calibrate_offsets", "alignment.replace_forbidden_pose",
                 "kinematics.inverse_kinematics", "kinematics.frame_chain",
                 "environment.pose_feasibility", "environment.check_collision",
                 "environment.segment_triangle_distance", "nvspin.fit_orientation",
                 "nvspin.characteristic_roots", "nvspin.odmr_spectrum"):
        if have(name):
            put(f"{name}.self_s", "s", agg[name]["self_s"])
    for name in ("magnetostatics.cylinder_field", "magnetostatics.cel",
                 "magnetostatics.inverse_dipole", "kinematics.inverse_kinematics",
                 "kinematics.frame_chain", "environment.pose_feasibility",
                 "environment.check_collision", "environment.segment_distance",
                 "environment.segment_triangle_distance", "nvspin.fit_orientation",
                 "nvspin.characteristic_roots"):
        if have(name):
            put(f"{name}.calls", "count", agg[name]["calls"])
    if have("magnetostatics.cel"):
        cel = agg["magnetostatics.cel"]
        put("magnetostatics.cel.elements", "count", cel["count"])
        put("magnetostatics.cel.elements_per_call", "ratio", ratio(cel["count"], cel["calls"]))
    if have("alignment.calibrate_offsets"):
        put("alignment.calibrate_offsets.nfev", "count", agg["alignment.calibrate_offsets"]["count"])
    if have("nvspin.fit_orientation"):
        put("nvspin.fit_orientation.nfev", "count", agg["nvspin.fit_orientation"]["count"])
    if have("nvspin.characteristic_roots"):
        put("nvspin.characteristic_roots.elements", "count",
            agg["nvspin.characteristic_roots"]["count"])
    if have("kinematics.inverse_kinematics"):
        ik = agg["kinematics.inverse_kinematics"]
        put("kinematics.inverse_kinematics.fail_frac", "ratio", ratio(ik["failed"], ik["calls"]))
        if have("kinematics.frame_chain"):
            put("kinematics.frame_chain.calls_per_ik", "ratio",
                ratio(agg["kinematics.frame_chain"]["calls"], ik["calls"]))
    if have("environment.pose_feasibility"):
        pf = agg["environment.pose_feasibility"]
        put("environment.pose_feasibility.reachable_frac", "ratio",
            ratio(pf["count"], pf["calls"]))
        if have("kinematics.inverse_kinematics"):
            put("environment.pose_feasibility.ik_per_call", "ratio",
                ratio(agg["kinematics.inverse_kinematics"]["calls"], pf["calls"]))
    if have("environment.segment_triangle_distance", "environment.segment_distance"):
        put("environment.narrow_per_query", "ratio",
            ratio(agg["environment.segment_triangle_distance"]["calls"],
                  agg["environment.segment_distance"]["calls"]))
    for module in MODULES:
        put(f"{module}.self_s", "s", sum(a["self_s"] for n, a in agg.items()
                                         if n.startswith(module + ".")))
    for name in COMMANDS:
        put(f"{name.replace('-', '_')}_s", "s", untraced["per_command"][name])
    put("fail_frac", "ratio", 0.0)  # set over all sessions by run_traced
    put("trace.overhead_s", "s", session["scaled_s"] - untraced["scaled_s"])
    return metrics, sorted(missing), shares(by_command)


def shares(by_command):
    """Per command and for all of them: in-process time and module self times."""
    rows = {}
    for name, totals in by_command + [("all", t) for _, t in by_command]:
        row = rows.setdefault(name, {"compute_s": 0.0, **{m: 0.0 for m in LAYERS}})
        row["compute_s"] += totals.get("cli.main", {}).get("total_s", 0.0)
        for span, t in totals.items():
            module = span.split(".")[0]
            if module in row:
                row[module] += t["self_s"]
    return rows


# ---------------------------------------------------------------------------
# reporting

def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "pyyaml"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), **versions}


def describe(name, unit, values):
    lo, hi = quartiles(values)
    return (f"  {name:<44} {median(values):>12.6g} {unit:<6} "
            f"q1 {lo:.6g}  q3 {hi:.6g}  n={len(values)}")


def run_untraced(bench, seconds):
    setup, setup_scaled = bench.setup_times()
    sessions = repeat(seconds, bench.session, lambda s: s["elapsed_s"])
    raw = [s["session_s"] for s in sessions]
    scaled = [s["scaled_s"] for s in sessions]
    lines = [describe("session_s (reference speed)", "s", scaled),
             describe("setup_s (reference speed)", "s", setup_scaled),
             describe("session wall time", "s", raw),
             describe("set-up wall time", "s", setup),
             describe("probe wall time", "s", bench.probes)]
    for name in COMMANDS:
        values = [s["per_command"][name] for s in sessions]
        if any(values):
            lines.append(describe(f"{name.replace('-', '_')}_s (reference speed)", "s", values))
    attempted = sum(s["attempted"] for s in sessions)
    failures = [f for s in sessions for f in s["failures"]]
    lines.append(f"  {'fail_frac':<44} {len(failures) / attempted:>12.6g} ratio  "
                 f"({len(failures)} of {attempted} commands)")
    metrics = {"session_s": {"value": median(scaled), "unit": "s"},
               "setup_s": {"value": median(setup_scaled), "unit": "s"}}
    return {"metrics": metrics, "attempted": attempted, "failures": failures, "lines": lines}


def run_traced(bench, seconds):
    """Alternate untraced and traced sessions; the pairs give the overhead."""
    t0 = time.perf_counter()
    bench.setup_once()
    import_times = [bench.import_times() for _ in range(IMPORTTIME_REPEATS)]
    pairs = repeat(seconds - (time.perf_counter() - t0),
                   lambda: (bench.session(), bench.session(traced=True)),
                   lambda p: p[0]["elapsed_s"] + p[1]["elapsed_s"])
    runs = [layer_metrics(traced, plain, import_times) for plain, traced in pairs]
    metrics, missing, share = runs[0]
    unstable = []
    for name, m in metrics.items():  # times are medians over pairs; counts must repeat
        values = [r[0][name]["value"] for r in runs]
        if m["unit"] == "s":
            m["value"] = median(values)
        elif any(v != values[0] for v in values):
            unstable.append(name)
    sessions = [s for pair in pairs for s in pair]
    failures = [f for s in sessions for f in s["failures"]]
    attempted = sum(s["attempted"] for s in sessions)
    metrics["fail_frac"]["value"] = len(failures) / attempted
    metrics["probe_s"] = {"value": median(bench.probes), "unit": "s"}
    lines = [f"  {name:<44} {m['value']:>12.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  session pairs: {len(pairs)}; missing targets: {missing or 'none'}; "
                 f"counts that did not repeat: {unstable or 'none'}")
    lines.append("  in-process time per command and module self-time shares:")
    for cmd, row in share.items():
        parts = "  ".join(f"{m} {row[m] / row['compute_s']:.0%}" for m in LAYERS
                          if row["compute_s"] and row[m] > 0.005 * row["compute_s"])
        lines.append(f"    {cmd:<10} {row['compute_s']:8.3f} s  {parts}")
    return {"metrics": metrics, "attempted": attempted, "failures": failures, "lines": lines}


def result_line(result):
    return json.dumps({"correct": not result["failures"], "attempted": result["attempted"],
                       "failed": len(result["failures"]), "metrics": result["metrics"]})


def check_checkout(root):
    missing = [p for p in ("src/fieldarm/cli.py", "configs/default.yaml", "configs/walled.yaml")
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: run from the fieldarm repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    check_checkout(root)
    print(f"machine {json.dumps(machine())}")
    if args.workload == "all":
        for name in sorted(workloads.WORKLOADS):
            report_all(root, name, args.seed, args.seconds)
        return 0
    bench = Bench(root, args.workload, args.seed)
    try:
        result = (run_traced if args.trace else run_untraced)(bench, args.seconds)
    finally:
        bench.close()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("\n".join(result["lines"] + [f"  FAILED {f}" for f in result["failures"]]))
    print(result_line(result))
    return 0


def report_all(root, name, seed, seconds):
    print(f"workload {name} seed {seed} seconds {seconds}")
    results = []
    for runner in (run_untraced, run_traced):
        bench = Bench(root, name, seed)
        try:
            results.append(runner(bench, seconds))
        finally:
            bench.close()
        print("\n".join(results[-1]["lines"] + [f"  FAILED {f}" for f in results[-1]["failures"]]))
    overhead = results[1]["metrics"]["trace.overhead_s"]["value"]
    print(f"  tracing overhead: {overhead:.3f} s per session "
          f"({overhead / results[0]['metrics']['session_s']['value']:.0%} of session_s), "
          f"both at reference speed")


if __name__ == "__main__":
    sys.exit(main())
