"""Traced launcher: time fieldarm's public functions, then run one CLI command.

    python bench/tracer.py SPANS_FILE CLI_ARG...

It wraps the functions in TARGETS, rebinding every name a `fieldarm.*` module
holds for them (`from .x import f` copies the name), calls
`fieldarm.cli.main(CLI_ARG...)` and exits with its code. Spans (name, start,
end, parent) and a per-span count stay in memory and are written to
SPANS_FILE at exit. A target that no longer exists is listed as missing
instead of failing.

The runner reads the files back with `read_spans` and `command_totals`.
"""

import json
import sys
import time
from array import array

import numpy as np

# metric prefix -> (module, attribute path)
TARGETS = {
    "cli.main": ("fieldarm.cli", "main"),
    "config.load_config": ("fieldarm.config", "load_config"),
    "environment.load_mesh": ("fieldarm.environment", "load_mesh"),
    "environment.build_trees": ("fieldarm.environment", "build_trees"),
    "environment.partition_pose_dictionary": ("fieldarm.environment", "partition_pose_dictionary"),
    "environment.pose_feasibility": ("fieldarm.environment", "pose_feasibility"),
    "environment.check_collision": ("fieldarm.environment", "check_collision"),
    "environment.segment_distance": ("fieldarm.environment", "AabbTree.segment_distance"),
    "environment.segment_triangle_distance": ("fieldarm.environment", "segment_triangle_distance"),
    "magnetostatics.cylinder_field": ("fieldarm.magnetostatics", "cylinder_field"),
    "magnetostatics.cel": ("fieldarm.magnetostatics", "cel"),
    "magnetostatics.inverse_dipole": ("fieldarm.magnetostatics", "inverse_dipole"),
    "alignment.sphere_segment_scan": ("fieldarm.alignment", "sphere_segment_scan"),
    "alignment.amplitude_schedule": ("fieldarm.alignment", "amplitude_schedule"),
    "alignment.calibrate_offsets": ("fieldarm.alignment", "calibrate_offsets"),
    "alignment.replace_forbidden_pose": ("fieldarm.alignment", "replace_forbidden_pose"),
    "kinematics.inverse_kinematics": ("fieldarm.kinematics", "inverse_kinematics"),
    "kinematics.frame_chain": ("fieldarm.kinematics", "frame_chain"),
    "nvspin.fit_orientation": ("fieldarm.nvspin", "fit_orientation"),
    "nvspin.characteristic_roots": ("fieldarm.nvspin", "characteristic_roots"),
    "nvspin.odmr_spectrum": ("fieldarm.nvspin", "odmr_spectrum"),
}


def _elements(args, kwargs):
    return float(np.broadcast(*(list(args) + list(kwargs.values()))).size)


def _reachable(result):
    return 1.0 if result.status.value == "Reachable" else 0.0


# per-span counts: taken from the arguments before the call, or the result after
ARG_COUNTS = {"magnetostatics.cel": lambda a, k: _elements(a[:1], {}),
              "nvspin.characteristic_roots": _elements}
RESULT_COUNTS = {"environment.pose_feasibility": _reachable}


# span columns as written to the spans file, with their array type codes
COLUMNS = (("name_id", "i"), ("start", "d"), ("end", "d"), ("parent", "i"), ("count", "d"),
           ("failed", "b"))


class Recorder:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.count = array("d")
        self.failed = array("b")
        self.stack = []
        self.missing = []

    def wrap(self, name, fn):
        ident = len(self.names)
        self.names.append(name)
        before = ARG_COUNTS.get(name)
        after = RESULT_COUNTS.get(name)
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(ident)
            self.parent.append(stack[-1] if stack else -1)
            self.count.append(before(args, kwargs) if before else 0.0)
            self.failed.append(0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[i] = clock()
                self.failed[i] = 1
                stack.pop()
                raise
            self.end[i] = clock()
            stack.pop()
            if after:
                self.count[i] = after(result)
            return result

        return traced

    def count_nfev(self, least_squares):
        """Add each least-squares solve's nfev to the innermost open span."""
        def counted(*args, **kwargs):
            sol = least_squares(*args, **kwargs)
            if self.stack:
                self.count[self.stack[-1]] += sol.nfev
            return sol
        return counted

    def install(self):
        import importlib
        import fieldarm.cli  # noqa: F401  imports every layer
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fieldarm" or n.startswith("fieldarm.")]
        for name, (module_name, path) in TARGETS.items():
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, fn)
            setattr(owner, attr, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)
        scipy_optimize = sys.modules.get("scipy.optimize")
        for module in modules + ([scipy_optimize] if scipy_optimize else []):
            fn = getattr(module, "least_squares", None)
            if fn is not None:
                module.least_squares = self.count_nfev(fn)

    def write(self, path):
        header = {"names": self.names, "n": len(self.start), "missing": self.missing}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _ in COLUMNS:
                getattr(self, key).tofile(fh)


def read_spans(path):
    """(names, missing, columns) where columns are numpy arrays per span."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for key, code in COLUMNS:
            arr = array(code)
            arr.fromfile(fh, header["n"])
            cols[key] = np.array(arr)
    return header["names"], header["missing"], cols


def command_totals(path):
    """Per span name: calls, self_s, total_s, count, failed; plus missing names.

    Self time is a span's duration minus the time its child spans cover.
    """
    names, missing, c = read_spans(path)
    dur = c["end"] - c["start"]
    has_parent = c["parent"] >= 0
    child = np.bincount(c["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    totals = {}
    for ident, name in enumerate(names):
        sel = c["name_id"] == ident
        totals[name] = {"calls": int(sel.sum()), "self_s": float(self_time[sel].sum()),
                        "total_s": float(dur[sel].sum()), "count": float(c["count"][sel].sum()),
                        "failed": int(c["failed"][sel].sum())}
    return totals, missing


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    import fieldarm.cli
    try:
        code = fieldarm.cli.main(cli_args)
    finally:
        recorder.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
