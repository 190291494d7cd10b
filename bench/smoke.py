"""Smoke check of the benchmark itself, at the smallest sizes.

    python3 bench/smoke.py

Run from the repository root. For every workload it runs one untraced and
one traced session and checks that every metric BENCHMARK.json names is
emitted and that every artefact passes its check. Then it corrupts one scan
artefact and checks that the failure is counted. Exits 1 on any problem.
"""

import json
import os
import sys

import run
import workloads


def corrupt_scan(path):
    """Swap the field components of the first data row."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln[:1].isdigit())
    cells = lines[i].split(",")
    cells[2], cells[3] = cells[3], cells[2]
    lines[i] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main():
    root = os.getcwd()
    run.check_checkout(root)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []

    def measure(name, runner, seed=1, corrupt=None):
        bench = run.Bench(root, name, seed, size="smoke", corrupt=corrupt)
        try:
            return runner(bench, 0)
        finally:
            bench.close()

    for name in sorted(workloads.WORKLOADS):
        for runner, key in ((run.run_untraced, "end_to_end"), (run.run_traced, "per_layer")):
            result = measure(name, runner)
            want = {m["name"] for m in spec[key]}
            got = set(result["metrics"])
            if got != want:
                problems.append(f"{name} {key}: missing {sorted(want - got)}, "
                                f"unexpected {sorted(got - want)}")
            problems += [f"{name}: {f}" for f in result["failures"]]
            print(f"{name} {key}: {len(got)} metrics, {result['attempted']} commands, "
                  f"{len(result['failures'])} failed")

    result = measure("field", run.run_untraced, corrupt={"scan": corrupt_scan})
    failed = [f for f in result["failures"] if f.startswith("scan:")]
    print(f"corrupted scan artefact: {len(result['failures'])} of {result['attempted']} "
          f"commands failed")
    if len(failed) != len(result["failures"]) or len(failed) != result["attempted"] // 5:
        problems.append(f"corrupted scan artefact not counted once per session: "
                        f"{result['failures']}")

    for p in problems:
        print(f"PROBLEM {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
