"""Every benchmark command, at the smoke size, passes the CLI boundary and the
benchmark's own artefact check (bench/workloads.py). A boundary that refuses
a benchmark input, or an artefact header or column the benchmark cannot
read, fails here instead of in a benchmark run."""

import os
import sys

import pytest

from fieldarm.cli import main

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BENCH = os.path.join(ROOT, "bench")


def _import_workloads():
    # bench/ is read, never written: no bytecode cache lands there
    sys.path.insert(0, BENCH)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(BENCH)
    return workloads


workloads = _import_workloads()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_bench_commands_pass_their_checks(tmp_path, capsys, workload, seed):
    inputs = workloads.Inputs(ROOT, str(tmp_path), seed, "smoke")
    _, commands = workloads.WORKLOADS[workload](inputs)
    ran = []
    for cmd in commands():
        assert main(cmd.args) == 0, f"{cmd.name}: {capsys.readouterr().err}"
        cmd.check(cmd.out)
        ran.append(cmd.name)
    assert ran and ("replace" in ran) == workload.startswith("plan")
