"""Golden artefacts: the README's field commands, a noisy `odmr` and a
`fit-nv` on a trajectory like the benchmark's (its floats are written in
full, so any change to the least-squares path shows), and a partition and a
replace on `bent.yaml` (no spherical wrist, so IK runs the seeded DLS
search), reproduce committed bytes.

The copies in `tests/golden/` were written by `golden_artefact` with numpy
GOLDEN_NUMPY. Absolute paths of the bundled configs (the mesh path in the
walled configuration) are the only part normalised, to `<configs>`. To remake
a copy on purpose, write the text that `golden_artefact(name, out_dir)`
returns, already normalised, to `tests/golden/<name>`, and state each value
that changed. numpy's ufunc rounding may differ between versions, so another
version skips these checks.

The in-process checks run under pytest's numpy, loaded before the CLI could
set its BLAS thread count; one fresh interpreter that imports `fieldarm.cli`
first runs every case again as a CLI process would.
"""

import json
import os

import numpy as np
import pytest

from fieldarm.cli import main

from conftest import CONFIG_DIR, run_fresh

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_NUMPY = "2.4.6"
CASES = {
    "scan.csv": ["scan", "--ay-start", "0", "--ay-stop", "90", "--ay-steps", "19",
                 "--az-start", "0", "--az-stop", "90", "--az-steps", "19",
                 "--standoff-m", "0.16"],
    "schedule.csv": ["schedule", "--b-start", "0.5", "--b-stop", "10", "--steps", "20"],
    "cal.json": ["calibrate", "--input", os.path.join(GOLDEN_DIR, "measurements.csv"),
                 "--standoff-m", "0.16"],
    "odmr.csv": ["--seed", "1", "odmr", "--bx", "0.26922680286637873",
                 "--by", "-1.018390845211885", "--bz", "3.8000845325919643", "--noise", "0.002"],
    "fit_nv.json": ["fit-nv", "--input", os.path.join(GOLDEN_DIR, "trajectory.csv")],
    "plan.json": ["--config", os.path.join(CONFIG_DIR, "walled.yaml"), "replace",
                  "--ay", "30", "--az", "53", "--axis", "y"],
    "bent_partition.csv": ["--config", os.path.join(GOLDEN_DIR, "bent.yaml"), "partition",
                           "--ay-start", "30", "--ay-stop", "85", "--ay-steps", "3",
                           "--az-start", "5", "--az-stop", "85", "--az-steps", "3"],
    "bent_plan.json": ["--config", os.path.join(GOLDEN_DIR, "bent.yaml"), "replace",
                       "--ay", "74", "--az", "37", "--axis", "y"],
}


FRESH_RUN = ("import json, sys\n"
             "from fieldarm.cli import main\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    if main(argv) != 0:\n"
             "        sys.exit(f'failed: {argv}')\n")
SAME_NUMPY = pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                                reason=f"golden artefacts were made with numpy {GOLDEN_NUMPY}")


def _normalised(path):
    with open(path) as fh:
        return fh.read().replace(os.path.abspath(CONFIG_DIR), "<configs>")


def _golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return fh.read()


def golden_artefact(name, out_dir):
    """Run CASES[name] through the CLI into `out_dir`; the normalised artefact text."""
    out = os.path.join(out_dir, name)
    assert main(CASES[name] + ["--out", out]) == 0
    return _normalised(out)


@SAME_NUMPY
@pytest.mark.parametrize("name", sorted(CASES))
def test_artefact_matches_golden_copy(name, tmp_path):
    assert golden_artefact(name, str(tmp_path)) == _golden(name)


@SAME_NUMPY
def test_fresh_cli_process_matches_every_golden_copy(tmp_path):
    """All CASES in one interpreter whose BLAS set-up is the CLI's own."""
    runs = [CASES[name] + ["--out", str(tmp_path / name)] for name in sorted(CASES)]
    run_fresh(FRESH_RUN, json.dumps(runs), env={"OPENBLAS_NUM_THREADS": None})
    for name in sorted(CASES):
        assert _normalised(tmp_path / name) == _golden(name), name
