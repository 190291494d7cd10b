"""The process entry point, `cli.run()`: `python -m fieldarm.cli` and the
`fieldarm` console script freeze the import-time heap, then run `main()`.

Artefacts and exit codes through `-m` are those of `main()`, and `main()`
called in-process leaves the garbage collector as it found it.
"""

import gc
import os

import pytest

from fieldarm.cli import main

from conftest import CONFIG_DIR, run_cli, run_fresh
from test_golden import CASES, SAME_NUMPY, _golden, _normalised

PYPROJECT = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")


@SAME_NUMPY
@pytest.mark.parametrize("name", ["scan.csv", "cal.json"])
def test_module_entry_point_matches_golden_copy(name, tmp_path):
    proc = run_cli(*CASES[name], "--out", str(tmp_path / name))
    assert proc.returncode == 0, proc.stderr
    assert _normalised(tmp_path / name) == _golden(name)


@pytest.mark.parametrize("argv, code", [
    (["--config", os.path.join(CONFIG_DIR, "walled.yaml"), "replace", "--ay", "30", "--az", "53",
      "--axis", "z"], 1),
    (["odmr", "--f-start-MHz", "3050", "--f-stop-MHz", "2700"], 2),
], ids=["no-reachable-displacement", "odmr-window-backwards"])
def test_module_entry_point_exit_codes(tmp_path, argv, code):
    proc = run_cli(*argv)
    assert proc.returncode == code
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_run_freezes_then_returns_mains_exit_code():
    script = ("import gc, sys\n"
              "from fieldarm import cli\n"
              "sys.argv = ['fieldarm', 'odmr', '--depth', '2']\n"
              "print(gc.get_freeze_count() == 0, cli.run(), gc.get_freeze_count() > 0)\n")
    assert run_fresh(script).split() == ["True", "2", "True"]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert main(["odmr", "--points", "11", "--out", str(tmp_path / "odmr.csv")]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_console_script_is_the_entry_point():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"fieldarm": "fieldarm.cli:run"}
