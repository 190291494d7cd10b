"""The benchmark's tracer wraps library functions by name (bench/tracer.py,
TARGETS). A target that is renamed or deleted is only listed as missing by
the tracer, and its metrics drop out of a traced run's result line without
any command failing; these tests make that a test failure instead."""

import importlib
import importlib.util
import os

import pytest

from fieldarm.config import load_config
from fieldarm.environment import pose_feasibility
from fieldarm.kinematics import magnet_pose_for_field_direction

from conftest import CONFIG_DIR, STANDOFF

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _tracer_targets()


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_tracer_target_resolves_to_a_callable(name):
    module_name, path = TARGETS[name]
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{name}: {module_name}.{path} is gone"


def test_pose_feasibility_result_has_a_status_value():
    # the tracer counts Reachable results through result.status.value
    cfg = load_config(os.path.join(CONFIG_DIR, "walled.yaml"))
    pose = magnet_pose_for_field_direction(cfg.sample, 0.6, 0.9, STANDOFF)
    result = pose_feasibility(pose, cfg.dh, cfg.environment, cfg.dh.home())
    assert result.status.value in ("Reachable", "IkFailure", "Collision")
