import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from fieldarm.environment import TriangleMesh
from fieldarm.kinematics import default_dh_table, ik_branch_array
from fieldarm.magnetostatics import default_magnet_spec

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

SAMPLE = np.array([0.2, 0.0, 0.3])
STANDOFF = 0.16


def ik_branches(dh, pose):
    """Every IK branch of a spherical-wrist table for one Pose: ik_branch_array on its frame."""
    q, ok = ik_branch_array(dh, pose.matrix()[None])
    return list(q[0, ok[0]])


def frames(poses):
    """The (N, 4, 4) stack of target frames of a list of Poses."""
    return np.array([pose.matrix() for pose in poses])


def _fresh(args, env=None, check=True):
    """`python args` in a fresh interpreter that imports fieldarm from src/;
    `env` sets variables on top of this process's, and a value of None unsets one."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    environ = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               **(env or {})}
    environ = {key: value for key, value in environ.items() if value is not None}
    return subprocess.run([sys.executable, *args], env=environ,
                          capture_output=True, text=True, check=check)


def run_fresh(script, *argv, env=None):
    """stdout of `script` run in a fresh interpreter."""
    return _fresh(["-c", script, *argv], env).stdout


def run_cli(*argv):
    """`python -m fieldarm.cli argv` as a process of its own, whatever its exit code."""
    return _fresh(["-m", "fieldarm.cli", *argv], check=False)


@pytest.fixture(scope="session")
def dh():
    return default_dh_table()


@pytest.fixture(scope="session")
def spec():
    return default_magnet_spec()


@pytest.fixture(scope="session")
def arm(dh):
    """The default table with tapered capsule radii, as in configs/walled.yaml."""
    return dataclasses.replace(dh, link_radii=[0.05, 0.05, 0.04, 0.04, 0.03, 0.03, 0.02])


@pytest.fixture(scope="session")
def wall():
    vertices = np.array([
        [-0.2, -0.08, -0.1], [0.6, -0.08, -0.1], [0.6, -0.08, 0.7], [-0.2, -0.08, 0.7],
    ])
    return TriangleMesh(vertices, [[0, 1, 2], [0, 2, 3]], "wall")


@pytest.fixture(scope="session")
def walled_config_path():
    return os.path.join(CONFIG_DIR, "walled.yaml")


@pytest.fixture(scope="session")
def default_config_path():
    return os.path.join(CONFIG_DIR, "default.yaml")
