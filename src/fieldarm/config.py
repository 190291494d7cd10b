"""Run configuration: YAML schema for the arm, magnet, environment and sample.

Schema (all keys optional unless noted; SI units with the unit in the key):

    seed: 12345
    sample_m: [0.2, 0.0, 0.3]
    dh:
      joints:                      # exactly 6 records
        - {a_m: ..., alpha_rad: ..., d_m: ..., theta_offset_rad: ...,
           q_min_rad: ..., q_max_rad: ...}
      tool_offset_m: 0.04
      link_radii_m: [ ... ]        # 7 capsule radii
    magnet:
      outer_radius_m: 0.015
      inner_radius_m: 0.002
      length_m: 0.06
      remanence_T: 1.4             # or magnetisation_A_per_m
    environment:
      - mesh: wall.off             # path relative to the config file
        translation_m: [0, 0, 0]
        rotation_rad: [0, 0, 0]    # extrinsic x-y-z Euler angles

Mesh paths resolve relative to the config file's directory. Missing `dh`
or `magnet` blocks fall back to the nominal defaults.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigError
from .kinematics import DHTable, N_JOINTS, default_dh_table
from .magnetostatics import MagnetSpec, default_magnet_spec
from .rotations import euler_to_matrix

# libyaml's parser where PyYAML was built with it; it pairs the same Python
# resolver with the safe constructor, so it gives the same data as SafeLoader
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_JOINT_FIELDS = ("a_m", "alpha_rad", "d_m", "theta_offset_rad", "q_min_rad", "q_max_rad")


@dataclass(frozen=True)
class RunConfig:
    dh: DHTable
    magnet: MagnetSpec
    environment: list
    sample: np.ndarray
    seed: int
    resolved: dict = field(default_factory=dict)  # plain-data copy for artefact headers


def _number(raw, where):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _vector3(raw, where):
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigError(f"{where}: expected a 3-element list")
    return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(raw)])


def _parse_dh(block) -> DHTable:
    joints = block.get("joints")
    if not isinstance(joints, list) or len(joints) != N_JOINTS:
        raise ConfigError(f"dh.joints: expected exactly {N_JOINTS} joint records")
    cols = {name: [] for name in _JOINT_FIELDS}
    for i, rec in enumerate(joints):
        if not isinstance(rec, dict):
            raise ConfigError(f"dh.joints[{i}]: expected a mapping")
        for name in _JOINT_FIELDS:
            if name not in rec:
                raise ConfigError(f"dh.joints[{i}]: missing field '{name}'")
            cols[name].append(_number(rec[name], f"dh.joints[{i}].{name}"))
        extra = set(rec) - set(_JOINT_FIELDS)
        if extra:
            raise ConfigError(f"dh.joints[{i}]: unknown field '{sorted(extra)[0]}'")
    tool = _number(block.get("tool_offset_m", 0.0), "dh.tool_offset_m")
    radii = block.get("link_radii_m")
    if radii is not None:
        if not isinstance(radii, list) or len(radii) != N_JOINTS + 1:
            raise ConfigError(f"dh.link_radii_m: expected {N_JOINTS + 1} entries")
        radii = np.array([_number(v, f"dh.link_radii_m[{i}]") for i, v in enumerate(radii)])
    try:
        return DHTable(
            a=np.array(cols["a_m"]), alpha=np.array(cols["alpha_rad"]),
            d=np.array(cols["d_m"]), theta_offset=np.array(cols["theta_offset_rad"]),
            q_min=np.array(cols["q_min_rad"]), q_max=np.array(cols["q_max_rad"]),
            tool_offset=tool, link_radii=radii,
        )
    except ValueError as exc:
        raise ConfigError(f"dh: {exc}") from None


def _parse_magnet(block) -> MagnetSpec:
    for name in ("outer_radius_m", "length_m"):
        if name not in block:
            raise ConfigError(f"magnet: missing field '{name}'")
    outer = _number(block["outer_radius_m"], "magnet.outer_radius_m")
    inner = _number(block.get("inner_radius_m", 0.0), "magnet.inner_radius_m")
    length = _number(block["length_m"], "magnet.length_m")
    has_rem = "remanence_T" in block
    has_mag = "magnetisation_A_per_m" in block
    if has_rem == has_mag:
        raise ConfigError("magnet: give exactly one of remanence_T or magnetisation_A_per_m")
    try:
        if has_rem:
            return MagnetSpec.from_remanence(
                outer, inner, length, _number(block["remanence_T"], "magnet.remanence_T")
            )
        return MagnetSpec(
            outer, inner, length,
            _number(block["magnetisation_A_per_m"], "magnet.magnetisation_A_per_m"),
        )
    except ValueError as exc:
        raise ConfigError(f"magnet: {exc}") from None


def _parse_environment(block, base_dir):
    from .environment import load_mesh  # deferred: only a config with meshes loads it
    if not isinstance(block, list):
        raise ConfigError("environment: expected a list of mesh records")
    meshes = []
    records = []
    for i, rec in enumerate(block):
        if not isinstance(rec, dict) or "mesh" not in rec:
            raise ConfigError(f"environment[{i}]: expected a mapping with a 'mesh' path")
        path = rec["mesh"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        path = os.path.abspath(path)
        if not os.path.exists(path):
            raise ConfigError(f"environment[{i}].mesh: file not found: {path}")
        mesh = load_mesh(path)
        t = _vector3(rec.get("translation_m", [0, 0, 0]), f"environment[{i}].translation_m")
        r = _vector3(rec.get("rotation_rad", [0, 0, 0]), f"environment[{i}].rotation_rad")
        if np.any(t != 0.0) or np.any(r != 0.0):
            mesh = mesh.transformed(euler_to_matrix(*r), t)
        meshes.append(mesh)
        records.append({"mesh": path, "translation_m": [float(v) for v in t],
                        "rotation_rad": [float(v) for v in r]})
    return meshes, records


def config_from_dict(data, base_dir=".") -> RunConfig:
    """Build a RunConfig from plain data (a parsed YAML/JSON mapping)."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    known = {"seed", "sample_m", "dh", "magnet", "environment"}
    extra = set(data) - known
    if extra:
        raise ConfigError(f"unknown top-level key '{sorted(extra)[0]}'")

    seed_raw = data.get("seed", 0)
    if not isinstance(seed_raw, int) or isinstance(seed_raw, bool):
        raise ConfigError("seed: expected an integer")
    if seed_raw < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {seed_raw}")
    sample = _vector3(data.get("sample_m", [0.2, 0.0, 0.3]), "sample_m")
    dh = _parse_dh(data["dh"]) if "dh" in data else default_dh_table()
    magnet = _parse_magnet(data["magnet"]) if "magnet" in data else default_magnet_spec()
    env, env_records = (
        _parse_environment(data["environment"], base_dir)
        if "environment" in data else ([], [])
    )

    resolved = {
        "seed": seed_raw,
        "sample_m": [float(v) for v in sample],
        "dh": {
            "joints": [
                {
                    "a_m": float(dh.a[i]), "alpha_rad": float(dh.alpha[i]),
                    "d_m": float(dh.d[i]), "theta_offset_rad": float(dh.theta_offset[i]),
                    "q_min_rad": float(dh.q_min[i]), "q_max_rad": float(dh.q_max[i]),
                }
                for i in range(N_JOINTS)
            ],
            "tool_offset_m": float(dh.tool_offset),
            "link_radii_m": [float(v) for v in dh.link_radii],
        },
        "magnet": {
            "outer_radius_m": magnet.outer_radius, "inner_radius_m": magnet.inner_radius,
            "length_m": magnet.length, "magnetisation_A_per_m": magnet.magnetisation,
        },
        "environment": env_records,
    }
    return RunConfig(dh=dh, magnet=magnet, environment=env, sample=sample,
                     seed=seed_raw, resolved=resolved)


def load_config(path) -> RunConfig:
    """Load and validate a YAML run configuration file."""
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=YAML_LOADER)
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from None
    if data is None:
        data = {}
    return config_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))
