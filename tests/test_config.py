import os

import numpy as np
import pytest
import yaml

from fieldarm import config
from fieldarm.config import config_from_dict, load_config
from fieldarm.errors import ConfigError
from fieldarm.kinematics import default_dh_table

from conftest import CONFIG_DIR
from test_bench_workloads import ROOT, workloads


def test_load_default_config(default_config_path):
    cfg = load_config(default_config_path)
    dh = default_dh_table()
    assert np.allclose(cfg.dh.a, dh.a)
    assert np.allclose(cfg.dh.alpha, dh.alpha, atol=1e-10)
    assert cfg.dh.tool_offset == 0.04
    assert cfg.magnet.outer_radius == 0.02
    assert np.isclose(cfg.magnet.remanence, 1.4)
    assert cfg.environment == []
    assert cfg.seed == 12345
    assert np.allclose(cfg.sample, [0.2, 0.0, 0.3])


def test_load_walled_config(walled_config_path):
    cfg = load_config(walled_config_path)
    assert len(cfg.environment) == 1
    assert cfg.environment[0].triangles.shape == (2, 3)
    assert np.allclose(cfg.environment[0].vertices[:, 1], -0.08)


def test_empty_config_uses_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(str(path))
    assert cfg.seed == 0
    assert np.allclose(cfg.dh.a, default_dh_table().a)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.yaml")


def test_invalid_yaml_is_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("dh: [unclosed")
    with pytest.raises(ConfigError):
        load_config(str(path))


def _bench_mesh_config(tmp_path):
    """The tessellated-wall config as the benchmark writes it (yaml.safe_dump)."""
    inputs = workloads.Inputs(ROOT, str(tmp_path), 1, "full")
    return workloads.plan_mesh_workload(inputs)[0]


@pytest.mark.parametrize("name", ["default.yaml", "walled.yaml", "bench-mesh"])
def test_libyaml_loader_matches_safe_loader(tmp_path, monkeypatch, name):
    path = _bench_mesh_config(tmp_path) if name == "bench-mesh" else os.path.join(CONFIG_DIR, name)
    assert config.YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    fast = load_config(path).resolved
    monkeypatch.setattr(config, "YAML_LOADER", yaml.SafeLoader)
    assert load_config(path).resolved == fast


@pytest.mark.parametrize("text", [".nan", ".inf", "-.inf", "1e400"])
def test_non_finite_numbers_are_config_errors(tmp_path, text):
    path = tmp_path / "non-finite.yaml"
    path.write_text(f"sample_m: [0.2, {text}, 0.3]\n")
    with pytest.raises(ConfigError, match=r"sample_m\[1\]: expected a finite number"):
        load_config(str(path))


def test_joint_errors_name_row_and_field():
    joints = [dict(a_m=0, alpha_rad=0, d_m=0, theta_offset_rad=0,
                   q_min_rad=-1, q_max_rad=1) for _ in range(6)]
    del joints[3]["d_m"]
    with pytest.raises(ConfigError, match=r"joints\[3\].*d_m"):
        config_from_dict({"dh": {"joints": joints}})

    joints = [dict(a_m=0, alpha_rad=0, d_m=0, theta_offset_rad=0,
                   q_min_rad=-1, q_max_rad=1) for _ in range(5)]
    with pytest.raises(ConfigError, match="exactly 6"):
        config_from_dict({"dh": {"joints": joints}})

    joints = [dict(a_m=0, alpha_rad=0, d_m=0, theta_offset_rad=0,
                   q_min_rad=-1, q_max_rad=1) for _ in range(6)]
    joints[2]["a_m"] = "wide"
    with pytest.raises(ConfigError, match=r"joints\[2\].a_m"):
        config_from_dict({"dh": {"joints": joints}})

    joints[2]["a_m"] = 0
    with pytest.raises(ConfigError, match="radii must be > 0"):
        config_from_dict({"dh": {"joints": joints, "link_radii_m": [0.04] * 6 + [0.0]}})


def test_magnet_schema_errors():
    with pytest.raises(ConfigError, match="outer_radius_m"):
        config_from_dict({"magnet": {"length_m": 0.03, "remanence_T": 1.0}})
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict({"magnet": {"outer_radius_m": 0.02, "length_m": 0.03,
                                     "remanence_T": 1.0, "magnetisation_A_per_m": 1e6}})
    with pytest.raises(ConfigError):
        config_from_dict({"magnet": {"outer_radius_m": 0.01, "inner_radius_m": 0.02,
                                     "length_m": 0.03, "remanence_T": 1.0}})


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        config_from_dict({"samlpe_m": [0, 0, 0]})


def test_environment_errors(tmp_path):
    with pytest.raises(ConfigError, match="file not found"):
        config_from_dict({"environment": [{"mesh": "missing.off"}]}, base_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="'mesh'"):
        config_from_dict({"environment": [{"translation_m": [0, 0, 0]}]})


def test_environment_transform_applied(tmp_path):
    mesh_path = tmp_path / "tri.off"
    mesh_path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    cfg = config_from_dict(
        {"environment": [{"mesh": "tri.off", "translation_m": [0, 0, 2.0]}]},
        base_dir=str(tmp_path),
    )
    assert np.allclose(cfg.environment[0].vertices[:, 2], 2.0)


def test_resolved_dict_round_trips(walled_config_path):
    cfg = load_config(walled_config_path)
    cfg2 = config_from_dict(yaml.safe_load(yaml.safe_dump(cfg.resolved)))
    assert cfg2.resolved == cfg.resolved


def test_seed_must_be_integer():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": "abc"})
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": True})
    with pytest.raises(ConfigError, match="non-negative"):
        config_from_dict({"seed": -1})
