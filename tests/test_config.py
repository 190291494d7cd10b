import json
import math
import os
import re

import numpy as np
import pytest
import yaml

from fieldarm import config
from fieldarm.cli import main
from fieldarm.config import Domain, RunConfig, config_from_dict, load_config
from fieldarm.errors import ConfigError
from fieldarm.kinematics import default_dh_table

from conftest import CONFIG_DIR
from test_bench_workloads import ROOT, workloads
from test_cli import _numbers


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
    with pytest.raises(ConfigError, match=r"sample_m\[1\]: must be in \[-10, 10\]"):
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
    with pytest.raises(ConfigError, match=r"dh\.link_radii_m\[6\]: must be in \(0, 1\]"):
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
    with pytest.raises(ConfigError, match=r"environment\[0\]\.mesh: cannot read mesh file .*missing\.off"):
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
    with pytest.raises(ConfigError, match="seed: must be an integer >= 0"):
        config_from_dict({"seed": -1})


# ---------------------------------------------------------------------------
# the config boundary through the CLI: every key of the tables, at and past
# its domain's edges

README = os.path.join(ROOT, "README.md")
WALL_OFF = os.path.abspath(os.path.join(CONFIG_DIR, "wall.off"))
GRID = ["--ay-start", "0", "--ay-stop", "10", "--ay-steps", "2",
        "--az-start", "0", "--az-stop", "10", "--az-steps", "2"]
SCAN = ["scan"] + GRID + ["--standoff-m", "0.6"]  # clears a magnet up to 1 m long
PARTITION = ["partition"] + GRID


def _table_keys(table=config.TOP):
    for key in table:
        yield key
        if isinstance(key.domain, list):
            yield from _table_keys(key.domain)


def _full_config():
    """configs/walled.yaml with every optional key written out."""
    with open(os.path.join(CONFIG_DIR, "walled.yaml")) as fh:
        data = yaml.safe_load(fh)
    data["environment"][0].update(mesh=WALL_OFF, translation_m=[0.0, 0.0, 0.0],
                                  rotation_rad=[0.0, 0.0, 0.0])
    return data


def _numeric_paths(table=config.TOP, data=None, path=()):
    """(path, Key) of each number-valued key: a list key at its entry 1, a
    list of records at its last record of the full config."""
    data = _full_config() if data is None else data
    for key in table:
        here = path + (key.name,)
        if not isinstance(key.domain, list):
            if key.kind is not str:
                yield (here + (1,) if key.length else here), key
        elif key.length is None:
            yield from _numeric_paths(key.domain, data[key.name], here)
        else:
            last = len(data[key.name]) - 1
            yield from _numeric_paths(key.domain, data[key.name][last], here + (last,))


NUMERIC = list(_numeric_paths())


def _dotted(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def _with(path, value):
    """The full config with the entry at `path` set to `value`."""
    data = _full_config()
    if path[-1] == "magnetisation_A_per_m":  # one of the two, never both
        del data["magnet"]["remanence_T"]
    node = data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return data


def _run(tmp_path, capsys, data, command):
    """main's exit code, its stderr lines and the artefact (None if it wrote none)."""
    cfg, out = tmp_path / "run.yaml", tmp_path / "artefact"
    cfg.write_text(yaml.safe_dump(data))
    if out.exists():
        out.unlink()
    rc = main(["--config", str(cfg)] + command + ["--out", str(out)])
    return rc, capsys.readouterr().err.splitlines(), out.read_text() if out.exists() else None


def _command(path):
    """partition for the arm and the obstacles, scan for the rest."""
    return PARTITION if path[0] in ("dh", "environment") else SCAN


def test_every_numeric_key_is_in_the_fuzz():
    assert len(NUMERIC) == 17
    assert {key for _, key in NUMERIC} == {
        key for key in _table_keys() if isinstance(key.domain, Domain)}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e300],
                         ids=["nan", "inf", "-inf", "1e300"])
@pytest.mark.parametrize("path", [path for path, _ in NUMERIC], ids=_dotted)
def test_config_number_outside_its_domain_exit_2(tmp_path, capsys, path, value):
    rc, err, artefact = _run(tmp_path, capsys, _with(path, value), _command(path))
    assert rc == 2 and artefact is None
    assert len(err) == 1 and err[0].startswith(f"error: {_dotted(path)}: ")


def test_sample_far_away_exit_2_for_scan_and_partition(tmp_path, capsys):
    for command in (SCAN, PARTITION):
        rc, err, artefact = _run(tmp_path, capsys, _with(("sample_m", 0), 1e300), command)
        assert rc == 2 and artefact is None and len(err) == 1


@pytest.mark.parametrize("block, typo", [
    ((), "samlpe_m"),
    (("dh",), "tool_ofset_m"),
    (("dh", "joints", 2), "alpha_deg"),
    (("magnet",), "inner_radus_m"),
    (("environment", 0), "translaton_m"),
], ids=["top-level", "dh", "dh.joints[2]", "magnet", "environment[0]"])
def test_unknown_key_at_every_level_exit_2(tmp_path, capsys, block, typo):
    data = _full_config()
    node = data
    for step in block:
        node = node[step]
    node[typo] = 0.002
    rc, err, artefact = _run(tmp_path, capsys, data, SCAN)
    assert rc == 2 and artefact is None
    assert err == [f"error: unknown {_dotted(block) or 'top-level'} key '{typo}'"]


def _edges(key):
    """(inside, outside) pairs astride each bound of a key's domain: the
    last value the domain takes and the next float past it."""
    if key.kind is int:
        yield 0, -1
        return
    ok = key.domain.ok
    probes = sorted({0.0, *(s * 10.0 ** k for s in (-1.0, 1.0) for k in range(-3, 301))})
    for a, b in zip(probes, probes[1:]):
        if ok(a) == ok(b):
            continue
        while math.nextafter(a, b) != b:
            m = a / 2 + b / 2
            m = m if a < m < b else math.nextafter(a, b)
            a, b = (m, b) if ok(m) == ok(a) else (a, m)
        yield (a, b) if ok(a) else (b, a)


def test_config_domain_edges_refuse_or_give_finite_artefacts(tmp_path, capsys):
    """Each number-valued key, just inside each bound of its domain: exit 0
    with a finite artefact, or 1; or 2 from a rule across keys, whose error
    names the block and not the key. Just outside: exit 2 naming the key."""
    escapes = []
    for path, key in NUMERIC:
        for inside, outside in _edges(key):
            rc, err, artefact = _run(tmp_path, capsys, _with(path, inside), _command(path))
            finite = rc == 0 and all(map(math.isfinite, _numbers(artefact)))
            named = any(_dotted(path) + ":" in line for line in err)
            if not (finite or rc == 1 or rc == 2 and not named):
                escapes.append(f"{_dotted(path)}={inside!r}: exit {rc} {err}")
            rc, err, artefact = _run(tmp_path, capsys, _with(path, outside), _command(path))
            if rc != 2 or artefact is not None or len(err) != 1 or _dotted(path) not in err[0]:
                escapes.append(f"{_dotted(path)}={outside!r}: exit {rc} {err}")
    assert not escapes


def _mesh_config(tmp_path, mesh_text):
    mesh = tmp_path / "obstacle.off"
    mesh.write_text(mesh_text)
    data = _full_config()
    data["environment"][0]["mesh"] = str(mesh)
    return data


TRIANGLE_ROWS = "0 0 0\n1 0 0\n0 1 0\n"


@pytest.mark.parametrize("mesh_text, command, message", [
    ("OFF\n3 1 0\n0 0 0\n1 0 0\nnan 1 0\n3 0 1 2\n", PARTITION, "vertex 2 is not finite"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n", SCAN, "triangle 0 has area"),
    ("OFF\n3 1 0\n" + TRIANGLE_ROWS + "4 0 1 2\n", PARTITION, "line 6: malformed face"),
    ("OFF\n3 1 0\n" + TRIANGLE_ROWS + "3 0 1 99999999999999999999999\n", PARTITION,
     "line 6: face index 99999999999999999999999"),
    ("OFF\n3 -2\n" + TRIANGLE_ROWS, SCAN, "line 2: OFF counts 3 -2"),
], ids=["nan-vertex-partition", "zero-area-scan", "short-face-partition",
        "huge-index-partition", "negative-count-scan"])
def test_bad_mesh_is_a_config_error(tmp_path, capsys, mesh_text, command, message):
    rc, err, artefact = _run(tmp_path, capsys, _mesh_config(tmp_path, mesh_text), command)
    assert rc == 2 and artefact is None
    assert len(err) == 1 and err[0].startswith("error: environment[0].mesh: ")
    assert message in err[0]


def test_seed_override_writes_one_place(tmp_path, capsys):
    assert "seed" not in RunConfig._fields
    cfg = os.path.join(CONFIG_DIR, "walled.yaml")
    out = tmp_path / "scan.csv"
    assert main(["--config", cfg, "--seed", "7"] + SCAN + ["--out", str(out)]) == 0
    header = [line for line in out.read_text().splitlines() if line.startswith("#")]
    assert json.loads(header[1][len("# config "):])["seed"] == 7
    assert header[2] == "# seed 7"


def test_readme_schema_names_the_table_keys_and_their_domains():
    with open(README) as fh:
        text = fh.read()
    block = text.split("## Configuration schema", 1)[1].split("```yaml\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    # a key starts its line, as a list item or commented out (an alternative key)
    named = {m[1]: line for line in lines if (m := re.match(r"\s*(?:# |- )?(\w+):", line))}
    keys = list(_table_keys())
    assert sorted(named) == sorted(key.name for key in keys)
    for key in keys:
        if isinstance(key.domain, Domain):
            assert key.domain.text in named[key.name], key.name
