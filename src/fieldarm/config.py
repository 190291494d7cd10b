"""Run configuration: the arm, magnet, environment and sample, read from YAML.

Each key is declared once, as a Key in one of the tables below (TOP, DH,
JOINT, MAGNET, ENVIRONMENT); the README's "Configuration schema" lists them
with their domains. `_walk` reads a block through its table: it checks
shapes and list lengths, refuses unknown and missing keys and holds every
number to its Domain, naming the key's path (`dh.joints[3].d_m`) in the
error. `_plain` reads the built objects back through the same tables into
`resolved`, the plain data that artefact headers embed. Rules across keys
(q_min < q_max, inner < outer radius) stay in the dataclasses' own checks.

The Domains are shared with the CLI's flags and input-CSV columns.
"""

import math
import os
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .errors import ConfigError, DegenerateGeometry, ParseError
from .kinematics import DHTable, N_JOINTS, default_dh_table
from .magnetostatics import MAX_DISTANCE_M, MU0, MagnetSpec, default_magnet_spec
from .rotations import euler_to_matrix

# libyaml's parser where PyYAML was built with it; it pairs the same Python
# resolver with the safe constructor, so it gives the same data as SafeLoader
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class Domain(NamedTuple):
    """The values a number may take: help text and test (never NaN)."""

    text: str
    ok: Callable[[float], bool]


NON_NEGATIVE = Domain(">= 0", lambda v: 0 <= v < math.inf)
INDEX = Domain("an integer >= 0", lambda v: 0 <= v < math.inf and v % 1 == 0)


def up_to(hi):
    return Domain(f"in (0, {hi:g}]", lambda v: 0 < v <= hi)


def between(lo, hi):
    return Domain(f"in [{lo:g}, {hi:g}]", lambda v: lo <= v <= hi)


def count(maximum):
    """Integer counts; the maximum keeps a typo from allocating without bound."""
    return Domain(f"an integer in [1, {maximum}]", lambda v: 1 <= v <= maximum)


# a length beyond the magnitude search's reach is a typo, not a robot cell
LENGTH = between(-MAX_DISTANCE_M, MAX_DISTANCE_M)
# one turn either way holds every joint limit, offset and Euler angle
ANGLE = Domain("in [-2pi, 2pi]", lambda v: abs(v) <= 2 * math.pi)
# capsule radii and magnet dimensions: a metre is beyond any bench-top arm or magnet
SIZE = up_to(1.0)
# far above any permanent magnet's remanence (NdFeB: about 1.4 T)
MAX_REMANENCE_T = 10.0

REQUIRED = object()


class Key(NamedTuple):
    """One configuration key: the attribute it fills, what it may hold, its default."""

    name: str                  # the YAML key
    attr: str                  # the attribute it fills; None: records that are parent columns
    domain: object             # a Domain, or the table (a list of Keys) of a mapping
    default: object = REQUIRED  # None: the parent's own default
    length: int = None         # a list of exactly this many entries; 0: of any length
    kind: type = float         # each entry's type


JOINT = [
    Key("a_m", "a", LENGTH),
    Key("alpha_rad", "alpha", ANGLE),
    Key("d_m", "d", LENGTH),
    Key("theta_offset_rad", "theta_offset", ANGLE),
    Key("q_min_rad", "q_min", ANGLE),
    Key("q_max_rad", "q_max", ANGLE),
]
DH = [
    Key("joints", None, JOINT, length=N_JOINTS),
    Key("tool_offset_m", "tool_offset", between(0, MAX_DISTANCE_M), 0.0),  # along flange x
    Key("link_radii_m", "link_radii", SIZE, None, N_JOINTS + 1),
]
MAGNET = [
    Key("outer_radius_m", "outer_radius", SIZE),
    Key("inner_radius_m", "inner_radius", between(0, 1.0), 0.0),  # 0: a solid cylinder
    Key("length_m", "length", SIZE),
    Key("remanence_T", "remanence", up_to(MAX_REMANENCE_T), None),  # header: magnetisation
    Key("magnetisation_A_per_m", "magnetisation", up_to(MAX_REMANENCE_T / MU0), None),
]
ENVIRONMENT = [
    Key("mesh", "mesh", None, kind=str),  # a path relative to the config file
    Key("translation_m", "translation", LENGTH, (0.0, 0.0, 0.0), 3),
    Key("rotation_rad", "rotation", ANGLE, (0.0, 0.0, 0.0), 3),  # extrinsic x-y-z Euler
]
TOP = [
    Key("seed", "seed", INDEX, 0, kind=int),
    Key("sample_m", "sample", LENGTH, (0.2, 0.0, 0.3), 3),
    Key("dh", "dh", DH, None),
    Key("magnet", "magnet", MAGNET, None),
    Key("environment", "environment", ENVIRONMENT, (), 0),
]
_KINDS = {float: "a number", int: "an integer", str: "a path"}


class RunConfig(NamedTuple):
    dh: DHTable
    magnet: MagnetSpec
    environment: list
    sample: np.ndarray
    resolved: dict  # plain-data copy for artefact headers, the seed included

    @property
    def seed(self) -> int:
        return self.resolved["seed"]


def _walk(table, raw, path):
    """The attributes a mapping fills, each key checked against its entry."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'configuration root'}: expected a mapping")
    unknown = [name for name in raw if name not in {key.name for key in table}]
    if unknown:
        raise ConfigError(f"unknown {path or 'top-level'} key '{unknown[0]}'")
    attrs = {}
    for key in table:
        where = f"{path}.{key.name}" if path else key.name
        value = key.default if raw.get(key.name) is None else raw[key.name]
        if value is REQUIRED:
            raise ConfigError(f"missing {path or 'top-level'} key '{key.name}'")
        if value is None or key.length is None:
            attrs[key.attr] = None if value is None else _entry(key, value, where)
            continue
        if not isinstance(value, (list, tuple)) or key.length and len(value) != key.length:
            raise ConfigError(f"{where}: expected a list"
                              + (f" of exactly {key.length} entries" if key.length else ""))
        items = [_entry(key, v, f"{where}[{i}]") for i, v in enumerate(value)]
        if key.attr is None:
            attrs.update({k.attr: np.array([rec[k.attr] for rec in items]) for k in key.domain})
        else:
            attrs[key.attr] = items if isinstance(key.domain, list) else np.array(items)
    return attrs


def _entry(key, raw, where):
    """One checked value of a key: a number in its domain, a path, or a mapping's attributes."""
    if isinstance(key.domain, list):
        return _walk(key.domain, raw, where)
    try:
        if isinstance(raw, bool) or key.kind is not float and not isinstance(raw, key.kind):
            raise TypeError
        value = key.kind(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected {_KINDS[key.kind]}, got {raw!r}") from None
    if key.domain and not key.domain.ok(value):
        raise ConfigError(f"{where}: must be {key.domain.text}, got {raw!r}")
    return value


def _plain(table, attrs):
    """Attributes read back through a table: the plain data an artefact header
    embeds. A key whose attribute the built object does not hold is left out."""
    attrs = attrs if isinstance(attrs, dict) else vars(attrs)  # a DHTable or MagnetSpec
    out = {}
    for key in table:
        value = attrs.get(key.attr) if key.attr else [
            {k.attr: attrs[k.attr][i] for k in key.domain} for i in range(key.length)]
        one = (lambda v: _plain(key.domain, v)) if isinstance(key.domain, list) else key.kind
        if value is not None:
            out[key.name] = one(value) if key.length is None else [one(v) for v in value]
    return out


def _magnet(remanence, magnetisation, **dimensions):
    if (remanence is None) == (magnetisation is None):
        raise ValueError("give exactly one of remanence_T or magnetisation_A_per_m")
    return MagnetSpec(**dimensions, magnetisation=magnetisation or remanence / MU0)


def _placed_mesh(rec, where, base_dir):
    """A record's mesh, loaded and moved into place; the record's path becomes absolute."""
    from .environment import load_mesh  # deferred: only a config with meshes loads it
    rec["mesh"] = path = os.path.abspath(os.path.join(base_dir, rec["mesh"]))
    try:
        mesh = load_mesh(path)
        if np.any(rec["translation"]) or np.any(rec["rotation"]):
            mesh = mesh.transformed(euler_to_matrix(*rec["rotation"]), rec["translation"])
        return mesh
    except (ParseError, DegenerateGeometry) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(data, base_dir=".") -> RunConfig:
    """Build a RunConfig from plain data (a parsed YAML/JSON mapping)."""
    top = _walk(TOP, data, "")
    for block, make, default in (("dh", DHTable, default_dh_table),
                                 ("magnet", _magnet, default_magnet_spec)):
        try:
            top[block] = make(**top[block]) if top[block] else default()
        except ValueError as exc:
            raise ConfigError(f"{block}: {exc}") from None
    return RunConfig(dh=top["dh"], magnet=top["magnet"], sample=top["sample"],
                     environment=[_placed_mesh(rec, f"environment[{i}].mesh", base_dir)
                                  for i, rec in enumerate(top["environment"])],
                     resolved=_plain(TOP, top))


def load_config(path) -> RunConfig:
    """Load and validate a YAML run configuration file."""
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=YAML_LOADER)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from None
    return config_from_dict({} if data is None else data,
                            base_dir=os.path.dirname(os.path.abspath(path)))
