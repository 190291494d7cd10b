"""The CLI's input contract, checked from its own tables.

Hypothesis draws whole command lines from `cli.COMMON` and `cli.COMMANDS`:
several flags at once, each inside, at or just past an edge that its
Domain's text names (in the `--units` mode drawn), at a Rule's edge, or
non-finite, with the common flags before or after the subcommand. It draws
input CSVs from each `Flag.columns` and configurations from `config`'s Key
tables. The oracle: main() returns 0, 1 or 2 and raises nothing; it exits 2
exactly when a value breaks its domain or rule, or the configuration or
input file is refused, with one `error:` line and no artefact; exit 0 writes
a finite artefact with the declared columns, byte-identical on a re-run.
This is random testing against a specification oracle (Chen, Cheung & Yiu,
HKUST-CS98-01, 1998); the metamorphic relations at the end catch answers
that are wrong but still finite (Segura et al., IEEE TSE 42(9), 2016).

Every draw is derandomized with a fixed example budget, so the suite is
deterministic.
"""

import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import tempfile
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fieldarm import cli, config
from fieldarm.cli import main

from test_cli import (BASE_FLAGS, README, TO_SI, WALLED, _numbers, _write_input_csv,
                      assert_same_in_si)


def fuzz(examples):
    return settings(max_examples=examples, derandomize=True, deadline=None, database=None,
                    suppress_health_check=list(HealthCheck))


NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?(?:pi)?")
BIG = 10**30


def edges(domain):
    """The numbers a Domain's text names up to its interval's close, in SI and
    in order: "20pi" is 20 pi, and a note such as "(+-3600 deg)" is left out."""
    return sorted(float(t[:-2]) * math.pi if t.endswith("pi") else float(t)
                  for t in NUMBER.findall(re.split(r"[])]", domain.text)[0]))


def values_for(flag, units):
    """Value texts for a number flag: one strategy inside its domain, and one
    at, just past or far beyond its edges (non-finite too)."""
    if flag.kind is int:
        lo, *rest = edges(flag.domain)
        # the top of a count is only stepped past: at it a command does all the work it allows
        past = (int(lo) - 1, *(int(hi) + 1 for hi in rest), BIG)
        return (st.sampled_from([str(int(lo) + i) for i in range(3)]),
                st.sampled_from([str(v) for v in past]))
    out = cli.UNITS[units][flag.unit].out if flag.unit else 1.0
    ends = [e * out for e in edges(flag.domain)]
    assert ends, flag.domain.text  # its text names its edges
    lo = ends[0]
    hi = ends[-1] if len(ends) > 1 else lo + 10.0  # one-sided, such as ">= 0": ten above
    inside = [flag.default] if isinstance(flag.default, float) else []
    inside = st.sampled_from(inside + [1.0, 0.5]) | st.floats(lo, hi).filter(
        lambda v: flag.domain.ok(v / out))
    at = [v for e in ends for v in (e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf),
                                    e - 1.0, e + 1.0)]
    far = [-1.0, 1e300, -1e300, math.nan, math.inf, -math.inf]
    return inside.map(repr), st.sampled_from(list(dict.fromkeys(repr(float(v)) for v in at + far)))


class Case(NamedTuple):
    """One command line: the flags given, by name, as text, and what goes with them."""

    command: str
    given: dict
    units: str = "mT-deg"
    common_first: bool = True
    config: dict = None   # a configuration to write and pass as --config
    csv: list = None      # the input CSV's lines, for --input

    def argv(self, config_path=None, csv_path=None, units=None, given=None):
        given = dict(self.given if given is None else given)
        if csv_path:
            given["input"] = csv_path
        common = ["--units", units or self.units]
        if config_path:
            common += ["--config", config_path]
        if "seed" in given:
            common.append(f"--seed={given.pop('seed')}")
        flags = [f"--{name.replace('_', '-')}={value}" for name, value in given.items()]
        if self.common_first:
            return common + [self.command] + flags
        return [self.command] + flags + common


COMMON_NUMBERS = [flag for flag in cli.COMMON if flag.domain]


def _declared(command):
    return {flag.name: flag for flag in cli.COMMON + cli.COMMANDS[command].flags}


def input_columns(command):
    """The column Flags of the command's input CSV, or None if it reads none."""
    return next((flag.columns for flag in cli.COMMANDS[command].flags if flag.columns), None)


def _bound(command, rule, given, cfg):
    """A rule's bound for these flags, as given, or None where it cannot be worked out."""
    if rule.of:
        return None if cfg is None else rule.of(cfg)
    name = rule.text.split(" ", 1)[1].lstrip("-").replace("-", "_")
    return float(given.get(name, _declared(command)[name].default))


DEFAULTS = config.config_from_dict({}).resolved


def _edge_values(domain):
    """Values at and just past a domain's edges."""
    ends = edges(domain)
    return [e for v in ends for e in (v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf))]


@st.composite
def configs(draw):
    """A configuration whose keys, a drawn subset of seed, sample_m and the
    magnet's, sit at their domain edges. The arm keeps its nominal table: one
    without a spherical wrist costs seconds per pose, and its cross-key
    checks are the dataclasses' own."""
    data = {}
    if draw(st.booleans()):
        data["seed"] = draw(st.sampled_from([0, 1, -1, BIG]))
    if draw(st.booleans()):
        sample = list(DEFAULTS["sample_m"])
        sample[draw(st.integers(0, 2))] = draw(st.sampled_from(_edge_values(config.LENGTH)))
        data["sample_m"] = sample
    if draw(st.booleans()):
        magnet = dict(DEFAULTS["magnet"])
        keys = {key.name: key for key in config.MAGNET}
        for name in draw(st.lists(st.sampled_from(sorted(keys)), max_size=2, unique=True)):
            magnet[name] = draw(st.sampled_from(_edge_values(keys[name].domain)))
        data["magnet"] = magnet
    return data


@st.composite
def command_lines(draw, commands):
    """A Case for one of `commands`: every required flag, a drawn subset of the
    others, and perhaps a rule's flag at its edge."""
    command = draw(st.sampled_from(commands))
    units = draw(st.sampled_from(sorted(cli.UNITS)))
    given = {}
    for flag in COMMON_NUMBERS + list(cli.COMMANDS[command].flags):
        if flag.domain is None or flag.kind not in (int, float):
            continue
        if flag.default is config.REQUIRED or draw(st.booleans()):
            inside, edge = values_for(flag, units)
            # mostly inside, so that most lines run; a failing one shrinks towards inside
            given[flag.name] = draw(edge if draw(st.integers(0, 5)) == 5 else inside)
    data = draw(st.sampled_from([False, False, True]).flatmap(
        lambda drawn: configs() if drawn else st.none()))
    cfg = _built(data)
    for flag in cli.COMMANDS[command].flags:
        if flag.rule and draw(st.booleans()):
            bound = _bound(command, flag.rule, given, cfg)
            if bound is not None and math.isfinite(bound):
                step = draw(st.sampled_from([-math.inf, None, math.inf]))
                given[flag.name] = repr(bound if step is None else math.nextafter(bound, step))
    return Case(command, given, units, draw(st.booleans()), data)


def _built(data):
    """The configuration a Case's config data builds, or None if it is refused."""
    try:
        return config.config_from_dict(data or {})
    except config.ConfigError:
        return None


def _refused_flag(case, cfg):
    """Whether some flag of the Case breaks its domain or rule, in table order."""
    si = {}
    for flag in cli.COMMON + cli.COMMANDS[case.command].flags:
        text = case.given.get(flag.name)
        if flag.domain is None or flag.kind not in (int, float):
            si[flag.name] = None
            continue
        value = flag.default if text is None else flag.kind(text)
        if value is not None and flag.unit and case.units == "mT-deg":
            value = TO_SI[flag.unit](value)
        si[flag.name] = value
        if flag.refusal(si, cfg):
            return True
    return False


def _csv_refusal(columns, lines, cfg):
    """The file line (1-based) a CSV's refusal should name, or None if it is not refused."""
    numbered = [(i, ln) for i, ln in enumerate(lines, start=1) if not ln.startswith("#")]
    if not numbered:
        return 1
    header = next(csv.reader([numbered[0][1]]))
    if any(c.name not in header for c in columns):
        return numbered[0][0]
    if len(numbered) == 1:
        return 2
    for i, line in numbered[1:]:
        cells = dict(zip(header, next(csv.reader([line]))))
        row = {}
        for column in columns:
            try:
                row[column.name] = float(cells.get(column.name))
            except (TypeError, ValueError):
                row[column.name] = math.nan
            if column.refusal(row, cfg):
                return i
    return None


def _declared_columns(command, units):
    labels = {quantity: unit.label for quantity, unit in cli.UNITS[units].items()}
    return [name.format(**labels) for name in cli.COMMANDS[command].columns]


def _run(argv):
    """main(argv): its exit code and stderr lines; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


def check_contract(case):
    """Run a Case and hold main() to the contract the tables declare."""
    cfg = _built(case.config)
    refused, line = cfg is None or _refused_flag(case, cfg), None
    if case.csv is not None and not refused:
        line = _csv_refusal(input_columns(case.command), case.csv, cfg)
        refused = line is not None
    with tempfile.TemporaryDirectory() as tmp:
        config_path = csv_path = None
        if case.config is not None:
            config_path = os.path.join(tmp, "run.yaml")
            with open(config_path, "w") as fh:
                yaml.safe_dump(case.config, fh)
        if case.csv is not None:
            csv_path = os.path.join(tmp, "input.csv")
            with open(csv_path, "w", newline="") as fh:
                fh.writelines(case.csv)
        out = os.path.join(tmp, "artefact")
        argv = case.argv(config_path, csv_path) + ["--out", out]
        rc, err = _run(argv)
        assert rc in (0, 1, 2), (argv, rc)
        # an input CSV that keeps every domain may still hold too few rows to fit: exit 2 too
        assert (rc == 2) == refused or (rc == 2 and case.csv is not None), (argv, rc, err)
        if rc == 2:
            assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
            assert not os.path.exists(out), argv
            if line is not None:
                assert err[0].startswith(f"error: line {line}: "), (argv, err, case.csv)
        elif rc == 1:
            assert err[-1].startswith("error: "), (argv, err)
            with open(out) as fh:
                assert "error" in json.load(fh), argv
        else:
            with open(out) as fh:
                text = fh.read()
            assert all(map(math.isfinite, _numbers(text))), (argv, text)
            if cli.COMMANDS[case.command].columns:
                header = next(ln for ln in text.splitlines() if not ln.startswith("#"))
                assert header.split(",") == _declared_columns(case.command, case.units), argv
            else:
                assert "{" not in "".join(json.loads(text)), argv  # every key's tag filled in
            again = os.path.join(tmp, "again")
            assert _run(argv[:-1] + [again])[0] == 0, argv
            with open(again) as fh:
                assert fh.read() == text, argv
            if case.units == "mT-deg":
                si_out = os.path.join(tmp, "si")
                assert _run(_in_si(case, config_path, csv_path) + ["--out", si_out])[0] == 0, argv
                with open(si_out) as fh:
                    assert_same_in_si(case.command, text, fh.read())


def _in_si(case, config_path, csv_path):
    """The Case's command line in SI units, every unit flag's value converted."""
    declared = _declared(case.command)
    given = {name: repr(TO_SI[declared[name].unit](float(value))) if declared[name].unit else value
             for name, value in case.given.items()}
    return case.argv(config_path, csv_path, units="si", given=given)


FLAG_COMMANDS = ["odmr", "partition", "replace", "scan", "schedule"]


@fuzz(80)
@given(case=command_lines(FLAG_COMMANDS))
@example(case=Case("schedule", {"b_start": "-1.0", "b_stop": "10.0", "steps": "3"}))
@example(case=Case("schedule", {"b_start": "0.0", "b_stop": "10.0", "steps": "3"}))
@example(case=Case("schedule", {"b_start": "1e+300", "b_stop": "10.0", "steps": "3"}))
def test_command_lines_keep_the_contract(case):
    check_contract(case)


@st.composite
def input_files(draw):
    """A calibrate or fit-nv Case whose input CSV is the valid one, edited:
    rows cut, cells set at or past their column's edges, a column dropped or
    added, comment lines put in."""
    case = draw(command_lines(["calibrate", "fit-nv"]))
    columns = input_columns(case.command)
    lines = list(valid_csv(case.command))
    header, *rows = [ln.rstrip("\r\n").split(",") for ln in lines]
    rows = rows[:len(rows) - draw(st.sampled_from([0, 0, 0, 1, 2, len(rows) - 1, len(rows)]))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        if rows:
            column = draw(st.sampled_from(columns))
            row = draw(st.integers(0, len(rows) - 1))
            values = [repr(v) for v in _edge_values(column.domain)] + ["nan", "inf", "", "x"]
            rows[row][header.index(column.name)] = draw(st.sampled_from(values))
    edit = draw(st.sampled_from([None, "drop", "extra"]))
    if edit:
        at = draw(st.integers(0, len(header) - 1))
        for cells in [header] + rows:
            if edit == "drop":
                del cells[at]
            else:
                cells.insert(at, "extra" if cells is header else "1")
    text = [",".join(cells) + "\n" for cells in [header] + rows]
    for _ in range(draw(st.integers(0, 2))):
        text.insert(draw(st.integers(0, len(text))), "# a comment, 1,2\n")
    return case._replace(csv=text)


@functools.cache
def valid_csv(command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        _write_input_csv(command, path)
        with open(path) as fh:
            return tuple(fh)


@fuzz(40)
@given(case=input_files())
@example(case=Case("fit-nv", {}, csv=[  # a refused row after a comment names its own line
    "# measured 2026-01-01\n", "alpha_yB_deg,alpha_zB_deg,f_minus_MHz,f_plus_MHz,B_hall_mT\n",
    "# swapped\n", "75,52,2880,2870,3\n"]))
@example(case=Case("calibrate", {}, csv=[
    "# no header yet\n", "alpha_y_deg,alpha_z_deg\n", "1,2\n"]))
def test_input_files_keep_the_contract(case):
    check_contract(case)


def declared_rules():
    """(command, flag, column or None, rule) for every Rule in cli's tables."""
    for name, command in cli.COMMANDS.items():
        for flag in command.flags:
            for column in (None, *(flag.columns or ())):
                rule = (column or flag).rule
                if rule:
                    yield name, flag, column, rule


NUMBER_WORDS = ["No", "One", "Two", "Three", "Four", "Five", "Six", "Seven", "Eight"]


def test_readme_lists_the_declared_rules():
    """The README's rules paragraph is the tables' rules, one line per flag or column."""
    with open(README) as fh:
        text = fh.read()
    commands = {}
    for name, flag, column, rule in declared_rules():
        what = f"`{flag.option}`" + (f" column `{column.name}`" if column else "")
        commands.setdefault(f"- {what} {rule.text}: ", []).append(f"`{name}`")
    expected = [what + ", ".join(names) for what, names in commands.items()]
    listed = text.split("tables declare them:\n\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert listed == expected
    assert f" {NUMBER_WORDS[len(expected)]} rules span fields." in text


RULES = list(declared_rules())


@pytest.mark.parametrize("command, flag, column, rule", RULES,
                         ids=[f"{c}-{(col or f).name}" for c, f, col, _ in RULES])
def test_rule_edges(tmp_path, command, flag, column, rule):
    """Just past a rule's edge is exit 2 with one `error:` line that names the
    rule, and no artefact; just inside it is exit 0."""
    given, rows = dict(BASE_FLAGS[command]), None
    if input_columns(command):
        rows = list(csv.reader(valid_csv(command)))
        given["input"] = str(tmp_path / "input.csv")
    op, other = rule.text.split(" ", 1)
    if column:  # the first data row, file line 2
        bound = float(rows[1][rows[0].index(other)])
    else:
        assert flag.unit is None  # the bound is then the same in both unit modes
        bound = _bound(command, rule, given, config.config_from_dict({}))
    just_inside = math.nextafter(bound, math.inf) if op == ">" else bound
    just_past = bound if op == ">" else math.nextafter(bound, -math.inf)
    for value, expected in ((just_past, 2), (just_inside, 0)):
        if column:
            rows[1][rows[0].index(column.name)] = repr(value)
        else:
            given[flag.name] = repr(value)
        if rows:
            with open(tmp_path / "input.csv", "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        out = tmp_path / "artefact"
        rc, err = _run(Case(command, given).argv() + ["--out", str(out)])
        assert rc == expected, (given, err)
        assert out.exists() == (expected == 0)
        if expected == 2:
            assert len(err) == 1 and f" must be {rule.text} {bound!r}, got " in err[0], err
            assert err[0].startswith("error: line 2: " if column else f"error: {flag.option} ")


@pytest.mark.parametrize("command, flag, column, rule", RULES,
                         ids=[f"{c}-{(col or f).name}" for c, f, col, _ in RULES])
def test_help_lists_each_rule_beside_its_domain(capsys, command, flag, column, rule):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    if column:
        assert f"{column.name} ({column.domain.text}; {rule.text})" in text
    else:
        assert f"{flag.option} {flag.name.upper()} {flag.domain.text}; {rule.text}" in text


def test_rules_read_only_values_checked_before_them():
    """A rule's other flag or column comes earlier in its table, so one pass in
    table order meets it already held to its domain."""
    for command, flag, column, rule in RULES:
        if rule.of:
            continue
        other = rule.text.split(" ", 1)[1]
        names = ([c.name for c in flag.columns] if column else
                 [f.option for f in cli.COMMON + cli.COMMANDS[command].flags])
        assert names.index(other) < names.index(column.name if column else flag.option)


# ---- metamorphic relations ----------------------------------------------------------------

def _full_precision():
    """Artefact cells written to 17 digits, so relations hold beyond the 10 of `_fmt`."""
    return mock.patch.object(cli, "_fmt", lambda x: repr(float(x)))


def _csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _artefact(argv, tmp, exits=(0,)):
    """The path of the artefact main(argv) writes at full precision; it must exit in `exits`."""
    out = os.path.join(tmp, f"artefact-{len(os.listdir(tmp))}")
    with _full_precision():
        rc, err = _run(argv + ["--out", out])
    assert rc in exits, (argv, err)
    return out


ANGLE = st.floats(-3240, 3240)  # a turn more stays inside the angle flags' +-3,600 deg
# Far from the magnet the field's terms cancel: at 1 m its bore term keeps only
# about 11 of 16 digits (see the xfail example), so the draw stays nearer.
NEAR = st.floats(0.05, 0.25)


@fuzz(10)
@given(ay=st.tuples(ANGLE, ANGLE), az=st.tuples(ANGLE, ANGLE), turns=st.sampled_from([-1, 1]),
       standoff=NEAR)
@example(ay=(0.0, 0.0), az=(0.0, 29.8125), turns=-1, standoff=1.0).xfail(
    reason="cylinder_field loses digits to cancellation in the far field", raises=AssertionError)
def test_a_turn_more_on_every_angle_gives_the_same_field(ay, az, turns, standoff):
    """scan, schedule and replace, each with 360 deg added to every angle flag:
    every field column or key agrees within 1e-12 of the row's field, and a
    replace that fails fails with the turn too."""
    shift = 360.0 * turns
    with tempfile.TemporaryDirectory() as tmp:
        def scan(d):
            return _csv_rows(_artefact([
                "scan", f"--ay-start={ay[0] + d!r}", f"--ay-stop={ay[1] + d!r}", "--ay-steps=2",
                f"--az-start={az[0] + d!r}", f"--az-stop={az[1] + d!r}", "--az-steps=2",
                f"--standoff-m={standoff!r}"], tmp))
        for row, turned in zip(scan(0.0), scan(shift)):
            field = np.array([float(row[k]) for k in ("Bx_mT", "By_mT", "Bz_mT")])
            moved = np.array([float(turned[k]) for k in ("Bx_mT", "By_mT", "Bz_mT")])
            assert np.linalg.norm(moved - field) <= 1e-12 * np.linalg.norm(field), (row, turned)

        def schedule(d):
            return _csv_rows(_artefact(["schedule", "--b-start=0.5", "--b-stop=20", "--steps=4",
                                        f"--ay={ay[0] + d!r}", f"--az={az[0] + d!r}"], tmp))
        for row, turned in zip(schedule(0.0), schedule(shift)):
            scale = float(row["target_mT"])
            for key in ("target_mT", "achieved_mT", "error_mT", "error_bound_mT"):
                assert abs(float(turned[key]) - float(row[key])) <= 1e-12 * scale, (key, turned)

        def replace(d):
            with open(_artefact(["replace", f"--ay={ay[0] + d!r}", f"--az={az[0] + d!r}",
                                 f"--standoff-m={standoff!r}"], tmp, exits=(0, 1))) as fh:
                plan = json.load(fh)
            if "error" in plan:
                return plan["error"]
            return np.array(plan["target_field_mT"]), np.array(plan["achieved_field_mT"])
        plan, turned = replace(0.0), replace(shift)
        if isinstance(plan, str):
            assert turned == plan
        else:
            for field, moved in zip(plan, turned):
                assert np.linalg.norm(moved - field) <= 1e-12 * np.linalg.norm(field)


# arccos near 1 turns a few ulps of cosine into sqrt(2 * 4 eps) rad
ROUNDING_RAD = math.sqrt(8 * np.finfo(float).eps)


@fuzz(15)
@given(ay=st.tuples(ANGLE, ANGLE), az=st.tuples(ANGLE, ANGLE), standoff=st.floats(0.05, 10.0),
       units=st.sampled_from(sorted(cli.UNITS)))
def test_every_scan_row_points_the_field_at_its_direction(ay, az, standoff, units):
    """A scan pose aims the magnet's axis at the sample, so every row's
    angular error is 0 within rounding."""
    to = 1.0 if units == "mT-deg" else math.pi / 180.0
    with tempfile.TemporaryDirectory() as tmp:
        rows = _csv_rows(_artefact([
            "--units", units, "scan", f"--ay-start={ay[0] * to!r}", f"--ay-stop={ay[1] * to!r}",
            "--ay-steps=3", f"--az-start={az[0] * to!r}", f"--az-stop={az[1] * to!r}",
            "--az-steps=3", f"--standoff-m={standoff!r}"], tmp))
    key = "angular_error_deg" if units == "mT-deg" else "angular_error_rad"
    limit = math.degrees(ROUNDING_RAD) if units == "mT-deg" else ROUNDING_RAD
    assert all(0.0 <= float(row[key]) <= limit for row in rows), [row[key] for row in rows]


@fuzz(15)
@given(targets=st.tuples(st.floats(0.05, 150.0), st.floats(0.05, 150.0)),
       steps=st.integers(2, 12), ay=ANGLE, az=ANGLE, resolution=st.sampled_from(["0.0005", "1e-6"]))
def test_schedule_achieves_more_for_a_larger_target(targets, steps, ay, az, resolution):
    with tempfile.TemporaryDirectory() as tmp:
        rows = _csv_rows(_artefact([
            "schedule", f"--b-start={targets[0]!r}", f"--b-stop={targets[1]!r}",
            f"--steps={steps}", f"--ay={ay!r}", f"--az={az!r}",
            f"--resolution-m={resolution}"], tmp))
    pairs = sorted((float(r["target_mT"]), float(r["achieved_mT"])) for r in rows)
    assert all(a[1] <= b[1] for a, b in zip(pairs, pairs[1:])), pairs


@fuzz(4)
@given(seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
       grid=st.tuples(st.floats(-180, 180), st.floats(-180, 180), st.integers(1, 4)))
def test_partition_on_a_spherical_wrist_does_not_depend_on_the_seed(seeds, grid):
    lo, hi, n = grid
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            rows.append(_csv_rows(_artefact([
                "--config", WALLED, "--seed", str(seed), "partition",
                f"--ay-start={lo!r}", f"--ay-stop={hi!r}", f"--ay-steps={n}",
                f"--az-start={hi!r}", f"--az-stop={lo!r}", f"--az-steps={n}"], tmp)))
    assert rows[0] == rows[1]
