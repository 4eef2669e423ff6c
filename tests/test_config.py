"""Configuration parsing: defaults, strict keys, validation messages."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from tmtmag.config import _SECTIONS, _TYPES, MAX_BETA_GRID, MAX_FREQ_POINTS, ConfigError, parse_config


PRESETS = sorted(Path(__file__).resolve().parents[1].glob("configs/*.json"))


@pytest.mark.parametrize("source", [None, *PRESETS], ids=lambda p: p and p.name)
def test_manifest_config_runs_again(tmp_path, source):
    # a manifest's "config" is the snapshot, which leaves out the output directory;
    # parsed again with one, it resolves to itself
    snapshot = parse_config(source).snapshot
    again = parse_config(snapshot | {"output": snapshot["output"] | {"directory": str(tmp_path)}})
    assert again.snapshot == snapshot


def test_minimal_config_applies_defaults(tmp_path):
    cfg = {
        "sensor": {"contrast": 0.2143, "n_ave": 0.196, "t2_star": 3.9e-6, "decay_power": 2.0},
        "plan": {"t_start": 0.97e-6, "t_stop": 1.75e-6, "repetitions": 25000},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    config = parse_config(path)
    assert config.sensor.n0 == pytest.approx(0.21952175617404938, abs=1e-9)
    assert config.sensor.n1 == pytest.approx(0.17247824382595062, abs=1e-9)
    assert config.plan.f_sample == 128e6
    assert config.plan.n_experiments == 200
    assert config.filter.basis == "bior6.8"
    assert config.filter.beta_grid[0] == -4.0
    assert config.filter.beta_grid[-1] == pytest.approx(2.0)
    assert config.output.formats == ["csv", "json"]
    assert not config.seed_explicit


def test_all_defaults_config():
    config = parse_config(None)
    assert config.experiment.delta_b == 2e-6
    assert config.omega_sense > config.sensor.omega_calib


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="betta"):
        parse_config({"filter": {"betta": 1.0}})


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="sectionx"):
        parse_config({"sectionx": {}})


def test_inverted_photon_levels_rejected():
    with pytest.raises(ConfigError, match="n0 > n1"):
        parse_config({"sensor": {"n0": 0.17, "n1": 0.22}})


def test_explicit_levels_accepted():
    config = parse_config({"sensor": {"n0": 0.22, "n1": 0.17}})
    assert config.sensor.contrast == pytest.approx((0.22 - 0.17) / 0.22)
    assert config.sensor.n_ave == pytest.approx(0.195)
    with pytest.raises(ConfigError, match="together"):
        parse_config({"sensor": {"n0": 0.22}})
    with pytest.raises(ConfigError, match="inconsistent"):
        parse_config({"sensor": {"n0": 0.22, "n1": 0.17, "contrast": 0.5}})
    with pytest.raises(ConfigError, match="^sensor: n_ave is inconsistent"):
        parse_config({"sensor": {"n0": 0.22, "n1": 0.17, "n_ave": 0.2}})
    # a given contrast and n_ave within 1e-9 of n0/n1 are kept as given
    config = parse_config({"sensor": {"n0": 0.22, "n1": 0.17, "contrast": 0.05 / 0.22 + 5e-10,
                                      "n_ave": 0.195}})
    assert config.sensor.contrast == 0.05 / 0.22 + 5e-10


def test_parse_error_reports_line():
    bad = '{\n  "sensor": {\n    "contrast": 0.2,,\n  }\n}'
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(bad)


def test_repeated_key_rejected_by_name():
    # json.loads kept the last of each key, losing the first plan's t_stop
    with pytest.raises(ConfigError, match="^key 't_stop' is given twice"):
        parse_config('{"plan": {"t_stop": 1.75e-6, "t_stop": 2.14e-6}, "plan": {"repetitions": 50000}}')
    with pytest.raises(ConfigError, match="^key 'plan' is given twice"):
        parse_config('{"plan": {"t_stop": 1.75e-6}, "plan": {"repetitions": 50000}}')


def test_missing_config_file_is_named(tmp_path):
    # a path string used to be parsed as JSON text ("Expecting value"), and
    # a Path escaped as FileNotFoundError
    missing = tmp_path / "missing.json"
    for source in (str(missing), missing, "configs/missing.json"):
        with pytest.raises(ConfigError, match=r"^config file not found: .*missing\.json$"):
            parse_config(source)
    # JSON text is told apart by its first non-blank character
    assert parse_config(' \n {"plan": {"seed": 4}}').plan.seed == 4


def test_unreadable_config_path_is_named(tmp_path):
    # a name longer than the file-system limit raised OSError from is_file()
    with pytest.raises(ConfigError, match=r"^cannot read config file x{5000}: "):
        parse_config("x" * 5000)
    # bytes that are not UTF-8 raised UnicodeDecodeError from read_text()
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(ConfigError, match=rf"^cannot read config file {path}: .*codec"):
        parse_config(path)
    # a directory was "config file not found"
    with pytest.raises(ConfigError, match=rf"^cannot read config file {re.escape(str(tmp_path))}: "):
        parse_config(tmp_path)


def test_freq_points_capped_before_allocation():
    # 10**9 was accepted, and the search then asked for a (10**9, N) kernel
    with pytest.raises(ConfigError, match=r"filter: freq_points = 1000000000 is more than 100001"):
        parse_config({"filter": {"freq_points": 10**9}})
    assert parse_config({"filter": {"freq_points": 100_001}}).filter.freq_points == 100_001


def test_beta_grid_forms():
    config = parse_config({"filter": {"beta_grid": [-2.0, -1.0, 0.0, 1.0]}})
    np.testing.assert_allclose(config.filter.beta_grid, [-2.0, -1.0, 0.0, 1.0])
    config = parse_config({"filter": {"beta_grid": {"start": 0.0, "stop": 1.0, "step": 0.5}}})
    np.testing.assert_allclose(config.filter.beta_grid, [0.0, 0.5, 1.0])
    with pytest.raises(ConfigError, match="increasing"):
        parse_config({"filter": {"beta_grid": [1.0, 0.0, -1.0]}})
    with pytest.raises(ConfigError, match="beta_grid"):
        parse_config({"filter": {"beta_grid": {"start": 0.0, "stop": 1.0, "step": -1.0}}})
    with pytest.raises(ConfigError, match=r"unknown key 'num' in 'filter\.beta_grid'"):
        parse_config({"filter": {"beta_grid": {"start": 0.0, "stop": 1.0, "step": 0.5, "num": 3}}})


def test_nan_beta_rejected_by_field():
    with pytest.raises(ConfigError, match=r"filter: beta must not be NaN"):
        parse_config({"filter": {"beta": float("nan")}})
    # JSON text spells NaN as a bare literal, which json.loads accepts
    with pytest.raises(ConfigError, match=r"filter: beta must not be NaN"):
        parse_config('{"filter": {"beta": NaN}}')
    with pytest.raises(ConfigError, match=r"filter\.beta_grid.*NaN"):
        parse_config({"filter": {"beta_grid": [float("nan"), 0.0, 1.0]}})
    with pytest.raises(ConfigError, match=r"filter\.beta_grid.*NaN"):
        parse_config({"filter": {"beta_grid": [-1.0, 0.0, float("nan")]}})
    with pytest.raises(ConfigError, match=r"filter\.beta_grid"):
        parse_config({"filter": {"beta_grid": {"start": float("nan"), "stop": 1.0, "step": 0.5}}})


@pytest.mark.parametrize("section,key,value", [
    ("sensor", "t2_star", np.nan),
    ("sensor", "t2_star", np.inf),
    ("sensor", "decay_power", np.nan),
    ("sensor", "n_ave", np.nan),
    ("sensor", "b_calib", np.nan),
    ("sensor", "b_calib", np.inf),
    ("sensor", "gamma_e", np.nan),
    ("sensor", "gamma_e", 0.0),
    ("plan", "t_stop", np.inf),
    ("plan", "f_sample", np.nan),
    ("plan", "f_sample", np.inf),
    ("plan", "f_sample", 5e6),  # below the Nyquist rate of the fringe and its search grid
    ("experiment", "delta_b", np.nan),
    ("experiment", "delta_b", np.inf),
    ("experiment", "delta_b", -np.inf),
    ("experiment", "delta_b", -100e-6),  # b_calib + delta_b = 0: no sensing fringe
    ("filter", "freq_window", 0.0),
    ("filter", "freq_window", 1.0),
    ("filter", "freq_window", -0.1),
])
def test_bad_physical_floats_rejected_by_field(section, key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config({section: {key: value}})


@pytest.mark.parametrize("entry", [[4.0, float("nan")], [float("inf"), 2.0], [1.0], "ab", 5.0,
                                   ["25000", 2.0], [4.0, True], [None, 2.0], [1.0, 2.0, 3.0]])
def test_bad_point_rejected_by_field(entry):
    with pytest.raises(ConfigError, match=r"experiment\.points\[1\]"):
        parse_config({"experiment": {"points": [[1.0, 3.0], entry, [9.0, 9.0]]}})


def test_point_coordinates_are_strict_numbers():
    # float() used to read "25000" as 25000.0 and true as 1.0
    with pytest.raises(ConfigError, match=r"^experiment\.points\[0\] must be a number"):
        parse_config({"experiment": {"points": [["25000", True], [1.0, 2.0], [3.0, 4.0]]}})
    config = parse_config({"experiment": {"points": [[1, 2.5], [3.0, 4]]}})
    assert config.experiment.points == [[1.0, 2.5], [3.0, 4.0]]


def test_infinite_beta_limits_accepted():
    config = parse_config('{"filter": {"beta": -Infinity, '
                          '"beta_grid": [-Infinity, 0.0, Infinity]}}')
    assert config.filter.beta == -np.inf
    np.testing.assert_array_equal(config.filter.beta_grid, [-np.inf, 0.0, np.inf])
    assert parse_config({"filter": {"beta": np.inf}}).filter.beta == np.inf
    # a repeated infinity is not strictly increasing (inf - inf is NaN)
    with pytest.raises(ConfigError, match="increasing"):
        parse_config({"filter": {"beta_grid": [-np.inf, -np.inf, 0.0]}})


def test_invalid_choices_rejected():
    with pytest.raises(ConfigError, match=r"^filter\.basis must be one of bior6\.8, db2, haar, got 'nosuch'"):
        parse_config({"filter": {"basis": "nosuch"}})
    for value in ("periodic", "symmetric"):
        with pytest.raises(ConfigError, match="unknown key 'boundary' in section 'filter'"):
            parse_config({"filter": {"boundary": value}})
    with pytest.raises(ConfigError, match=r"^experiment\.mode must be one of .*, got 'explode'"):
        parse_config({"experiment": {"mode": "explode"}})
    with pytest.raises(ConfigError, match=r"^experiment\.photon_stats must be one of .*, got 'gaussian'"):
        parse_config({"experiment": {"photon_stats": "gaussian"}})
    with pytest.raises(ConfigError, match=r"^output\.formats must be one of csv, json, got 'yaml'"):
        parse_config({"output": {"formats": ["yaml"]}})
    # a choice is a string: another kind is outside the choices too
    with pytest.raises(ConfigError, match=r"^filter\.basis must be one of .*, got 3"):
        parse_config({"filter": {"basis": 3}})
    with pytest.raises(ConfigError, match="formats must not be empty"):
        parse_config({"output": {"formats": []}})


@pytest.mark.parametrize("section,key,value", [
    ("filter", "levels", -1),
    ("filter", "beta", float("nan")),
    ("filter", "freq_points", 2),
    ("filter", "freq_points", MAX_FREQ_POINTS + 1),
    ("filter", "freq_window", 0.0),
    ("filter", "freq_window", 1.0),
    ("experiment", "n_sd", 0),
    ("experiment", "m_values", []),
    ("experiment", "m_values", [25000, 0]),
    ("experiment", "n_sd_values", []),
    ("experiment", "n_sd_values", [1, 0]),
    ("output", "formats", []),
])
def test_section_types_check_their_ranges(section, key, value):
    # built directly or by replace, a section type rejects what the parser rejects, with its
    # text: both raised a plain ValueError that did not name the section
    with pytest.raises(ValueError, match=key) as built:
        _TYPES[section](**{key: value})
    with pytest.raises(ValueError) as replaced:
        dataclasses.replace(getattr(parse_config(None), section), **{key: value})
    with pytest.raises(ConfigError, match=rf"^{section}: {key}") as parsed:
        parse_config({section: {key: value}})
    assert type(built.value) is type(replaced.value) is ConfigError
    assert str(built.value) == str(replaced.value) == str(parsed.value)


def test_each_json_value_is_read_once(monkeypatch):
    # the filter, experiment and output values were read by parse_config and again by their type
    data = parse_config(None).snapshot | {"output": {"directory": "run", "formats": ["csv"]}}
    calls = {}
    for section in ("filter", "experiment", "output"):
        for key, read in _SECTIONS[section].items():
            def counting(name, value, read=read):
                calls[name] = calls.get(name, 0) + 1
                return read(name, value)
            monkeypatch.setitem(_SECTIONS[section], key, counting)
    parse_config(data)
    expected = [f"{section}.{key}" for section in ("filter", "experiment", "output")
                for key in data[section]]
    assert len(expected) == 18 and calls == dict.fromkeys(expected, 1)


@pytest.mark.parametrize("section,key,value", [
    ("filter", "basis", "nosuch"),
    ("experiment", "mode", "nosuch"),
    ("experiment", "photon_stats", "nosuch"),
    ("output", "formats", ["yaml"]),
    ("filter", "levels", 2.5),
    ("experiment", "shared_estimate", 1),
    ("experiment", "m_values", 5),
    ("output", "directory", None),
    ("filter", "beta_grid", [2.0, 1.0, float("nan")]),
    ("filter", "beta_grid", [1.0, 2.0]),
    ("filter", "beta_grid", [3.0, 2.0, 1.0]),
    ("experiment", "points", [[1.0, 2.0, 3.0]]),
    ("experiment", "points", [[1.0, 2.0], [4.0, float("inf")]]),
])
def test_sections_built_in_code_are_read_like_json(section, key, value):
    # a section built in code or by replace took any choice, kind or beta grid
    # and failed later, inside the run, or not at all
    with pytest.raises(ConfigError) as parsed:
        parse_config({section: {key: value}})
    with pytest.raises(ConfigError) as built:
        _TYPES[section](**{key: value})
    with pytest.raises(ConfigError) as replaced:
        dataclasses.replace(getattr(parse_config(None), section), **{key: value})
    assert str(built.value) == str(replaced.value) == str(parsed.value)
    assert str(parsed.value).startswith(f"{section}.{key}")


def test_sections_built_in_code_keep_what_the_reader_returns():
    filt = dataclasses.replace(parse_config(None).filter, beta_grid=[-1, 0, 1], levels=3.0)
    assert filt.beta_grid.dtype == float and filt.beta_grid.tolist() == [-1.0, 0.0, 1.0]
    assert type(filt.levels) is int
    grid = _TYPES["filter"](beta_grid={"start": 0, "stop": 1, "step": 0.5}).beta_grid
    np.testing.assert_array_equal(grid, [0.0, 0.5, 1.0])


def test_plan_validation_propagates():
    with pytest.raises(ConfigError, match="plan"):
        parse_config({"plan": {"t_start": 2e-6, "t_stop": 1e-6}})


@pytest.mark.parametrize("section,key,value", [
    ("plan", "repetitions", 1.5),
    ("plan", "repetitions", True),
    ("plan", "n_experiments", 20.5),
    ("plan", "seed", False),
    ("filter", "levels", 2.5),
    ("filter", "freq_points", True),
    ("experiment", "n_sd", 1.5),
    ("experiment", "m_values", [25000, 50000.5, 100000]),
    ("experiment", "n_sd_values", [1, True]),
])
def test_non_integral_counts_rejected_by_field(section, key, value):
    # int() used to truncate 1.5 to 1 and turn true into 1
    with pytest.raises(ConfigError, match=rf"{section}\.{key} must be an integer"):
        parse_config({section: {key: value}})


def test_integral_floats_accepted_as_counts():
    config = parse_config({"plan": {"repetitions": 25000.0, "seed": 3.0},
                           "experiment": {"n_sd_values": [1.0, 2]}})
    assert config.plan.repetitions == 25000 and isinstance(config.plan.repetitions, int)
    assert config.plan.seed == 3 and isinstance(config.plan.seed, int)
    assert config.experiment.n_sd_values == [1, 2]


def test_negative_seed_and_empty_lists_rejected():
    with pytest.raises(ConfigError, match="plan: seed must be >= 0"):
        parse_config({"plan": {"seed": -1}})
    with pytest.raises(ConfigError, match="m_values"):
        parse_config({"experiment": {"m_values": []}})
    with pytest.raises(ConfigError, match="n_sd_values"):
        parse_config({"experiment": {"n_sd_values": []}})


def test_snapshot_is_complete():
    config = parse_config({"plan": {"seed": 99}})
    snap = config.snapshot
    assert snap["plan"]["seed"] == 99
    assert snap["sensor"]["n0"] == config.sensor.n0
    assert snap["filter"]["beta_grid"][0] == -4.0
    assert config.seed_explicit
    # every accepted key is resolved; the output directory is a location
    accepted = {section: set(keys) for section, keys in _SECTIONS.items()}
    accepted["output"].discard("directory")
    assert {section: set(block) for section, block in snap.items()} == accepted
    # snapshot is JSON-serializable
    assert json.loads(json.dumps(snap)) == snap


def test_section_must_be_an_object(tmp_path):
    for value in (None, [], "plan", 3):
        with pytest.raises(ConfigError, match="section 'plan' must be a JSON object"):
            parse_config({"plan": value})
    # so must the root
    path = tmp_path / "list.json"
    path.write_text('[{"plan": {}}]')
    with pytest.raises(ConfigError, match="config root must be a JSON object"):
        parse_config(path)


_FLOAT_FIELDS = [
    ("sensor.contrast", lambda v: {"sensor": {"contrast": v}}),
    ("sensor.n_ave", lambda v: {"sensor": {"n_ave": v}}),
    ("sensor.n0", lambda v: {"sensor": {"n0": v, "n1": 0.15}}),
    ("sensor.n1", lambda v: {"sensor": {"n0": 0.2, "n1": v}}),
    ("sensor.t2_star", lambda v: {"sensor": {"t2_star": v}}),
    ("sensor.decay_power", lambda v: {"sensor": {"decay_power": v}}),
    ("sensor.b_calib", lambda v: {"sensor": {"b_calib": v}}),
    ("sensor.gamma_e", lambda v: {"sensor": {"gamma_e": v}}),
    ("plan.t_start", lambda v: {"plan": {"t_start": v}}),
    ("plan.t_stop", lambda v: {"plan": {"t_stop": v}}),
    ("plan.f_sample", lambda v: {"plan": {"f_sample": v}}),
    ("filter.beta", lambda v: {"filter": {"beta": v}}),
    ("filter.freq_window", lambda v: {"filter": {"freq_window": v}}),
    ("filter.beta_grid.start", lambda v: {"filter": {"beta_grid": {"start": v, "stop": 1.0, "step": 0.5}}}),
    ("filter.beta_grid.stop", lambda v: {"filter": {"beta_grid": {"start": 0.0, "stop": v, "step": 0.5}}}),
    ("filter.beta_grid.step", lambda v: {"filter": {"beta_grid": {"start": 0.0, "stop": 1.0, "step": v}}}),
    ("filter.beta_grid[1]", lambda v: {"filter": {"beta_grid": [0.0, v, 2.0]}}),
    ("experiment.delta_b", lambda v: {"experiment": {"delta_b": v}}),
]


@pytest.mark.parametrize("field,config", _FLOAT_FIELDS, ids=[f for f, _ in _FLOAT_FIELDS])
@pytest.mark.parametrize("value", [None, [1.0], True, "x"], ids=["null", "list", "bool", "string"])
def test_non_numeric_floats_rejected_by_field(field, config, value):
    # float() used to raise TypeError on null/list (a traceback from the
    # CLI) and an unnamed ValueError on a string, and took true as 1.0
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)} must be a number"):
        parse_config(config(value))


@pytest.mark.parametrize("key", ["shared_estimate", "squared_contrast"])
@pytest.mark.parametrize("value", ["false", 0, None])
def test_booleans_are_strict(key, value):
    # bool("false") is True
    with pytest.raises(ConfigError, match=rf"experiment\.{key} must be true or false"):
        parse_config({"experiment": {key: value}})
    assert getattr(parse_config({"experiment": {key: True}}).experiment, key) is True


def test_beta_grid_size_is_capped():
    assert MAX_BETA_GRID >= 6001
    # 1e18 steps used to reach numpy's MemoryError
    with pytest.raises(ConfigError, match=r"^filter\.beta_grid: beta grid holds more than"):
        parse_config({"filter": {"beta_grid": {"start": 0, "stop": 1e9, "step": 1e-9}}})
    with pytest.raises(ConfigError, match=r"^filter\.beta_grid: beta grid holds more than"):
        parse_config({"filter": {"beta_grid": {"start": -1e308, "stop": 1e308, "step": 1.0}}})
    with pytest.raises(ConfigError, match=rf"filter\.beta_grid holds {MAX_BETA_GRID + 1} values"):
        parse_config({"filter": {"beta_grid": list(range(MAX_BETA_GRID + 1))}})
    with pytest.raises(ConfigError, match=r"filter\.beta_grid must be a list"):
        parse_config({"filter": {"beta_grid": "0:1"}})
    stop = (MAX_BETA_GRID - 1) * 0.5
    grid = parse_config({"filter": {"beta_grid": {"start": 0.0, "stop": stop, "step": 0.5}}}).filter.beta_grid
    assert grid.size == MAX_BETA_GRID


@pytest.mark.parametrize("spec, message", [
    ({"start": 0.0, "stop": 1.0, "step": 0.0}, "step must be > 0"),
    ({"start": 0.0, "stop": 1.0, "step": float("nan")}, "step must be finite"),
    ({"start": 0.0, "stop": float("inf"), "step": 0.1}, "stop must be finite"),
    ({"start": 1.0, "stop": 0.0, "step": 0.1}, "stop must be > start"),
])
def test_beta_grid_range_rejected_by_argument(spec, message):
    # the range form defers to default_beta_grid, which names the argument
    with pytest.raises(ConfigError, match=rf"^filter\.beta_grid: beta grid {message}"):
        parse_config({"filter": {"beta_grid": spec}})


def test_beta_grid_range_with_step_past_stop_rejected():
    # the step count used to round to 0: a one-value grid [0.]
    with pytest.raises(ConfigError, match=r"^filter\.beta_grid: .*holds 1 values, need at least 3"):
        parse_config({"filter": {"beta_grid": {"start": 0, "stop": 1, "step": 5}}})


def test_beta_grid_range_stops_at_stop():
    # the step count used to round up to 2: [0, 0.6, 1.2], past stop
    with pytest.raises(ConfigError, match=r"^filter\.beta_grid: .*holds 2 values, need at least 3"):
        parse_config({"filter": {"beta_grid": {"start": 0, "stop": 1, "step": 0.6}}})
    grid = parse_config({"filter": {"beta_grid": {"start": 0, "stop": 1, "step": 0.3}}}).filter.beta_grid
    np.testing.assert_array_equal(grid, 0.3 * np.arange(4))
    # 0.3 / 0.1 is 2.9999999999999996: a span within rounding of a whole
    # number of steps keeps its last value
    grid = parse_config({"filter": {"beta_grid": {"start": 0, "stop": 0.3, "step": 0.1}}}).filter.beta_grid
    np.testing.assert_array_equal(grid, 0.1 * np.arange(4))
    grid = parse_config({"filter": {"beta_grid": {"start": -4, "stop": 2, "step": 0.1}}}).filter.beta_grid
    np.testing.assert_array_equal(grid, -4.0 + 0.1 * np.arange(61))
