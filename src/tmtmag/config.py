"""Run configuration: strict JSON parsing, defaults, validation.

One documented format (JSON with ``sensor``/``plan``/``filter``/
``experiment``/``output`` sections) whose schema is the section types; unknown
and repeated keys are rejected by name.  A field's annotation gives its JSON
kind and, as a ``Literal``, its choices, which its reader checks by field name;
the ``filter``/``experiment``/``output`` types read their own fields once, from
JSON or code alike, then check their ranges, and ``RunConfig`` the cross-section
and mode rules, all before any computation starts, each error a ConfigError
naming the field (by :func:`naming` where a rule raises ValueError).
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Literal

import numpy as np

from .bench import (MAX_BETA_GRID, BenchmarkSetup, default_beta_grid, ensemble_run_bytes,
                    find_detection_points, fit_scaling, gain_setups, signal_amplitude, snr_setups)
from .ramsey import (GAMMA_E, PHOTON_MODELS, POISSON_LAM_MAX, AcquisitionPlan, SensorParams,
                     calib_frequency, envelope, sensing_frequency)
from .tmt import FrequencyGrid
from .wavelets import available_bases


class ConfigError(ValueError):
    """Raised for malformed or invalid run configurations."""


#: most trial frequencies ``filter.freq_points`` may ask the search for
MAX_FREQ_POINTS = 100_001

MODES = ("simulate", "denoise", "sweep-beta", "benchmark", "gain-profile", "fit-scaling")

#: listed by hand: a config gives ``b_calib`` where ``SensorParams`` holds ``omega_calib``
_SENSOR_KEYS = {"contrast", "n_ave", "n0", "n1", "t2_star", "decay_power", "b_calib", "gamma_e"}

#: defaults of the sections whose types are library types; the others are on their fields
_DEFAULTS = {
    "sensor": {"contrast": 0.2143, "n_ave": 0.196, "t2_star": 3.9e-6,
               "decay_power": 2.0, "b_calib": 100e-6, "gamma_e": GAMMA_E},
    "plan": {"t_start": 0.97e-6, "t_stop": 1.75e-6, "f_sample": 128e6,
             "repetitions": 25000, "n_experiments": 200},
}


@contextmanager
def naming(label: str):
    """Re-raise a ValueError of the block as a ConfigError naming ``label``; a ConfigError passes."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _read_fields(values, section: str) -> None:
    """Read each field of a section with the reader of its JSON value, keeping what it returns."""
    for key, read in _SECTIONS[section].items():
        object.__setattr__(values, key, read(f"{section}.{key}", getattr(values, key)))


@dataclass(frozen=True)
class FilterConfig:
    """The ``filter`` section; its fields are read as in JSON, then its ranges checked."""

    basis: Literal[available_bases()] = "bior6.8"
    levels: int | None = None
    beta: float = 0.0
    beta_grid: np.ndarray = field(default_factory=default_beta_grid)
    freq_window: float = 0.15
    freq_points: int = 2001

    def __post_init__(self):
        with naming("filter"):
            _read_fields(self, "filter")
            if self.levels is not None and self.levels < 0:
                raise ValueError(f"levels must be >= 0, got {self.levels}")
            if np.isnan(self.beta):
                raise ValueError("beta must not be NaN (+/-Infinity are the raw and template limits)")
            if self.freq_points < 3:
                raise ValueError("freq_points must be >= 3")
            if self.freq_points > MAX_FREQ_POINTS:
                raise ValueError(f"freq_points = {self.freq_points} is more than {MAX_FREQ_POINTS}")
            if not 0.0 < self.freq_window < 1.0:
                raise ValueError("freq_window must lie in (0, 1)")

    def frequency_grid(self, omega_center: float) -> FrequencyGrid:
        return FrequencyGrid.around(omega_center, self.freq_window, self.freq_points)


@dataclass(frozen=True)
class ExperimentConfig:
    """The ``experiment`` section; its fields are read as in JSON, then its ranges checked."""

    mode: Literal[MODES] | None = None
    delta_b: float = 2e-6
    n_sd: int | None = None
    m_values: list[int] = field(default_factory=lambda: [25000, 50000, 100000, 200000, 400000])
    n_sd_values: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5, 6, 7, 8, 9])
    photon_stats: Literal[PHOTON_MODELS] = "bernoulli-poisson"
    shared_estimate: bool = False
    points: list[list[float]] | None = None
    points_file: str | None = None

    def __post_init__(self):
        with naming("experiment"):
            _read_fields(self, "experiment")
            if self.n_sd is not None and self.n_sd < 1:
                raise ValueError(f"n_sd must be >= 1, got {self.n_sd}")
            if not self.m_values or any(m < 1 for m in self.m_values):
                raise ValueError("m_values must be non-empty and all >= 1")
            if not self.n_sd_values or any(v < 1 for v in self.n_sd_values):
                raise ValueError("n_sd_values must be non-empty and all >= 1")
            if self.points is not None and self.points_file is not None:
                raise ValueError("points and points_file must not both be given")


@dataclass(frozen=True)
class OutputConfig:
    """The ``output`` section; its fields are read as in JSON, then ``formats`` checked."""

    directory: str = "out"
    formats: list[Literal["csv", "json"]] = field(default_factory=lambda: ["csv", "json"])

    def __post_init__(self):
        with naming("output"):
            _read_fields(self, "output")
            if not self.formats:
                raise ValueError("formats must not be empty")


#: Longest trace a run may simulate.  Gain-profile resizes each window to
#: hold n_sd fringe crossings, so there a slow sensing fringe would ask for
#: an unbounded trace.
MAX_WINDOW_SAMPLES = 1 << 16
#: Most bytes one planned ensemble may hold: its traces in simulate, and otherwise
#: :func:`~tmtmag.bench.ensemble_run_bytes` of its ``EnsembleRun``: its traces and swept
#: samples, one residual chunk and one block of the frequency search.  Simulate and
#: denoise add their exported table and its row index, 4 and 5 doubles per sample.
MAX_ENSEMBLE_BYTES = 2 << 30


@dataclass(frozen=True)
class RunConfig:
    """A run's sections, checked together whenever one is built (by ``parse_config``,
    directly or by ``dataclasses.replace``): the rules that span sections and, with a mode set,
    the limits of every ensemble it builds or fit-scaling's points, each a ConfigError."""

    sensor: SensorParams
    plan: AcquisitionPlan
    filter: FilterConfig
    experiment: ExperimentConfig
    output: OutputConfig
    seed_explicit: bool = False

    def __post_init__(self):
        # sensor with experiment, and both with plan and filter
        omega_sense = self.omega_sense
        if not 0.0 < omega_sense < np.inf:
            raise ConfigError(f"experiment.delta_b must be finite with b_calib + delta_b > 0, "
                              f"got {self.experiment.delta_b!r}")
        # the sampled fringe and the frequency search grid lie below the angular Nyquist frequency
        omega_max = max(omega_sense, self.sensor.omega_calib * (1.0 + self.filter.freq_window))
        if not omega_max < np.pi * self.plan.f_sample:
            raise ConfigError(f"plan.f_sample = {self.plan.f_sample:.6g} Hz undersamples the "
                              f"fringe: it must exceed {omega_max / np.pi:.6g} Hz")
        if self.experiment.mode == "fit-scaling":
            _ = self.fit_points  # read and checked once, when built
        elif self.experiment.mode is not None:
            _check_mode_limits(self)

    @property
    def omega_sense(self) -> float:
        return sensing_frequency(self.sensor, self.experiment.delta_b)

    @cached_property
    def fit_points(self) -> list[list[float]]:
        """The points fit-scaling fits: inline, or the rows of ``experiment.points_file``."""
        exp = self.experiment
        if exp.points is None and exp.points_file is None:
            raise ConfigError("fit-scaling needs experiment.points or experiment.points_file")
        points = exp.points if exp.points is not None else _points_file(Path(exp.points_file))
        with naming("experiment.points" if exp.points is not None else f"points file {exp.points_file}"):
            fit_scaling(points)
        return points

    @property
    def setup(self) -> BenchmarkSetup:
        """The configured ensemble, from which benchmark and gain-profile plan theirs."""
        exp = self.experiment
        return BenchmarkSetup(
            params=self.sensor, plan=self.plan, omega_true=self.omega_sense, n_sd=exp.n_sd,
            basis=self.filter.basis, levels=self.filter.levels,
            grid=self.filter.frequency_grid(self.sensor.omega_calib),
            photon_stats=exp.photon_stats, shared_estimate=exp.shared_estimate)

    @property
    def snapshot(self) -> dict:
        """Fully resolved configuration, defaults applied, for the run manifest."""
        sensor = {key: getattr(self.sensor, key) for key in _SENSOR_KEYS - {"b_calib"}}
        sensor["b_calib"] = self.sensor.omega_calib / abs(self.sensor.gamma_e)
        return {
            "sensor": sensor,
            "plan": asdict(self.plan),
            "filter": asdict(self.filter) | {"beta_grid": self.filter.beta_grid.tolist()},
            "experiment": asdict(self.experiment),
            # the output directory is a location, not configuration: leaving it
            # out keeps table bytes identical wherever a run is written
            "output": {"formats": self.output.formats},
        }


def _planned_setups(config: RunConfig) -> list[BenchmarkSetup]:
    """The ensembles the configured mode builds, in the order its runner builds them."""
    exp = config.experiment
    planner = {"benchmark": (snr_setups, "m_values"), "gain-profile": (gain_setups, "n_sd_values")}
    if exp.mode not in planner:
        return [config.setup]
    plan_setups, key = planner[exp.mode]
    with naming(f"experiment.{key}"):  # e.g. a repetition count beyond 64 bits
        return plan_setups(config.setup, getattr(exp, key))


def _check_mode_limits(config: RunConfig) -> None:
    """Limits of every ensemble the mode will build, checked before any computation."""
    mode, levels = config.experiment.mode, config.filter.levels
    if mode == "benchmark":
        m_values = config.experiment.m_values
        if len(m_values) < 3 or len(set(m_values)) < 2:
            raise ConfigError(f"experiment.m_values: the scaling fit needs at least 3 values, "
                              f"2 of them distinct, got {m_values}")
    # one sample per crossing; checked before planning, whose crossing arrays grow with n_sd
    if mode == "gain-profile" and max(config.experiment.n_sd_values) > MAX_WINDOW_SAMPLES:
        raise ConfigError(f"experiment.n_sd_values: an entry above {MAX_WINDOW_SAMPLES} needs "
                          f"more samples than that")
    for setup in _planned_setups(config):
        plan, n = setup.plan, setup.plan.n_samples
        if mode == "gain-profile":  # n_sd_values sizes both the window and the detection count
            window = count = f"experiment.n_sd_values entry {setup.n_sd}"
        else:
            window, count = f"plan.t_stop = {plan.t_stop:.6g}", f"experiment.n_sd = {json.dumps(setup.n_sd)}"
        if plan.repetitions * setup.params.n0 > POISSON_LAM_MAX:
            what = (f"experiment.m_values entry {plan.repetitions}" if mode == "benchmark"
                    else f"plan.repetitions = {plan.repetitions}")
            raise ConfigError(f"{what}: at sensor.n0 = {setup.params.n0:g} photons per "
                              f"repetition the photon means exceed numpy's Poisson limit "
                              f"{POISSON_LAM_MAX:.6g}")
        if n > MAX_WINDOW_SAMPLES:
            raise ConfigError(f"{window}: the window holds {n:.6g} samples at plan.f_sample, "
                              f"more than {MAX_WINDOW_SAMPLES}")
        if mode != "simulate":
            if plan.n_experiments < 2:
                raise ConfigError(f"plan.n_experiments must be >= 2 for mode {mode!r}, "
                                  f"got {plan.n_experiments}")
            if not np.any(envelope(plan.times, setup.params)):  # no fringe for the search to find
                raise ConfigError(f"sensor.t2_star = {setup.params.t2_star:.6g} s: the window has no fringe")
            fringe = "sensing" if setup.omega_true == config.omega_sense else "calibration"
            with naming(count if fringe == "sensing" else f"{count} on the calibration fringe at omega_calib"):
                points = find_detection_points(setup.omega_true, plan, setup.n_sd, setup.params)
            if mode == "benchmark" and not signal_amplitude(points, setup.params, setup.omega_true,
                                                            setup.params.omega_calib) > 0.0:
                raise ConfigError(f"experiment.delta_b = {config.experiment.delta_b!r}: no signal to detect")
            grid = setup.resolved_grid()
            # the true frequency's grid index; 1e-9 forgives the rounding of the grid's
            # points, the centre of a 3-point grid being index 1
            k = (setup.omega_true - grid.omega_min) / grid.step
            if not 1 - 1e-9 <= k <= grid.n_points - 2 + 1e-9:
                if grid.n_points == 3:  # a window moves the grid's ends, never its centre
                    raise ConfigError(f"filter.freq_points = 3: only the centre of a 3-point search "
                                      f"grid lies one step inside its ends, not the {fringe} fringe "
                                      f"at omega = {setup.omega_true:.6g} rad/s; give at least 4")
                raise ConfigError(
                    f"filter.freq_window = {config.filter.freq_window:g}: the search grid "
                    f"[{grid.omega_min:.6g}, {grid.omega_max:.6g}] rad/s must hold the {fringe} "
                    f"fringe at omega = {setup.omega_true:.6g} rad/s one grid step inside its ends")
            if levels is not None and levels >= n.bit_length() - 1:  # 2**(levels + 1) > n
                raise ConfigError(f"filter.levels = {levels} needs >= 2**{levels + 1} samples, "
                                  f"the {mode} window has {n}")
        # simulate's table (experiment, time, value) and denoise's (experiment, time, raw,
        # denoised) are built beside the traces, and their export indexes each column's
        # distinct values by 2 bytes a row: one double per row
        table = 8 * plan.n_experiments * n * {"simulate": 4, "denoise": 5}.get(mode, 0)
        n_betas = 1 if mode == "denoise" else config.filter.beta_grid.size
        size = table + (8 * plan.n_experiments * n if mode == "simulate"
                        else ensemble_run_bytes(setup, n_betas, len(points)))
        if size > MAX_ENSEMBLE_BYTES:
            raise ConfigError(f"plan.n_experiments = {plan.n_experiments}: the {mode} ensemble of "
                              f"{n}-sample traces needs {size / 2**30:.3g} GiB, "
                              f"more than {MAX_ENSEMBLE_BYTES / 2**30:g} GiB")


def _integer(name: str, value) -> int:
    """``value`` as an int; booleans and non-integral numbers are rejected by field name."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(name: str, value) -> float:
    """``value`` as a float; null, booleans, strings and lists are rejected by field name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _exactly(kind: type | tuple, what: str):
    """The reader that takes only instances of ``kind``; others are rejected by field name."""
    def read(name: str, value):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return value
    return read


_boolean = _exactly(bool, "true or false")
_string = _exactly(str, "a string")
_list = _exactly((list, tuple), "a list")
_KIND_READERS = {float: _number, int: _integer, bool: _boolean, str: _string}


def _reader(kind):
    """The reader of a ``_KIND_READERS`` kind or string ``Literal``, a ``list[...]`` of one, or ``| None``."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is Literal:
        def choose(name: str, value):
            if not isinstance(value, str) or value not in args:
                raise ConfigError(f"{name} must be one of {', '.join(args)}, got {value!r}")
            return value
        return choose
    if type(None) in args:
        (inner,) = set(args) - {type(None)}
        read = _reader(inner)
        return lambda name, value: None if value is None else read(name, value)
    if typing.get_origin(kind) is list:
        read = _reader(args[0])
        return lambda name, value: [read(name, item) for item in _list(name, value)]
    return _KIND_READERS[kind]


def _points(name: str, value) -> list[list[float]] | None:
    """``value`` as a list of finite ``[x, y]`` pairs, or None; a bad entry is rejected by index."""
    if value is None:
        return None
    points = []
    for i, entry in enumerate(_list(name, value)):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ConfigError(f"{name}[{i}] must be an [x, y] pair of numbers, got {entry!r}")
        points.append([_number(f"{name}[{i}]", v) for v in entry])
        if not np.isfinite(points[-1]).all():
            raise ConfigError(f"{name}[{i}] must be finite, got {entry!r}")
    return points


def _beta_grid(name: str, spec) -> np.ndarray:
    """``spec`` as a grid: a list of values or a ``start``/``stop``/``step`` object."""
    if isinstance(spec, dict):
        unknown = set(spec) - {"start", "stop", "step"}
        if unknown:
            raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {name!r}")
        start, stop, step = (_number(f"{name}.{key}", spec.get(key))
                             for key in ("start", "stop", "step"))
        with naming(name):
            return default_beta_grid(start, stop, step)
    if not isinstance(spec, (list, tuple, np.ndarray)):
        raise ConfigError(f"{name} must be a list or a start/stop/step object, got {spec!r}")
    if len(spec) > MAX_BETA_GRID:
        raise ConfigError(f"{name} holds {len(spec)} values, more than {MAX_BETA_GRID}")
    grid = np.array([_number(f"{name}[{i}]", b) for i, b in enumerate(spec)])
    if np.any(np.isnan(grid)):
        raise ConfigError(f"{name} must not contain NaN")
    if grid.ndim != 1 or grid.size < 3 or not np.all(grid[1:] > grid[:-1]):
        raise ConfigError(f"{name} must be strictly increasing with >= 3 values")
    return grid


#: the section types; the two fields whose shape goes beyond their kind keep their own readers
_TYPES = {"plan": AcquisitionPlan, "filter": FilterConfig,
          "experiment": ExperimentConfig, "output": OutputConfig}
_OWN_READERS = {"filter.beta_grid": _beta_grid, "experiment.points": _points}

#: the reader of every accepted key, by section: each sensor key is a float,
#: the other sections are read by the annotated fields of their types
_SECTIONS = {"sensor": dict.fromkeys(_SENSOR_KEYS, _number)} | {
    section: {key: _OWN_READERS.get(f"{section}.{key}") or _reader(kind)
              for key, kind in typing.get_type_hints(cls).items()}
    for section, cls in _TYPES.items()}


def _read(section: str, data) -> dict:
    """``data``, unknown keys rejected by name; the values of ``sensor`` and ``plan``, whose
    types are library types, read here over their defaults, the others' by their types."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be a JSON object, got {data!r}")
    readers = _SECTIONS[section]
    unknown = set(data) - set(readers)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in section {section!r}")
    if section not in _DEFAULTS:
        return data
    return _DEFAULTS[section] | {key: readers[key](f"{section}.{key}", value)
                                 for key, value in data.items()}


def _build(section: str, data):
    """The section's type built from its fields; its own checks name the section."""
    with naming(section):
        return _TYPES[section](**_read(section, data))


def _build_sensor(data: dict) -> SensorParams:
    v = _read("sensor", data)
    if ("n0" in data) != ("n1" in data):
        raise ConfigError("sensor: n0 and n1 must be given together")
    with naming("sensor"):
        if "n0" in data:
            n0, n1 = v["n0"], v["n1"]
            # SensorParams checks n0 > n1 > 0 first, then a given contrast or n_ave against them
            contrast = v["contrast"] if "contrast" in data else (n0 - n1) / n0 if n0 > 0 else float("nan")
            n_ave = v["n_ave"] if "n_ave" in data else 0.5 * (n0 + n1)
            return SensorParams(n0=n0, n1=n1, contrast=contrast, n_ave=n_ave,
                                t2_star=v["t2_star"], decay_power=v["decay_power"],
                                omega_calib=calib_frequency(v["b_calib"], v["gamma_e"]),
                                gamma_e=v["gamma_e"])
        return SensorParams.from_contrast(v["contrast"], v["n_ave"], v["t2_star"],
                                          v["decay_power"], v["b_calib"], v["gamma_e"])


def read_text(path: Path, what: str) -> str:
    """The text of the file at ``path``, newlines untranslated; ConfigErrors name ``what``."""
    try:
        if not path.exists():
            raise ConfigError(f"{what} not found: {path}")
        with path.open(newline="") as fh:
            return fh.read()
    # e.g. a directory, a name longer than the file system allows, or bytes that are not UTF-8
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {what} {path}: {reason}") from exc


def _points_file(path: Path) -> list[list[float]]:
    """A 2-column CSV's rows as finite ``[x, y]`` points, skipping blank lines and a header."""
    points = []
    reader = csv.reader(io.StringIO(read_text(path, "points file"), newline=""))
    for row in filter(None, reader):  # a blank line is an empty row
        try:
            point = [float(cell) for cell in row]
        except ValueError:
            if reader.line_num == 1:
                continue  # a header: a first row with a cell that is not a number
            point = None
        if point is None or len(point) != 2:
            raise ConfigError(f"{path}, line {reader.line_num}: expected two numbers, got {row!r}")
        if not np.isfinite(point).all():
            raise ConfigError(f"{path}, line {reader.line_num}: non-finite point {row!r}")
        points.append(point)
    return points


def _object(pairs: list) -> dict:
    """A JSON object from its key/value pairs; a key given twice is rejected by name."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"key {key!r} is given twice in one JSON object")
        data[key] = value
    return data


def parse_config(source: str | Path | dict | None) -> RunConfig:
    """Parse and validate a configuration from a path, JSON text or dict.

    ``None`` yields the all-defaults configuration.  A string is JSON text when
    its first non-blank character is ``{``, and a file path otherwise.  A path
    naming no file or one that cannot be read, parse errors (with the offending
    line), a repeated key and validation errors (naming the field) raise
    ConfigError; sections are read as ones built in code are, and a config
    naming its mode is checked against its rules here (a fit-scaling points
    file read included), otherwise once the mode is set.
    """
    if source is None:
        data = {}
    elif isinstance(source, dict):
        data = source
    else:
        is_text = isinstance(source, str) and source.lstrip().startswith("{")
        text = source if is_text else read_text(Path(source), "config file")
        try:
            data = json.loads(text, object_pairs_hook=_object)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown section {sorted(unknown)[0]!r} (known: {', '.join(_SECTIONS)})")
    sensor = _build_sensor(data.get("sensor", {}))
    sections = {section: _build(section, data.get(section, {})) for section in _TYPES}
    return RunConfig(sensor=sensor, **sections, seed_explicit="seed" in data.get("plan", {}))
