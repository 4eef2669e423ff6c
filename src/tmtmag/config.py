"""Run configuration: strict JSON parsing, defaults, validation.

One documented format (JSON with ``sensor``/``plan``/``filter``/
``experiment``/``output`` sections).  Unknown keys are rejected by name so
misspelled options cannot silently fall back to defaults, and every block
is validated against its module invariants before any computation starts.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .bench import default_beta_grid
from .ramsey import GAMMA_E, AcquisitionPlan, SensorParams, calib_frequency, sensing_frequency
from .tmt import FrequencyGrid
from .wavelets import available_bases


class ConfigError(ValueError):
    """Raised for malformed or invalid run configurations."""


#: most values a ``filter.beta_grid`` may hold; checked before the grid is built
MAX_BETA_GRID = 10_001
#: most trial frequencies ``filter.freq_points`` may ask the search for
MAX_FREQ_POINTS = 100_001

MODES = ("simulate", "denoise", "sweep-beta", "benchmark", "gain-profile", "fit-scaling")

#: listed by hand: a config gives ``b_calib`` where ``SensorParams`` holds ``omega_calib``
_SENSOR_KEYS = {"contrast", "n_ave", "n0", "n1", "t2_star", "decay_power", "b_calib", "gamma_e"}

_DEFAULTS = {
    "sensor": {"contrast": 0.2143, "n_ave": 0.196, "t2_star": 3.9e-6,
               "decay_power": 2.0, "b_calib": 100e-6},
    "plan": {"t_start": 0.97e-6, "t_stop": 1.75e-6, "f_sample": 128e6,
             "repetitions": 25000, "n_experiments": 200},
    "filter": {"basis": "bior6.8", "levels": None, "beta": 0.0,
               "beta_grid": {"start": -4.0, "stop": 2.0, "step": 0.1},
               "freq_window": 0.15, "freq_points": 2001},
    "experiment": {"delta_b": 2e-6, "n_sd": None,
                   "m_values": [25000, 50000, 100000, 200000, 400000],
                   "n_sd_values": list(range(1, 10)),
                   "photon_stats": "bernoulli-poisson", "shared_estimate": False,
                   "squared_contrast": False},
    "output": {"directory": "out", "formats": ["csv", "json"]},
}


@dataclass(frozen=True)
class FilterConfig:
    basis: str
    levels: int | None
    beta: float
    beta_grid: np.ndarray
    freq_window: float
    freq_points: int

    def frequency_grid(self, omega_center: float) -> FrequencyGrid:
        return FrequencyGrid.around(omega_center, self.freq_window, self.freq_points)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str | None
    delta_b: float
    n_sd: int | None
    m_values: list[int]
    n_sd_values: list[int]
    photon_stats: str
    shared_estimate: bool
    squared_contrast: bool
    points: list[list[float]] | None = None
    points_file: str | None = None


@dataclass(frozen=True)
class OutputConfig:
    directory: str
    formats: list[str]


@dataclass(frozen=True)
class RunConfig:
    sensor: SensorParams
    plan: AcquisitionPlan
    filter: FilterConfig
    experiment: ExperimentConfig
    output: OutputConfig
    seed_explicit: bool = False

    @property
    def omega_sense(self) -> float:
        return sensing_frequency(self.sensor, self.experiment.delta_b)

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


#: accepted keys of each section: the sensor keys, then the fields of the section's type
_SECTIONS = {"sensor": _SENSOR_KEYS} | {
    name: {f.name for f in fields(cls)}
    for name, cls in (("plan", AcquisitionPlan), ("filter", FilterConfig),
                      ("experiment", ExperimentConfig), ("output", OutputConfig))}


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


def _boolean(name: str, value) -> bool:
    """``value`` as a bool; only JSON ``true``/``false`` are accepted."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return bool(value)


def _point(name: str, entry) -> list[float]:
    """``entry`` as a finite ``[x, y]`` pair; anything else is rejected by field name."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise ConfigError(f"{name} must be an [x, y] pair of numbers, got {entry!r}")
    x, y = (_number(name, v) for v in entry)
    if not (np.isfinite(x) and np.isfinite(y)):
        raise ConfigError(f"{name} must be finite, got {entry!r}")
    return [x, y]


def _merged(section: str, data) -> dict:
    """The section's defaults updated by ``data``; unknown keys are rejected by name."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be a JSON object, got {data!r}")
    unknown = set(data) - _SECTIONS[section]
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in section {section!r}")
    return _DEFAULTS[section] | data


def _build_sensor(data: dict) -> SensorParams:
    # every sensor field is a float
    v = {key: _number(f"sensor.{key}", value) for key, value in _merged("sensor", data).items()}
    gamma_e = v.get("gamma_e", GAMMA_E)
    try:
        if "n0" in data or "n1" in data:
            if not ("n0" in data and "n1" in data):
                raise ConfigError("sensor: n0 and n1 must be given together")
            n0, n1 = v["n0"], v["n1"]
            contrast = (n0 - n1) / n0 if n0 > 0 else float("nan")
            n_ave = 0.5 * (n0 + n1)
            if "contrast" in data and abs(contrast - v["contrast"]) > 1e-9:
                raise ConfigError("sensor: contrast is inconsistent with the given n0/n1")
            if "n_ave" in data and abs(n_ave - v["n_ave"]) > 1e-9:
                raise ConfigError("sensor: n_ave is inconsistent with the given n0/n1")
            return SensorParams(n0=n0, n1=n1, contrast=contrast, n_ave=n_ave,
                                t2_star=v["t2_star"], decay_power=v["decay_power"],
                                omega_calib=calib_frequency(v["b_calib"], gamma_e),
                                gamma_e=gamma_e)
        return SensorParams.from_contrast(v["contrast"], v["n_ave"], v["t2_star"],
                                          v["decay_power"], v["b_calib"], gamma_e)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"sensor: {exc}") from exc


def _build_plan(data: dict) -> AcquisitionPlan:
    merged = _merged("plan", data)
    counts = {key: _integer(f"plan.{key}", merged.get(key, 0))
              for key in ("repetitions", "n_experiments", "seed")}
    times = {key: _number(f"plan.{key}", merged[key]) for key in ("t_start", "t_stop", "f_sample")}
    try:
        return AcquisitionPlan(**times, **counts)
    except ValueError as exc:
        raise ConfigError(f"plan: {exc}") from exc


def _build_beta_grid(spec) -> np.ndarray:
    if isinstance(spec, dict):
        unknown = set(spec) - {"start", "stop", "step"}
        if unknown:
            raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in 'filter.beta_grid'")
        start, stop, step = (_number(f"filter.beta_grid.{key}", spec.get(key))
                             for key in ("start", "stop", "step"))
        if not (np.isfinite([start, stop, step]).all() and step > 0 and stop > start):
            raise ConfigError("filter.beta_grid needs finite start < stop and step > 0")
        span = (stop - start) / step  # inf when the quotient overflows
        if span == np.inf or round(span) + 1 > MAX_BETA_GRID:
            raise ConfigError(f"filter.beta_grid holds more than {MAX_BETA_GRID} values "
                              f"({span:.6g} steps from start to stop)")
        try:
            return default_beta_grid(start, stop, step)
        except ValueError as err:
            raise ConfigError(f"filter.beta_grid: {err}") from None
    if not isinstance(spec, (list, tuple, np.ndarray)):
        raise ConfigError(f"filter.beta_grid must be a list or a start/stop/step object, got {spec!r}")
    if len(spec) > MAX_BETA_GRID:
        raise ConfigError(f"filter.beta_grid holds {len(spec)} values, more than {MAX_BETA_GRID}")
    grid = np.array([_number(f"filter.beta_grid[{i}]", b) for i, b in enumerate(spec)])
    if np.any(np.isnan(grid)):
        raise ConfigError("filter.beta_grid must not contain NaN")
    if grid.ndim != 1 or grid.size < 3 or not np.all(grid[1:] > grid[:-1]):
        raise ConfigError("filter.beta_grid must be strictly increasing with >= 3 values")
    return grid


def _build_filter(data: dict) -> FilterConfig:
    merged = _merged("filter", data)
    basis = str(merged["basis"])
    if basis not in available_bases():
        raise ConfigError(f"filter: unknown basis {basis!r} (known: {', '.join(available_bases())})")
    levels = merged["levels"]
    if levels is not None:
        levels = _integer("filter.levels", levels)
        if levels < 0:
            raise ConfigError(f"filter: levels must be >= 0, got {levels}")
    beta = _number("filter.beta", merged["beta"])
    if np.isnan(beta):
        raise ConfigError("filter.beta must not be NaN (+/-Infinity are the raw and template limits)")
    freq_points = _integer("filter.freq_points", merged["freq_points"])
    freq_window = _number("filter.freq_window", merged["freq_window"])
    if freq_points < 3:
        raise ConfigError("filter: freq_points must be >= 3")
    if freq_points > MAX_FREQ_POINTS:
        raise ConfigError(f"filter.freq_points = {freq_points} is more than {MAX_FREQ_POINTS}")
    if not 0.0 < freq_window < 1.0:
        raise ConfigError("filter: freq_window must lie in (0, 1)")
    return FilterConfig(
        basis=basis,
        levels=levels,
        beta=beta,
        beta_grid=_build_beta_grid(merged["beta_grid"]),
        freq_window=freq_window,
        freq_points=freq_points,
    )


def _build_experiment(data: dict, sensor: SensorParams) -> ExperimentConfig:
    merged = _merged("experiment", data)
    delta_b = _number("experiment.delta_b", merged["delta_b"])
    if not 0.0 < sensing_frequency(sensor, delta_b) < np.inf:
        raise ConfigError(f"experiment.delta_b must be finite with b_calib + delta_b > 0, "
                          f"got {delta_b!r}")
    mode = merged.get("mode")
    if mode is not None and mode not in MODES:
        raise ConfigError(f"experiment: unknown mode {mode!r} (known: {', '.join(MODES)})")
    photon_stats = str(merged["photon_stats"])
    if photon_stats not in ("bernoulli-poisson", "poisson"):
        raise ConfigError(f"experiment: unknown photon_stats {photon_stats!r}")
    n_sd = merged["n_sd"]
    if n_sd is not None:
        n_sd = _integer("experiment.n_sd", n_sd)
        if n_sd < 1:
            raise ConfigError(f"experiment: n_sd must be >= 1, got {n_sd}")
    m_values = [_integer("experiment.m_values", m) for m in merged["m_values"]]
    if not m_values or any(m < 1 for m in m_values):
        raise ConfigError("experiment: m_values must be non-empty and all >= 1")
    n_sd_values = [_integer("experiment.n_sd_values", v) for v in merged["n_sd_values"]]
    if not n_sd_values or any(v < 1 for v in n_sd_values):
        raise ConfigError("experiment: n_sd_values must be non-empty and all >= 1")
    points = merged.get("points")
    if points is not None:
        points = [_point(f"experiment.points[{i}]", entry) for i, entry in enumerate(points)]
    return ExperimentConfig(
        mode=mode,
        delta_b=delta_b,
        n_sd=n_sd,
        m_values=m_values,
        n_sd_values=n_sd_values,
        photon_stats=photon_stats,
        shared_estimate=_boolean("experiment.shared_estimate", merged["shared_estimate"]),
        squared_contrast=_boolean("experiment.squared_contrast", merged["squared_contrast"]),
        points=points,
        points_file=merged.get("points_file"),
    )


def _build_output(data: dict) -> OutputConfig:
    merged = _merged("output", data)
    formats = list(merged["formats"])
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output: unknown format {fmt!r}")
    if not formats:
        raise ConfigError("output: formats must not be empty")
    return OutputConfig(directory=str(merged["directory"]), formats=formats)


def parse_config(source: str | Path | dict | None) -> RunConfig:
    """Parse and validate a configuration from a path, JSON text or dict.

    ``None`` yields the all-defaults configuration.  A string is JSON text
    when its first non-blank character is ``{``, and a file path otherwise.
    A path naming no file or one that cannot be read, parse errors (with
    the offending line) and validation errors (naming the violated
    invariant) raise ConfigError.
    """
    if source is None:
        data = {}
    elif isinstance(source, dict):
        data = source
    else:
        if isinstance(source, str) and source.lstrip().startswith("{"):
            text = source
        else:
            path = Path(source)
            try:
                if not path.is_file():
                    raise ConfigError(f"config file not found: {path}")
                text = path.read_text()
            # e.g. a name longer than the file system allows, or bytes that are not UTF-8
            except (OSError, UnicodeDecodeError) as exc:
                reason = getattr(exc, "strerror", None) or exc
                raise ConfigError(f"cannot read config file {path}: {reason}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown section {sorted(unknown)[0]!r} (known: {', '.join(_SECTIONS)})")
    sensor = _build_sensor(data.get("sensor", {}))
    config = RunConfig(
        sensor=sensor,
        plan=_build_plan(data.get("plan", {})),
        filter=_build_filter(data.get("filter", {})),
        experiment=_build_experiment(data.get("experiment", {}), sensor),
        output=_build_output(data.get("output", {})),
        seed_explicit="seed" in data.get("plan", {}),
    )
    # the sampled fringe and the frequency search grid must lie below the
    # angular Nyquist frequency pi * f_sample
    omega_max = max(config.omega_sense, sensor.omega_calib * (1.0 + config.filter.freq_window))
    if not omega_max < np.pi * config.plan.f_sample:
        raise ConfigError(f"plan.f_sample = {config.plan.f_sample:.6g} Hz undersamples the fringe: "
                          f"it must exceed {omega_max / np.pi:.6g} Hz")
    return config
