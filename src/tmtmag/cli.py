"""Command-line front end: deterministic run orchestration and serialization.

Subcommands map one-to-one onto experiment modes (``simulate``,
``denoise``, ``sweep-beta``, ``benchmark``, ``gain-profile``,
``fit-scaling``).  Every run writes data tables (CSV and/or JSON), a
``summary.txt`` and a ``manifest.json`` into the output directory.

All data tables and the summary are byte-reproducible from (config, seed);
the manifest's ``duration_seconds`` field is the one volatile value.

Each mode builds its tables as typed columns in one structured array
(``make_table``: integer and float arrays for the trace tables, object
fields for mixed cells such as a ``point`` that is an index or
``"fringe"``).  ``export_table`` streams a table to disk in chunks of
rows, formatting each chunk with one row template per format: CSV writes
floats as ``%.17g`` and integers as ``%d``, JSON (keys sorted, indent 2,
after the manifest) writes floats as their ``repr`` and NaN/+-inf as
``NaN``/``Infinity``/``-Infinity``, as ``json`` does.  Either way
re-parsing a float is bit-exact; missing cells are empty in CSV and
``null`` in JSON.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    BenchmarkSetup,
    EnsembleRun,
    benchmark_snr,
    ensemble_stats,
    find_detection_points,
    fit_scaling,
    gain_profile,
    plan_for_detection_count,
    sweep_beta,
)
from .config import MODES, ConfigError, RunConfig, parse_config
from .ramsey import simulate_ensemble

_SEED_REQUIRED_MODES = ("sweep-beta", "benchmark", "gain-profile")
_ENSEMBLE_MODES = ("denoise", "sweep-beta", "benchmark", "gain-profile")
_CHUNK_ROWS = 4096  # rows formatted per write
_CSV_SPECIAL = frozenset(',"\r\n')  # characters that may make csv.writer quote a field


def _json_default(value):
    """``json.dumps`` hook: numpy arrays and scalars as Python lists and numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def make_table(**columns) -> np.ndarray:
    """One structured array from equal-length columns, in argument order.

    Integer, float and boolean arrays keep their dtype; lists and other
    arrays become object fields, whose cells are formatted one by one
    (``None`` is a missing cell).  ``len()`` of the table is its row count.
    """
    arrays = {}
    for name, values in columns.items():
        if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
            arrays[name] = values
        else:
            arrays[name] = np.empty(len(values), dtype=object)
            arrays[name][:] = list(values)
    lengths = {name: values.shape for name, values in arrays.items()}
    if len(set(lengths.values())) != 1 or any(len(shape) != 1 for shape in lengths.values()):
        raise ValueError(f"a table needs 1-D columns of equal length, got shapes {lengths}")
    table = np.empty(len(next(iter(arrays.values()))),
                     dtype=[(name, values.dtype) for name, values in arrays.items()])
    for name, values in arrays.items():
        table[name] = values
    return table


def _csv_cell(value) -> str:
    """One CSV cell: floats as ``%.17g``, booleans as ``true``/``false``,
    ``None`` empty, anything else ``str``; quoted as ``csv.writer`` quotes."""
    if isinstance(value, bool):
        text = "true" if value else "false"
    elif isinstance(value, (float, np.floating)):
        text = format(float(value), ".17g")
    else:
        text = "" if value is None else str(value)
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _json_cell(value) -> str:
    return json.dumps(value, default=_json_default)


def _json_floats(values: np.ndarray) -> list:
    """Floats for a ``%s`` slot (``str`` of a float is its ``repr``, as in
    ``json``); NaN and +-inf become ``NaN`` / ``Infinity`` / ``-Infinity``."""
    cells = values.tolist()
    for i in np.flatnonzero(~np.isfinite(values)):
        cells[i] = json.dumps(cells[i])
    return cells


def _write_rows(fh, table: np.ndarray, names, frame, sep: str, float_cells, cell) -> None:
    """Stream ``table`` to ``fh``, ``_CHUNK_ROWS`` rows per ``%`` formatting.

    ``frame`` turns the per-column placeholders (taken in ``names`` order)
    into the one row template; rows are joined by ``sep``.  Integer columns
    use ``%d``, float columns ``float_cells`` (placeholder, converter), all
    other columns the per-cell formatter ``cell``.
    """
    slots = []
    for name in names:
        kind = table.dtype[name].kind
        if kind in "iu":
            slots.append(("%d", np.ndarray.tolist))
        elif kind == "f":
            slots.append(float_cells)
        else:
            slots.append(("%s", lambda chunk: [cell(v) for v in chunk.tolist()]))
    row = frame([placeholder for placeholder, _ in slots])
    for start in range(0, len(table), _CHUNK_ROWS):
        chunk = table[start:start + _CHUNK_ROWS]
        columns = [convert(chunk[name]) for name, (_, convert) in zip(names, slots)]
        if start:
            fh.write(sep)
        fh.write(sep.join([row] * len(chunk)) % tuple(chain.from_iterable(zip(*columns))))


def export_table(table: np.ndarray, out_dir: Path, name: str, formats: list[str],
                 manifest: dict | None = None) -> list[Path]:
    """Write one result table as CSV and/or JSON.

    ``table`` is a structured array (see ``make_table``) whose fields are
    the columns in CSV order.  The CSV has a header row and one record per
    line; the JSON document carries the manifest (without output
    checksums) and the same records with sorted keys, indented by 2.  Both
    are streamed in chunks of rows.
    """
    names = table.dtype.names
    written = []
    if "csv" in formats:
        path = out_dir / f"{name}.csv"
        # csv.writer quotes the empty field of a one-column row
        cell = _csv_cell if len(names) > 1 else lambda value: _csv_cell(value) or '""'
        with path.open("w", newline="") as fh:
            fh.write(",".join(map(_csv_cell, names)) + "\n")
            _write_rows(fh, table, names, lambda slots: ",".join(slots) + "\n", "",
                        ("%.17g", np.ndarray.tolist), cell)
        written.append(path)
    if "json" in formats:
        path = out_dir / f"{name}.json"
        keys = sorted(names)
        quoted = [json.dumps(key).replace("%", "%%") for key in keys]

        def frame(slots):
            return ("    {\n" + ",\n".join(f"      {key}: {slot}" for key, slot in zip(quoted, slots))
                    + "\n    }")

        head = json.dumps({"manifest": manifest or {}}, indent=2, sort_keys=True,
                          default=_json_default)
        with path.open("w") as fh:
            fh.write(head[:-len("\n}")] + ',\n  "records": [')
            if len(table):
                fh.write("\n")
                _write_rows(fh, table, keys, frame, ",\n", ("%s", _json_floats), _json_cell)
                fh.write("\n  ")
            fh.write("]\n}\n")
        written.append(path)
    return written


def _stats_columns(stats, points, series: str, beta) -> dict[str, list]:
    """One row per detection point plus the fringe-averaged row."""
    n = len(points)
    return {
        "series": [series] * (n + 1), "beta": [beta] * (n + 1),
        "point": [*range(n), "fringe"],
        "time": [*points.times, None], "truth": [*points.truths, None],
        "mse": [*stats.mse, stats.fringe_averaged_mse],
        "bias": [*stats.bias, None], "bias_sq": [b ** 2 for b in stats.bias] + [None],
        "variance": [*stats.variance, None], "sample_mean": [*stats.sample_mean, None],
    }


def _dataclass_table(items) -> np.ndarray:
    """One column per dataclass field, in declaration order."""
    return make_table(**{f.name: [getattr(item, f.name) for item in items]
                         for f in fields(items[0])})


#: Longest trace a gain-profile window may grow to.  Each window is resized
#: to hold n_sd fringe crossings, so a slow sensing fringe would otherwise
#: ask for an unbounded trace.
MAX_GAIN_WINDOW_SAMPLES = 1 << 16


def _check_mode_limits(config: RunConfig) -> None:
    """Limits of the ensemble modes, checked before any computation."""
    mode, plan, levels = config.experiment.mode, config.plan, config.filter.levels
    if mode not in _ENSEMBLE_MODES:
        return
    if plan.n_experiments < 2:
        raise ConfigError(f"plan.n_experiments must be >= 2 for mode {mode!r}, got {plan.n_experiments}")
    if mode == "benchmark":
        m_values = config.experiment.m_values
        if len(m_values) < 3 or len(set(m_values)) < 2:
            raise ConfigError(f"experiment.m_values: the scaling fit needs at least 3 values, "
                              f"2 of them distinct, got {m_values}")
    if mode == "gain-profile":
        # a window of n_sd crossings spans fewer than n_sd + 2 fringe periods
        n_sd = max(config.experiment.n_sd_values)
        n_longest = (n_sd + 2) * 2.0 * np.pi / config.omega_sense * plan.f_sample
        if not n_longest <= MAX_GAIN_WINDOW_SAMPLES:
            raise ConfigError(
                f"experiment.n_sd_values: the gain-profile window for n_sd = {n_sd} needs up to "
                f"{n_longest:.3g} samples at plan.f_sample, more than {MAX_GAIN_WINDOW_SAMPLES}")
        # the shortest resized window bounds the depth
        plan = plan_for_detection_count(plan, config.omega_sense, min(config.experiment.n_sd_values))
    else:
        n_sd = config.experiment.n_sd
        try:
            find_detection_points(config.omega_sense, plan, n_sd, config.sensor)
        except ValueError as exc:
            raise ConfigError(f"experiment.n_sd = {json.dumps(n_sd)}: {exc}") from exc
    if levels is not None and 2 ** (levels + 1) > plan.n_samples:
        raise ConfigError(f"filter.levels = {levels} needs >= {2 ** (levels + 1)} samples, "
                          f"the {mode} window has {plan.n_samples}")


def _make_setup(config: RunConfig) -> BenchmarkSetup:
    return BenchmarkSetup(
        params=config.sensor,
        plan=config.plan,
        omega_true=config.omega_sense,
        n_sd=config.experiment.n_sd,
        basis=config.filter.basis,
        levels=config.filter.levels,
        grid=config.filter.frequency_grid(config.sensor.omega_calib),
        photon_stats=config.experiment.photon_stats,
        shared_estimate=config.experiment.shared_estimate,
        squared_contrast=config.experiment.squared_contrast,
    )


# ---------------------------------------------------------------------------
# mode runners: each returns (tables, derived, summary_lines)
# tables: list of (name, structured array from make_table)
# ---------------------------------------------------------------------------

def _run_simulate(config: RunConfig):
    plan = config.plan
    values = simulate_ensemble(config.sensor, plan, config.omega_sense,
                               config.experiment.photon_stats)
    n_exp = values.shape[0]
    tables = [("simulate", make_table(experiment=np.repeat(np.arange(n_exp), plan.n_samples),
                                      time=np.tile(plan.times, n_exp), value=values.ravel()))]
    summary = [
        f"simulated {plan.n_experiments} traces of {plan.n_samples} samples",
        f"sensing frequency: {config.omega_sense / (2 * np.pi):.6g} Hz",
        f"ensemble mean PL: {values.mean():.6g} photons/repetition",
    ]
    return tables, {}, summary


def _run_denoise(config: RunConfig):
    setup = _make_setup(config)
    beta = config.filter.beta
    run = EnsembleRun(setup)
    denoised = run.denoised(beta)
    n_exp, n = run.values.shape
    tables = [
        ("denoise", make_table(experiment=np.repeat(np.arange(n_exp), n),
                               time=np.tile(setup.plan.times, n_exp),
                               raw=run.values.ravel(), denoised=denoised.ravel())),
        ("template_estimates", make_table(experiment=np.arange(n_exp), omega_temp=run.omega_temps)),
    ]
    tmt_stats = ensemble_stats(denoised, run.points, beta=beta)
    summary = [
        f"denoised {setup.plan.n_experiments} traces at filter order beta={beta:g}",
        f"mean template frequency: {run.omega_temps.mean() / (2 * np.pi):.6g} Hz",
        f"fringe-averaged MSE raw {run.raw_stats.fringe_averaged_mse:.6g} -> "
        f"denoised {tmt_stats.fringe_averaged_mse:.6g}",
    ]
    derived = {"detection_times": run.points.times.tolist()}
    return tables, derived, summary


def _run_sweep_beta(config: RunConfig):
    setup = _make_setup(config)
    result = sweep_beta(setup, config.filter.beta_grid)
    blocks = [_stats_columns(result.raw_stats, result.points, "raw", None)]
    blocks += [_stats_columns(stats, result.points, "tmt", float(beta))
               for beta, stats in zip(result.betas, result.stats)]
    blocks.append(dict.fromkeys(blocks[0], [None]) | {
        "series": ["optimum"], "beta": [result.beta_opt], "point": ["fringe"],
        "mse": [result.opt_stats.fringe_averaged_mse]})
    table = make_table(**{col: list(chain.from_iterable(block[col] for block in blocks))
                          for col in blocks[0]})
    tables = [("sweep_beta", table)]
    summary = [
        f"swept {result.betas.size} filter orders on {setup.plan.n_experiments} experiments",
        f"beta_opt = {result.beta_opt:g}" + (" (on grid edge!)" if result.beta_opt_on_edge else ""),
        f"fringe-averaged MSE raw {result.raw_stats.fringe_averaged_mse:.6g} -> "
        f"optimum {result.opt_stats.fringe_averaged_mse:.6g}",
    ]
    derived = {"detection_times": result.points.times.tolist(), "beta_opt": result.beta_opt}
    return tables, derived, summary


def _run_benchmark(config: RunConfig):
    setup = _make_setup(config)
    recs = benchmark_snr(setup, config.experiment.m_values, config.filter.beta_grid)
    raw_fit = fit_scaling([(r.integration_time, r.raw_snr) for r in recs])
    tmt_fit = fit_scaling([(r.integration_time, r.tmt_snr) for r in recs])
    fits = make_table(series=["raw", "tmt"],
                      prefactor=[raw_fit.prefactor, tmt_fit.prefactor],
                      exponent=[raw_fit.exponent, tmt_fit.exponent],
                      r_squared=[raw_fit.r_squared, tmt_fit.r_squared])
    tables = [("benchmark", _dataclass_table(recs)), ("scaling_fits", fits)]
    points = find_detection_points(setup.omega_true, setup.plan, setup.n_sd, setup.params)
    summary = [
        f"benchmarked {len(recs)} repetition counts with {len(points)} detection points",
        f"raw scaling: snr = {raw_fit.prefactor:.6g} * x^{raw_fit.exponent:.4f} (r2={raw_fit.r_squared:.5f})",
        f"tmt scaling: snr = {tmt_fit.prefactor:.6g} * x^{tmt_fit.exponent:.4f} (r2={tmt_fit.r_squared:.5f})",
    ]
    derived = {"detection_times": points.times.tolist()}
    return tables, derived, summary


def _run_gain_profile(config: RunConfig):
    setup = _make_setup(config)
    gains = gain_profile(setup, config.experiment.n_sd_values, config.filter.beta_grid)
    tables = [("gain_profile", _dataclass_table(gains))]
    best = max(gains, key=lambda g: g.gain)
    summary = [
        f"gain profile over n_sd = {config.experiment.n_sd_values}",
        f"peak gain {best.gain:.3f} at n_sd={best.n_sd} (beta_calib={best.beta_calib:g})",
    ]
    return tables, {}, summary


def _load_points(config: RunConfig) -> list[list[float]]:
    exp = config.experiment
    if exp.points is not None:
        return exp.points
    if exp.points_file is None:
        raise ConfigError("fit-scaling needs experiment.points or experiment.points_file")
    path = Path(exp.points_file)
    try:
        if not path.exists():
            raise ConfigError(f"points file not found: {path}")
        with path.open(newline="") as fh:
            text = fh.read()
    # e.g. a directory, a name longer than the file system allows, or bytes that are not UTF-8
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read points file {path}: {reason}") from exc
    points = []
    reader = csv.reader(io.StringIO(text, newline=""))
    for row in reader:
        if not row:
            continue  # blank line
        try:
            point = [float(row[0]), float(row[1])]
        except (IndexError, ValueError):
            if reader.line_num == 1:
                continue  # header row
            raise ConfigError(f"{path}, line {reader.line_num}: expected two numbers, "
                              f"got {row!r}") from None
        if not np.isfinite(point).all():
            raise ConfigError(f"{path}, line {reader.line_num}: non-finite point {row!r}")
        points.append(point)
    return points


def _run_fit_scaling(config: RunConfig):
    points = _load_points(config)
    try:
        fit = fit_scaling(points)
    except ValueError as exc:
        exp = config.experiment
        source = "experiment.points" if exp.points is not None else f"points file {exp.points_file}"
        raise ConfigError(f"{source}: {exc}") from exc
    tables = [("fit_scaling", make_table(prefactor=[fit.prefactor], exponent=[fit.exponent],
                                         r_squared=[fit.r_squared], n_points=[len(points)]))]
    summary = [f"fit: y = {fit.prefactor:.6g} * x^{fit.exponent:.4f} (r2={fit.r_squared:.5f}, "
               f"{len(points)} points)"]
    return tables, {}, summary


_RUNNERS = {
    "simulate": _run_simulate,
    "denoise": _run_denoise,
    "sweep-beta": _run_sweep_beta,
    "benchmark": _run_benchmark,
    "gain-profile": _run_gain_profile,
    "fit-scaling": _run_fit_scaling,
}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def run(config: RunConfig) -> int:
    """Execute the configured mode and write all artifacts to disk."""
    mode = config.experiment.mode
    if mode not in _RUNNERS:
        raise ConfigError(f"no experiment mode selected (known: {', '.join(MODES)})")
    _check_mode_limits(config)
    out_dir = Path(config.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    tables, derived, summary_lines = _RUNNERS[mode](config)
    duration = time.monotonic() - started

    base_derived = {
        "n0": config.sensor.n0,
        "n1": config.sensor.n1,
        "omega_calib": config.sensor.omega_calib,
        "omega_sense": config.omega_sense,
        "detection_times": [],
    }
    base_derived.update(derived)
    manifest = {
        "mode": mode,
        "seed": config.plan.seed,
        "version": __version__,
        "config": config.snapshot,
        "derived": base_derived,
    }

    written = []
    for name, table in tables:
        written.extend(export_table(table, out_dir, name, config.output.formats, manifest))
    summary_path = out_dir / "summary.txt"
    summary_path.write_text(f"tmtmag {mode}\n" + "\n".join(summary_lines) + "\n")
    written.append(summary_path)

    manifest["duration_seconds"] = duration  # volatile: excluded from reproducibility checks
    manifest["outputs"] = {p.name: _sha256(p) for p in written}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=_json_default) + "\n")

    sys.stdout.write("\n".join(summary_lines) + "\n")
    sys.stdout.write(f"wrote {len(written) + 1} files to {out_dir}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmtmag",
        description="Simulate shot-noise-limited Ramsey PL and benchmark the "
                    "template-margin wavelet denoiser.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run the {mode} experiment")
        p.add_argument("--config", type=Path, default=None, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="master RNG seed (required for benchmark-type modes)")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--format", choices=["csv", "json", "both"], default=None,
                       help="output table format (default: from config)")
    return parser


def _apply_cli_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if config.experiment.mode is not None and config.experiment.mode != args.mode:
        raise ConfigError(
            f"config selects mode {config.experiment.mode!r} but the "
            f"{args.mode!r} subcommand was invoked"
        )
    experiment = replace(config.experiment, mode=args.mode)
    plan = config.plan
    if args.seed is not None:
        try:
            plan = plan.with_(seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    output = config.output
    if args.out is not None:
        output = replace(output, directory=str(args.out))
    if args.format is not None:
        formats = ["csv", "json"] if args.format == "both" else [args.format]
        output = replace(output, formats=formats)
    return replace(config, plan=plan, experiment=experiment, output=output)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.mode in _SEED_REQUIRED_MODES and args.seed is None and not config.seed_explicit:
            raise ConfigError(f"mode {args.mode!r} requires --seed (or an explicit plan.seed in the config)")
        config = _apply_cli_overrides(config, args)
        return run(config)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
