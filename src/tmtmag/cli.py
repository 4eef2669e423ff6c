"""Command-line front end: deterministic run orchestration and serialization.

Subcommands map one-to-one onto experiment modes (``simulate``,
``denoise``, ``sweep-beta``, ``benchmark``, ``gain-profile``,
``fit-scaling``).  Every run writes data tables (CSV and/or JSON), a
``summary.txt`` and a ``manifest.json`` into the output directory.

All data tables and the summary are byte-reproducible from (config, seed);
the manifest's ``duration_seconds`` field is the one volatile value.

Each mode builds its tables as typed columns in one structured array
(``make_table``; ``_trace_table`` fills simulate's and denoise's in place).
The writer takes only the cells the modes build, int64 and float64 columns
and object cells that are ``None``, booleans, numbers or ``raw``/``tmt``/
``optimum``/``fringe``, and quotes none (see ``_csv_cell``).
``export_table`` writes a table's CSV and JSON in one pass over chunks of
rows, formatting each cell once per table, not once per format: a number as
its ``repr`` (``%d`` for an integer) in both files, except that JSON (keys
sorted, indent 2, after the manifest) writes NaN/+-inf as ``NaN``/
``Infinity``/``-Infinity``, as ``json`` does, where the CSV keeps ``nan``/
``inf``/``-inf``.  Re-parsing a float is bit-exact; missing cells are
empty in CSV and ``null`` in JSON.  Each distinct value of an integer, float
or boolean column is formatted once, not once per row, when the column
holds at most ``_CHUNK_ROWS`` distinct values (keyed on their bits); the
rows then gather those texts through a 2-byte index.  The bound keeps the
texts held for a column within one chunk's worth, so a column of
(nearly) all-distinct values is still formatted chunk by chunk.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import ExitStack
from dataclasses import fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (EnsembleRun, benchmark_snr, ensemble_stats, find_detection_points,
                    fit_scaling, gain_profile, sweep_beta)
from .config import MODES, ConfigError, RunConfig, naming, parse_config
from .ramsey import simulate_ensemble
from .tmt import GridEdgeError

_SEED_REQUIRED_MODES = ("sweep-beta", "benchmark", "gain-profile")
_CHUNK_ROWS = 4096  # rows whose cells are gathered at once, and the distinct-value cap
#: rows per join and write: a chunk's text (about 0.5 MB) would be mapped and
#: unmapped afresh by malloc each time, a piece's stays on the heap
_PIECE_ROWS = 512


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


def _trace_table(times: np.ndarray, **traces: np.ndarray) -> np.ndarray:
    """One row per sample of the equally shaped (n_exp, N) ``traces``: the columns
    ``experiment`` and ``time``, then one per trace array, each written in place,
    so no row-length copy of a column is made beside the table."""
    n_exp, n = next(iter(traces.values())).shape
    experiments = np.arange(n_exp)
    table = np.empty((n_exp, n), dtype=[("experiment", experiments.dtype), ("time", times.dtype)]
                     + [(name, values.dtype) for name, values in traces.items()])
    table["experiment"] = experiments[:, None]
    table["time"] = times
    for name, values in traces.items():
        table[name] = values
    return table.reshape(-1)


def _csv_cell(value) -> str:
    """One CSV cell of an object column: floats as ``repr``, as in float columns (a number
    is formatted once per table, not once per format), booleans as ``true``/``false``, ``None``
    empty, anything else ``str``.  Unquoted: the modes' cells hold no ``,``, ``"`` or line
    break, so a table with free text adds quoting back together with that table."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def _json_cell(value) -> str:
    return json.dumps(value, default=_json_default)


def _cell_texts(values: np.ndarray) -> tuple[list, list]:
    """The CSV and the JSON texts of ``values``, one list where they agree: a
    number's ``repr`` (an integer's is its ``%d``), but JSON's ``NaN``/``Infinity``/
    ``-Infinity`` for a non-finite float, as ``json`` writes; booleans and object
    cells go through ``_csv_cell`` and ``_json_cell``."""
    cells = values.tolist()
    if values.dtype.kind not in "iuf":
        return [_csv_cell(v) for v in cells], [_json_cell(v) for v in cells]
    texts = list(map(repr, cells))
    if values.dtype.kind != "f" or (finite := np.isfinite(values)).all():
        return texts, texts
    json_texts = texts.copy()
    for i in np.flatnonzero(~finite):
        json_texts[i] = json.dumps(cells[i])
    return texts, json_texts


def _distinct_values(column: np.ndarray):
    """``(values, index)`` with ``values[index]`` equal to ``column`` bit for
    bit, or ``None`` if ``column`` holds more than ``_CHUNK_ROWS`` distinct
    values.

    Cells are keyed on their bits (a same-width unsigned view), so ``0.0``
    and ``-0.0`` or two NaN payloads stay apart.  The keys are merged one
    chunk of rows at a time and the index is 2 bytes a row, so no
    row-length array wider than that is held.
    """
    keys = column.view(f"u{column.itemsize}")
    distinct = keys[:0]
    for start in range(0, len(keys), _CHUNK_ROWS):
        # sorted here: np.unique imports numpy.ma on its first call in a run
        merged = np.sort(np.concatenate((distinct, keys[start:start + _CHUNK_ROWS])))
        first = np.ones(len(merged), dtype=bool)
        first[1:] = merged[1:] != merged[:-1]
        distinct = merged[first]
        if len(distinct) > _CHUNK_ROWS:
            return None
    index = np.empty(len(keys), dtype=np.min_scalar_type(_CHUNK_ROWS))
    for start in range(0, len(keys), _CHUNK_ROWS):
        index[start:start + _CHUNK_ROWS] = np.searchsorted(distinct, keys[start:start + _CHUNK_ROWS])
    return distinct.view(column.dtype), index


def _column_texts(column: np.ndarray):
    """``texts(start, stop)``: ``_cell_texts`` of rows ``start:stop``.  An integer,
    float or boolean column with distinct values (see ``_distinct_values``) has
    each formatted once per table, and a chunk gathers their texts."""
    distinct = _distinct_values(column) if column.dtype.kind in "biuf" else None
    if distinct is None:
        return lambda start, stop: _cell_texts(column[start:stop])
    values, index = distinct
    csv, js = _cell_texts(values)
    sides = [np.array(side, dtype=object) for side in ([csv] if csv is js else [csv, js])]

    def texts(start, stop):
        gathered = [side[index[start:stop]].tolist() for side in sides]
        return gathered[0], gathered[-1]
    return texts


def export_table(table: np.ndarray, out_dir: Path, name: str, formats: list[str],
                 manifest: dict | None = None) -> list[Path]:
    """Write one result table as CSV and/or JSON in one pass over its rows.

    ``table`` is a structured array (see ``make_table``) whose fields are
    the columns in CSV order.  The CSV has a header row and one record per
    line; the JSON document carries the manifest (without output
    checksums) and the same records with sorted keys, indented by 2.  Each
    chunk of ``_CHUNK_ROWS`` rows is formatted once (``_column_texts``);
    each file interleaves those texts with its own glue and writes
    ``_PIECE_ROWS`` rows per ``"".join``.  Every file opened is closed,
    even if the export fails.
    """
    names = table.dtype.names
    keys = sorted(names)
    quoted = [json.dumps(key) for key in keys]
    record = f"\n    {{\n      {quoted[0]}: "
    head = json.dumps({"manifest": manifest or {}}, indent=2, sort_keys=True,
                      default=_json_default)
    # per format: its text before the first cell, its column order, the glue after
    # each cell of a row, the glue after the last row's last cell, and its closing text
    layouts = {
        "csv": (",".join(names) + "\n", names, [","] * (len(names) - 1) + ["\n"], "\n", ""),
        "json": (head[:-len("\n}")] + ',\n  "records": [' + (record if len(table) else ""), keys,
                 [f",\n      {key}: " for key in quoted[1:]] + ["\n    }," + record],
                 "\n    }\n  ", "]\n}\n"),
    }
    columns = {col: _column_texts(table[col]) for col in names}
    width = 2 * len(names)  # items of a row: each cell and the glue after it
    written, sinks = [], []
    with ExitStack() as stack:
        for side, fmt in enumerate(layouts):
            if fmt in formats:
                opening, order, glue, last, closing = layouts[fmt]
                written.append(out_dir / f"{name}.{fmt}")
                fh = stack.enter_context(written[-1].open("w", newline="" if fmt == "csv" else None))
                fh.write(opening)
                row = list(chain.from_iterable((None, g) for g in glue))
                sinks.append((fh, side, order, row, last, closing))
        for start in range(0, len(table), _CHUNK_ROWS):
            texts = {col: cells(start, start + _CHUNK_ROWS) for col, cells in columns.items()}
            rows = min(_CHUNK_ROWS, len(table) - start)
            for fh, side, order, row, last, _ in sinks:
                out = row * rows
                for j, col in enumerate(order):
                    out[2 * j::width] = texts[col][side]
                if start + rows == len(table):
                    out[-1] = last
                for piece in range(0, len(out), width * _PIECE_ROWS):
                    fh.write("".join(out[piece:piece + width * _PIECE_ROWS]))
        for fh, *_, closing in sinks:
            fh.write(closing)
    return written


def _stats_columns(stats, points, series: str, beta) -> dict[str, list]:
    """One row per detection point plus the fringe-averaged row."""
    n = len(points)
    return {
        "series": [series] * (n + 1), "beta": [beta] * (n + 1),
        "point": [*range(n), "fringe"],
        "time": [*points.times, None], "truth": [*points.truths, None],
        "mse": [*stats.mse, stats.fringe_averaged_mse],
        "bias": [*stats.bias, None], "bias_sq": [*(stats.bias * stats.bias), None],
        "variance": [*stats.variance, None], "sample_mean": [*stats.sample_mean, None],
    }


def _dataclass_table(items, *skip: str) -> np.ndarray:
    """One column per dataclass field but those named in ``skip``, in declaration order."""
    return make_table(**{f.name: [getattr(item, f.name) for item in items]
                         for f in fields(items[0]) if f.name not in skip})


# ---------------------------------------------------------------------------
# mode runners: each returns (tables, derived, summary_lines)
# tables: list of (name, structured array from make_table)
# ---------------------------------------------------------------------------

def _run_simulate(config: RunConfig):
    plan = config.plan
    values = simulate_ensemble(config.sensor, plan, config.omega_sense,
                               config.experiment.photon_stats)
    tables = [("simulate", _trace_table(plan.times, value=values))]
    summary = [
        f"simulated {plan.n_experiments} traces of {plan.n_samples} samples",
        f"sensing frequency: {config.omega_sense / (2 * np.pi):.6g} Hz",
        f"ensemble mean PL: {values.mean():.6g} photons/repetition",
    ]
    return tables, {}, summary


def _run_denoise(config: RunConfig):
    setup = config.setup
    beta = config.filter.beta
    run = EnsembleRun(setup, [beta])
    denoised = run.denoised(beta)
    n_exp = len(run.values)
    tables = [
        ("denoise", _trace_table(setup.plan.times, raw=run.values, denoised=denoised)),
        ("template_estimates", make_table(experiment=np.arange(n_exp), omega_temp=run.omega_temps)),
    ]
    tmt_stats = ensemble_stats(denoised, run.points)
    summary = [
        f"denoised {setup.plan.n_experiments} traces at filter order beta={beta:g}",
        f"mean template frequency: {run.omega_temps.mean() / (2 * np.pi):.6g} Hz",
        f"fringe-averaged MSE raw {run.raw_stats.fringe_averaged_mse:.6g} -> "
        f"denoised {tmt_stats.fringe_averaged_mse:.6g}",
    ]
    derived = {"detection_times": run.points.times.tolist()}
    return tables, derived, summary


def _run_sweep_beta(config: RunConfig):
    setup = config.setup
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
    setup = config.setup
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
    setup = config.setup
    gains = gain_profile(setup, config.experiment.n_sd_values, config.filter.beta_grid)
    # the edge flags go to the manifest only, so the table keeps its columns
    tables = [("gain_profile", _dataclass_table(gains, "beta_calib_on_edge"))]
    best = max(gains, key=lambda g: g.gain)
    summary = [
        f"gain profile over n_sd = {config.experiment.n_sd_values}",
        f"peak gain {best.gain:.3f} at n_sd={best.n_sd} (beta_calib={best.beta_calib:g})",
    ]
    derived = {"beta_calib_on_edge": [g.beta_calib_on_edge for g in gains]}
    return tables, derived, summary


def _run_fit_scaling(config: RunConfig):
    points = config.fit_points
    fit = fit_scaling(points)
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
    block = memoryview(bytearray(1 << 18))  # read into, so no block is copied while tables are held
    with path.open("rb", buffering=0) as fh:
        while size := fh.readinto(block):
            digest.update(block[:size])
    return digest.hexdigest()


def _check_output_directory(directory: str) -> None:
    """``directory``, or its nearest existing ancestor, is a directory this process may write in."""
    path = Path(directory).absolute()
    existing = next(p for p in (path, *path.parents) if os.path.exists(p))
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigError(f"output.directory = {directory!r}: {existing} is not a writable directory")


def run(config: RunConfig) -> int:
    """Execute the configured mode and write all artifacts to disk.

    A ``RunConfig`` checks its own rules, those of its mode included, when it
    is built; ``run`` checks only that a mode is selected and that the output
    directory can be made, both before the mode runs.
    """
    mode = config.experiment.mode
    if mode not in _RUNNERS:
        raise ConfigError(f"no experiment mode selected (known: {', '.join(MODES)})")
    _check_output_directory(config.output.directory)
    started = time.monotonic()
    try:
        tables, derived, summary_lines = _RUNNERS[mode](config)
    except GridEdgeError as exc:
        # noise at a tiny repetition count moved a maximum onto the grid's edge
        raise GridEdgeError(f"{exc} (filter.freq_window = "
                            f"{config.filter.freq_window:g})") from exc
    duration = time.monotonic() - started
    out_dir = Path(config.output.directory)  # made only for a run that has results
    out_dir.mkdir(parents=True, exist_ok=True)

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
        p.add_argument("--out", default=None, help="output directory")
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
    with naming("--seed"):
        plan = config.plan if args.seed is None else config.plan.with_(seed=args.seed)
    output = config.output
    if args.out is not None:
        output = replace(output, directory=args.out)
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
