"""Command-line front end: deterministic run orchestration and serialization.

Subcommands map one-to-one onto experiment modes (``simulate``,
``denoise``, ``sweep-beta``, ``benchmark``, ``gain-profile``,
``fit-scaling``).  Every run writes data tables (CSV and/or JSON), a
``summary.txt`` and a ``manifest.json`` into the output directory.

All data tables and the summary are byte-reproducible from (config, seed);
the manifest's ``duration_seconds`` field is the one volatile value.
Floats are serialized with 17 significant digits so that re-parsing is
bit-exact.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    BenchmarkSetup,
    EnsembleRun,
    benchmark_snr,
    detection_crossings,
    ensemble_stats,
    find_detection_points,
    fit_scaling,
    gain_profile,
    sweep_beta,
)
from .config import MODES, ConfigError, RunConfig, config_snapshot, parse_config
from .ramsey import simulate_ensemble

_SEED_REQUIRED_MODES = ("sweep-beta", "benchmark", "gain-profile")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) or isinstance(value, np.floating):
        return format(float(value), ".17g")
    if value is None:
        return ""
    return str(value)


def _jsonable(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def export_table(records: list[dict], columns: list[str], out_dir: Path, name: str,
                 formats: list[str], manifest: dict | None = None) -> list[Path]:
    """Write one result table as CSV and/or JSON.

    The CSV has a header row and one record per line; the JSON document
    carries the same records plus the manifest (without output checksums).
    """
    written = []
    if "csv" in formats:
        path = out_dir / f"{name}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for rec in records:
                writer.writerow([_fmt(rec.get(col)) for col in columns])
        written.append(path)
    if "json" in formats:
        path = out_dir / f"{name}.json"
        payload = {"manifest": _jsonable(manifest or {}),
                   "records": [_jsonable({col: rec.get(col) for col in columns}) for rec in records]}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def _stats_records(stats, points, series: str, beta) -> list[dict]:
    rows = []
    for q in range(len(points)):
        rows.append({
            "series": series, "beta": beta, "point": q,
            "time": points.times[q], "truth": points.truths[q],
            "mse": stats.mse[q], "bias": stats.bias[q], "bias_sq": stats.bias[q] ** 2,
            "variance": stats.variance[q], "sample_mean": stats.sample_mean[q],
        })
    rows.append({"series": series, "beta": beta, "point": "fringe",
                 "mse": stats.fringe_averaged_mse})
    return rows


def _make_setup(config: RunConfig) -> BenchmarkSetup:
    plan = config.plan
    n_sd = config.experiment.n_sd
    if n_sd is None:
        n_sd = len(detection_crossings(config.omega_sense, plan.t_start, plan.times[-1]))
        if n_sd < 1:
            raise ConfigError("window contains no detection points; extend t_stop or set n_sd")
    return BenchmarkSetup(
        params=config.sensor,
        plan=plan,
        omega_true=config.omega_sense,
        n_sd=n_sd,
        basis=config.filter.basis,
        levels=config.filter.levels,
        grid=config.filter.frequency_grid(config.sensor.omega_calib),
        boundary=config.filter.boundary,
        photon_stats=config.experiment.photon_stats,
        shared_estimate=config.experiment.shared_estimate,
        squared_contrast=config.experiment.squared_contrast,
    )


# ---------------------------------------------------------------------------
# mode runners: each returns (tables, derived, summary_lines)
# tables: list of (name, columns, records)
# ---------------------------------------------------------------------------

def _run_simulate(config: RunConfig):
    plan = config.plan
    values = simulate_ensemble(config.sensor, plan, config.omega_sense,
                               config.experiment.photon_stats)
    times = plan.times
    records = [{"experiment": i, "time": times[k], "value": values[i, k]}
               for i in range(values.shape[0]) for k in range(times.size)]
    tables = [("simulate", ["experiment", "time", "value"], records)]
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
    times = setup.plan.times
    records = [{"experiment": i, "time": times[k],
                "raw": run.values[i, k], "denoised": denoised[i, k]}
               for i in range(run.values.shape[0]) for k in range(times.size)]
    est_records = [{"experiment": i, "omega_temp": run.omega_temps[i]}
                   for i in range(run.omega_temps.size)]
    tables = [
        ("denoise", ["experiment", "time", "raw", "denoised"], records),
        ("template_estimates", ["experiment", "omega_temp"], est_records),
    ]
    points = find_detection_points(setup.omega_true, setup.plan, setup.n_sd, setup.params)
    raw_stats = ensemble_stats(run.values, points)
    tmt_stats = ensemble_stats(denoised, points, beta=beta)
    summary = [
        f"denoised {setup.plan.n_experiments} traces at filter order beta={beta:g}",
        f"mean template frequency: {run.omega_temps.mean() / (2 * np.pi):.6g} Hz",
        f"fringe-averaged MSE raw {raw_stats.fringe_averaged_mse:.6g} -> "
        f"denoised {tmt_stats.fringe_averaged_mse:.6g}",
    ]
    derived = {"detection_times": points.times.tolist()}
    return tables, derived, summary


def _run_sweep_beta(config: RunConfig):
    setup = _make_setup(config)
    result = sweep_beta(setup, config.filter.beta_grid)
    records = _stats_records(result.raw_stats, result.points, "raw", None)
    for beta, stats in zip(result.betas, result.stats):
        records.extend(_stats_records(stats, result.points, "tmt", float(beta)))
    records.append({"series": "optimum", "beta": result.beta_opt, "point": "fringe",
                    "mse": result.opt_stats.fringe_averaged_mse})
    columns = ["series", "beta", "point", "time", "truth", "mse", "bias",
               "bias_sq", "variance", "sample_mean"]
    tables = [("sweep_beta", columns, records)]
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
    records = [{
        "repetitions": r.repetitions, "integration_time": r.integration_time,
        "raw_snr": r.raw_snr, "tmt_snr": r.tmt_snr, "beta_opt": r.beta_opt,
        "beta_opt_on_edge": r.beta_opt_on_edge,
        "raw_fringe_mse": r.raw_fringe_mse, "tmt_fringe_mse": r.tmt_fringe_mse,
        "delta_n": r.delta_n,
    } for r in recs]
    columns = list(records[0].keys())
    raw_fit = fit_scaling([(r.integration_time, r.raw_snr) for r in recs])
    tmt_fit = fit_scaling([(r.integration_time, r.tmt_snr) for r in recs])
    fit_records = [
        {"series": "raw", "prefactor": raw_fit.prefactor, "exponent": raw_fit.exponent,
         "r_squared": raw_fit.r_squared},
        {"series": "tmt", "prefactor": tmt_fit.prefactor, "exponent": tmt_fit.exponent,
         "r_squared": tmt_fit.r_squared},
    ]
    tables = [
        ("benchmark", columns, records),
        ("scaling_fits", ["series", "prefactor", "exponent", "r_squared"], fit_records),
    ]
    points = find_detection_points(setup.omega_true, setup.plan, setup.n_sd, setup.params)
    summary = [
        f"benchmarked {len(recs)} repetition counts with {setup.n_sd} detection points",
        f"raw scaling: snr = {raw_fit.prefactor:.6g} * x^{raw_fit.exponent:.4f} (r2={raw_fit.r_squared:.5f})",
        f"tmt scaling: snr = {tmt_fit.prefactor:.6g} * x^{tmt_fit.exponent:.4f} (r2={tmt_fit.r_squared:.5f})",
    ]
    derived = {"detection_times": points.times.tolist()}
    return tables, derived, summary


def _run_gain_profile(config: RunConfig):
    setup = _make_setup(config)
    gains = gain_profile(setup, config.experiment.n_sd_values, config.filter.beta_grid)
    records = [{
        "n_sd": g.n_sd, "t_stop": g.t_stop, "beta_calib": g.beta_calib,
        "raw_fringe_mse": g.raw_fringe_mse, "tmt_fringe_mse": g.tmt_fringe_mse,
        "gain": g.gain,
    } for g in gains]
    columns = list(records[0].keys())
    tables = [("gain_profile", columns, records)]
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
    if not path.exists():
        raise ConfigError(f"points file not found: {path}")
    points = []
    with path.open(newline="") as fh:
        for row in csv.reader(fh):
            if len(row) < 2:
                continue
            try:
                points.append([float(row[0]), float(row[1])])
            except ValueError:
                continue  # header row
    return points


def _run_fit_scaling(config: RunConfig):
    points = _load_points(config)
    fit = fit_scaling(points)
    records = [{"prefactor": fit.prefactor, "exponent": fit.exponent,
                "r_squared": fit.r_squared, "n_points": len(points)}]
    tables = [("fit_scaling", ["prefactor", "exponent", "r_squared", "n_points"], records)]
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
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(config: RunConfig) -> int:
    """Execute the configured mode and write all artifacts to disk."""
    mode = config.experiment.mode
    if mode not in _RUNNERS:
        raise ConfigError(f"no experiment mode selected (known: {', '.join(MODES)})")
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
        "derived": _jsonable(base_derived),
    }

    written = []
    for name, columns, records in tables:
        written.extend(export_table(records, columns, out_dir, name,
                                    config.output.formats, manifest))
    summary_path = out_dir / "summary.txt"
    summary_path.write_text(f"tmtmag {mode}\n" + "\n".join(summary_lines) + "\n")
    written.append(summary_path)

    manifest["duration_seconds"] = duration  # volatile: excluded from reproducibility checks
    manifest["outputs"] = {p.name: _sha256(p) for p in written}
    (out_dir / "manifest.json").write_text(
        json.dumps(_jsonable(manifest), indent=2, sort_keys=True) + "\n")

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
        plan = plan.with_(seed=args.seed)
    output = config.output
    if args.out is not None:
        output = replace(output, directory=str(args.out))
    if args.format is not None:
        formats = ["csv", "json"] if args.format == "both" else [args.format]
        output = replace(output, formats=formats)
    merged = RunConfig(sensor=config.sensor, plan=plan, filter=config.filter,
                       experiment=experiment, output=output,
                       seed_explicit=config.seed_explicit or args.seed is not None)
    return RunConfig(sensor=merged.sensor, plan=merged.plan, filter=merged.filter,
                     experiment=merged.experiment, output=merged.output,
                     seed_explicit=merged.seed_explicit,
                     snapshot=config_snapshot(merged))


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
