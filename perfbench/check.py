"""Output checks for one benchmark mode run.

Every run is checked against the workload's own invariants and for
CSV/JSON agreement.  A run at the reference seed is also compared with
the stored reference tables: non-float columns exactly, float columns
within ``RTOL``/``ATOL``, so that a reordered reduction (a few ulp) passes
while a different filter order or estimate fails.  Byte identity with the
reference is counted separately and is not a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-15
# identities the program evaluates with the very same formula
IDENTITY_RTOL = 1e-12
# a table with more rows is stored as every k-th row plus the last one
MAX_REF_ROWS = 1000


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(header, rows) -> dict[str, list[str]]:
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _is_float_text(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    try:
        int(text)
    except ValueError:
        return True
    return False


def _cell_matches(got: str, want: str, is_float: bool) -> bool:
    if not (is_float and got and want):
        return got == want
    try:
        return _close(float(got), float(want))
    except ValueError:
        return False


def _close(a: float, b: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file a run writes except the manifest (it holds the duration)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


def _manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def same_outputs(dir_a: Path, dir_b: Path) -> list[str]:
    """Two runs with one seed must write byte-identical tables and summary."""
    a, b = output_digests(dir_a), output_digests(dir_b)
    problems = [f"{name}: differs between two runs with one seed"
                for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name)]
    ma, mb = _manifest(dir_a), _manifest(dir_b)
    ma.pop("duration_seconds", None)
    mb.pop("duration_seconds", None)
    if ma != mb:
        problems.append("manifest.json: differs beyond duration_seconds between two runs with one seed")
    return problems


def _json_matches_csv(cell: str, value) -> bool:
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, float):
        return float(cell) == value
    if isinstance(value, int):
        return cell == str(value)
    return cell == value


def _check_csv_json(out_dir: Path, name: str, header, rows) -> list[str]:
    path = out_dir / f"{name}.json"
    if not path.exists():
        return [f"{name}.json: missing"]
    records = json.loads(path.read_text())["records"]
    if len(records) != len(rows):
        return [f"{name}.json: {len(records)} records, {name}.csv has {len(rows)} rows"]
    for k, (rec, row) in enumerate(zip(records, rows)):
        if sorted(rec) != sorted(header):
            return [f"{name}.json: record {k} has columns {sorted(rec)}"]
        for col, cell in zip(header, row):
            if not _json_matches_csv(cell, rec[col]):
                return [f"{name}.json: record {k} column {col} is {rec[col]!r}, csv has {cell!r}"]
    return []


def _check_gain_profile(cols, config, manifest, out_dir) -> list[str]:
    problems = []
    if [int(v) for v in cols["n_sd"]] != config["experiment"]["n_sd_values"]:
        problems.append(f"gain_profile: n_sd column {cols['n_sd']} is not the configured list")
    for k, (raw, tmt, gain) in enumerate(zip(cols["raw_fringe_mse"], cols["tmt_fringe_mse"],
                                             cols["gain"])):
        if not _close(float(gain), math.sqrt(float(raw) / float(tmt)), IDENTITY_RTOL, 0.0):
            problems.append(f"gain_profile row {k}: gain != sqrt(raw_fringe_mse / tmt_fringe_mse)")
    return problems


def _check_benchmark(cols, config, manifest, out_dir) -> list[str]:
    problems = []
    if [int(v) for v in cols["repetitions"]] != config["experiment"]["m_values"]:
        problems.append(f"benchmark: repetitions column {cols['repetitions']} is not m_values")
    grid = config["filter"]["beta_grid"]
    start, stop, step = grid["start"], grid["stop"], grid["step"]
    t_stop = config["plan"]["t_stop"]
    for k in range(len(cols["repetitions"])):
        row = {c: cols[c][k] for c in cols}
        delta_n = float(row["delta_n"])
        for series in ("raw", "tmt"):
            expected = delta_n / math.sqrt(float(row[f"{series}_fringe_mse"]))
            if not _close(float(row[f"{series}_snr"]), expected, IDENTITY_RTOL, 0.0):
                problems.append(f"benchmark row {k}: {series}_snr != delta_n / sqrt({series}_fringe_mse)")
        if not _close(float(row["integration_time"]), int(row["repetitions"]) * t_stop,
                      IDENTITY_RTOL, 0.0):
            problems.append(f"benchmark row {k}: integration_time != repetitions * t_stop")
        beta = float(row["beta_opt"])
        if not start - step / 2 < beta < stop + step / 2:
            problems.append(f"benchmark row {k}: beta_opt {beta} outside the grid")
        on_edge = abs(beta - start) < step / 2 or abs(beta - stop) < step / 2
        if row["beta_opt_on_edge"] != ("true" if on_edge else "false"):
            problems.append(f"benchmark row {k}: beta_opt_on_edge disagrees with beta_opt")
    return problems


def _power_law(xs, ys) -> tuple[float, float, float]:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    slope = sum((a - mx) * b for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)
    intercept = my - slope * mx
    ss_res = sum((b - intercept - slope * a) ** 2 for a, b in zip(lx, ly))
    ss_tot = sum((b - my) ** 2 for b in ly)
    return math.exp(intercept), slope, 1.0 - ss_res / ss_tot


def _check_scaling_fits(cols, config, manifest, out_dir) -> list[str]:
    header, rows = read_csv(out_dir / "benchmark.csv")
    bench = _columns(header, rows)
    xs = [float(v) for v in bench["integration_time"]]
    problems = []
    for k, series in enumerate(cols["series"]):
        fit = _power_law(xs, [float(v) for v in bench[f"{series}_snr"]])
        for name, value in zip(("prefactor", "exponent", "r_squared"), fit):
            if not _close(float(cols[name][k]), value, RTOL, 1e-12):
                problems.append(f"scaling_fits {series}: {name} {cols[name][k]} != refit {value!r}")
    return problems


def _check_denoise(cols, config, manifest, out_dir) -> list[str]:
    n_exp = config["plan"]["n_experiments"]
    experiments = [int(v) for v in cols["experiment"]]
    n_rows = len(experiments)
    if n_rows % n_exp or experiments[::n_rows // n_exp] != list(range(n_exp)):
        return [f"denoise: {n_rows} rows do not hold {n_exp} whole traces"]
    n = n_rows // n_exp
    raw = [float(v) for v in cols["raw"]]
    den = [float(v) for v in cols["denoised"]]
    if not all(math.isfinite(v) for v in den):
        return ["denoise: non-finite denoised values"]
    # detail filters have zero DC gain under the periodic boundary and the
    # approximation band is kept raw, so every trace keeps its time mean
    for i in range(n_exp):
        shift = (math.fsum(den[i * n:(i + 1) * n]) - math.fsum(raw[i * n:(i + 1) * n])) / n
        if abs(shift) > 1e-12:
            return [f"denoise: trace {i} mean moved by {shift:.3g}"]
    return []


def _check_template_estimates(cols, config, manifest, out_dir) -> list[str]:
    omegas = [float(v) for v in cols["omega_temp"]]
    if len(omegas) != config["plan"]["n_experiments"]:
        return [f"template_estimates: {len(omegas)} rows"]
    center = manifest["derived"]["omega_calib"]
    window = manifest["config"]["filter"]["freq_window"]
    lo, hi = (1.0 - window) * center, (1.0 + window) * center
    bad = [k for k, w in enumerate(omegas) if not lo < w < hi]
    return [f"template_estimates: rows {bad[:5]} outside the search window"] if bad else []


_INVARIANTS = {
    "gain_profile": _check_gain_profile,
    "benchmark": _check_benchmark,
    "scaling_fits": _check_scaling_fits,
    "denoise": _check_denoise,
    "template_estimates": _check_template_estimates,
}


def check_run(out_dir: Path, config: dict, tables: list[str]) -> list[str]:
    """Seed-independent checks of one mode run; returns the problems found."""
    problems = []
    manifest = _manifest(out_dir)
    for name, digest in manifest["outputs"].items():
        path = out_dir / name
        if not path.exists() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{name}: does not match the manifest checksum")
    for key in ("plan", "experiment"):
        for field, value in config[key].items():
            if manifest["config"][key][field] != value:
                problems.append(f"manifest: config {key}.{field} is {manifest['config'][key][field]!r}")
    for name in tables:
        path = out_dir / f"{name}.csv"
        if not path.exists():
            problems.append(f"{name}.csv: missing")
            continue
        header, rows = read_csv(path)
        problems += _check_csv_json(out_dir, name, header, rows)
        if name in _INVARIANTS:
            problems += _INVARIANTS[name](_columns(header, rows), config, manifest, out_dir)
    return problems


def make_reference(out_dir: Path, seed: int, tables: list[str]) -> dict:
    """Reference document for a run at ``seed``: sampled rows and file digests."""
    ref = {"seed": seed, "digests": output_digests(out_dir), "tables": {}}
    for name in tables:
        header, rows = read_csv(out_dir / f"{name}.csv")
        stride = max(1, math.ceil(len(rows) / MAX_REF_ROWS))
        picked = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})
        ref["tables"][name] = {"header": header, "n_rows": len(rows),
                               "rows": {str(k): rows[k] for k in picked}}
    return ref


def compare_reference(out_dir: Path, ref: dict) -> tuple[list[str], int, int]:
    """Problems against the stored reference, and (files byte-identical, files)."""
    problems = []
    for name, table in ref["tables"].items():
        header, rows = read_csv(out_dir / f"{name}.csv")
        if header != table["header"] or len(rows) != table["n_rows"]:
            problems.append(f"{name}: shape {len(rows)}x{header} != reference "
                            f"{table['n_rows']}x{table['header']}")
            continue
        ref_rows = {int(k): v for k, v in table["rows"].items()}
        float_cols = {i for i in range(len(header))
                      if any(_is_float_text(r[i]) for r in ref_rows.values())}
        for k, expected in sorted(ref_rows.items()):
            for i, (got, want) in enumerate(zip(rows[k], expected)):
                if not _cell_matches(got, want, i in float_cols):
                    problems.append(f"{name} row {k} column {header[i]}: {got} != reference {want}")
                    break
    digests = output_digests(out_dir)
    identical = sum(digests.get(name) == digest for name, digest in ref["digests"].items())
    return problems, identical, len(ref["digests"])
