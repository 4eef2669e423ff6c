"""CLI runs: artifacts, determinism, serialization round trips."""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numbers

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tmtmag import cli
from tmtmag.bench import DetectionPointSet, ensemble_stats
from tmtmag.cli import _stats_columns, export_table, main, make_table
from tmtmag.config import MODES, parse_config
from tmtmag.wavelets import available_bases


def fast_config(tmp_path, **overrides):
    cfg = {
        "plan": {"t_stop": 1.36e-6, "n_experiments": 12},
        "experiment": {"n_sd": 1},
        "filter": {"beta_grid": {"start": -3.0, "stop": 1.0, "step": 1.0}},
    }
    for section, block in overrides.items():
        cfg.setdefault(section, {}).update(block)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_files(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def read_csv(path: Path, reader=csv.reader) -> list:
    """All rows of a CSV file, read through a closed-on-exit handle."""
    with path.open() as fh:
        return list(reader(fh))


# ---------------------------------------------------------------------------
# export_table
# ---------------------------------------------------------------------------

def test_export_cardinality(tmp_path):
    points = DetectionPointSet(indices=np.array([0, 1, 2]), times=np.array([0.0, 1.0, 2.0]),
                               truths=np.array([0.1, 0.2, 0.3]))
    values = np.random.default_rng(0).normal(size=(10, 3)) * 0.01 + 0.2
    stats = ensemble_stats(values, points)
    table = make_table(**_stats_columns(stats, points, "raw", None))
    assert len(table) == 4  # 3 per-point records + 1 fringe record
    export_table(table[["series", "beta", "point", "mse"]], tmp_path, "stats",
                 ["csv", "json"], manifest={"mode": "test"})
    rows = read_csv(tmp_path / "stats.csv")
    assert len(rows) == 5  # header + 4 records
    payload = json.loads((tmp_path / "stats.json").read_text())
    assert len(payload["records"]) == 4
    assert payload["manifest"]["mode"] == "test"


def test_export_empty_table(tmp_path):
    export_table(make_table(a=[], b=np.array([])), tmp_path, "empty", ["csv", "json"])
    rows = read_csv(tmp_path / "empty.csv")
    assert rows == [["a", "b"]]
    payload = json.loads((tmp_path / "empty.json").read_text())
    assert payload["records"] == []


def test_float_serialization_roundtrip(tmp_path):
    export_table(make_table(x=np.array([0.1, 1.0 / 3.0])), tmp_path, "floats", ["csv", "json"])
    rows = read_csv(tmp_path / "floats.csv")
    assert float(rows[1][0]) == 0.1
    assert float(rows[2][0]) == 1.0 / 3.0
    payload = json.loads((tmp_path / "floats.json").read_text())
    assert payload["records"][0]["x"] == 0.1
    assert payload["records"][1]["x"] == 1.0 / 3.0


def test_make_table_rejects_ragged_columns():
    with pytest.raises(ValueError, match="equal length"):
        make_table(a=np.arange(3), b=[1, 2])
    with pytest.raises(ValueError, match="1-D"):
        make_table(a=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="1-D"):
        make_table()


def _reference_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) or isinstance(value, np.floating):
        return format(float(value), ".17g")
    return "" if value is None else str(value)


def _reference_jsonable(value):
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {k: _reference_jsonable(v) for k, v in value.items()}
    return value


def reference_export(records, columns, out_dir, name, manifest=None):
    """The list-of-dicts writer that export_table replaced, kept as the byte oracle."""
    with (out_dir / f"{name}.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_reference_fmt(rec.get(col)) for col in columns])
    payload = {"manifest": _reference_jsonable(manifest or {}),
               "records": [_reference_jsonable({col: rec.get(col) for col in columns})
                           for rec in records]}
    (out_dir / f"{name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def assert_export_matches_reference(tmp_path, name, table, records, manifest=None):
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir(exist_ok=True)
    old.mkdir(exist_ok=True)
    export_table(table, new, name, ["csv", "json"], manifest)
    reference_export(records, list(table.dtype.names), old, name, manifest)
    for suffix in (".csv", ".json"):
        assert (new / (name + suffix)).read_bytes() == (old / (name + suffix)).read_bytes(), suffix


def test_export_matches_reference_writer_on_mixed_table(tmp_path):
    inf, nan = float("inf"), float("nan")
    records = [
        {"label": "raw", "point": 0, "beta": None, "x": nan, "n": 3, "flag": True,
         "cell": np.float64(0.1), "f32": 0.1},
        {"label": "a,b", "point": "fringe", "beta": -inf, "x": inf, "n": -7, "flag": False,
         "cell": np.int64(-5), "f32": 2.5},
        {"label": 'say "hi"', "point": np.int64(12), "beta": inf, "x": -inf, "n": 0,
         "flag": True, "cell": np.float32(1.1), "f32": -1e-30},
        {"label": "line\nbreak\rreturn é", "point": None, "beta": nan, "x": -0.0, "n": 2**40,
         "flag": False, "f32": 3.0},  # "cell" missing
        {"label": "", "point": 7, "beta": 1e-300, "x": 1e300, "n": 1, "flag": False,
         "cell": None, "f32": nan},
    ]
    table = make_table(
        label=[r["label"] for r in records], point=[r["point"] for r in records],
        beta=[r["beta"] for r in records], x=np.array([r["x"] for r in records]),
        n=np.array([r["n"] for r in records], dtype=np.int64),
        flag=np.array([r["flag"] for r in records]),
        cell=[r.get("cell") for r in records],
        f32=np.array([r["f32"] for r in records], dtype=np.float32))
    records = [dict(r, f32=np.float32(r["f32"])) for r in records]
    manifest = {"mode": "test", "seed": np.int64(3), "derived": {"omega": np.float64(2.5)}}
    assert_export_matches_reference(tmp_path, "mixed", table, records, manifest)
    # one column: csv.writer quotes a lone empty field
    lone = [{"v": None}, {"v": "x"}, {"v": 1.5}]
    assert_export_matches_reference(tmp_path, "lone", make_table(v=[r["v"] for r in lone]), lone)
    # '%' in a column name must not reach the row template unescaped
    pct = [{"a%d": 1.0, "b": 2}]
    assert_export_matches_reference(tmp_path, "pct", make_table(**{"a%d": np.array([1.0]), "b": [2]}),
                                    pct)


def test_export_matches_reference_writer_on_empty_and_chunked_tables(tmp_path):
    assert_export_matches_reference(tmp_path, "empty", make_table(a=[], b=np.array([])), [])
    # more rows than one chunk, so the chunk seam is exercised
    n = 2 * cli._CHUNK_ROWS + 3
    x = np.random.default_rng(1).normal(size=n)
    records = [{"i": i, "x": x[i]} for i in range(n)]
    assert_export_matches_reference(tmp_path, "long", make_table(i=np.arange(n), x=x), records,
                                    {"mode": "test"})


@pytest.mark.parametrize("mode", ["simulate", "denoise"])
def test_export_matches_reference_writer_on_mode_tables(tmp_path, mode):
    config = parse_config({"plan": {"t_stop": 1.36e-6, "n_experiments": 12, "seed": 4},
                           "experiment": {"mode": mode, "n_sd": 1}})
    tables, _, _ = cli._RUNNERS[mode](config)
    assert tables
    for name, table in tables:
        records = [dict(zip(table.dtype.names, row)) for row in table.tolist()]
        assert_export_matches_reference(tmp_path, name, table, records, {"mode": mode})


# ---------------------------------------------------------------------------
# mode runs
# ---------------------------------------------------------------------------

def test_simulate_deterministic_and_creates_dir(tmp_path):
    cfg = fast_config(tmp_path)
    out1, out2 = tmp_path / "a" / "deep", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(out2)]) == 0
    files1, files2 = read_files(out1), read_files(out2)
    assert set(files1) == {"simulate.csv", "simulate.json", "summary.txt", "manifest.json"}
    for name in ("simulate.csv", "simulate.json", "summary.txt"):
        assert files1[name] == files2[name]
    m1 = json.loads(files1["manifest.json"])
    m2 = json.loads(files2["manifest.json"])
    m1.pop("duration_seconds"), m2.pop("duration_seconds")
    assert m1 == m2
    assert m1["derived"]["n0"] == pytest.approx(0.21952175617404938)


def test_manifest_checksums_match_files(tmp_path):
    cfg = fast_config(tmp_path)
    out = tmp_path / "run"
    main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(out)])
    import hashlib
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_denoise_writes_estimates(tmp_path):
    cfg = fast_config(tmp_path, filter={"beta": 0.0})
    out = tmp_path / "run"
    assert main(["denoise", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0
    names = set(read_files(out))
    assert {"denoise.csv", "template_estimates.csv", "summary.txt", "manifest.json"} <= names
    rows = read_csv(out / "template_estimates.csv")
    assert len(rows) == 13  # header + one estimate per experiment


def _raw_limit_error(tmp_path, filter_section):
    """Largest |denoised - raw| of a CLI denoise run, relative to max |raw|."""
    cfg = fast_config(tmp_path, filter=filter_section)
    out = tmp_path / "run"
    assert main(["denoise", "--config", str(cfg), "--seed", "2", "--out", str(out),
                 "--format", "csv"]) == 0
    rows = read_csv(out / "denoise.csv", csv.DictReader)
    raw = np.array([float(r["raw"]) for r in rows])
    denoised = np.array([float(r["denoised"]) for r in rows])
    assert not np.any(np.isnan(denoised))
    return np.max(np.abs(denoised - raw)) / np.max(np.abs(raw))


@pytest.mark.parametrize("beta", [-400.0, float("-inf")])
def test_denoise_raw_limit_returns_raw_traces(tmp_path, beta):
    # 10**400 overflows a float; the margin width saturates to inf
    assert _raw_limit_error(tmp_path, {"beta": beta}) < 1e-10


@pytest.mark.parametrize("basis", available_bases())
@pytest.mark.parametrize("beta", [-400.0, float("-inf")])
def test_denoise_raw_limit_every_basis(tmp_path, beta, basis):
    # perfect reconstruction returns the raw traces for every basis
    assert _raw_limit_error(tmp_path, {"beta": beta, "basis": basis}) < 1e-10


def test_sweep_beta_outputs(tmp_path):
    cfg = fast_config(tmp_path)
    out = tmp_path / "run"
    assert main(["sweep-beta", "--config", str(cfg), "--seed", "3", "--out", str(out),
                 "--format", "csv"]) == 0
    names = set(read_files(out))
    assert names == {"sweep_beta.csv", "summary.txt", "manifest.json"}
    rows = read_csv(out / "sweep_beta.csv")
    header = rows[0]
    assert header[:4] == ["series", "beta", "point", "time"]
    # raw group + 5 betas, each with 1 point + 1 fringe record, + optimum row
    assert len(rows) == 1 + 6 * 2 + 1
    assert rows[-1][0] == "optimum"
    manifest = json.loads((out / "manifest.json").read_text())
    assert "beta_opt" in manifest["derived"]


def test_benchmark_mode(tmp_path):
    cfg = fast_config(tmp_path, experiment={"m_values": [25000, 50000, 100000]})
    out = tmp_path / "run"
    assert main(["benchmark", "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 0
    rows = read_csv(out / "benchmark.csv")
    assert len(rows) == 4
    fits = read_csv(out / "scaling_fits.csv")
    assert [r[0] for r in fits[1:]] == ["raw", "tmt"]


@pytest.mark.parametrize("m_values", [[25000, 50000], [25000, 25000, 25000]])
def test_benchmark_m_values_checked_before_the_sweeps(tmp_path, capsys, m_values):
    # every sweep ran, and the scaling fit then failed with exit 1
    cfg = fast_config(tmp_path, experiment={"m_values": m_values})
    out = tmp_path / "run"
    assert main(["benchmark", "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 2
    assert "experiment.m_values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["denoise", "sweep-beta", "benchmark"])
def test_n_sd_beyond_the_window_exits_2(tmp_path, capsys, mode):
    # the 0.97-2.14 us window holds 3 crossings; n_sd 30 failed after the
    # simulation with exit 1
    cfg = fast_config(tmp_path, plan={"t_stop": 2.14e-6}, experiment={"n_sd": 30})
    out = tmp_path / "run"
    assert main([mode, "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 2
    assert "experiment.n_sd = 30: the window" in capsys.readouterr().err
    assert not out.exists()
    # gain-profile resizes its windows to each n_sd_values entry and ignores n_sd
    config = parse_config(cfg)
    cli._check_mode_limits(replace(config, experiment=replace(config.experiment,
                                                              mode="gain-profile")))


@pytest.mark.parametrize("mode", ["denoise", "sweep-beta", "benchmark"])
def test_window_without_crossings_exits_2(tmp_path, capsys, mode):
    # with n_sd null every crossing is a detection point; 0.2-0.25 us holds none
    cfg = fast_config(tmp_path, plan={"t_start": 0.2e-6, "t_stop": 0.25e-6},
                      experiment={"n_sd": None})
    out = tmp_path / "run"
    assert main([mode, "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 2
    assert "experiment.n_sd = null: the window" in capsys.readouterr().err
    assert not out.exists()


def test_gain_profile_ignores_the_base_window(tmp_path):
    # gain-profile sizes each window from plan.t_start, so a base window with
    # no crossing (six samples) runs as a longer one does; it exited 2 with
    # "window contains no detection points"
    tables = []
    for t_stop in (0.25e-6, 0.6e-6):
        cfg = fast_config(tmp_path, plan={"t_start": 0.2e-6, "t_stop": t_stop},
                          experiment={"n_sd": None, "n_sd_values": [1, 2]})
        out = tmp_path / f"run-{t_stop:g}"
        assert main(["gain-profile", "--config", str(cfg), "--seed", "6", "--out", str(out)]) == 0
        tables.append((out / "gain_profile.csv").read_bytes())
    assert tables[0] == tables[1]


def test_gain_profile_mode(tmp_path):
    cfg = fast_config(tmp_path, experiment={"n_sd_values": [1, 2]},
                      plan={"t_stop": 3.7e-6, "t_start": 0.2e-6})
    out = tmp_path / "run"
    assert main(["gain-profile", "--config", str(cfg), "--seed", "6", "--out", str(out)]) == 0
    rows = read_csv(out / "gain_profile.csv")
    assert len(rows) == 3
    assert rows[0][:3] == ["n_sd", "t_stop", "beta_calib"]


def test_fit_scaling_inline_and_file(tmp_path):
    pts = [[float(x), 3.0 * float(x) ** 0.5] for x in (1, 4, 9, 16)]
    cfg = fast_config(tmp_path, experiment={"points": pts})
    out = tmp_path / "run"
    assert main(["fit-scaling", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "fit_scaling.json").read_text())
    rec = payload["records"][0]
    assert rec["exponent"] == pytest.approx(0.5, rel=1e-9)
    assert rec["prefactor"] == pytest.approx(3.0, rel=1e-9)

    csv_path = tmp_path / "points.csv"
    csv_path.write_text("x,y\n1,3\n4,6\n9,9\n")
    cfg2 = fast_config(tmp_path, experiment={"points_file": str(csv_path)})
    out2 = tmp_path / "run2"
    assert main(["fit-scaling", "--config", str(cfg2), "--out", str(out2)]) == 0
    payload = json.loads((out2 / "fit_scaling.json").read_text())
    assert payload["records"][0]["exponent"] == pytest.approx(0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# flag handling and failure modes
# ---------------------------------------------------------------------------

def test_seed_required_for_benchmark_modes(tmp_path, capsys):
    cfg = fast_config(tmp_path)
    assert main(["sweep-beta", "--config", str(cfg)]) == 2
    assert "--seed" in capsys.readouterr().err
    # explicit seed in the config satisfies the requirement
    cfg2 = fast_config(tmp_path, plan={"seed": 11})
    out = tmp_path / "seeded"
    assert main(["sweep-beta", "--config", str(cfg2), "--out", str(out)]) == 0


def test_mode_conflict_rejected(tmp_path, capsys):
    cfg = fast_config(tmp_path, experiment={"mode": "simulate"})
    assert main(["denoise", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert "mode" in capsys.readouterr().err


def test_negative_cli_seed_rejected(tmp_path, capsys):
    cfg = fast_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed: seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["denoise", "sweep-beta", "benchmark", "gain-profile"])
def test_single_experiment_rejected_in_ensemble_modes(tmp_path, capsys, mode):
    cfg = fast_config(tmp_path, plan={"n_experiments": 1})
    out = tmp_path / "run"
    assert main([mode, "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    assert "plan.n_experiments must be >= 2 for mode" in capsys.readouterr().err
    assert not out.exists()  # rejected before any computation


def test_single_experiment_simulate_accepted(tmp_path):
    cfg = fast_config(tmp_path, plan={"n_experiments": 1})
    assert main(["simulate", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "run")]) == 0


def test_too_deep_levels_rejected(tmp_path, capsys):
    # the 50-sample window holds at most 4 undecimated levels (2**(4+1) <= 50)
    cfg = fast_config(tmp_path, filter={"levels": 5})
    out = tmp_path / "run"
    assert main(["sweep-beta", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    assert "filter.levels = 5" in capsys.readouterr().err
    assert not out.exists()
    # gain-profile resizes the 448-sample window; n_sd = 1 leaves 53 samples
    cfg = fast_config(tmp_path, filter={"levels": 5}, experiment={"n_sd_values": [2, 1]},
                      plan={"t_stop": 3.7e-6, "t_start": 0.2e-6})
    assert main(["gain-profile", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    assert "the gain-profile window has 53" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"filter": {"betta": 1}}))
    assert main(["simulate", "--config", str(path), "--seed", "1"]) == 2
    assert "betta" in capsys.readouterr().err


def test_unwritable_output_fails(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = fast_config(tmp_path)
    code = main(["simulate", "--config", str(cfg), "--seed", "1",
                 "--out", str(blocker / "nested")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["simulate", "--config", str(missing), "--seed", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert f"config file not found: {missing}" in capsys.readouterr().err


def test_fit_scaling_with_equal_x_values_exits_2(tmp_path, capsys):
    # printed "y = nan * x^nan", wrote NaN and exited 0
    cfg = fast_config(tmp_path, experiment={"points": [[1, 1], [1, 2], [1, 3]]})
    assert main(["fit-scaling", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "experiment.points: scaling fits need at least two distinct x values" in \
        capsys.readouterr().err
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("x,y\n4,1\n4,2\n4,3\n")
    cfg2 = fast_config(tmp_path, experiment={"points_file": str(csv_path)})
    assert main(["fit-scaling", "--config", str(cfg2), "--out", str(tmp_path / "y")]) == 2
    assert f"points file {csv_path}: scaling fits need" in capsys.readouterr().err


def test_overlong_config_path_exits_2(tmp_path, capsys):
    # OSError (file name too long) escaped parse_config and exited 1
    assert main(["simulate", "--config", "x" * 5000, "--seed", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert "cannot read config file xxx" in capsys.readouterr().err


def test_undecodable_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main(["simulate", "--config", str(path), "--seed", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert f"cannot read config file {path}" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["overlong name", "directory", "undecodable bytes"])
def test_unreadable_points_file_exits_2(tmp_path, capsys, kind):
    # each escaped _load_points as OSError or UnicodeDecodeError and exited 1
    if kind == "overlong name":
        points_file = str(tmp_path / ("p" * 5000))
    elif kind == "directory":
        points_file = str(tmp_path)
    else:
        points_file = str(tmp_path / "points.csv")
        Path(points_file).write_bytes(b"x,y\n1,\xff\xfe\n")
    cfg = fast_config(tmp_path, experiment={"points_file": points_file})
    out = tmp_path / "run"
    assert main(["fit-scaling", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"cannot read points file {points_file}" in capsys.readouterr().err
    assert not (out / "fit_scaling.csv").exists()


def test_fit_scaling_requires_points(tmp_path, capsys):
    cfg = fast_config(tmp_path)
    assert main(["fit-scaling", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "points" in capsys.readouterr().err
    cfg2 = fast_config(tmp_path, experiment={"points_file": str(tmp_path / "missing.csv")})
    assert main(["fit-scaling", "--config", str(cfg2), "--out", str(tmp_path / "y")]) == 2


@pytest.mark.parametrize("text,line", [
    ("x,y\n1,3\n4,abc\n9,9\n16,12\n", 3),  # only the first row may be a header
    ("1,3\nx,y\n9,9\n16,12\n", 2),
    ("x,y\n1,3\n4\n9,9\n", 3),
    ("x,y\n1,3\n4,nan\n9,9\n16,12\n", 3),
    ("x,y\n1,3\n4,6\n9,inf\n", 4),
])
def test_fit_scaling_rejects_bad_point_rows(tmp_path, capsys, text, line):
    path = tmp_path / "points.csv"
    path.write_text(text)
    cfg = fast_config(tmp_path, experiment={"points_file": str(path)})
    out = tmp_path / "run"
    assert main(["fit-scaling", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{path}, line {line}:" in capsys.readouterr().err
    assert not (out / "fit_scaling.csv").exists()


def test_fit_scaling_headerless_file_and_blank_lines(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("1,3\n4,6\n\n9,9\n")
    cfg = fast_config(tmp_path, experiment={"points_file": str(path)})
    out = tmp_path / "run"
    assert main(["fit-scaling", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "fit_scaling.json").read_text())["records"][0]["n_points"] == 3


def test_fit_scaling_rejects_nan_inline_point(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"experiment": {"points": [[1, 3], [4, NaN], [9, 9]]}}')
    assert main(["fit-scaling", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "experiment.points[1]" in capsys.readouterr().err


def test_preset_configs_parse():
    from pathlib import Path

    from tmtmag.config import parse_config

    for preset in sorted(Path(__file__).resolve().parents[1].glob("configs/*.json")):
        config = parse_config(preset)
        assert config.plan.repetitions == 25000


# ---------------------------------------------------------------------------
# every numeric field, perturbed, through every mode
# ---------------------------------------------------------------------------

TINY = {
    "sensor": {"gamma_e": -1.76e11},
    "plan": {"n_experiments": 3, "seed": 3},
    "filter": {"levels": 3, "freq_points": 201, "beta_grid": [-1.0, 0.0, 1.0]},
    "experiment": {"n_sd": 1, "m_values": [25000, 50000, 100000], "n_sd_values": [1, 2],
                   "points": [[1.0, 2.0], [2.0, 2.9], [4.0, 4.1]]},
}
# the resolved configuration is the schema: each of its scalar numbers is a field
TINY_RESOLVED = parse_config(TINY).snapshot
NUMERIC_FIELDS = sorted((section, key) for section, block in TINY_RESOLVED.items()
                        for key, value in block.items()
                        if isinstance(value, numbers.Real) and not isinstance(value, bool))


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(NUMERIC_FIELDS),
       value=st.one_of(st.sampled_from([float("nan"), float("inf"), float("-inf"), 0, 0.0]),
                       st.integers(max_value=-1),
                       st.floats(max_value=-1e-300, allow_infinity=False)))
@example(field=("sensor", "gamma_e"), value=0)
@example(field=("sensor", "b_calib"), value=float("inf"))
@example(field=("plan", "f_sample"), value=float("inf"))
@example(field=("experiment", "delta_b"), value=-1.0)
def test_perturbed_field_never_raises(tmp_path_factory, field, value):
    section, key = field
    cfg = json.loads(json.dumps(TINY_RESOLVED))
    cfg[section][key] = value
    work = tmp_path_factory.mktemp("perturbed")
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    for mode in MODES:
        assert main([mode, "--config", str(path), "--out", str(work / mode)]) in (0, 1, 2)


def test_slow_fringe_gain_window_rejected(tmp_path, capsys):
    # |gamma_e| = 1 rad/s/T puts the sensing fringe at ~1e-4 rad/s: a window
    # holding n_sd crossings would span days of samples
    path = fast_config(tmp_path, sensor={"gamma_e": -1.0}, experiment={"n_sd_values": [1, 2]})
    assert main(["gain-profile", "--config", str(path), "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "experiment.n_sd_values" in capsys.readouterr().err
