"""CLI runs: artifacts, determinism, serialization round trips."""

import contextlib
import csv
import dataclasses
import gc
import io
import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numbers
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from tmtmag import bench, cli, ramsey
from tmtmag.bench import DetectionPointSet, ensemble_stats
from tmtmag.cli import _stats_columns, export_table, main, make_table
from tmtmag.config import (MAX_ENSEMBLE_BYTES, MAX_WINDOW_SAMPLES, MODES, ConfigError, RunConfig,
                           _planned_setups, parse_config)
from tmtmag.ramsey import PHOTON_MODELS, POISSON_LAM_MAX
from tmtmag.tmt import GridEdgeError
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
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return "" if value is None else str(value)


def _reference_jsonable(value):
    if isinstance(value, np.bool_):
        return bool(value)
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
    # the cells the modes build: int64 and float64 columns, and object cells that
    # are None, booleans, numbers or the literals raw/tmt/optimum/fringe
    inf, nan = float("inf"), float("nan")
    records = [
        {"label": "raw", "point": 0, "beta": None, "x": nan, "n": 3, "flag": True,
         "cell": np.float64(0.1)},
        {"label": "tmt", "point": "fringe", "beta": -inf, "x": inf, "n": -7, "flag": False,
         "cell": np.int64(-5)},
        {"label": "optimum", "point": np.int64(12), "beta": inf, "x": -inf, "n": 0,
         "flag": np.True_, "cell": 1e-30},
        {"label": "fringe", "point": None, "beta": nan, "x": -0.0, "n": 2**40,
         "flag": False, "cell": True},
        {"label": None, "point": 7, "beta": 1e-300, "x": 1e300, "n": 1, "flag": None,
         "cell": None},
        {"label": "raw", "point": 3, "beta": 0.5, "x": 2.0, "n": 5, "flag": True},  # "cell" missing
    ]
    table = make_table(
        label=[r["label"] for r in records], point=[r["point"] for r in records],
        beta=[r["beta"] for r in records], x=np.array([r["x"] for r in records]),
        n=np.array([r["n"] for r in records], dtype=np.int64),
        flag=[r["flag"] for r in records], cell=[r.get("cell") for r in records])
    manifest = {"mode": "test", "seed": np.int64(3), "derived": {"omega": np.float64(2.5)}}
    assert_export_matches_reference(tmp_path, "mixed", table, records, manifest)


def test_export_matches_reference_writer_on_empty_and_chunked_tables(tmp_path):
    assert_export_matches_reference(tmp_path, "empty", make_table(a=[], b=np.array([])), [])
    # more rows than one chunk, so the chunk seam and the seams of the
    # pieces that a chunk is written in are exercised
    n = 2 * cli._CHUNK_ROWS + 3
    x = np.random.default_rng(1).normal(size=n)
    records = [{"i": i, "x": x[i]} for i in range(n)]
    assert_export_matches_reference(tmp_path, "long", make_table(i=np.arange(n), x=x), records,
                                    {"mode": "test"})


def test_export_matches_reference_writer_on_distinct_value_columns(tmp_path):
    # columns at and just past the distinct-value bound, over 3 chunks, and
    # cells whose values compare equal while their bits differ, or unequal
    # while their bits agree
    n = 3 * cli._CHUNK_ROWS + 5
    rng = np.random.default_rng(5)
    other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    special = np.array([0.0, -0.0, np.nan, other_nan, np.inf, -np.inf, 0.1, 1e-300])
    i64 = np.iinfo(np.int64)
    table = make_table(
        exact=rng.permutation(np.arange(n) % cli._CHUNK_ROWS),
        over=rng.permutation(np.arange(n) % (cli._CHUNK_ROWS + 1)) * 0.1,
        special=rng.choice(special, n),
        wide=rng.choice(np.array([i64.min, i64.max, 0, -1]), n),
        label=rng.choice(["raw", "fringe"], n).tolist())
    assert cli._distinct_values(table["exact"]) is not None
    assert cli._distinct_values(table["over"]) is None
    assert len(cli._distinct_values(table["special"])[0]) == 8  # -0.0 and both NaNs kept apart
    records = [dict(zip(table.dtype.names, row)) for row in table.tolist()]
    assert_export_matches_reference(tmp_path, "dedup", table, records, {"mode": "test"})


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
       st.sampled_from([np.float16, np.float32, np.float64]))
def test_distinct_values_rebuild_the_column_bit_for_bit(cells, dtype):
    with np.errstate(over="ignore"):
        column = np.array(cells, dtype=dtype)
    values, index = cli._distinct_values(column)
    key = f"u{column.itemsize}"
    np.testing.assert_array_equal(values[index].view(key), column.view(key))
    assert len(np.unique(values.view(key))) == len(values)


def _float64(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# cells at the edges of repr's text: signed zero, subnormals, NaN payloads,
# infinities, integral floats and repr's notation switches at 1e16 and 1e-4
_FLOAT_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                   float("nan"), _float64(0x7FF8000000000001), _float64(0xFFF8000000000000),
                   _float64(0x7FF0000000000001), float("inf"), float("-inf"), 1.0, -2.0, 2.0**53,
                   2.0**53 + 2, 1e15, 9999999999999998.0, 1e16, 1e17, -1e16, 1e-4, 1e-5,
                   9.999999999999999e-05, 0.1, 1.7976931348623157e308]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_FLOAT_SPECIALS),
                          st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)),
                min_size=1, max_size=40),
       st.booleans())
def test_float_cells_are_repr_in_csv_and_json(tmp_path_factory, cells, all_distinct):
    # the drawn cells straddle a chunk seam, among filler cells that hold one
    # value (the distinct-value path) or more than a chunk's worth (the other)
    n = cli._CHUNK_ROWS + len(cells)
    column = np.arange(n) + 0.5 if all_distinct else np.zeros(n)
    at = cli._CHUNK_ROWS - len(cells) // 2
    column[at:at + len(cells)] = cells
    assert (cli._distinct_values(column) is None) == all_distinct
    out = tmp_path_factory.mktemp("floats")
    export_table(make_table(x=column), out, "x", ["csv", "json"])
    csv_cells = (out / "x.csv").read_text().splitlines()[1:]
    json_cells = re.findall(r'^      "x": (.*)$', (out / "x.json").read_text(), re.MULTILINE)
    assert len(csv_cells) == len(json_cells) == n
    for x, csv_cell, json_cell in zip(column.tolist(), csv_cells, json_cells):
        assert csv_cell == repr(x)
        if np.isfinite(x):
            assert np.float64(json.loads(json_cell)).view(np.uint64) == np.float64(x).view(np.uint64)
        else:
            assert json_cell == json.dumps(x)


def _one_pass_table(n: int) -> np.ndarray:
    """Integer, all-distinct float, few-valued float and object columns, with NaN and inf."""
    rows = np.arange(n)
    x = np.where(rows % 1000 < 3, np.array([np.nan, np.inf, -np.inf])[rows % 3],
                 np.random.default_rng(2).normal(size=n))
    labels = ["raw", None, 0.1, True, np.int64(3), "fringe"]
    return make_table(i=rows, x=x, few=rows % 3 * 0.1 - 0.1,
                      label=[labels[i % len(labels)] for i in range(n)])


def test_one_format_export_writes_the_bytes_of_the_two_format_export(tmp_path):
    for n in (0, 5, 2 * cli._CHUNK_ROWS + 3):
        table = _one_pass_table(n)
        both, csv_only, json_only = (tmp_path / str(n) / d for d in ("both", "csv", "json"))
        for out, formats in ((both, ["csv", "json"]), (csv_only, ["csv"]), (json_only, ["json"])):
            out.mkdir(parents=True)
            assert export_table(table, out, "t", formats, {"mode": "test"}) == [
                out / f"t.{fmt}" for fmt in formats]
        assert read_files(csv_only) == {"t.csv": (both / "t.csv").read_bytes()}
        assert read_files(json_only) == {"t.json": (both / "t.json").read_bytes()}


@pytest.mark.parametrize("case", ["long double column", "unwritable cell past a chunk"])
def test_export_that_fails_part_way_leaves_no_file_open(tmp_path, case):
    n = 2 * cli._CHUNK_ROWS
    if case == "long double column":  # no same-width unsigned view keys its bits
        table = make_table(i=np.arange(n), x=np.zeros(n, dtype=np.longdouble))
    else:  # JSON cannot write the last cell, once both files hold the first chunk
        table = make_table(i=np.arange(n), cell=[None] * (n - 1) + [{1, 2}])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TypeError):
            export_table(table, tmp_path, "t", ["csv", "json"])
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    if case == "long double column":  # it fails before a file is opened
        assert not list(tmp_path.iterdir())
    else:
        assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + cli._CHUNK_ROWS


def _export_peak(out_dir: Path, n: int) -> int:
    """tracemalloc peak of one CSV+JSON export of a denoise-like table of ``n`` rows."""
    rng = np.random.default_rng(0)
    table = make_table(experiment=np.repeat(np.arange(n // 256), 256),
                       time=np.tile(np.linspace(0.0, 1e-6, 256), n // 256),
                       raw=rng.integers(0, 1000, n) / 25000.0, denoised=rng.normal(size=n))
    tracemalloc.start()
    try:
        export_table(table, out_dir, "peak", ["csv", "json"])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_memory_is_a_chunk_plus_two_bytes_a_row_per_column(tmp_path):
    small, large = 2 * cli._CHUNK_ROWS, 8 * cli._CHUNK_ROWS
    peak = _export_peak(tmp_path, large)
    # of the 4 columns, 3 have few distinct values and keep a 2-byte index;
    # an int64 index on one column, or one string a row, breaks both bounds
    assert (peak - _export_peak(tmp_path, small)) / (large - small) <= 2 * 4
    assert peak < 3 * 2**20


@pytest.mark.parametrize("mode", ["simulate", "denoise"])
def test_export_matches_reference_writer_on_mode_tables(tmp_path, mode):
    # 12 x 50 rows fit one chunk; 60 x 150 rows span 3 chunks
    for plan, chunks in (({"t_stop": 1.36e-6, "n_experiments": 12}, 1),
                         ({"t_stop": 2.14e-6, "n_experiments": 60}, 3)):
        config = parse_config({"plan": dict(plan, seed=4), "experiment": {"mode": mode, "n_sd": 1}})
        tables, _, _ = cli._RUNNERS[mode](config)
        assert -(-len(tables[0][1]) // cli._CHUNK_ROWS) == chunks
        if mode == "denoise" and chunks == 3:  # past the distinct-value bound
            assert cli._distinct_values(tables[0][1]["denoised"]) is None
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
    replace(config, experiment=replace(config.experiment, mode="gain-profile"))


@pytest.mark.parametrize("mode", ["denoise", "sweep-beta", "benchmark"])
def test_window_without_crossings_exits_2(tmp_path, capsys, mode):
    # with n_sd null every crossing is a detection point; 0.2-0.25 us holds none
    cfg = fast_config(tmp_path, plan={"t_start": 0.2e-6, "t_stop": 0.25e-6},
                      experiment={"n_sd": None})
    out = tmp_path / "run"
    assert main([mode, "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 2
    assert "experiment.n_sd = null: the window" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delta_b", [0.0, 1e-30])
def test_benchmark_without_signal_exits_2(tmp_path, capsys, delta_b):
    # b_calib + 1e-30 rounds to b_calib; every ensemble was simulated and
    # swept, then the scaling fit exited 1 with "strictly positive coordinates"
    cfg = fast_config(tmp_path, experiment={"delta_b": delta_b, "m_values": [25000, 50000, 100000]})
    out = tmp_path / "run"
    assert main(["benchmark", "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 2
    assert f"experiment.delta_b = {delta_b!r}: no signal" in capsys.readouterr().err
    assert not out.exists()
    # a gain profile needs no sensing shift
    config = parse_config(cfg)
    replace(config, experiment=replace(config.experiment, mode="gain-profile"))


@pytest.mark.parametrize("mode", ["denoise", "sweep-beta", "benchmark", "gain-profile"])
def test_window_without_fringe_exits_2(tmp_path, capsys, mode):
    # t2_star = 1 ns leaves the envelope 0 at every sample; denoise exited 1
    # with "correlation maximum at the grid boundary ... widen the search grid"
    cfg = fast_config(tmp_path, sensor={"t2_star": 1e-9},
                      experiment={"m_values": [25000, 50000, 100000], "n_sd_values": [1, 2]})
    out = tmp_path / "run"
    assert main([mode, "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 2
    assert "sensor.t2_star = 1e-09 s: the window has no fringe" in capsys.readouterr().err
    assert not out.exists()
    # simulate searches no frequency
    config = parse_config(cfg)
    replace(config, experiment=replace(config.experiment, mode="simulate"))


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


def test_gain_profile_flags_a_calibration_order_on_the_grid_edge(tmp_path):
    # on beta in {-4, -3.5, -3} the margins hardly clip, the MSE still falls
    # at the grid's top, and the calibration order is its upper edge; the
    # flag goes to the manifest, one per n_sd, while the table keeps its columns
    cfg = fast_config(tmp_path, experiment={"n_sd_values": [1, 2]},
                      plan={"t_stop": 3.7e-6, "t_start": 0.2e-6},
                      filter={"beta_grid": {"start": -4.0, "stop": -3.0, "step": 0.5}})
    out = tmp_path / "run"
    assert main(["gain-profile", "--config", str(cfg), "--seed", "6", "--out", str(out)]) == 0
    rows = read_csv(out / "gain_profile.csv")
    assert rows[0] == ["n_sd", "t_stop", "beta_calib", "raw_fringe_mse", "tmt_fringe_mse",
                       "gain"]
    manifest = json.loads((out / "manifest.json").read_text())
    on_edge = manifest["derived"]["beta_calib_on_edge"]
    assert on_edge == [float(row[2]) in (-4.0, -3.0) for row in rows[1:]]
    assert on_edge == [True, True]
    assert "edge" not in (out / "summary.txt").read_text()


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
    # a config that selects no mode cannot be run
    config = parse_config({"output": {"directory": str(tmp_path / "none")}})
    with pytest.raises(ConfigError, match="no experiment mode selected"):
        cli.run(config)
    assert not (tmp_path / "none").exists()


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


@pytest.mark.parametrize("value", [False, True])
def test_removed_margin_switch_exits_2_naming_it(tmp_path, capsys, value):
    # the margins have one model, the paper's shot-noise profile
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"experiment": {"squared_contrast": value}}))
    out = tmp_path / "run"
    assert main(["sweep-beta", "--config", str(path), "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: unknown key 'squared_contrast' in section "
                                       "'experiment'\n")
    assert not out.exists()


def _never_simulate(*args, **kwargs):
    raise AssertionError("simulated before the output directory was checked")


def test_unwritable_output_fails(tmp_path, capsys, monkeypatch):
    # the run simulated, then exited 1 with "[Errno 20] Not a directory"
    monkeypatch.setattr(cli, "simulate_ensemble", _never_simulate)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = fast_config(tmp_path)
    code = main(["simulate", "--config", str(cfg), "--seed", "1",
                 "--out", str(blocker / "nested")])
    assert code == 2
    assert capsys.readouterr().err == (f"error: output.directory = {str(blocker / 'nested')!r}: "
                                       f"{blocker} is not a writable directory\n")
    assert blocker.read_text() == "file, not a directory"


def test_output_directory_that_is_a_file_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    # the whole sweep ran, then the run exited 1 with "[Errno 17] File exists",
    # naming no field
    monkeypatch.setattr(bench, "simulate_ensemble", _never_simulate)
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("")
    cfg = fast_config(tmp_path)
    assert main(["sweep-beta", "--config", str(cfg), "--seed", "1", "--out", "afile"]) == 2
    assert capsys.readouterr().err == ("error: output.directory = 'afile': "
                                       f"{tmp_path / 'afile'} is not a writable directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]
    assert Path("afile").is_file()


def test_points_and_points_file_together_exit_2(tmp_path, capsys):
    # the points file, though missing, was ignored and the inline points fitted
    cfg = fast_config(tmp_path, experiment={"points": [[1, 1], [2, 4], [3, 9]],
                                            "points_file": str(tmp_path / "missing.csv")})
    out = tmp_path / "run"
    assert main(["fit-scaling", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: experiment: points and points_file must not "
                                       "both be given\n")
    assert not out.exists()


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
    # each escaped the points reader as OSError or UnicodeDecodeError and exited 1
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
    # rows of more than two cells were fitted by their first two, and a first
    # row of numbers was skipped as a header
    ("1,2,99\n2,4,\n3,9,zzz\n", 1),
    ("1,2,99\n4,6\n9,9\n16,12\n", 1),
    ("x,y\n1,3\n4,6,99\n9,9\n", 3),
    ("x,y\n1,3\n4,6\n9,9,\n", 4),
])
def test_fit_scaling_rejects_bad_point_rows(tmp_path, capsys, text, line):
    path = tmp_path / "points.csv"
    path.write_text(text)
    cfg = fast_config(tmp_path, experiment={"points_file": str(path)})
    out = tmp_path / "run"
    assert main(["fit-scaling", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{path}, line {line}:" in capsys.readouterr().err
    assert not (out / "fit_scaling.csv").exists()


@pytest.mark.parametrize("changes,text", [
    ({}, "fit-scaling needs experiment.points or experiment.points_file"),
    ({"points": [[1.0, 1.0], [2.0, 2.0]]}, "experiment.points: need at least 3 points"),
    ({"points_file": "missing.csv"}, "points file not found: missing.csv"),
])
def test_fit_scaling_points_checked_when_built(tmp_path, monkeypatch, changes, text):
    # each was accepted when built and raised only inside cli.run
    def simulate(*args, **kwargs):
        raise AssertionError("simulate_ensemble called")

    for module in (ramsey, bench, cli):
        monkeypatch.setattr(module, "simulate_ensemble", simulate)
    monkeypatch.chdir(tmp_path)
    config = parse_config({"experiment": {"mode": "denoise"}, "plan": {"n_experiments": 4},
                           "output": {"directory": str(tmp_path / "run")}})
    with pytest.raises(ConfigError) as parsed:
        parse_config({"experiment": {"mode": "fit-scaling", **changes}})
    with pytest.raises(ConfigError) as replaced:
        replace(config, experiment=replace(config.experiment, mode="fit-scaling", **changes))
    assert str(replaced.value) == str(parsed.value)
    assert str(parsed.value).startswith(text)
    # a fit-scaling config that builds runs; its points file was read when it was built
    path = tmp_path / "points.csv"
    path.write_text("x,y\n1,3\n4,6\n9,9\n")
    fit = replace(config, experiment=replace(config.experiment, mode="fit-scaling",
                                             points_file=str(path)))
    path.unlink()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(fit) == 0
    assert read_csv(tmp_path / "run" / "fit_scaling.csv")[1][-1] == "3"


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


def test_crossing_count_beyond_the_sample_cap_exits_2(tmp_path, capsys):
    # each crossing needs a sample of its own, so 10**8 crossings can never fit; the
    # check comes before the windows are planned, whose crossing arrays grow with n_sd
    cfg = fast_config(tmp_path, experiment={"n_sd_values": [1, 10 ** 8]})
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        assert main(["gain-profile", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err.startswith("error: experiment.n_sd_values: an entry above 65536")
    assert peak < 10 << 20
    assert not out.exists()


# ---------------------------------------------------------------------------
# every field, given a value of a JSON kind it does not take
# ---------------------------------------------------------------------------

#: a field whose default resolves to null is optional
OPTIONAL = {(section, key) for section, block in parse_config(None).snapshot.items()
            for key, value in block.items() if value is None}
KIND_VALUES = {"null": None, "boolean": True, "integer": 3, "number": 2.5, "string": "x",
               "list": ["x"], "object": {"x": 1}}


def _kinds(value) -> set[str]:
    """The JSON kinds a field that resolves to ``value`` takes."""
    if isinstance(value, bool):
        return {"boolean"}
    if isinstance(value, int):
        return {"integer"}
    if isinstance(value, float):
        return {"integer", "number"}
    if isinstance(value, list):
        return {"list"}
    return {"string"}  # also the two fields that resolve to null: mode and points_file


def _wrong_kinds():
    for section, block in TINY_RESOLVED.items():
        for key, value in block.items():
            if (section, key) in {("sensor", "n0"), ("sensor", "n1"), ("filter", "beta_grid"),
                                  ("experiment", "points")}:
                continue  # tested field by field above
            takes = _kinds(value) | ({"null"} if (section, key) in OPTIONAL else set())
            for kind, wrong in KIND_VALUES.items():
                if kind == "list" and "list" in takes:
                    # a list of items of the wrong kind
                    kind, wrong = "list-of-wrong-items", [3] if isinstance(value[0], str) else ["x"]
                elif kind in takes:
                    continue
                yield pytest.param(section, key, wrong, id=f"{section}.{key}-{kind}")


@pytest.mark.parametrize("section,key,value", list(_wrong_kinds()))
def test_wrong_kind_exits_2_naming_the_field(tmp_path, capsys, section, key, value):
    cfg = json.loads(json.dumps(TINY_RESOLVED))
    cfg[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {section}.{key} must be ")
    assert not out.exists()


@pytest.mark.parametrize("section,key,value,mode", [
    # wrote the run into a directory named ./None
    ("output", "directory", None, "simulate"),
    # each ended in a TypeError traceback, or was accepted and failed later
    ("experiment", "m_values", 5, "benchmark"),
    ("experiment", "points", 5, "fit-scaling"),
    ("output", "formats", 5, "simulate"),
    ("experiment", "points_file", 3, "fit-scaling"),
])
def test_wrong_kind_of_unchecked_field_exits_2(tmp_path, capsys, monkeypatch, section, key, value, mode):
    monkeypatch.chdir(tmp_path)
    path = fast_config(tmp_path, **{section: {key: value}})
    assert main([mode, "--config", str(path), "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {section}.{key} must be ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("mode", ["simulate", "denoise"])
def test_window_over_the_sample_cap_exits_2(tmp_path, capsys, mode):
    # only gain-profile capped its windows: {"plan": {"t_stop": 1.0}} asked
    # for 1.28e8 samples per trace, and these ran at 65537
    t_start, f_sample = 0.97e-6, 128e6
    cfg = fast_config(tmp_path, plan={"t_stop": t_start + 65537 / f_sample, "n_experiments": 2})
    out = tmp_path / "run"
    assert main([mode, "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: plan.t_stop = {parse_config(cfg).plan.t_stop:.6g}: the window holds 65537 samples")
    assert not out.exists()
    # gain-profile does not use the base window and fit-scaling none; 65536 samples fit
    config = parse_config(cfg)
    for other, changes in (("gain-profile", {}),
                           ("fit-scaling", {"points": [[1.0, 1.0], [4.0, 2.0], [9.0, 3.0]]})):
        replace(config, experiment=replace(config.experiment, mode=other, **changes))
    at_cap = config.plan.with_(t_stop=t_start + MAX_WINDOW_SAMPLES / f_sample)
    assert at_cap.n_samples == MAX_WINDOW_SAMPLES == 65536
    replace(config, plan=at_cap, experiment=replace(config.experiment, mode="simulate"))
    # a count past six digits is not printed digit by digit
    with pytest.raises(ConfigError, match=r"^plan.t_stop = 1.1e\+300: the window holds 1.28e\+307 samples "):
        parse_config({"experiment": {"mode": "sweep-beta", "n_sd": 1},
                      "plan": {"t_start": 1e300, "t_stop": 1.1e300}})


# ---------------------------------------------------------------------------
# the planned ensembles: what the mode check validates is what the runners build
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["denoise", "sweep-beta", "benchmark", "gain-profile"])
def test_runners_build_exactly_the_planned_ensembles(tmp_path, monkeypatch, mode):
    config = parse_config(fast_config(
        tmp_path, plan={"n_experiments": 4, "seed": 5},
        experiment={"mode": mode, "m_values": [25000, 50000, 100000], "n_sd_values": [2, 1]},
        output={"directory": str(tmp_path / "run")}))
    built = []
    init = bench.EnsembleRun.__init__

    def record(self, setup, *args, **kwargs):
        built.append(setup)
        init(self, setup, *args, **kwargs)

    monkeypatch.setattr(bench.EnsembleRun, "__init__", record)
    assert cli.run(config) == 0
    assert built == _planned_setups(config)
    assert len(built) == {"benchmark": 3, "gain-profile": 4}.get(mode, 1)


#: (mode, config overrides, text): one case per rule a mode sets on the ensembles it builds
MODE_RULES = [
    ("benchmark", {"experiment": {"m_values": [25000, 50000]}},
     "experiment.m_values: the scaling fit"),
    ("gain-profile", {"experiment": {"n_sd_values": [65537]}},
     "experiment.n_sd_values: an entry above 65536"),
    ("simulate", {"sensor": {"n0": 1000, "n1": 500}, "plan": {"repetitions": 10 ** 17}},
     "numpy's Poisson limit"),
    ("denoise", {"plan": {"t_stop": 0.97e-6 + 65537 / 128e6}}, "the window holds 65537 samples"),
    ("sweep-beta", {"plan": {"n_experiments": 1}}, "plan.n_experiments must be >= 2"),
    ("sweep-beta", {"plan": {"t_stop": 2.14e-6}, "experiment": {"n_sd": 30}},
     "experiment.n_sd = 30: the window"),
    ("gain-profile", {"plan": {"t_start": 0.2e-6, "t_stop": 3.7e-6},
                      "experiment": {"delta_b": 1e-5, "n_sd_values": [1, 5, 9]}},
     "on the calibration fringe at omega_calib"),
    ("denoise", {"filter": {"freq_window": 0.02}}, "filter.freq_window = 0.02: the search grid"),
    ("sweep-beta", {"filter": {"levels": 9}}, "filter.levels = 9 needs"),
    ("simulate", {"plan": {"n_experiments": 10 ** 9}}, "plan.n_experiments = 1000000000: the"),
    # a t_start so late that the fringe periods round away raised an IndexError
    ("gain-profile", {"plan": {"t_start": 1e300, "t_stop": 1.1e300},
                      "experiment": {"n_sd_values": [1, 2]}},
     "experiment.n_sd_values: t_start = 1e+300 s is too late to resolve 2 crossings"),
    # a fringe period that overflows was floored as inf / inf
    ("gain-profile", {"sensor": {"gamma_e": 1e-318}},
     "experiment.n_sd_values: the fringe at omega = 9.88131e-323 rad/s is too slow"),
]


@pytest.mark.parametrize("mode,overrides,text", MODE_RULES)
def test_mode_rules_hold_however_the_config_is_built(tmp_path, capsys, mode, overrides, text):
    # cli.run checked these; a config built in code or by replace went unchecked
    path = fast_config(tmp_path, **overrides)
    assert main([mode, "--config", str(path), "--seed", "1", "--out", str(tmp_path / "run")]) == 2
    printed = capsys.readouterr().err
    assert text in printed
    data = json.loads(path.read_text())
    data["experiment"]["mode"] = mode
    with pytest.raises(ConfigError) as parsed:
        parse_config(data)
    unset = parse_config(path)  # without a mode, no mode's rules apply
    with pytest.raises(ConfigError) as replaced:
        replace(unset, experiment=replace(unset.experiment, mode=mode))
    with pytest.raises(ConfigError) as built:
        RunConfig(**{f.name: getattr(unset, f.name) for f in dataclasses.fields(RunConfig)}
                  | {"experiment": replace(unset.experiment, mode=mode)})
    for raised in (parsed, replaced, built):
        assert f"error: {raised.value}\n" == printed


@pytest.mark.parametrize("section,changes,text", [
    ("experiment", {"delta_b": -1.0}, "experiment.delta_b must be finite"),
    ("plan", {"f_sample": 5e6, "t_stop": 3e-6}, "plan.f_sample = 5e+06 Hz undersamples"),
])
def test_cross_section_rules_hold_under_replace(tmp_path, capsys, section, changes, text):
    assert main(["simulate", "--config", str(fast_config(tmp_path, **{section: changes})),
                 "--seed", "1", "--out", str(tmp_path / "run")]) == 2
    printed = capsys.readouterr().err
    assert text in printed
    config = parse_config(None)
    with pytest.raises(ConfigError) as replaced:
        replace(config, **{section: replace(getattr(config, section), **changes)})
    assert f"error: {replaced.value}\n" == printed


@pytest.mark.parametrize("mode", ["simulate", "denoise"])
def test_table_run_peaks_within_its_count(tmp_path, monkeypatch, mode):
    # while the table was built, simulate peaked at 6 and denoise at 8 doubles per
    # sample, against 4 and 7.4 counted
    data = {"plan": {"n_experiments": 1000, "t_stop": 0.97e-6 + 150 / 128e6, "seed": 7},
            "experiment": {"mode": mode, "n_sd": 1},
            "output": {"formats": ["csv"], "directory": str(tmp_path / "run")}}
    config = parse_config(data)
    assert config.plan.n_samples == 150
    # a first small run, so that one-time caches are not counted against the ensemble
    warm = replace(config, plan=config.plan.with_(n_experiments=20),
                   output=replace(config.output, directory=str(tmp_path / "warm")))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(warm) == 0
        tracemalloc.start()
        try:
            assert cli.run(config) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a limit one byte below the peak rejects the run: the count is at least the peak
    monkeypatch.setattr("tmtmag.config.MAX_ENSEMBLE_BYTES", peak - 1)
    with pytest.raises(ConfigError, match=f"plan.n_experiments = 1000: the {mode} ensemble"):
        parse_config(data)


def test_calibration_fringe_window_checked_before_the_sweeps(tmp_path, capsys):
    # at delta_b 1e-5 the window holding 5 sensing crossings holds only 4 of
    # the calibration fringe: the n_sd = 1 sweeps ran, then the run exited 1
    # with an error naming no field
    cfg = fast_config(tmp_path, plan={"t_start": 0.2e-6, "t_stop": 3.7e-6},
                      experiment={"delta_b": 1e-5, "n_sd_values": [1, 5, 9]})
    out = tmp_path / "run"
    assert main(["gain-profile", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "experiment.n_sd_values entry 5 on the calibration fringe" in err
    assert "contains only 4 negative-slope crossings, need 5" in err
    assert not out.exists()


# omega_sense sits 2 % above omega_calib, on the last point of a
# +-2 % grid; the run simulated, then exited 1 with an error naming no field
NARROW_GRID = {"filter": {"freq_window": 0.02}, "plan": {"n_experiments": 20},
               "experiment": {"n_sd": 2}}


@pytest.mark.parametrize("mode", ["denoise", "sweep-beta", "benchmark", "gain-profile"])
def test_grid_without_the_fringe_exits_2_before_simulating(tmp_path, capsys, mode):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(NARROW_GRID))
    out = tmp_path / "run"
    assert main([mode, "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: filter.freq_window = 0.02: the search grid")
    assert "sensing fringe" in err
    assert not out.exists()


def test_edge_maximum_at_run_time_names_the_window(tmp_path, capsys, monkeypatch):
    # noise at a tiny repetition count can still move a maximum onto the edge;
    # the run is recognised by the error's type and writes nothing
    def edge(values, times, params, grid):
        raise GridEdgeError(f"trace 0: correlation maximum at the grid boundary "
                            f"(omega={grid.omega_max:.6g}); widen the search grid")

    monkeypatch.setattr(bench, "estimate_frequencies", edge)
    cfg = fast_config(tmp_path)
    assert main(["sweep-beta", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "correlation maximum at the grid boundary" in err
    assert "(filter.freq_window = 0.15)" in err
    assert not (tmp_path / "run").exists()


#: an error that names a config field (its section, then the key or a colon) or the seed option
_NAMES_A_FIELD = re.compile(r"error: ((sensor|plan|filter|experiment|output)[.:]|--seed: )")
#: the tables each fuzzed mode writes
_MODE_TABLES = {"denoise": ["denoise", "template_estimates"], "sweep-beta": ["sweep_beta"],
                "gain-profile": ["gain_profile"]}


def _mostly(usual, unusual):
    """``usual`` in about four draws of five and ``unusual`` in the fifth, so that most
    examples run to exit 0 while each fault is still drawn.  ``one_of`` would draw each
    half the time, and hypothesis favours the ends of a range, so the fifth is its middle."""
    return st.integers(0, 4).flatmap(lambda pick: unusual if pick == 2 else usual)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["denoise", "sweep-beta", "gain-profile"]),
       basis=st.sampled_from(available_bases()),
       levels=st.one_of(st.none(), st.integers(1, 5)),
       photon_stats=st.sampled_from(PHOTON_MODELS),
       shared_estimate=st.booleans(),
       n_sd=st.one_of(st.none(), st.integers(1, 4)),
       n_sd_values=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       # a narrow search grid may not hold the fringe one step inside its ends
       freq_points=st.integers(3, 401),
       freq_window=_mostly(st.floats(0.05, 0.3), st.floats(0.005, 0.05)),
       # a repetition count of 1 can move the search's maximum onto the grid's edge
       delta_b=st.floats(-4e-6, 4e-6), repetitions=_mostly(st.sampled_from([100, 25000]), st.just(1)),
       # the fringe period is about 0.35 us: a short window may hold no crossing, or fewer than n_sd
       n_experiments=st.integers(2, 6),
       t_stop=_mostly(st.floats(2e-6, 3e-6), st.floats(1.1e-6, 2e-6)),
       seed=_mostly(st.integers(0, 2 ** 64), st.integers(-3, -1)),
       out=_mostly(st.sampled_from(["run", "run/nested"]), st.sampled_from(["afile", "afile/run"])),
       fmt=st.sampled_from([None, "csv", "json", "both"]))
@example(mode="sweep-beta", basis="bior6.8", levels=None, photon_stats="bernoulli-poisson",
         shared_estimate=False, n_sd=2, n_sd_values=[1],
         freq_points=2001, freq_window=0.02, delta_b=2e-6, repetitions=25000,
         n_experiments=6, t_stop=1.75e-6, seed=3, out="run", fmt=None)
def test_valid_config_exits_0_or_names_its_fault(tmp_path_factory, mode, basis, levels,
                                                 photon_stats, shared_estimate, n_sd, n_sd_values,
                                                 freq_points, freq_window, delta_b,
                                                 repetitions, n_experiments, t_stop,
                                                 seed, out, fmt):
    # every config the parser accepts ends in one of three ways: exit 0; exit 2
    # naming a config field or the seed; or exit 1 with the search's edge-maximum error
    cfg = {"plan": {"t_stop": t_stop, "repetitions": repetitions,
                    "n_experiments": n_experiments},
           "filter": {"basis": basis, "levels": levels, "freq_points": freq_points,
                      "freq_window": freq_window, "beta_grid": [-2.0, -1.0, 0.0, 1.0]},
           "experiment": {"photon_stats": photon_stats, "shared_estimate": shared_estimate,
                          "n_sd": n_sd, "n_sd_values": n_sd_values, "delta_b": delta_b}}
    work = tmp_path_factory.mktemp("fuzzed")
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    (work / "afile").write_text("")
    options = ["--seed", str(seed), "--out", str(work / out)] + (["--format", fmt] if fmt else [])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([mode, "--config", str(path), *options])
    err = err.getvalue()
    named = re.match(r"error: ([^ :]+)", err)
    event(f"exit {code}" + (f" naming {named.group(1)}" if code == 2 and named else "")
          + (" (a window with no crossing)" if "only 0 negative-slope crossings" in err else ""))
    if code == 0:
        assert not out.startswith("afile"), err
    else:
        assert sorted(p.name for p in work.iterdir()) == ["afile", "config.json"], err
    if code == 2:
        assert _NAMES_A_FIELD.match(err), err
    elif code == 1:
        assert "correlation maximum at the grid boundary" in err, err
        assert "filter.freq_window" in err, err
    else:
        assert code == 0, err
        suffixes = {None: [".csv", ".json"], "both": [".csv", ".json"]}.get(fmt, [f".{fmt}"])
        assert sorted(p.name for p in (work / out).iterdir()) == sorted(
            ["manifest.json", "summary.txt"]
            + [table + suffix for table in _MODE_TABLES[mode] for suffix in suffixes])
        if mode == "sweep-beta" and ".csv" in suffixes:
            rows = [row for row in read_csv(work / out / "sweep_beta.csv", csv.DictReader)
                    if row["point"] != "fringe"]
            assert rows
            for row in rows:
                mse, bias_sq, variance = (float(row[k]) for k in ("mse", "bias_sq", "variance"))
                assert mse == bias_sq + variance, row


def test_window_of_non_finite_sample_count_exits_2(tmp_path, capsys):
    # (t_stop - t_start) * f_sample overflowed to inf, and n_samples ended in
    # an OverflowError traceback
    cfg = fast_config(tmp_path, plan={"t_stop": 1e300, "f_sample": 1e10})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: plan: the window [9.7e-07, 1e+300] s")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["simulate", "sweep-beta", "gain-profile"])
def test_ensemble_over_the_byte_limit_exits_2(tmp_path, capsys, mode):
    # 1e9 experiments passed every check, and simulate asked numpy for 1e9 traces
    cfg = fast_config(tmp_path, plan={"n_experiments": 10 ** 9})
    out = tmp_path / "run"
    assert main([mode, "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: plan.n_experiments = 1000000000: the {mode} ensemble of ")
    assert f"more than {MAX_ENSEMBLE_BYTES / 2 ** 30:g} GiB" in err
    assert not out.exists()


@pytest.mark.parametrize("mode,section,block,field", [
    ("simulate", "plan", {"repetitions": 10 ** 17}, "plan.repetitions = 100000000000000000"),
    ("sweep-beta", "plan", {"repetitions": 10 ** 17}, "plan.repetitions = 100000000000000000"),
    ("benchmark", "experiment", {"m_values": [25000, 50000, 10 ** 17]},
     "experiment.m_values entry 100000000000000000"),
])
def test_poisson_mean_over_numpy_limit_exits_2(tmp_path, capsys, mode, section, block, field):
    # repetitions * n0 = 1e20 passed every check, and simulate then exited 1
    # with "lam value too large" from numpy's Poisson draw, leaving an empty
    # output directory
    overrides = {"sensor": {"n0": 1000, "n1": 500}, "plan": {"n_experiments": 2}}
    overrides.setdefault(section, {}).update(block)
    cfg = fast_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert main([mode, "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: at sensor.n0 = 1000 photons per repetition")
    assert f"Poisson limit {POISSON_LAM_MAX:.6g}" in err
    assert not out.exists()


def test_poisson_limit_is_numpy_s():
    rng = np.random.default_rng(0)
    rng.poisson(POISSON_LAM_MAX)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(POISSON_LAM_MAX, np.inf))


@pytest.mark.parametrize("mode,section,block,field", [
    # numpy's binomial draw raised "Python int too large to convert to C long"
    pytest.param("simulate", "plan", {"repetitions": 10 ** 19}, "plan: repetitions",
                 id="simulate-repetitions"),
    pytest.param("denoise", "plan", {"repetitions": 10 ** 19}, "plan: repetitions",
                 id="denoise-repetitions"),
    # failed the same way, after the sweeps of the earlier repetition counts
    pytest.param("benchmark", "experiment", {"m_values": [25000, 50000, 10 ** 19]},
                 "experiment.m_values", id="benchmark-m_values"),
    # "int too large to convert to float" inside the mode check
    pytest.param("gain-profile", "experiment", {"n_sd_values": [10 ** 400]},
                 "experiment.n_sd_values", id="gain-profile-n_sd_values"),
    # the depth check computed 2**(levels + 1) and ended in a MemoryError
    pytest.param("sweep-beta", "filter", {"levels": 10 ** 19}, "filter.levels",
                 id="sweep-beta-levels"),
])
def test_integers_beyond_64_bits_exit_2(tmp_path, capsys, mode, section, block, field):
    cfg = fast_config(tmp_path, **{section: block})
    out = tmp_path / "run"
    assert main([mode, "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}")
    assert not out.exists()
