"""CLI runs: artifacts, determinism, serialization round trips."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from tmtmag.bench import DetectionPointSet, ensemble_stats
from tmtmag.cli import _stats_records, export_table, main


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


# ---------------------------------------------------------------------------
# export_table
# ---------------------------------------------------------------------------

def test_export_cardinality(tmp_path):
    points = DetectionPointSet(indices=np.array([0, 1, 2]), times=np.array([0.0, 1.0, 2.0]),
                               truths=np.array([0.1, 0.2, 0.3]))
    values = np.random.default_rng(0).normal(size=(10, 3)) * 0.01 + 0.2
    stats = ensemble_stats(values, points)
    records = _stats_records(stats, points, "raw", None)
    assert len(records) == 4  # 3 per-point records + 1 fringe record
    export_table(records, ["series", "beta", "point", "mse"], tmp_path, "stats",
                 ["csv", "json"], manifest={"mode": "test"})
    rows = list(csv.reader((tmp_path / "stats.csv").open()))
    assert len(rows) == 5  # header + 4 records
    payload = json.loads((tmp_path / "stats.json").read_text())
    assert len(payload["records"]) == 4
    assert payload["manifest"]["mode"] == "test"


def test_export_empty_table(tmp_path):
    export_table([], ["a", "b"], tmp_path, "empty", ["csv", "json"])
    rows = list(csv.reader((tmp_path / "empty.csv").open()))
    assert rows == [["a", "b"]]
    payload = json.loads((tmp_path / "empty.json").read_text())
    assert payload["records"] == []


def test_float_serialization_roundtrip(tmp_path):
    export_table([{"x": 0.1}, {"x": 1.0 / 3.0}], ["x"], tmp_path, "floats", ["csv", "json"])
    rows = list(csv.reader((tmp_path / "floats.csv").open()))
    assert float(rows[1][0]) == 0.1
    assert float(rows[2][0]) == 1.0 / 3.0
    payload = json.loads((tmp_path / "floats.json").read_text())
    assert payload["records"][0]["x"] == 0.1
    assert payload["records"][1]["x"] == 1.0 / 3.0


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
    rows = list(csv.reader((out / "template_estimates.csv").open()))
    assert len(rows) == 13  # header + one estimate per experiment


@pytest.mark.parametrize("beta", [-400.0, float("-inf")])
def test_denoise_raw_limit_returns_raw_traces(tmp_path, beta):
    # 10**400 overflows a float; the margin width saturates to inf
    cfg = fast_config(tmp_path, filter={"beta": beta})
    out = tmp_path / "run"
    assert main(["denoise", "--config", str(cfg), "--seed", "2", "--out", str(out),
                 "--format", "csv"]) == 0
    rows = list(csv.DictReader((out / "denoise.csv").open()))
    raw = np.array([float(r["raw"]) for r in rows])
    denoised = np.array([float(r["denoised"]) for r in rows])
    assert not np.any(np.isnan(denoised))
    assert np.max(np.abs(denoised - raw)) / np.max(np.abs(raw)) < 1e-10


def test_sweep_beta_outputs(tmp_path):
    cfg = fast_config(tmp_path)
    out = tmp_path / "run"
    assert main(["sweep-beta", "--config", str(cfg), "--seed", "3", "--out", str(out),
                 "--format", "csv"]) == 0
    names = set(read_files(out))
    assert names == {"sweep_beta.csv", "summary.txt", "manifest.json"}
    rows = list(csv.reader((out / "sweep_beta.csv").open()))
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
    rows = list(csv.reader((out / "benchmark.csv").open()))
    assert len(rows) == 4
    fits = list(csv.reader((out / "scaling_fits.csv").open()))
    assert [r[0] for r in fits[1:]] == ["raw", "tmt"]


def test_gain_profile_mode(tmp_path):
    cfg = fast_config(tmp_path, experiment={"n_sd_values": [1, 2]},
                      plan={"t_stop": 3.7e-6, "t_start": 0.2e-6})
    out = tmp_path / "run"
    assert main(["gain-profile", "--config", str(cfg), "--seed", "6", "--out", str(out)]) == 0
    rows = list(csv.reader((out / "gain_profile.csv").open()))
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


def test_fit_scaling_requires_points(tmp_path, capsys):
    cfg = fast_config(tmp_path)
    assert main(["fit-scaling", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "points" in capsys.readouterr().err
    cfg2 = fast_config(tmp_path, experiment={"points_file": str(tmp_path / "missing.csv")})
    assert main(["fit-scaling", "--config", str(cfg2), "--out", str(tmp_path / "y")]) == 2


def test_preset_configs_parse():
    from pathlib import Path

    from tmtmag.config import parse_config

    for preset in sorted(Path(__file__).resolve().parents[1].glob("configs/*.json")):
        config = parse_config(preset)
        assert config.plan.repetitions == 25000
