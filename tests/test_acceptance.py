"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines
as they complete.  Statistical criteria run at desk scale (ensembles of
200) with the tolerances fixed below.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import tmtmag
from tmtmag import (
    AcquisitionPlan,
    BenchmarkSetup,
    SensorParams,
    benchmark_snr,
    default_beta_grid,
    ensemble_stats,
    find_detection_points,
    fit_scaling,
    gain_profile,
    sensing_frequency,
    signal_amplitude,
    simulate_ensemble,
    simulate_trace,
    snr,
    sweep_beta,
    template,
    tmt_denoise,
)
from tmtmag.bench import child_seed, detection_crossings, snr_stderr
from tmtmag.wavelets import (
    basis_registry,
    default_levels,
    dwt_decompose,
    dwt_reconstruct,
    iuwt_reconstruct,
    uwt_decompose,
)
from stat_utils import assert_monotone_tradeoff

PARAMS = SensorParams.from_contrast(0.2143, 0.196, 3.9e-6, 2.0, 100e-6)
OMEGA_SENSE = sensing_frequency(PARAMS, 2e-6)
N_EXP = 200
BETA_GRID = default_beta_grid(-4.0, 2.0, 0.1)


@contextmanager
def criterion(number: int, title: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {title}: PASS ({time.monotonic() - started:.1f}s)")


def _sensing_setup(plan, n_sd, **kwargs):
    return BenchmarkSetup(params=PARAMS, plan=plan, omega_true=OMEGA_SENSE,
                          n_sd=n_sd, **kwargs)


# ---------------------------------------------------------------------------

def test_criterion_1_perfect_reconstruction():
    with criterion(1, "perfect reconstruction"):
        gen = np.random.default_rng(1001)
        for _ in range(500):
            n = int(gen.integers(16, 4097))
            name = str(gen.choice(["haar", "bior6.8"]))
            x = gen.normal(size=n)
            scale = np.max(np.abs(x))
            levels = int(gen.integers(0, min(8, default_levels(n)) + 1))
            xr = iuwt_reconstruct(uwt_decompose(x, name, levels), name)
            assert np.max(np.abs(xr - x)) / scale < 1e-10
            d_levels = max(1, min(levels, int(np.log2(n))))
            xr = dwt_reconstruct(dwt_decompose(x, name, d_levels), name)
            assert np.max(np.abs(xr - x)) / scale < 1e-10


def test_criterion_2_oracle_equivalence():
    from test_wavelets import dwt_oracle, uwt_oracle

    with criterion(2, "brute-force oracle equivalence"):
        gen = np.random.default_rng(1002)
        for _ in range(100):
            n = int(gen.integers(8, 65))
            name = str(gen.choice(["haar", "bior6.8"]))
            basis = basis_registry(name)
            levels = int(gen.integers(0, min(3, default_levels(n)) + 1))
            x = gen.normal(size=n)
            decomp = uwt_decompose(x, basis, levels)
            d_ref, a_ref = uwt_oracle(x, basis, levels)
            for got, ref in zip(decomp.details, d_ref):
                assert np.max(np.abs(got - ref)) < 1e-12
            assert np.max(np.abs(decomp.approximation - a_ref)) < 1e-12
            d_levels = max(1, levels)
            decomp = dwt_decompose(x, basis, d_levels)
            d_ref, a_ref = dwt_oracle(x, basis, d_levels)
            for got, ref in zip(decomp.details, d_ref):
                assert np.max(np.abs(got - ref)) < 1e-12
            assert np.max(np.abs(decomp.approximation - a_ref)) < 1e-12


def test_criterion_3_statistical_identity():
    with criterion(3, "mse = bias^2 + variance"):
        plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, N_EXP, seed=1003)
        result = sweep_beta(_sensing_setup(plan, 3), default_beta_grid(-4.0, 2.0, 0.25))
        for stats in [result.raw_stats] + result.stats:
            resid = np.abs(stats.mse - (stats.bias ** 2 + stats.variance))
            assert np.max(resid) < 1e-12


def test_criterion_4_raw_limit_and_template_passthrough():
    with criterion(4, "raw limit and template passthrough"):
        plan = AcquisitionPlan(0.97e-6, 1.75e-6, 128e6, 25000, 10, seed=1004)
        trace = simulate_trace(PARAMS, plan, OMEGA_SENSE, 0).values
        out = tmt_denoise(trace, OMEGA_SENSE, -16.0, PARAMS, plan, "bior6.8")
        rel = np.max(np.abs(out - trace)) / np.max(np.abs(trace))
        assert rel < 1e-10
        clean = template(plan.times, OMEGA_SENSE, PARAMS)
        for beta in np.arange(-16.0, 17.0, 1.0):
            passed = tmt_denoise(clean, OMEGA_SENSE, float(beta), PARAMS, plan, "bior6.8")
            assert np.max(np.abs(passed - clean)) < 1e-9


def test_criterion_5_sql_recovery():
    with criterion(5, "raw averaging recovers the standard quantum limit"):
        plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, N_EXP, seed=1005)
        points = find_detection_points(OMEGA_SENSE, plan, 3, PARAMS)
        delta_n = signal_amplitude(points, PARAMS, OMEGA_SENSE, PARAMS.omega_calib)
        pairs = []
        for k, m in enumerate([25000, 50000, 100000, 200000, 400000]):
            sub = plan.with_(repetitions=m, seed=child_seed(plan.seed, k))
            stats = ensemble_stats(simulate_ensemble(PARAMS, sub, OMEGA_SENSE), points)
            pairs.append((m * sub.t_stop, snr(stats, delta_n)))
        fit = fit_scaling(pairs)
        assert 0.45 <= fit.exponent <= 0.55, f"alpha = {fit.exponent:.4f}"
        assert fit.r_squared > 0.99, f"r^2 = {fit.r_squared:.5f}"


def test_criterion_6_bias_variance_tradeoff():
    with criterion(6, "bias-variance trade-off over the filter-order grid"):
        plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, N_EXP, seed=1006)
        r25 = sweep_beta(_sensing_setup(plan, 3), BETA_GRID)
        assert_monotone_tradeoff(r25.stats)
        assert not r25.beta_opt_on_edge
        assert r25.opt_stats.fringe_averaged_mse < r25.raw_stats.fringe_averaged_mse
        plan400 = plan.with_(repetitions=400000, seed=child_seed(plan.seed, 1))
        r400 = sweep_beta(_sensing_setup(plan400, 3), BETA_GRID)
        assert r400.beta_opt <= r25.beta_opt


def test_criterion_7_tmt_scaling_signature():
    with criterion(7, "sub-SQL exponent with a larger prefactor"):
        m_values = [25000, 50000, 100000, 200000, 400000]
        durations = [1.36e-6, 1.75e-6, 2.14e-6, 2.53e-6]
        for i, t_stop in enumerate(durations):
            plan = AcquisitionPlan(0.97e-6, t_stop, 128e6, 25000, N_EXP,
                                   seed=child_seed(1007, i))
            n_sd = detection_crossings(OMEGA_SENSE, plan.t_start, plan.times[-1]).size
            setup = _sensing_setup(plan, n_sd)
            if t_stop >= durations[-2]:
                recs = benchmark_snr(setup, m_values, BETA_GRID)
                raw_fit = fit_scaling([(r.integration_time, r.raw_snr) for r in recs])
                tmt_fit = fit_scaling([(r.integration_time, r.tmt_snr) for r in recs])
                assert tmt_fit.exponent < 0.5, f"t_stop={t_stop}: alpha={tmt_fit.exponent:.3f}"
                assert tmt_fit.prefactor > raw_fit.prefactor
                first = recs[0]
            else:
                first = benchmark_snr(setup, [25000], BETA_GRID)[0]
            assert first.tmt_snr > first.raw_snr, f"t_stop={t_stop}: TMT did not beat raw at 25K"


def test_criterion_8_sampling_frequency_behavior():
    with criterion(8, "sampling-frequency response of raw and TMT SNR"):
        results = {}
        for k, f_sample in enumerate([32e6, 64e6, 128e6]):
            plan = AcquisitionPlan(0.2e-6, 2.13e-6, f_sample, 25000, N_EXP,
                                   seed=child_seed(1008, k))
            res = sweep_beta(_sensing_setup(plan, 5), BETA_GRID)
            points = res.points
            delta_n = signal_amplitude(points, PARAMS, OMEGA_SENSE, PARAMS.omega_calib)
            results[f_sample] = {
                "raw": snr(res.raw_stats, delta_n),
                "raw_se": snr_stderr(res.raw_stats, delta_n),
                "tmt": snr(res.opt_stats, delta_n),
            }
        rates = sorted(results)
        for i in range(len(rates)):
            for j in range(i + 1, len(rates)):
                a, b = results[rates[i]], results[rates[j]]
                gap = abs(a["raw"] - b["raw"])
                assert gap <= 3 * np.hypot(a["raw_se"], b["raw_se"]), (
                    f"raw SNR differs between {rates[i]:.0f} and {rates[j]:.0f} Hz"
                )
        assert results[128e6]["tmt"] >= results[32e6]["tmt"]


def test_criterion_9_calibration_transfer_and_gain():
    with criterion(9, "calibration-transferred gain profile"):
        profiles = {}
        for k, f_sample in enumerate([32e6, 64e6, 128e6]):
            plan = AcquisitionPlan(0.2e-6, 3.7e-6, f_sample, 25000, N_EXP,
                                   seed=child_seed(1009, k))
            setup = _sensing_setup(plan, 1)
            profiles[f_sample] = gain_profile(setup, range(1, 10), BETA_GRID)
        all_gains = []
        nonmonotone = []
        for f_sample, profile in profiles.items():
            gains = np.array([g.gain for g in profile])
            all_gains.extend(gains)
            for g in profile:
                if g.n_sd >= 2:
                    assert g.gain > 1.0, f"f={f_sample:.0f}: gain {g.gain:.2f} at n_sd={g.n_sd}"
            diffs = np.diff(gains)
            nonmonotone.append(bool(np.any(diffs > 0) and np.any(diffs < 0)))
        assert max(all_gains) >= 5.0, f"peak gain {max(all_gains):.2f}"
        assert any(nonmonotone), "every gain profile was monotone in n_sd"


def test_criterion_10_determinism(tmp_path):
    from tmtmag.cli import main

    with criterion(10, "byte-identical reruns, thread-count independent"):
        cfg = {
            "plan": {"t_stop": 1.75e-6, "n_experiments": 50},
            "experiment": {"n_sd": 2},
            "filter": {"beta_grid": {"start": -3.0, "stop": 1.0, "step": 0.5}},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        args = ["sweep-beta", "--config", str(path), "--seed", "31415", "--out"]
        src = str(Path(tmtmag.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        # a, b: two reruns in this process; c, d: fresh processes with the
        # BLAS/OpenMP pools pinned to 1 and to 2 threads
        for name, threads in [("a", None), ("b", None), ("c", "1"), ("d", "2")]:
            out = tmp_path / name
            if threads is None:
                assert main(args + [str(out)]) == 0
            else:
                env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                           PYTHONPATH=pythonpath)
                subprocess.run([sys.executable, "-m", "tmtmag.cli"] + args + [str(out)],
                               env=env, check=True, capture_output=True)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        base = outputs[0]
        for other in outputs[1:]:
            assert set(other) == set(base)
            for name in base:
                if name == "manifest.json":
                    m1 = json.loads(base[name])
                    m2 = json.loads(other[name])
                    m1.pop("duration_seconds"), m2.pop("duration_seconds")
                    assert m1 == m2
                else:
                    assert other[name] == base[name], f"{name} differs between reruns"
