"""Detection points, ensemble metrics, beta sweeps, and scaling fits."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import tmtmag
from tmtmag import (
    AcquisitionPlan,
    BenchmarkSetup,
    benchmark_snr,
    calibrate_beta,
    default_beta_grid,
    ensemble_stats,
    estimate_frequencies,
    find_detection_points,
    fit_scaling,
    gain_profile,
    signal_amplitude,
    simulate_ensemble,
    sensing_frequency,
    snr,
    sweep_beta,
    template,
)
from tmtmag.bench import EnsembleRun, child_seed, detection_crossings, plan_for_detection_count
from tmtmag.tmt import clamp_details, margin_width
from tmtmag.wavelets import uwt_synthesis_rows, uwt_synthesize
from tmtmag.ramsey import envelope
from stat_utils import assert_monotone_tradeoff

OMEGA = 2 * np.pi * 2.8024e6


def _setup(paper_params, plan, delta_b=2e-6, n_sd=1, **kwargs):
    return BenchmarkSetup(params=paper_params, plan=plan,
                          omega_true=sensing_frequency(paper_params, delta_b),
                          n_sd=n_sd, **kwargs)


# ---------------------------------------------------------------------------
# detection points
# ---------------------------------------------------------------------------

def test_first_crossing_near_quarter_period(paper_params):
    plan = AcquisitionPlan(0.0, 1e-6, 128e6, 25000, 10, seed=0)
    points = find_detection_points(OMEGA, plan, 1, paper_params)
    quarter = 0.25 * 2 * np.pi / OMEGA  # ~89.2 ns
    assert quarter == pytest.approx(89.21e-9, rel=1e-3)
    assert abs(points.times[0] - quarter) <= 0.5 / plan.f_sample
    assert points.truths[0] == template(points.times[0], OMEGA, paper_params)


def test_short_window_has_single_point(paper_params):
    plan = AcquisitionPlan(0.97e-6, 1.36e-6, 128e6, 25000, 10, seed=0)
    assert detection_crossings(OMEGA, plan.t_start, plan.times[-1]).size == 1
    points = find_detection_points(OMEGA, plan, 1, paper_params)
    assert len(points) == 1
    with pytest.raises(ValueError, match="crossings"):
        find_detection_points(OMEGA, plan, 2, paper_params)


def test_detection_points_on_negative_slope(paper_params):
    plan = AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 10, seed=0)
    points = find_detection_points(OMEGA, plan, 9, paper_params)
    dt = 1e-12
    slope = (template(points.times + dt, OMEGA, paper_params)
             - template(points.times - dt, OMEGA, paper_params)) / (2 * dt)
    assert np.all(slope < 0)
    assert np.all(np.diff(points.indices) > 0)


def test_n_sd_none_takes_every_crossing(paper_params):
    plan = AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 10, seed=0)
    every = find_detection_points(OMEGA, plan, None, paper_params)
    n_crossings = detection_crossings(OMEGA, plan.t_start, plan.times[-1]).size
    assert len(every) == n_crossings == 10
    first = find_detection_points(OMEGA, plan, n_crossings, paper_params)
    np.testing.assert_array_equal(every.indices, first.indices)
    # 0.2-0.25 us: six samples before the first crossing at ~0.446 us
    short = AcquisitionPlan(0.2e-6, 0.25e-6, 128e6, 25000, 10, seed=0)
    with pytest.raises(ValueError, match=r"^the window \[.* contains only 0 .* need 1$"):
        find_detection_points(OMEGA, short, None, paper_params)


def test_zero_points_rejected(paper_params):
    plan = AcquisitionPlan(0.0, 1e-6, 128e6, 25000, 10, seed=0)
    with pytest.raises(ValueError, match="n_sd"):
        find_detection_points(OMEGA, plan, 0, paper_params)


def test_plan_for_detection_count(paper_params):
    plan = AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 10, seed=0)
    for n_sd in (1, 4, 9):
        resized = plan_for_detection_count(plan, OMEGA, n_sd)
        crossings = detection_crossings(OMEGA, resized.t_start, resized.t_stop)
        assert crossings.size == n_sd


# ---------------------------------------------------------------------------
# ensemble statistics
# ---------------------------------------------------------------------------

def _point_set(values, truth):
    from tmtmag.bench import DetectionPointSet
    return DetectionPointSet(indices=np.array([0]), times=np.array([0.0]),
                             truths=np.array([truth]))


def test_stats_hand_example():
    points = _point_set(None, 0.0)
    stats = ensemble_stats(np.array([[0.0], [2.0]]), points)
    assert stats.mse[0] == pytest.approx(2.0, abs=0)
    assert stats.bias[0] == pytest.approx(1.0, abs=0)
    assert stats.variance[0] == pytest.approx(1.0, abs=0)
    assert stats.mse[0] == stats.bias[0] ** 2 + stats.variance[0]


def test_stats_all_equal_truth():
    points = _point_set(None, 0.7)
    stats = ensemble_stats(np.full((5, 1), 0.7), points)
    assert stats.mse[0] == 0.0
    assert stats.bias[0] == 0.0
    assert stats.variance[0] == 0.0


def test_stats_identity_random(rng):
    from tmtmag.bench import DetectionPointSet
    values = rng.normal(size=(101, 7)) * 0.01 + 0.2
    points = DetectionPointSet(indices=np.arange(7), times=np.arange(7.0),
                               truths=np.full(7, 0.2))
    stats = ensemble_stats(values, points)
    np.testing.assert_allclose(stats.mse, stats.bias ** 2 + stats.variance,
                               rtol=0, atol=1e-12)
    assert stats.fringe_averaged_mse == pytest.approx(np.mean(stats.mse), abs=0)


def test_raw_variance_matches_compound_model(paper_params):
    omega = sensing_frequency(paper_params, 2e-6)
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 300, seed=42)
    values = simulate_ensemble(paper_params, plan, omega)
    points = find_detection_points(omega, plan, 3, paper_params)
    stats = ensemble_stats(values, points)
    p0 = 0.5 * (1 + np.cos(omega * points.times) * envelope(points.times, paper_params))
    per_rep = (p0 * paper_params.n0 + (1 - p0) * paper_params.n1
               + p0 * (1 - p0) * (paper_params.n0 - paper_params.n1) ** 2)
    expected = per_rep / plan.repetitions
    stderr = expected * np.sqrt(2.0 / (plan.n_experiments - 1))
    assert np.all(np.abs(stats.variance - expected) < 3 * stderr)


def test_stats_input_validation(paper_params):
    points = _point_set(None, 0.0)
    with pytest.raises(ValueError, match="2 experiments"):
        ensemble_stats(np.array([[1.0]]), points)
    with pytest.raises(ValueError, match="n_exp, n_samples"):
        ensemble_stats(np.zeros(4), points)
    from tmtmag.bench import DetectionPointSet
    far = DetectionPointSet(indices=np.array([10]), times=np.array([0.0]),
                            truths=np.array([0.0]))
    with pytest.raises(ValueError, match="outside"):
        ensemble_stats(np.zeros((3, 4)), far)


# ---------------------------------------------------------------------------
# SNR and scaling fits
# ---------------------------------------------------------------------------

def test_snr_basics():
    points = _point_set(None, 0.0)
    stats = ensemble_stats(np.array([[0.1], [-0.1]]), points)
    assert snr(stats, 0.0) == 0.0
    quadrupled = ensemble_stats(np.array([[0.2], [-0.2]]), points)
    assert snr(quadrupled, 1.0) == pytest.approx(0.5 * snr(stats, 1.0), rel=1e-12)
    degenerate = ensemble_stats(np.zeros((3, 1)), points)
    with pytest.raises(ValueError, match="positive"):
        snr(degenerate, 1.0)


def test_signal_amplitude_zero_offset(paper_params):
    plan = AcquisitionPlan(0.2e-6, 2e-6, 128e6, 25000, 10, seed=0)
    points = find_detection_points(OMEGA, plan, 3, paper_params)
    assert signal_amplitude(points, paper_params, OMEGA, OMEGA) == 0.0
    assert signal_amplitude(points, paper_params, OMEGA * 1.02, OMEGA) > 0.0


def test_fit_scaling_exact():
    x = np.array([1.0, 4.0, 9.0, 25.0, 100.0])
    fit = fit_scaling(np.column_stack([x, 3.0 * x ** 0.5]))
    assert fit.prefactor == pytest.approx(3.0, rel=1e-9)
    assert fit.exponent == pytest.approx(0.5, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_scaling_validation():
    with pytest.raises(ValueError, match="3 points"):
        fit_scaling([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="positive"):
        fit_scaling([[1.0, 1.0], [2.0, 2.0], [3.0, -1.0]])
    with pytest.raises(ValueError, match="pairs"):
        fit_scaling(np.ones((3, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_scaling([[1.0, 3.0], [4.0, bad], [9.0, 9.0]])


def test_fit_scaling_needs_two_distinct_x_values():
    # one x value made the slope 0/0: the fit came back as y = nan * x^nan
    with pytest.raises(ValueError, match="two distinct x values"):
        fit_scaling([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    fit = fit_scaling([[1.0, 1.0], [1.0, 2.0], [4.0, 3.0]])
    assert np.isfinite(fit.exponent)


# ---------------------------------------------------------------------------
# beta sweeps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_sweep(paper_params):
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 60, seed=8)
    setup = BenchmarkSetup(params=paper_params, plan=plan,
                           omega_true=sensing_frequency(paper_params, 2e-6), n_sd=3)
    grid = np.concatenate([[-16.0], default_beta_grid(-3.0, 1.0, 0.25)])
    return setup, grid, sweep_beta(setup, grid)


def test_sweep_raw_limit_matches_raw(small_sweep):
    setup, grid, result = small_sweep
    assert result.betas[0] == -16.0
    raw_like = result.stats[0]
    np.testing.assert_allclose(raw_like.mse, result.raw_stats.mse, rtol=1e-10)
    np.testing.assert_allclose(raw_like.bias, result.raw_stats.bias, atol=1e-12)
    np.testing.assert_allclose(raw_like.variance, result.raw_stats.variance, rtol=1e-10)


def test_sweep_interior_optimum_beats_raw(small_sweep):
    _, _, result = small_sweep
    assert result.opt_stats.fringe_averaged_mse < result.raw_stats.fringe_averaged_mse
    assert not result.beta_opt_on_edge


def test_sweep_monotone_tradeoff(small_sweep):
    _, _, result = small_sweep
    assert_monotone_tradeoff(result.stats)


def test_sweep_is_deterministic(small_sweep, paper_params):
    setup, grid, result = small_sweep
    again = sweep_beta(setup, grid)
    np.testing.assert_array_equal(again.omega_temps, result.omega_temps)
    for a, b in zip(again.stats, result.stats):
        np.testing.assert_array_equal(a.mse, b.mse)
    assert again.beta_opt == result.beta_opt


def test_sweep_grid_validation(small_sweep):
    setup, _, _ = small_sweep
    with pytest.raises(ValueError, match="3 values"):
        sweep_beta(setup, [0.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        sweep_beta(setup, [1.0, 0.0, -1.0])


def _full_synthesis_stats(setup, betas):
    """Statistics at every order from fully synthesized traces, as before point-only synthesis."""
    points = find_detection_points(setup.omega_true, setup.plan, setup.n_sd, setup.params)
    run = EnsembleRun(setup)
    return [ensemble_stats(run.denoised(beta), points, beta=float(beta)) for beta in betas]


def _assert_stats_close(point, full, truths):
    np.testing.assert_allclose(point.mse, full.mse, rtol=1e-12)
    np.testing.assert_allclose(point.variance, full.variance, rtol=1e-12)
    # the bias crosses zero along a sweep, where a relative bound alone says
    # nothing; rounding of the values scales with their size, the truths'
    np.testing.assert_allclose(point.bias, full.bias, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(truths)))


def test_point_synthesis_sweep_matches_full_synthesis(paper_params):
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 40, seed=23)
    setup = _setup(paper_params, plan, n_sd=3)
    grid = np.concatenate([[-np.inf], default_beta_grid(-3.0, 1.0, 0.25), [np.inf]])
    result = sweep_beta(setup, grid)
    full = _full_synthesis_stats(setup, grid)
    for point, ref in zip(result.stats, full):
        assert point.beta == ref.beta
        _assert_stats_close(point, ref, result.points.truths)
    assert result.beta_opt == grid[np.argmin([s.fringe_averaged_mse for s in full])]


def test_point_synthesis_gain_profile_matches_full_synthesis(paper_params):
    from dataclasses import replace

    plan = AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 30, seed=19)
    setup = _setup(paper_params, plan, n_sd=1)
    grid = default_beta_grid(-3.0, 1.0, 0.25)
    n_sd = 3
    (gain,) = gain_profile(setup, [n_sd], grid)
    # gain_profile's steps for its first n_sd, on fully synthesized traces
    plan_k = plan_for_detection_count(plan, setup.omega_true, n_sd)
    calib = replace(setup, n_sd=n_sd, omega_true=paper_params.omega_calib,
                    plan=plan_k.with_(seed=child_seed(plan.seed, 0, 0)))
    calib_mse = [s.fringe_averaged_mse for s in _full_synthesis_stats(calib, grid)]
    assert gain.beta_calib == grid[np.argmin(calib_mse)]
    sense = replace(setup, n_sd=n_sd, plan=plan_k.with_(seed=child_seed(plan.seed, 0, 1)))
    (full,) = _full_synthesis_stats(sense, [gain.beta_calib])
    assert gain.tmt_fringe_mse == pytest.approx(full.fringe_averaged_mse, rel=1e-12)
    assert gain.gain == pytest.approx(
        np.sqrt(gain.raw_fringe_mse / full.fringe_averaged_mse), rel=1e-12)


def _packed_oracle(run, beta, indices):
    """The detection samples of one full clip and synthesis of ``run``'s residual stacks."""
    clamped = clamp_details(run._residual_details, run._noise_details,
                            margin_width(beta, run.setup.plan))
    residual = uwt_synthesize(clamped, run._residual_approx, run.setup.basis)
    return (run._templates + residual)[:, indices]


@pytest.mark.parametrize("basis", ["haar", "db2", "bior6.8"])
def test_packed_point_clamp_matches_full_clamp(paper_params, basis):
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 12, seed=29)
    setup = _setup(paper_params, plan, n_sd=3, basis=basis)
    points = find_detection_points(setup.omega_true, plan, 3, paper_params)
    run = EnsembleRun(setup)
    np.testing.assert_array_equal(run.points.indices, points.indices)
    np.testing.assert_array_equal(run.points.truths, points.truths)
    raw_stats = ensemble_stats(run.values, points)
    for field in fields(raw_stats):
        np.testing.assert_array_equal(getattr(run.raw_stats, field.name),
                                      getattr(raw_stats, field.name))
    indices = points.indices
    # coefficients with |S| = 0: a finite width zeroes their residual (pins
    # them to the template), an infinite one leaves them raw (fmin passes
    # over the NaN of inf * 0)
    run._noise_details[0] = 0.0
    run._noise_details[2, ::2, : plan.n_samples // 2] = 0.0
    scale = np.max(np.abs(run.values))
    # beta = -400: 10**400 overflows to an infinite width
    for beta in (-np.inf, -400.0, -2.0, 0.0, 0.5, 3.0, np.inf):
        got = run.denoised(beta, at_points=True)
        assert got.shape == (plan.n_experiments, indices.size)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, _packed_oracle(run, beta, indices),
                                   rtol=1e-12, atol=1e-13 * scale)
    # perfect reconstruction: the raw limit is the raw traces
    np.testing.assert_allclose(run.denoised(-np.inf, at_points=True), run.values[:, indices],
                               rtol=1e-12, atol=1e-13 * scale)


def test_packed_point_clamp_allocates_no_coefficient_array(paper_params):
    # a warm beta writes into the packed buffer: its traced peak stays
    # below one (n_exp, C) array, C the coefficients the rows touch
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 40, seed=31)
    setup = _setup(paper_params, plan, n_sd=3)
    run = EnsembleRun(setup)
    rows, _ = uwt_synthesis_rows(plan.n_samples, run.points.indices, setup.basis,
                                 setup.resolved_levels())
    coefficient_bytes = plan.n_experiments * int(rows.any(axis=2).sum()) * 8
    run.denoised(0.0, at_points=True)
    for beta in (-np.inf, -1.0, 0.5, np.inf):
        tracemalloc.start()
        try:
            run.denoised(beta, at_points=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < coefficient_bytes, (beta, peak, coefficient_bytes)


def test_calibrate_beta_runs(paper_params):
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 40, seed=12)
    setup = _setup(paper_params, plan, n_sd=3)
    beta = calibrate_beta(setup, default_beta_grid(-3.0, 1.0, 0.5))
    assert -3.0 <= beta <= 1.0


def test_calibrated_order_brackets_sensing_optimum(paper_params):
    # long-duration claim: the calibration argmin sits next to the sensing
    # argmin.  At ensembles of 200 the argmin itself scatters over a few
    # grid steps (the MSE curve is flat near its minimum), so the one-step
    # bracket is widened by sqrt(2000/200), rounded up to 4 steps.
    from dataclasses import replace

    omega_sense = sensing_frequency(paper_params, 2e-6)
    grid = default_beta_grid()
    step = grid[1] - grid[0]
    for n_sd in (7, 9):
        base = AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 200, seed=41)
        plan = plan_for_detection_count(base, omega_sense, n_sd)
        setup = BenchmarkSetup(params=paper_params, plan=plan,
                               omega_true=omega_sense, n_sd=n_sd)
        sense = sweep_beta(setup, grid)
        beta_calib = calibrate_beta(
            replace(setup, plan=plan.with_(seed=child_seed(41, 0))), grid)
        assert abs(sense.beta_opt - beta_calib) <= 4 * step + 1e-12


def test_sweep_with_shared_estimate_and_poisson_stats(paper_params):
    plan = AcquisitionPlan(0.97e-6, 1.75e-6, 128e6, 25000, 20, seed=14)
    setup = _setup(paper_params, plan, n_sd=2, shared_estimate=True,
                   photon_stats="poisson")
    run = EnsembleRun(setup)
    assert np.all(run.omega_temps == run.omega_temps[0])
    assert run.omega_temps[0] == estimate_frequencies(run.values.mean(axis=0), plan.times,
                                                      paper_params, setup.resolved_grid())
    result = sweep_beta(setup, default_beta_grid(-3.0, 1.0, 0.5))
    assert result.opt_stats.fringe_averaged_mse <= result.raw_stats.fringe_averaged_mse


def test_benchmark_snr_records(paper_params):
    plan = AcquisitionPlan(0.97e-6, 1.75e-6, 128e6, 25000, 40, seed=31)
    setup = _setup(paper_params, plan, n_sd=2)
    recs = benchmark_snr(setup, [25000, 50000, 100000], default_beta_grid(-3.0, 1.0, 0.5))
    assert [r.repetitions for r in recs] == [25000, 50000, 100000]
    assert all(r.integration_time == r.repetitions * plan.t_stop for r in recs)
    assert all(r.tmt_snr > 0 and r.raw_snr > 0 for r in recs)
    # raw SNR grows with repetitions
    assert recs[-1].raw_snr > recs[0].raw_snr


def test_gain_profile_smoke(paper_params):
    plan = AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 30, seed=19)
    setup = _setup(paper_params, plan, n_sd=1)
    gains = gain_profile(setup, [1, 2, 3], default_beta_grid(-3.0, 1.0, 0.5))
    assert [g.n_sd for g in gains] == [1, 2, 3]
    assert all(g.gain > 0 for g in gains)
    assert all(np.isfinite(g.tmt_fringe_mse) for g in gains)
    # beta = -16 margins leave everything raw, so the gain pins to one
    flat = gain_profile(setup, [2], np.array([-16.0, -15.9, -15.8]))
    assert flat[0].gain == pytest.approx(1.0, abs=1e-9)


def test_gain_profile_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at n_sd = 9 the packed point products are large enough for OpenBLAS
    # to split them between threads, which changed the last digits of
    # tmt_fringe_mse; each run is a fresh process, as the pool size is read
    # when numpy loads OpenBLAS
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "plan": {"t_start": 0.2e-6, "t_stop": 3.7e-6, "n_experiments": 50},
        "experiment": {"n_sd_values": [9]},
        "filter": {"beta_grid": {"start": -3.0, "stop": 1.0, "step": 0.5}},
    }))
    src = str(Path(tmtmag.__file__).resolve().parents[1])
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "tmtmag.cli", "gain-profile", "--config", str(config),
                        "--seed", "31415", "--out", str(out), "--format", "csv"],
                       env=env, check=True, capture_output=True)
        tables.append((out / "gain_profile.csv").read_bytes())
    assert tables[0] == tables[1]


def test_child_seed_stability():
    assert child_seed(7, 1) == child_seed(7, 1)
    assert child_seed(7, 1) != child_seed(7, 2)
    assert child_seed(7, 1, 0) != child_seed(7, 1, 1)


def test_benchmark_wrap_points_exist():
    # perfbench/child.py wraps each layer where its caller looks it up; a
    # refactor that moves one of those names must fail here.  The wraps
    # rebind module globals, so they are installed in a fresh process.
    root = Path(__file__).resolve().parents[1]
    src = str(Path(tmtmag.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import child; "
            "child.install_wraps(child.Tracer())")
    result = subprocess.run([sys.executable, "-c", code, str(root / "perfbench")],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _traced_counts(data) -> dict:
    """The counters perfbench/child.py's wraps collect over one ``cli.run`` of ``data``."""
    root = Path(__file__).resolve().parents[1]
    src = str(Path(tmtmag.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import io, json, sys, contextlib; sys.path.insert(0, sys.argv[1]); import child\n"
        "tracer = child.Tracer(); child.install_wraps(tracer)\n"
        "import tmtmag.cli; from tmtmag.config import parse_config\n"
        "config = parse_config(json.loads(sys.argv[2]))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert tmtmag.cli.run(config) == 0\n"
        "print(json.dumps(dict(tracer.counts, n_samples=config.plan.n_samples)))\n")
    result = subprocess.run([sys.executable, "-c", code, str(root / "perfbench"), json.dumps(data)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_benchmark_counts_one_denoised_call_per_beta(tmp_path):
    # perfbench/child.py counts bench.beta_evals as the rows each
    # EnsembleRun.denoised call returns and checks the total against the
    # workload, so a sweep must call it once per beta for all n_exp traces.
    n_exp, n_betas = 5, 7
    data = {"plan": {"t_start": 0.97e-6, "t_stop": 2.14e-6, "n_experiments": n_exp, "seed": 3},
            "filter": {"beta_grid": {"start": -3.0, "stop": 0.0, "step": 0.5}},
            "experiment": {"mode": "sweep-beta", "n_sd": 3},
            "output": {"directory": str(tmp_path / "run"), "formats": ["csv"]}}
    assert _traced_counts(data)["bench.beta_evals"] == n_exp * n_betas


def test_benchmark_row_counter_counts_rows(tmp_path):
    # perfbench/child.py counts cli.rows_written as len(<first argument of
    # export_table>) per written file, so len() of a table must be its row
    # count.  A small traced denoise writes n_exp*N trace rows and n_exp
    # estimate rows, each as CSV and JSON.
    n_exp = 6
    data = {"plan": {"t_stop": 1.36e-6, "n_experiments": n_exp, "seed": 3},
            "experiment": {"mode": "denoise", "n_sd": 1},
            "output": {"directory": str(tmp_path / "run"), "formats": ["csv", "json"]}}
    counts = _traced_counts(data)
    assert counts["cli.rows_written"] == 2 * (n_exp * counts["n_samples"] + n_exp)
