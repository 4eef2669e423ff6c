"""Detection points, ensemble metrics, beta sweeps, and scaling fits."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tmtmag
from tmtmag import (
    AcquisitionPlan,
    BenchmarkSetup,
    FrequencyGrid,
    benchmark_snr,
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
from tmtmag.bench import (
    MAX_BETA_GRID,
    DetectionPointSet,
    EnsembleRun,
    _bucket_keys,
    _clipped_point_sums,
    child_seed,
    detection_crossings,
    ensemble_run_bytes,
    plan_for_detection_count,
    point_stats,
)
from tmtmag.tmt import clamp_details, margin_width, residual_chunks, tmt_denoise
from tmtmag.wavelets import WaveletError, uwt_analyze, uwt_synthesis_rows, uwt_synthesize
from tmtmag.ramsey import shot_noise
from stat_utils import (assert_monotone_tradeoff, assert_stats_identical, fringe_mse_stderr,
                        raw_variance)

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


def test_slow_fringe_crossings_rejected():
    # 2 * pi / omega overflows: the window cannot be counted in periods
    with pytest.raises(ValueError, match="too slow: its period overflows"):
        detection_crossings(1e-322, 0.0, 1.0)


def test_plan_for_detection_count(paper_params):
    plan = AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 10, seed=0)
    for n_sd in (1, 4, 9):
        resized = plan_for_detection_count(plan, OMEGA, n_sd)
        crossings = detection_crossings(OMEGA, resized.t_start, resized.t_stop)
        assert crossings.size == n_sd
    with pytest.raises(ValueError, match="n_sd must be >= 1, got 0"):
        plan_for_detection_count(plan, OMEGA, 0)


def _crossing_midpoint(t_start, omega, n_sd):
    """The midpoint between the n_sd-th and the next crossing, read off the crossing array."""
    period = 2.0 * np.pi / omega
    first = detection_crossings(omega, t_start, t_start + (n_sd + 2) * period)
    return 0.5 * (first[n_sd - 1] + first[n_sd])


@settings(max_examples=300, deadline=None)
@given(t_start=st.floats(0.0, 1e-3), omega=st.floats(1e5, 1e10), n_sd=st.integers(1, 1000))
@example(t_start=0.0, omega=OMEGA, n_sd=1)
@example(t_start=0.25 * 2 * np.pi / OMEGA, omega=OMEGA, n_sd=3)  # t_start on a crossing
def test_plan_for_detection_count_is_the_crossing_midpoint(t_start, omega, n_sd):
    # 16 samples per fringe period keep every resized window above 4 samples
    period = 2.0 * np.pi / omega
    plan = AcquisitionPlan(t_start, t_start + period, 16.0 / period, 1, 1)
    resized = plan_for_detection_count(plan, omega, n_sd)
    assert resized.t_stop.hex() == float(_crossing_midpoint(t_start, omega, n_sd)).hex()


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
    np.testing.assert_array_equal(stats.mse, stats.bias ** 2 + stats.variance)
    assert stats.fringe_averaged_mse == pytest.approx(np.mean(stats.mse), abs=0)


def _point_stats_oracle(at_points, truths):
    """The statistics as ``np.mean`` and powers formed them, ``mse`` being
    ``bias**2 + variance``: the oracle of :func:`point_stats`."""
    dev = at_points - truths[None, :]
    bias = np.mean(dev, axis=0)
    sample_mean = np.mean(at_points, axis=0)
    variance = np.mean((at_points - sample_mean[None, :]) ** 2, axis=0)
    mse = bias ** 2 + variance
    return {"mse": mse, "bias": bias, "sample_mean": sample_mean, "variance": variance,
            "fringe_averaged_mse": float(np.mean(mse))}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n_exp", [2, 37, 200])
@pytest.mark.parametrize("p", [1, 3, 9])
def test_point_stats_match_the_mean_formulas(rng, p, n_exp, order):
    # every field is bit for bit the oracle's, on C- and F-contiguous samples
    # alike; mse is bias**2 + variance, a few ulp from the mean squared deviation
    truths = rng.uniform(0.15, 0.25, p)
    samples = np.asarray(truths + rng.normal(0.0, 0.02, (n_exp, p)), order=order)
    assert samples.flags.f_contiguous if order == "F" else samples.flags.c_contiguous
    points = DetectionPointSet(indices=3 * np.arange(p), times=np.arange(p, dtype=float),
                               truths=truths)
    stats, oracle = point_stats(samples, points), _point_stats_oracle(samples, truths)
    for name in ("mse", "bias", "variance", "sample_mean", "fringe_averaged_mse"):
        np.testing.assert_array_equal(getattr(stats, name), oracle[name], err_msg=name)
    dev = samples - truths[None, :]
    np.testing.assert_allclose(stats.mse, np.mean(dev ** 2, axis=0), rtol=1e-14, atol=0)


def test_ensemble_stats_do_not_depend_on_memory_order(rng):
    # the gather is C-contiguous whatever the layout of the traces, as the
    # sweep's samples are, so the reductions, whose order follows the
    # layout, see the same array (values[:, indices] is F-contiguous)
    values = 0.2 + 0.01 * rng.normal(size=(37, 50))
    points = DetectionPointSet(indices=np.array([3, 17, 40]), times=np.arange(3.0),
                               truths=np.array([0.19, 0.2, 0.21]))
    fortran = np.asfortranarray(values)
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    stats = ensemble_stats(np.ascontiguousarray(values), points)
    assert_stats_identical(ensemble_stats(fortran, points), stats)
    assert_stats_identical(stats, point_stats(np.ascontiguousarray(values[:, points.indices]),
                                              points))


@pytest.mark.parametrize("repetitions", [1000, 25000, 400000])
@pytest.mark.parametrize("photon_stats", ["bernoulli-poisson", "poisson"])
def test_raw_variance_matches_compound_model(paper_params, photon_stats, repetitions):
    omega = sensing_frequency(paper_params, 2e-6)
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, repetitions, 300, seed=42)
    values = simulate_ensemble(paper_params, plan, omega, photon_stats)
    points = find_detection_points(omega, plan, 3, paper_params)
    stats = ensemble_stats(values, points)
    expected = raw_variance(points.times, omega, paper_params, repetitions, photon_stats)
    stderr = expected * np.sqrt(2.0 / (plan.n_experiments - 1))
    assert np.all(np.abs(stats.variance - expected) < 3 * stderr)
    # the raw fringe MSE against its closed-form expectation, the mean of sigma_p^2
    z = ((stats.fringe_averaged_mse - np.mean(expected))
         / fringe_mse_stderr(expected, plan.n_experiments))
    assert abs(z) < 4, f"raw fringe MSE {z:.2f} SE from the closed form"


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


def test_detection_point_set_checks_its_fields():
    # each field is checked by name when the set is built: a negative index
    # would score the last sample, a fractional one would fail in numpy's
    # indexing, and a truth too many in a broadcast of point_stats
    good = {"indices": np.array([0, 2]), "times": np.array([0.0, 1.0]),
            "truths": np.array([0.1, 0.2])}
    for field, value, match in [
            ("indices", np.array([-1, 0]), "indices must be one or more non-negative"),
            ("indices", np.array([0.5, 1.7]), "indices must be one or more non-negative"),
            ("indices", np.array([True, False]), "indices must be one or more non-negative"),
            ("indices", np.array([[0, 2]]), "indices must be one or more non-negative"),
            ("indices", np.array([], dtype=int), "indices must be one or more"),
            ("indices", np.array([2, 0]), "indices must be strictly increasing"),
            ("times", np.array([0.0, 1.0, 2.0]), r"times has shape \(3,\), indices \(2,\)"),
            ("truths", np.array([0.1, 0.2, 0.3]), r"truths has shape \(3,\)"),
            ("truths", np.float64(0.1), r"truths has shape \(\)")]:
        with pytest.raises(ValueError, match=match):
            DetectionPointSet(**{**good, field: value})
    stats = ensemble_stats(np.arange(12.0).reshape(3, 4), DetectionPointSet(**good))
    np.testing.assert_array_equal(stats.sample_mean, [4.0, 6.0])
    np.testing.assert_array_equal(stats.bias, [3.9, 5.8])


def test_detection_point_set_built_from_lists_scores_as_from_arrays():
    # each field is stored as an array, so a set built from lists is checked
    # and scored as the array-built one is
    lists = {"indices": [0, 2], "times": [0.0, 1.0], "truths": [0.1, 0.2]}
    points = DetectionPointSet(**lists)
    for field, value in lists.items():
        assert isinstance(getattr(points, field), np.ndarray)
        np.testing.assert_array_equal(getattr(points, field), value)
    values = np.arange(12.0).reshape(3, 4)
    assert_stats_identical(ensemble_stats(values, points), ensemble_stats(
        values, DetectionPointSet(**{field: np.array(v) for field, v in lists.items()})))
    with pytest.raises(ValueError, match="indices must be strictly increasing"):
        DetectionPointSet(**{**lists, "indices": [2, 0]})


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
    for a, b in zip([again.raw_stats] + again.stats, [result.raw_stats] + result.stats):
        assert_stats_identical(a, b)
    assert again.beta_opt == result.beta_opt


def test_sweep_grid_validation(small_sweep):
    setup, _, _ = small_sweep
    with pytest.raises(ValueError, match="3 values"):
        sweep_beta(setup, [0.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        sweep_beta(setup, [1.0, 0.0, -1.0])


@pytest.mark.parametrize("args, name", [
    ((0.0, 1.0, 0.0), "step"),  # was ZeroDivisionError
    ((0.0, 1.0, np.nan), "step"),  # was "cannot convert float NaN to integer"
    ((0.0, np.inf, 0.1), "stop"),  # was OverflowError
    ((0.0, 1.0, -0.5), "step"),
    ((0.0, 1.0, np.inf), "step"),
    ((np.nan, 1.0, 0.1), "start"),
    ((-np.inf, 1.0, 0.1), "start"),
    ((1.0, 1.0, 0.1), "stop"),
    ((2.0, 1.0, 0.1), "stop"),
])
def test_default_beta_grid_rejects_bad_arguments_by_name(args, name):
    with pytest.raises(ValueError, match=rf"^beta grid {name} must be"):
        default_beta_grid(*args)


def test_default_beta_grid_bounds_its_size():
    # finite bounds whose difference overflows count an infinite span
    for args in ((-1e308, 1e308, 1.0), (0.0, 1e9, 1e-9)):
        with pytest.raises(ValueError, match=rf"^beta grid holds more than {MAX_BETA_GRID} values"):
            default_beta_grid(*args)
    assert default_beta_grid(0.0, (MAX_BETA_GRID - 1) * 0.5, 0.5).size == MAX_BETA_GRID


def _full_synthesis_stats(setup, betas):
    """Statistics at every order from fully synthesized traces, as before point-only synthesis."""
    points = find_detection_points(setup.omega_true, setup.plan, setup.n_sd, setup.params)
    run = EnsembleRun(setup, betas)
    return [ensemble_stats(run.denoised(beta), points) for beta in betas]


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


def _residual_stacks(run):
    """The templates of ``run``, its residual's detail stack and approximation
    band, and ``|S|``, which the run computes chunk by chunk and does not keep."""
    setup = run.setup
    omegas = run.omega_temps[:, None]
    templates = template(setup.plan.times, omegas, setup.params)
    details, approx = uwt_analyze(run.values - templates, setup.basis, run.levels)
    noise, _ = uwt_analyze(shot_noise(setup.plan.times, omegas, setup.params),
                           setup.basis, run.levels)
    return templates, details, approx, np.abs(noise)


def _feed_stacks(monkeypatch, details, noise):
    """Make the point build of a run read the stacks ``details`` and ``noise`` in
    place of its own residual analysis and ``|S|``, one chunk of experiments at a time."""

    def stage(values, *args, at=..., **kwargs):
        for rows, _, _ in residual_chunks(values, *args, **kwargs):
            yield rows, details[:, rows][at], noise[:, rows][at]

    monkeypatch.setattr(tmtmag.bench, "residual_chunks", stage)


def _full_clamp_oracle(run, beta, indices, stacks):
    """The detection samples of the templates plus one full clip and synthesis of
    the residual ``stacks``, ``(templates, details, approximation, |S|)``."""
    templates, details, approx, noise = stacks
    clamped = clamp_details(details, noise, margin_width(beta, run.setup.plan))
    residual = uwt_synthesize(clamped, approx, run.setup.basis)
    return (templates + residual)[:, indices]


def _point_coefficients(run):
    """Level and sample of every residual coefficient the detection rows read."""
    rows = uwt_synthesis_rows(run.values.shape[1], run.points.indices, run.setup.basis,
                              run.levels)
    return np.nonzero(rows.any(axis=2))


@pytest.mark.parametrize("basis", ["haar", "db2", "bior6.8"])
def test_packed_point_clamp_matches_full_clamp(paper_params, monkeypatch, basis):
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 12, seed=29)
    setup = _setup(paper_params, plan, n_sd=3, basis=basis)
    points = find_detection_points(setup.omega_true, plan, 3, paper_params)
    # beta = -400: 10**400 overflows to an infinite width
    betas = (-np.inf, -400.0, -2.0, 0.0, 0.5, 3.0, np.inf)
    run = EnsembleRun(setup, betas)
    np.testing.assert_array_equal(run.points.indices, points.indices)
    np.testing.assert_array_equal(run.points.truths, points.truths)
    assert_stats_identical(run.raw_stats, ensemble_stats(run.values, points))
    indices = points.indices
    stacks = _residual_stacks(run)
    # coefficients with |S| = 0: a finite width zeroes their residual (pins
    # them to the template), an infinite one leaves them raw
    noise = stacks[3]
    noise[0] = 0.0
    noise[2, ::2, : plan.n_samples // 2] = 0.0
    _feed_stacks(monkeypatch, stacks[1], noise)
    scale = np.max(np.abs(run.values))
    for beta in betas:
        got = run.denoised(beta, at_points=True)
        assert got.shape == (plan.n_experiments, indices.size)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, _full_clamp_oracle(run, beta, indices, stacks),
                                   rtol=1e-12, atol=1e-13 * scale)
    # perfect reconstruction: the raw limit is the raw traces, bit for bit,
    # and its statistics are the raw statistics
    for beta in (-np.inf, -400.0):
        np.testing.assert_array_equal(run.denoised(beta, at_points=True),
                                      run.values[:, indices])
        assert_stats_identical(run.stats(beta), run.raw_stats)


@pytest.mark.parametrize("basis", ["haar", "db2", "bior6.8"])
def test_raw_limit_is_exact_on_every_path(paper_params, basis):
    # every path returns the raw samples plus the synthesis of what the clip
    # changes, and an infinite width changes nothing
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 6, seed=41)
    betas = (-np.inf, -400.0)  # 10**400 overflows to an infinite width
    run = EnsembleRun(_setup(paper_params, plan, n_sd=3, basis=basis), betas)
    for beta in betas:
        np.testing.assert_array_equal(run.denoised(beta), run.values)
        np.testing.assert_array_equal(run.denoised(beta, at_points=True),
                                      run.values[:, run.points.indices])
        np.testing.assert_array_equal(
            tmt_denoise(run.values, run.omega_temps, beta, paper_params, plan, basis,
                        run.levels), run.values)
        np.testing.assert_array_equal(
            tmt_denoise(run.values[1], run.omega_temps[1], beta, paper_params, plan, basis,
                        run.levels), run.values[1])


@pytest.mark.parametrize("basis", ["haar", "bior6.8"])
@pytest.mark.parametrize("levels", [1, None])
def test_run_stays_within_its_byte_count(paper_params, basis, levels):
    # the mode check's count bounds the traced peak of building a run, of
    # denoising its full traces and of its point sweep: at 160 experiments;
    # on a fine grid, where the sweep's (K, n_exp, p) detection samples lead
    # (10001 orders at the 10 crossings of a 448-sample window, which a count
    # without them missed by a factor 13); and at 2000 experiments on an
    # 11-point frequency grid, where the per-experiment term leads and the
    # fixed terms would not cover one more trace-sized array while the
    # frequencies are searched.  A chunk holds at most 9600 samples: 200
    # experiments of the 448-sample window come in chunks of 21; and at most
    # 64 traces: the 53-sample window would otherwise take 181, and on the
    # fine grid their bucket sums took the sweep to twice the count.  On the
    # fine grids the count also stays within 1.25 times the peak, so it
    # counts no array that the sweep does not hold (a (K, E, p) array per
    # chunk would take it to 1.75 times on the 53-sample window)
    cases = [(AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 160, seed=43), 3, [0.0], None),
             (AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 50, seed=43), None,
              default_beta_grid(-4.0, 2.0, 6e-4), None),
             (AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 2000, seed=43), 1, [0.0],
              FrequencyGrid.around(paper_params.omega_calib, n_points=11)),
             (AcquisitionPlan(0.2e-6, 3.7e-6, 128e6, 25000, 200, seed=43), None, [0.0], None),
             (AcquisitionPlan(0.97e-6, 0.97e-6 + 53 / 128e6, 128e6, 25000, 200, seed=43), None,
              default_beta_grid(-4.0, 2.0, 6e-4), None)]
    for plan, n_sd, betas, grid in cases:
        setup = _setup(paper_params, plan, n_sd=n_sd, basis=basis, levels=levels, grid=grid)
        tracemalloc.start()
        try:
            run = EnsembleRun(setup, betas)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            run.denoised(betas[0])  # the run's own arrays are traced too
            denoised = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            run.denoised(betas[0], at_points=True)
            swept = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = ensemble_run_bytes(setup, len(betas), len(run.points))
        peak = max(built, denoised, swept)
        assert peak <= count, (plan.n_experiments, built, denoised, swept, count)
        if len(betas) == MAX_BETA_GRID:
            assert count <= 1.25 * peak, (plan.n_samples, peak, count)


@settings(max_examples=30, deadline=None)
@given(inner=st.lists(st.floats(-6.0, 4.0), max_size=12, unique=True),
       ends=st.sets(st.sampled_from([-np.inf, -400.0, 400.0, np.inf])),
       ties=st.integers(0, 6))
@example(inner=[], ends={-np.inf, np.inf}, ties=0)
@example(inner=[-2.0, 0.0], ends={-400.0, 400.0}, ties=6)
@example(inner=[-1.0], ends=set(), ties=1)
def test_bucketed_sweep_matches_full_clamp(paper_params, inner, ends, ties):
    betas = np.array(sorted(set(inner) | ends))
    assume(betas.size > 0)
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 8, seed=37)
    run = EnsembleRun(_setup(paper_params, plan, n_sd=3), betas)
    stacks = templates, details, approx, noise = _residual_stacks(run)
    # |S| = 0 on the finest level of every other trace: clipped to 0 at a
    # finite width, left raw at an infinite one (also at beta = -400)
    noise[0, ::2] = 0.0
    # ties tau = |r| / |S| == width exactly: a power-of-two |S| near
    # |r| / width makes |r| = width * |S| exact and keeps |r| within a
    # factor sqrt(2) of its simulated size
    level, sample = _point_coefficients(run)
    finite = [w for w in (margin_width(b, plan) for b in betas) if 0.0 < w < np.inf]
    for i in range(ties if finite else 0):
        c = (7 * i) % level.size
        at = level[c], i % plan.n_experiments, sample[c]
        width, r = finite[i % len(finite)], details[at]
        s = 2.0 ** np.round(np.log2(abs(r) / width))
        noise[at] = s
        details[at] = np.copysign(width * s, r)
        assert abs(details[at]) / s == width
    # the point path starts from the raw samples, which the run gathered
    # when it was built: keep values = templates + synthesis of the edited
    # residual stacks, and gather them again
    run.values = templates + uwt_synthesize(details, approx, run.setup.basis)
    indices = run.points.indices
    run._raw = np.take(run.values, indices, axis=1)
    scale = np.max(np.abs(run.values))
    with pytest.MonkeyPatch.context() as monkeypatch:  # hypothesis runs many examples
        _feed_stacks(monkeypatch, details, noise)
        for beta in betas:
            np.testing.assert_allclose(run.denoised(beta, at_points=True),
                                       _full_clamp_oracle(run, beta, indices, stacks),
                                       rtol=1e-12, atol=1e-13 * scale)


_KEY_GRIDS = {"default": default_beta_grid(), "fine": default_beta_grid(-4.0, 2.0, 6e-4),
              "single": np.array([0.3])}


@settings(max_examples=40, deadline=None)
@given(base=st.one_of(st.sampled_from(sorted(_KEY_GRIDS)),
                      st.lists(st.floats(-6.0, 4.0), max_size=12, unique=True)),
       ends=st.sets(st.sampled_from([-np.inf, -400.0, 400.0, np.inf])),
       n_exp=st.integers(1, 64), size=st.one_of(st.none(), st.integers(1, 12)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(base="default", ends=set(), n_exp=64, size=None, seed=0)
@example(base="fine", ends=set(), n_exp=23, size=None, seed=1)
@example(base="fine", ends={-np.inf, 400.0}, n_exp=7, size=None, seed=2)
@example(base="single", ends=set(), n_exp=1, size=None, seed=3)
@example(base=[-2.0, 0.0], ends={-400.0, 400.0}, n_exp=5, size=None, seed=4)
@example(base=[], ends={-np.inf, np.inf}, n_exp=3, size=None, seed=5)
@example(base="default", ends={-np.inf, np.inf}, n_exp=2, size=3, seed=6)
def test_bucket_keys_equal_searchsorted(base, ends, n_exp, size, seed):
    # a key is the number of widths below tau = |r| / s: searchsorted's
    # answer, element for element, at tau = 0, inf and NaN (r = s = 0), at
    # every width and at the floats on either side of it, on log-uniform
    # grids (the default and a 10001-order one), on explicit non-uniform
    # ones, on a single order, and with ends whose widths are 0 or inf
    inner = _KEY_GRIDS[base] if isinstance(base, str) else np.array(base, dtype=float)
    betas = np.array(sorted(set(inner.tolist()) | ends))
    assume(betas.size > 0)
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 8, seed=37)
    widths = np.array([margin_width(beta, plan) for beta in betas])[::-1]
    rng = np.random.default_rng(seed)
    finite = widths[(widths > 0.0) & (widths < np.inf)]
    span = np.log10(finite[[0, -1]]) if finite.size else np.zeros(2)
    tau = np.concatenate([[0.0, np.inf], widths, np.nextafter(widths, 0.0),
                          np.nextafter(widths, np.inf),
                          10.0 ** rng.uniform(span[0] - 2.0, span[1] + 2.0, 500)])
    tau = rng.permutation(tau)[:size]
    tau = np.resize(tau, (-(-tau.size // n_exp), n_exp))
    offsets = tau * rng.choice([-1.0, 1.0], tau.shape)
    scales = np.ones(tau.shape)
    offsets.flat[::5] = 0.0  # r = s = 0: tau is NaN
    scales.flat[::5] = 0.0
    scales.flat[1::7] = 0.0  # s = 0 < |r|: tau is inf
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = np.searchsorted(widths, np.abs(offsets) / scales)
    keys = _bucket_keys(offsets, scales, widths, np.empty(offsets.shape))
    np.testing.assert_array_equal(keys, expected)


def test_off_grid_beta_rejected(paper_params):
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 4, seed=3)
    run = EnsembleRun(_setup(paper_params, plan, n_sd=3), [-1.0, 0.0, 1.0])
    assert run.denoised(0.0, at_points=True).shape == (4, 3)
    for beta in (0.5, -np.inf, np.nan):
        with pytest.raises(ValueError, match="beta"):
            run.denoised(beta, at_points=True)
    # the full-trace path clips at any order
    assert run.denoised(0.5).shape == (4, plan.n_samples)


#: the setups that a run rejects on a good grid, by the error they raise
_BAD_SETUPS = {"too short for 41 undecimated levels": {"levels": 40},
               "levels must be >= 0, got -2": {"levels": -2},
               "unknown wavelet basis 'nope'": {"basis": "nope"}}


@pytest.mark.parametrize("betas, match", [
    ([], "at least 1 value"),
    ([0.0, np.nan], "beta must be a number"),
    ([1.0, 0.0], "increasing"),
    ([0.0, 0.0], "increasing"),
    *(([0.0], match) for match in _BAD_SETUPS),
])
def test_run_grid_checked_before_simulating(paper_params, monkeypatch, betas, match):
    # the grid, the basis and the depth are checked before the ensemble is
    # simulated, the basis and the depth with uwt_analyze's WaveletError
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 4, seed=3)

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the grid was checked")

    monkeypatch.setattr(tmtmag.bench, "simulate_ensemble", no_simulation)
    with pytest.raises(WaveletError if match in _BAD_SETUPS else ValueError, match=match):
        EnsembleRun(_setup(paper_params, plan, n_sd=3, **_BAD_SETUPS.get(match, {})), betas)


def _coefficient_bytes(run):
    """Bytes of one (n_exp, C) array, C the coefficients the detection rows read."""
    return run.values.shape[0] * _point_coefficients(run)[0].size * 8


def test_packed_point_clamp_allocates_no_coefficient_array(paper_params):
    # a warm beta reads one order of the swept grid: its traced peak stays
    # below one (n_exp, C) array, C the coefficients the rows touch
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 40, seed=31)
    setup = _setup(paper_params, plan, n_sd=3)
    betas = (-np.inf, -1.0, 0.0, 0.5, np.inf)
    run = EnsembleRun(setup, betas)
    coefficient_bytes = _coefficient_bytes(run)
    run.denoised(0.0, at_points=True)
    for beta in (-np.inf, -1.0, 0.5, np.inf):
        tracemalloc.start()
        try:
            run.denoised(beta, at_points=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < coefficient_bytes, (beta, peak, coefficient_bytes)


def test_bucket_build_allocates_no_coefficient_array(paper_params):
    # the margins, the residual analysis and the buckets go one chunk of
    # experiments at a time: the build's traced peak, all 61 orders of the
    # default grid included, less its (K, n_exp, p) output, is flat in the
    # number of experiments (one more (n_exp, N) array of the added 384
    # experiments would raise it by a fifth); at 512 experiments it is below
    # one (n_exp, C) array
    working = {}
    for n_exp in (128, 512):
        plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, n_exp, seed=31)
        run = EnsembleRun(_setup(paper_params, plan, n_sd=3), default_beta_grid())
        tracemalloc.start()
        try:
            out = run.denoised(run.betas[0], at_points=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        working[n_exp] = peak - out.base.nbytes
    assert working[512] < 1.02 * working[128], working
    assert working[512] < _coefficient_bytes(run), (working, _coefficient_bytes(run))


def test_bucket_stage_working_set(paper_params):
    # the key step forms and checks its guesses inside the keys and the tau
    # array it is given: its traced peak, less the keys, stays within 64 KiB,
    # so a coefficient-sized temporary (465 KiB on this chunk of 64 traces at
    # 930 coefficients) fails.  The whole stage writes into the caller's
    # (K, E, p) samples and holds work and the keys plus the row loop's two
    # bucket sums, cumulated in place (63 KiB; the key step's scratch tops
    # it), less than a third (C, E) array
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 64, seed=31)
    run = EnsembleRun(_setup(paper_params, plan, n_sd=3), default_beta_grid())
    setup = run.setup
    rows = uwt_synthesis_rows(plan.n_samples, run.points.indices, setup.basis, run.levels)
    level, sample = np.nonzero(rows.any(axis=2))
    rows = rows[level, sample]
    _, offsets, scales = next(residual_chunks(
        run.values, run.omega_temps, setup.params, plan, setup.basis, run.levels,
        at=(level, slice(None), sample)))
    widths = run._widths[::-1]
    coefficient_bytes = offsets.size * 8
    assert offsets.shape == (930, 64)
    work = np.empty(offsets.shape)
    tracemalloc.start()
    try:
        keys = _bucket_keys(offsets, scales, widths, work)
        _, key_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert key_peak - keys.nbytes <= 64 * 1024, key_peak - keys.nbytes
    del keys, work
    out = np.empty((widths.size, offsets.shape[1], rows.shape[1]))
    tracemalloc.start()
    try:
        _clipped_point_sums(offsets, scales, rows, widths, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * coefficient_bytes, (peak, coefficient_bytes)


def _clipped_point_sums_reference(offsets, scales, rows, widths):
    """The bucket sums with fresh cumulative sums per detection row, as first written."""
    n_buckets, n_exp = widths.size + 1, offsets.shape[1]
    work = np.empty(offsets.shape)
    keys = _bucket_keys(offsets, scales, widths, work)
    keys += n_buckets * np.arange(n_exp)
    keys = keys.ravel()
    np.copysign(scales, offsets, out=scales)
    finite = np.where(widths < np.inf, widths, 0.0)
    out = np.empty((widths.size, n_exp, rows.shape[1]))
    for j, row in enumerate(rows.T):
        unclipped, clipped = (
            np.bincount(keys, np.multiply(coeffs, row[:, None], out=work).ravel(),
                        n_exp * n_buckets)
            .reshape(n_exp, n_buckets) for coeffs in (offsets, scales))
        cs = np.cumsum(unclipped, axis=1)
        out[:, :, j] = (cs[:, :-1] - cs[:, -1:]
                        + finite * np.cumsum(clipped[:, :0:-1], axis=1)[:, ::-1]).T
    return out


@pytest.mark.parametrize("basis", ["haar", "db2", "bior6.8"])
def test_in_place_bucket_sums_move_no_bit(paper_params, basis):
    # cumulating the bucket sums where bincount leaves them changes no operation
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 40, seed=17)
    run = EnsembleRun(_setup(paper_params, plan, n_sd=3, basis=basis), default_beta_grid())
    rows = uwt_synthesis_rows(plan.n_samples, run.points.indices, basis, run.levels)
    level, sample = np.nonzero(rows.any(axis=2))
    rows = rows[level, sample]
    _, offsets, scales = next(residual_chunks(
        run.values, run.omega_temps, run.setup.params, plan, basis, run.levels,
        at=(level, slice(None), sample)))
    widths = run._widths[::-1]
    expected = _clipped_point_sums_reference(offsets, scales.copy(), rows, widths)
    got = np.empty(expected.shape)
    _clipped_point_sums(offsets, scales, rows, widths, got)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(run._at_points[::-1], run._raw + expected)


def test_full_trace_denoise_allocates_no_ensemble_stack(paper_params):
    # tmt_denoise goes through the residual stage one chunk of traces at a
    # time: its traced peak, less its output, is flat in the number of traces
    # (one more (n_exp, N) array of the added 384 traces would raise it by a
    # fifth)
    working = {}
    for n_exp in (128, 512):
        plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, n_exp, seed=31)
        run = EnsembleRun(_setup(paper_params, plan, n_sd=3), [0.0])
        tracemalloc.start()
        try:
            out = run.denoised(0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        working[n_exp] = peak - out.nbytes
    assert working[512] < 1.02 * working[128], working


def test_run_holds_only_its_traces(paper_params):
    # after construction a run holds its traces and a few small arrays: the
    # margins and the residual's coefficients are computed where they are used
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 200, seed=45)
    EnsembleRun(_setup(paper_params, plan.with_(n_experiments=2), n_sd=3), [0.0])  # lazy imports
    tracemalloc.start()
    try:
        run = EnsembleRun(_setup(paper_params, plan, n_sd=3), default_beta_grid())
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2 * run.values.nbytes, (held, run.values.nbytes)


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
        beta_calib = sweep_beta(
            replace(setup, omega_true=paper_params.omega_calib,
                    plan=plan.with_(seed=child_seed(41, 0))), grid).beta_opt
        assert abs(sense.beta_opt - beta_calib) <= 4 * step + 1e-12


def test_sweep_with_shared_estimate_and_poisson_stats(paper_params):
    plan = AcquisitionPlan(0.97e-6, 1.75e-6, 128e6, 25000, 20, seed=14)
    setup = _setup(paper_params, plan, n_sd=2, shared_estimate=True,
                   photon_stats="poisson")
    grid = default_beta_grid(-3.0, 1.0, 0.5)
    run = EnsembleRun(setup, grid)
    assert np.all(run.omega_temps == run.omega_temps[0])
    assert run.omega_temps[0] == estimate_frequencies(run.values.mean(axis=0), plan.times,
                                                      paper_params, setup.resolved_grid())
    result = sweep_beta(setup, grid)
    assert result.opt_stats.fringe_averaged_mse <= result.raw_stats.fringe_averaged_mse


def _per_trace_chunk_stacks(values, omegas, params, plan, basis, levels, at):
    """The residual stage with one template and one ``|S|`` analysis per trace, whatever
    the frequencies: the path a chunk of one shared frequency used to take."""
    noise = uwt_analyze(shot_noise(plan.times, omegas, params), basis, levels)[0][at]
    residual = template(plan.times, omegas, params)
    details = uwt_analyze(np.subtract(values, residual, out=residual), basis, levels)[0][at]
    return details, np.abs(noise, out=noise)


@pytest.mark.parametrize("basis", ["haar", "db2", "bior6.8"])
def test_shared_estimate_analyses_once_and_moves_no_bit(paper_params, monkeypatch, basis):
    # 70 traces: a full chunk of 64 and a chunk of 6, each of one frequency
    plan = AcquisitionPlan(0.97e-6, 2.14e-6, 128e6, 25000, 70, seed=23)
    setup = _setup(paper_params, plan, n_sd=3, shared_estimate=True, basis=basis)
    betas = default_beta_grid(-3.0, 1.0, 0.5)
    shared = EnsembleRun(setup, betas)
    chunks = list(residual_chunks(shared.values, shared.omega_temps, paper_params, plan, basis,
                                  shared.levels))
    assert [noise.strides[1] for _, _, noise in chunks] == [0, 0]
    assert not any(noise.flags.writeable for _, _, noise in chunks)
    results = {}
    for path in ("shared", "per-trace"):
        if path == "per-trace":
            monkeypatch.setattr(tmtmag.tmt, "_chunk_stacks", _per_trace_chunk_stacks)
        run = EnsembleRun(setup, betas)
        results[path] = (run._at_points, run.denoised(0.0),
                         [run.stats(beta) for beta in betas])
    (points, full, stats), (points_ref, full_ref, stats_ref) = results.values()
    np.testing.assert_array_equal(points, points_ref)
    np.testing.assert_array_equal(full, full_ref)
    for a, b in zip(stats, stats_ref):
        assert_stats_identical(a, b)


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
    # at n_sd = 9 the point synthesis is large enough that OpenBLAS would
    # split a product of it between threads and change the last digits of
    # tmt_fringe_mse; the library takes no BLAS product, and this run keeps
    # it so.  Each run is a fresh process, as the pool size is read when
    # numpy loads OpenBLAS
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


def test_benchmark_run_leaves_numpy_ma_unloaded(tmp_path):
    # importing numpy.ma takes about 15 ms, and np.unique imports it on its
    # first call; a benchmark run (sweeps, scaling fits, export) needs none
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "plan": {"t_stop": 1.36e-6, "n_experiments": 12},
        "experiment": {"n_sd": 1, "m_values": [25000, 50000, 100000]},
        "filter": {"beta_grid": {"start": -3.0, "stop": 1.0, "step": 1.0}},
    }))
    src = str(Path(tmtmag.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, tmtmag.cli\n"
            "assert tmtmag.cli.main(['benchmark', '--config', sys.argv[1], '--seed', '4',\n"
            "                        '--out', sys.argv[2]]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    result = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path / "run")],
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
